"""Set-up probe: run a fedcurr command up to the start of its first round or
Monte-Carlo trajectory, then end the process at once.

Usage: python3 perfbench/probe.py [--env] <fedcurr arguments>

The wall time of this process, measured by its parent, is the command's
set-up time: interpreter start, ``import fedcurr``, config parsing and every
trial's data (or, for verify, the first case's problem and bound). With
``--env`` it first prints one JSON line describing the environment the
command sees.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading


def _environment() -> dict:
    import numpy as np

    import fedcurr

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "fedcurr_file": os.path.abspath(fedcurr.__file__),
    }


def main(argv: list[str]) -> int:
    show_env = argv[:1] == ["--env"]
    if show_env:
        argv = argv[1:]
    from fedcurr import cli, theory

    first = threading.Lock()

    def first_round(*args, **kwargs):
        first.acquire()  # never released: a second pool thread waits for the exit
        if show_env:
            print(json.dumps(_environment()), flush=True)
        os._exit(0)  # also ends the process when called from a pool thread

    # Each run job enters run_experiment, and each trajectory _simulate_rounds,
    # only after its set-up is done.
    for module, name in ((cli, "run_experiment"), (theory, "_simulate_rounds")):
        if not callable(getattr(module, name, None)):
            print(f"probe: {module.__name__}.{name} no longer exists", file=sys.stderr)
            return 3
        setattr(module, name, first_round)
    rc = cli.main(argv)
    print(f"probe: command ended (exit {rc}) without starting a round", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
