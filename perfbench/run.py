"""fedcurr benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's config from the seed (see workloads.py), then runs it
against this checkout's ``src/`` the way a user would:

* ``--trace 0`` times ``python -m fedcurr.cli`` subprocesses. It first runs
  the set-up probe (probe.py) several times, then repeats the command until
  ``--seconds`` have passed (at least twice), and prints the
  end-to-end metrics named in BENCHMARK.json, as medians.
* ``--trace 1`` runs traced.py, which times each layer in-process, and
  prints the per-layer metrics named in BENCHMARK.json.

Every command's outputs are checked and their sha256 digests printed; a
command fails if it exits nonzero, if its outputs look wrong, or if they
differ by one byte from the first command's (for run_wide, from a
``--threads 1`` run of the same config). The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads
from outputs import check_outputs, output_digests

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
MIN_COMMANDS = 2
# One invocation must end within 180 s; stop starting commands well before.
BUDGET_S = 150.0
KILL_S = 170.0


def _pinned_env() -> dict[str, str]:
    """Child environment: this checkout's src/ only, and single-threaded BLAS
    so Python threads plus BLAS threads never exceed nproc."""
    env = {k: v for k, v in os.environ.items() if k != "FEDCURR_THREADS"}
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (the file is read
    directly, so no enclosing repository is ever consulted)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    package = os.path.join(SRC, "fedcurr")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


class Runner:
    """Starts child processes one at a time and measures each."""

    def __init__(self, work: str, began: float):
        self.work = work
        self.began = began
        self.env = _pinned_env()
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str], log_name: str) -> tuple[float, float, int]:
        """Run ``argv`` to completion; return wall seconds, peak RSS in MB
        and exit code. The child is killed if the invocation runs long."""
        self.attempted += 1
        timeout = max(1.0, KILL_S - (time.perf_counter() - self.began))
        with open(os.path.join(self.work, log_name), "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, env=self.env, cwd=self.work, stdout=log, stderr=subprocess.STDOUT
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def fail(self, what: str, log_name: str | None = None) -> None:
        """Count a failed run and show it, with the tail of its log."""
        self.failed += 1
        print(f"FAIL {what}", file=sys.stderr)
        if log_name is not None:
            with open(os.path.join(self.work, log_name), encoding="utf-8", errors="replace") as fh:
                print("".join(fh.readlines()[-5:]), file=sys.stderr)


def _probe(runner: Runner, args: list[str], log_name: str, env_info: bool = False):
    out = os.path.join(runner.work, "probe")
    argv = [sys.executable, os.path.join(HERE, "probe.py")]
    argv += (["--env"] if env_info else []) + args + ["--out", out]
    wall, _, rc = runner.spawn(argv, log_name)
    if rc != 0:
        runner.fail(f"set-up probe exited {rc}", log_name)
    return wall


def _environment(runner: Runner, wl: workloads.Workload, args: list[str]) -> dict:
    """Warm the bytecode cache with one untimed probe and describe what the
    children import; refuse to measure a fedcurr outside this checkout."""
    _probe(runner, args, "env.log", env_info=True)
    with open(os.path.join(runner.work, "env.log"), encoding="utf-8") as fh:
        lines = [line for line in fh if line.startswith("{")]
    if not lines:
        sys.exit("perfbench: the set-up probe printed no environment")
    env = json.loads(lines[-1])
    if not env["fedcurr_file"].startswith(os.path.join(SRC, "fedcurr") + os.sep):
        sys.exit(f"perfbench: fedcurr resolves to {env['fedcurr_file']}, not {SRC}")
    env.update(nproc=_nproc(), threads=wl.threads, git_sha=_git_sha(), src_sha256=_src_sha256())
    return env


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _command(runner: Runner, wl, args, out, reference, label) -> tuple[float, float, dict]:
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, "-m", "fedcurr.cli"] + args + ["--out", out]
    wall, rss, rc = runner.spawn(argv, f"{label}.log")
    digests = output_digests(out)
    problems = check_outputs(wl, out)
    if rc != 0:
        problems.append(f"exit code {rc}")
    if reference is not None and digests != reference:
        problems.append(f"outputs differ from the reference: {digests}")
    if problems:
        runner.fail(f"{label}: " + "; ".join(problems), f"{label}.log")
    return wall, rss, digests


def end_to_end(runner: Runner, wl: workloads.Workload, args: list[str], seconds: float):
    out = os.path.join(runner.work, "out")
    reference = None
    if wl.threads > 1:
        one_thread = args[:-1] + ["1"]
        _, _, reference = _command(runner, wl, one_thread, out, None, "threads1")
    # Each command follows its own set-up probe, so the two see the same
    # machine load and their difference (time spent in rounds) is steadier.
    setup, walls, busy, rss = [], [], [], []
    began = time.perf_counter()
    while len(walls) < MIN_COMMANDS or time.perf_counter() - began < seconds:
        spent = time.perf_counter() - runner.began
        if walls and spent + max(walls) > BUDGET_S:
            break
        setup.append(_probe(runner, args, f"probe{len(setup)}.log"))
        wall, peak, digests = _command(runner, wl, args, out, reference, f"run{len(walls)}")
        reference = reference or digests
        walls.append(wall)
        busy.append(wall - setup[-1])
        rss.append(peak)
    while len(setup) < SETUP_PROBES:
        setup.append(_probe(runner, args, f"probe{len(setup)}.log"))
    print("digests " + json.dumps(reference, sort_keys=True))
    busy_s = max(statistics.median(busy), 1e-9)
    print(f"commands {len(walls)}  set-up probes {len(setup)}  wall_s all {walls}")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "rounds_per_s": wl.rounds / busy_s,
        "trajectories_per_s": wl.trajectories / busy_s,
        "peak_rss_mb": statistics.median(rss),
    }


def per_layer(runner: Runner, wl: workloads.Workload, args: list[str], seconds: float):
    one_thread = args[:-1] + ["1"]
    argv = [sys.executable, os.path.join(HERE, "traced.py"), str(seconds), runner.work]
    _, _, rc = runner.spawn(argv + one_thread, "traced.log")
    if rc != 0:
        runner.fail(f"traced run exited {rc}", "traced.log")
        return {}
    with open(os.path.join(runner.work, "traced.log"), encoding="utf-8") as fh:
        result = json.loads(fh.readlines()[-1])
    runner.attempted += result["runs"] - 1
    runner.failed += result["failed"]
    reference = result["digests"][0]
    print("digests " + json.dumps(reference, sort_keys=True))
    if any(d != reference for d in result["digests"]):
        runner.fail(f"traced and untraced outputs differ: {result['digests']}")
    if not result["counts_repeat"]:
        runner.fail("per-layer counts differ between traced runs")
    for name in ("traced", "untraced"):
        problems = check_outputs(wl, os.path.join(runner.work, name))
        if problems:
            runner.fail(f"{name}: " + "; ".join(problems))
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    began = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "fedcurr", "__init__.py")):
        sys.exit(f"perfbench: no fedcurr package under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {opts.workload!r}")
    wl = workloads.make(opts.workload, opts.seed, _nproc())

    work = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{opts.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        config = os.path.join(work, "config.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(wl.config)
        args = [wl.command, config, "--threads", str(wl.threads)]
        runner = Runner(work, began)
        env = _environment(runner, wl, args)
        print("env " + json.dumps(dict(env, workload=wl.name, seed=opts.seed), sort_keys=True))
        if opts.trace:
            metrics = per_layer(runner, wl, args, opts.seconds)
            wanted = spec["per_layer"]
        else:
            metrics = end_to_end(runner, wl, args, opts.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    names = {m["name"] for m in wanted}
    if metrics and set(metrics) != names:
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ names)} do not match BENCHMARK.json")
    print(f"fail_frac = {runner.failed / runner.attempted:.4g} ratio "
          f"({runner.failed} of {runner.attempted} runs failed)")
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
