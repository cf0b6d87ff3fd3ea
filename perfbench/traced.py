"""Traced run: time each fedcurr layer from outside the package.

Usage: python3 perfbench/traced.py <seconds> <work dir> <fedcurr arguments>

Runs the command in this process, alternating an untraced run with a traced
one until ``seconds`` have passed (at least one pair). The traced run wraps
the public functions named in ``LAYERS`` in every fedcurr namespace that
binds them, records one span per call with its parent span, and derives
inclusive and self time from the spans. Prints one JSON line: the per-layer
metrics (times are medians over traced runs), whether every count repeated
exactly, and the digests of each run's outputs.

The trace is single-threaded: a wrapped call from a second thread is an
error, so pass ``--threads 1``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import os
import shutil
import statistics
import sys
import threading
import time
from array import array
from typing import Callable

import numpy as np

import fedcurr.cli
import fedcurr.models

from outputs import output_digests

# module -> public functions wrapped in the traced run.
LAYERS = {
    "config": ("parse_run_config", "parse_theory_config"),
    "data": ("gen_synthetic", "partition", "partition_difficulty"),
    "models": ("grad", "sgd_step", "per_sample_losses", "predict"),
    "curriculum": ("score_samples",),
    "clients": ("score_clients", "client_loss", "select_clients"),
    "federation": ("run_experiment", "client_update", "aggregate", "evaluate",
                   "gradient_dissimilarity", "train_centralized"),
    "theory": ("biased_grad", "verify_convex", "verify_nonconvex"),
}


def _arg(fn: Callable, name: str) -> Callable:
    """Getter for argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    params = list(inspect.signature(fn).parameters)
    if name not in params:
        raise RuntimeError(f"{fn.__module__}.{fn.__name__} has no argument {name!r}")
    index = params.index(name)
    return lambda args, kwargs: args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans of wrapped calls, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.hook = array("q")  # ns spent in the wrapper's pre-call hook
        self.stack: list[int] = []
        self.restore: list[tuple[object, str, object]] = []
        self.thread = threading.get_ident()
        # Counts made at layer boundaries.
        self.batch_constructs = 0
        self.forward_rows = 0
        self.forward_calls = 0
        self.forward_repeats = 0
        self.rounds = 0
        self.n_runs = 0
        self._seen: set[bytes] = set()

    def wrap(self, qualname: str, fn: Callable, pre=None, post=None) -> Callable:
        nid = len(self.names)
        self.names.append(qualname)
        name, parent, start, end, hook = self.name, self.parent, self.start, self.end, self.hook
        stack, clock, thread, ident = self.stack, time.perf_counter_ns, self.thread, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ident() != thread:
                raise RuntimeError(f"{qualname} called from a second thread")
            h0 = clock()
            if pre is not None:
                pre(args, kwargs)
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            hook.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i], end[i], hook[i] = t0, t1, t0 - h0
            if post is not None:
                post(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "fedcurr" or n.startswith("fedcurr.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"fedcurr.{layer}"]
            for fname in functions:
                original = getattr(home, fname, None)
                if not callable(original):
                    raise RuntimeError(f"fedcurr.{layer}.{fname} no longer exists")
                pre, post = self._hooks(fname, original)
                traced = self.wrap(f"{layer}.{fname}", original, pre, post)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self.restore.append((module, attr, original))
                            setattr(module, attr, traced)
        batch = fedcurr.models.Batch
        post_init = batch.__post_init__

        def counted(obj):
            self.batch_constructs += 1
            post_init(obj)

        self.restore.append((batch, "__post_init__", post_init))
        batch.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()

    def _hooks(self, fname: str, fn: Callable):
        if fname in ("grad", "per_sample_losses", "predict"):
            params_of, batch_of = _arg(fn, "params"), _arg(fn, "batch")
            check_repeat = fname != "predict"

            def forward(args, kwargs):
                batch = batch_of(args, kwargs)
                self.forward_rows += len(batch)
                if check_repeat:
                    key = hashlib.blake2b(digest_size=16)
                    key.update(np.ascontiguousarray(params_of(args, kwargs)))
                    key.update(np.ascontiguousarray(batch.x))
                    key.update(str(batch.x.shape).encode())
                    digest = key.digest()
                    self.forward_calls += 1
                    self.forward_repeats += digest in self._seen
                    self._seen.add(digest)

            return forward, None
        if fname == "run_experiment":
            # Repeats count within one (arm, trial) job.
            def enter(args, kwargs):
                self._seen.clear()

            def leave(result):
                self.rounds += len(result)

            return enter, leave
        if fname in ("verify_convex", "verify_nonconvex"):
            n_runs_of = _arg(fn, "n_runs")

            def count_runs(args, kwargs):
                self.n_runs += n_runs_of(args, kwargs)

            return count_runs, None
        return None, None

    def layer_metrics(self) -> dict[str, float]:
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        covered = dur + np.frombuffer(self.hook, dtype=np.int64)
        child = np.bincount(parents[parents >= 0], weights=covered[parents >= 0],
                            minlength=len(names))
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        incl = np.bincount(names, weights=dur, minlength=width) / 1e9
        self_s = np.bincount(names, weights=dur - child, minlength=width) / 1e9
        index = {n: i for i, n in enumerate(self.names)}

        def count(f):
            return int(calls[index[f]])

        def total(*fs):
            return float(sum(incl[index[f]] for f in fs))

        def own(*fs):
            return float(sum(self_s[index[f]] for f in fs))

        def us(f):
            return 1e6 * total(f) / count(f) if count(f) else 0.0

        verify = ("theory.verify_convex", "theory.verify_nonconvex")
        return {
            "models.grad.calls": count("models.grad"),
            "models.grad.us_per_call": us("models.grad"),
            "models.sgd_step.calls": count("models.sgd_step"),
            "models.sgd_step.us_per_call": us("models.sgd_step"),
            "models.batch_constructs": self.batch_constructs,
            "models.per_sample_losses.calls": count("models.per_sample_losses"),
            "models.per_sample_losses.us_per_call": us("models.per_sample_losses"),
            "models.forward_rows": self.forward_rows,
            "models.forward_repeat_frac": (
                self.forward_repeats / self.forward_calls if self.forward_calls else 0.0
            ),
            "curriculum.score_samples.self_s": own("curriculum.score_samples"),
            "clients.score_clients.s": total("clients.score_clients"),
            "clients.client_loss.calls": count("clients.client_loss"),
            "clients.select_clients.us_per_call": us("clients.select_clients"),
            "federation.client_update.calls": count("federation.client_update"),
            "federation.client_update.self_s": own("federation.client_update"),
            "federation.round_ms": (
                1e3 * total("federation.run_experiment") / self.rounds if self.rounds else 0.0
            ),
            "federation.aggregate.us_per_call": us("federation.aggregate"),
            "federation.gradient_dissimilarity.us_per_call": us(
                "federation.gradient_dissimilarity"
            ),
            "federation.evaluate.s": total("federation.evaluate"),
            "federation.train_centralized.s": total("federation.train_centralized"),
            "theory.biased_grad.calls": count("theory.biased_grad"),
            "theory.biased_grad.us_per_call": us("theory.biased_grad"),
            "theory.trajectory_ms": 1e3 * total(*verify) / self.n_runs if self.n_runs else 0.0,
            "theory.verify.self_s": own(*verify),
            "config.parse_s": total("config.parse_run_config", "config.parse_theory_config"),
            "data.gen_synthetic.s": total("data.gen_synthetic"),
            "data.partition.s": total("data.partition"),
            "data.partition_difficulty.s": total("data.partition_difficulty"),
            "cli.jobs": count("federation.run_experiment") + count("theory.verify_convex")
            + count("theory.verify_nonconvex"),
        }


def _run(argv: list[str], out: str) -> tuple[float, int]:
    shutil.rmtree(out, ignore_errors=True)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        rc = fedcurr.cli.main(argv + ["--out", out])
        return time.perf_counter() - t0, rc


def main(seconds: float, work: str, argv: list[str]) -> dict:
    untraced_s, traced_s, layers, digests, failed = [], [], [], [], 0
    began = time.perf_counter()
    while not untraced_s or time.perf_counter() - began < seconds:
        for traced in (False, True):
            out = os.path.join(work, "traced" if traced else "untraced")
            tracer = Tracer()
            if traced:
                tracer.install()
            try:
                wall, rc = _run(argv, out)
            finally:
                tracer.uninstall()
            digests.append(output_digests(out))
            failed += rc != 0
            (traced_s if traced else untraced_s).append(wall)
            if traced:
                layers.append(tracer.layer_metrics())
    # Counts (ints, and the repeat share made of them) must repeat exactly;
    # times are medians over the traced runs.
    counts = [{k: v for k, v in m.items() if isinstance(v, int) or k.endswith("_frac")}
              for m in layers]
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics.update(counts[0])
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    return {
        "metrics": metrics,
        "runs": len(digests),
        "failed": failed,
        "counts_repeat": all(c == counts[0] for c in counts),
        "digests": digests,
    }


if __name__ == "__main__":
    result = main(float(sys.argv[1]), sys.argv[2], sys.argv[3:])
    print(json.dumps(result))
