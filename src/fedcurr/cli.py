"""Command-line entry point.

``fedcurr run <config>`` executes the configured federation experiment for
every arm and trial and writes ``metrics.csv`` plus ``summary.csv``;
``fedcurr verify <config>`` runs each case of the convergence-bound
verification grid (a ``fedcurr.theory`` case runs itself through
``verify()``) and writes ``report.csv``; ``_write_csv`` writes each file's
rows, mappings from column name to cell, under their keys as the header.
Outputs are byte-identical across reruns and ``--threads`` counts;
``--threads`` only affects ``run``, where it is the number of processes
among which the (arm, trial) jobs are shared; each process runs its share's
jobs in lockstep by round. Both commands run numpy's OpenBLAS on one
thread, so outputs do not depend on ``OPENBLAS_NUM_THREADS`` either.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import os
import pickle
import sys
import traceback
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .config import TEST_SEED_OFFSET, RunConfig, parse_run_config, parse_theory_config
from .curriculum import ScoringKind
from .data import gen_synthetic, partition, partition_difficulty
from .errors import ConfigurationError
from .federation import (
    DataCurriculumConfig,
    ExperimentConfig,
    Job,
    JobResult,
    RoundMetrics,
    run_experiment,
    train_centralized,
)
from .models import per_sample_losses
from .theory import ConvexCase, NonconvexCase


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: str, rows: list[dict]) -> None:
    """Write ``rows``, each a mapping from column name to cell, under a
    header of the first row's keys. A float cell takes 17 significant
    digits, so reruns are byte-identical; a cell holding a comma or a quote
    is quoted, as the CSV standard does."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) if isinstance(v, float) else v for k, v in row.items()})


def _build_trial(cfg: RunConfig, trial: int) -> tuple[int, tuple]:
    """A trial's seed, and the dataset, partition, test batch and expert losses
    that its jobs share. The expert runs over the dataset once if ``f_ord`` or an
    arm ranks by it (else None); a non-finite loss fails the trial at once."""
    seed = cfg.experiment.seed + trial
    model, hyper = cfg.experiment.model, cfg.experiment.hyper
    d = cfg.dataset
    ds = gen_synthetic(d.n, d.classes, d.dim, d.noise_low, d.noise_high, seed)
    test = gen_synthetic(
        cfg.test_n, d.classes, d.dim, d.noise_low, d.noise_high, seed + TEST_SEED_OFFSET
    ).batch()
    f_ord = cfg.partition.f_ord
    part = partition(ds, cfg.partition, seed)
    losses = None
    if f_ord is not None or any(
        arm is not None and arm.scoring is ScoringKind.EXPERT for arm in cfg.arms
    ):
        expert = train_centralized(model, ds, hyper, cfg.expert_epochs, seed)
        with np.errstate(all="ignore"):
            losses = per_sample_losses(model, expert, ds.batch())
        if not np.isfinite(losses).all():
            raise FloatingPointError("expert training: non-finite loss at the expert model")
    if f_ord is not None:
        part = partition_difficulty(ds, part, f_ord, losses, seed)
    return seed, (ds, part, test, losses)


def _ordering(arm: DataCurriculumConfig | None) -> str:
    return "vanilla" if arm is None else arm.ordering.value


def _metric_row(exp: ExperimentConfig, m: RoundMetrics) -> dict:
    arm = exp.data_curriculum
    if arm is None:
        scoring, family = "none", "none"
        a = b = 0.0
    else:
        scoring, family = arm.scoring.value, arm.pacing.family.value
        a, b = arm.pacing.a, arm.pacing.b
    return {
        "round": m.round, "algorithm": exp.algorithm.value, "ordering": _ordering(arm),
        "scoring": scoring, "pacing_family": family, "pacing_a": a, "pacing_b": b,
        "seed": exp.seed, "test_acc": m.test_acc, "test_loss": m.test_loss,
        "mean_client_loss": m.mean_client_loss, "lambda": m.lam, "subset_frac": m.subset_frac,
    }


def _worker(jobs: list[Job], share: range, fd: int) -> None:
    """Body of a forked worker: run ``share``, write the pickled result to
    ``fd`` and end the process without returning to the caller's stack. A
    share that runs out of memory sends a plain ``MemoryError`` as its
    result: numpy's subclass cannot be built from a message."""
    code = 1
    try:
        try:
            result = run_experiment([jobs[i] for i in share])
        except MemoryError as exc:
            result = MemoryError(str(exc))
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(result, fh)
        code = 0
    except BaseException:  # a bug, or an unpicklable error: show it, exit 1
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def _read_share(pid: int, fd: int) -> list[JobResult]:
    """The result a worker wrote to ``fd``; reaps the worker. A worker that
    ends without one, say killed for memory, raises ChildProcessError, and
    one that ran out of memory raises its MemoryError."""
    try:
        with os.fdopen(fd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(f"job worker {pid} failed ({how})")
    result = pickle.loads(payload)
    if isinstance(result, MemoryError):
        raise result
    return result


def _run_jobs(jobs: list[Job], processes: int) -> list[list[RoundMetrics]]:
    """Each job's round metrics, in job order.

    The jobs are dealt into ``p = min(processes, len(jobs))`` fixed shares,
    share ``k`` being ``jobs[k::p]``, and each share's jobs run in lockstep
    by round through one ``run_experiment`` call. Shares 1..p-1 run in
    workers forked here, after every trial's data is built, so the workers
    inherit the data and send back only their metrics; the parent runs share
    0 itself before it waits on any worker. A worker that ends without its
    result, say killed for memory, fails the run with ChildProcessError, and
    one that runs out of memory with its MemoryError. The
    process runs no threads of its own when it forks. With one share, or
    where ``fork`` does not exist, no process is started. Each job's rows or
    error are those of its run alone, so the first failed job in job order
    is the one a run in job order would stop at: its error is raised, its
    message starting with the job's ordering and seed, as ``metrics.csv``
    writes them.
    """
    p = min(processes, len(jobs)) if hasattr(os, "fork") else 1
    shares = [range(k, len(jobs), p) for k in range(p)]
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe), not yet reaped
    try:
        for share in shares[1:]:
            sys.stdout.flush()  # a worker must not write the parent's buffered output
            sys.stderr.flush()
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                for fd in [read_fd] + [fd for _, fd in workers]:
                    os.close(fd)
                _worker(jobs, share, write_fd)
            os.close(write_fd)
            workers.append((pid, read_fd))
        outcomes = [run_experiment([jobs[i] for i in shares[0]])]
        while workers:
            outcomes.append(_read_share(*workers.pop(0)))
    finally:
        if workers:  # the parent failed: stop and reap the rest
            import signal

            for pid, fd in workers:
                os.close(fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results: list[JobResult] = [[] for _ in jobs]
    for share, entries in zip(shares, outcomes):
        for i, entry in zip(share, entries):
            results[i] = entry
    for (exp, *_), entry in zip(jobs, results):
        if isinstance(entry, Exception):
            name = f"{_ordering(exp.data_curriculum)} arm, seed {exp.seed}"
            raise type(entry)(f"{name}: {entry}") from entry
    return results


def command_run(cfg: RunConfig, out_dir: str, processes: int) -> int:
    trials = [_build_trial(cfg, i) for i in range(cfg.n_trials)]
    # Arm by arm over the trials: metrics.csv, the shares and the summary rely on it.
    jobs: list[Job] = [
        (replace(cfg.experiment, seed=seed, data_curriculum=arm), *shared)
        for arm in cfg.arms
        for seed, shared in trials
    ]
    results = _run_jobs(jobs, processes)

    metrics_path = os.path.join(out_dir, "metrics.csv")
    _write_csv(metrics_path, [
        _metric_row(exp, m) for (exp, *_), rows in zip(jobs, results) for m in rows
    ])
    n = len(trials)
    summary = []
    for a, arm in enumerate(cfg.arms):
        finals = [rows[-1].test_acc for rows in results[a * n : (a + 1) * n]]
        summary.append({
            "ordering": _ordering(arm), "n_trials": n, "final_acc_mean": float(np.mean(finals)),
            "final_acc_std": float(np.std(finals, ddof=1)) if n > 1 else 0.0,
        })
    summary_path = os.path.join(out_dir, "summary.csv")
    _write_csv(summary_path, summary)
    for row in summary:
        print(f"{row['ordering']}: final accuracy {row['final_acc_mean']:.4f} "
              f"+/- {row['final_acc_std']:.4f} over {n} trials")
    print(f"wrote {metrics_path} and {summary_path}")
    return 0


_CASE_ERRORS = (FloatingPointError, ValueError, MemoryError)


def command_verify(cases: list[ConvexCase | NonconvexCase], out_dir: str) -> int:
    """Run the cases one after another in config order, in this process;
    each case batches its Monte-Carlo runs. ``--threads`` does not apply. A
    case whose bound or mean is not finite, or whose arrays do not fit in
    memory, stops the command, its error naming the case, before
    ``report.csv`` is written. The error is raised again as its plain type:
    a subclass such as numpy's ``MemoryError`` cannot be built from a
    message."""
    reports = []
    for case in cases:
        try:
            reports.append(case.verify())
        except _CASE_ERRORS as exc:
            kind = next(k for k in _CASE_ERRORS if isinstance(exc, k))
            raise kind(f"case {case.name}: {exc}") from exc

    rows = [{
        "case": case.name, "kind": case.kind, "T": case.rounds, "J": case.local_steps,
        "Q": case.clients, "schedule": "none" if case.schedule is None else case.schedule.value,
        "empirical": rep.empirical, "bound": rep.bound, "slack": rep.bound - rep.empirical,
        "passed": int(rep.passed),
    } for case, rep in zip(cases, reports)]
    report_path = os.path.join(out_dir, "report.csv")
    _write_csv(report_path, rows)
    for row in rows:
        print(f"{'PASS' if row['passed'] else 'FAIL'} {row['case']}: "
              f"empirical={row['empirical']:.6g} bound={row['bound']:.6g} slack={row['slack']:.6g}")
    print(f"wrote {report_path}")
    return 0 if all(rep.passed for rep in reports) else 1


def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded from its wheel's library directory, or None when there is none."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    paths = glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(site, "numpy", ".dylibs", "*openblas*"))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                    set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.

    A matrix product split across BLAS threads can sum in another order, so
    outputs would depend on the BLAS thread count; and BLAS threads on top
    of the job processes oversubscribe the cores. Forked workers inherit the
    pin. Without a known OpenBLAS the block runs as it is."""
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, set_ = api
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedcurr",
        description="curriculum federated-learning simulator and bound verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run the federation experiment described by a config file"),
        ("verify", "run the convergence-bound verification grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the sectioned key=value config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--threads", type=int, default=1,
                       help="processes running (arm, trial) jobs at once for run, "
                            "an integer >= 1; verify ignores it (default: 1)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    if args.threads < 1:
        print(f"error: --threads must be an integer >= 1, got '{args.threads}'", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print(f"error: --seed must be an integer >= 0, got '{args.seed}'", file=sys.stderr)
        return 2

    with _one_blas_thread():
        return _main(args)


def _main(args: argparse.Namespace) -> int:
    # Every invalid config fails here, before any work starts.
    try:
        if args.command == "run":
            cfg = parse_run_config(args.config)
            if args.seed is not None:
                cfg.experiment = replace(cfg.experiment, seed=args.seed)
        else:
            cfg = parse_theory_config(args.config)
            if args.seed is not None:
                for case in cfg:
                    case.seed = args.seed
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:  # before any work too: the commands write into it
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: --out '{args.out}': {exc.strerror or exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return command_run(cfg, args.out, args.threads)
        return command_verify(cfg, args.out)
    except (ValueError, FloatingPointError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
