"""Command-line entry point.

``fedcurr run <config>`` executes the configured federation experiment for
every arm and trial and writes ``metrics.csv`` plus ``summary.csv``;
``fedcurr verify <config>`` drives the convergence-bound verification grid
and writes ``report.csv``. Outputs are byte-identical across reruns and
worker-thread counts; ``--threads`` only affects ``run``.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    TEST_SEED_OFFSET,
    ConfigError,
    RunConfig,
    TheoryConfig,
    expand_curriculum_arm,
    parse_run_config,
    parse_theory_config,
)
from .curriculum import ScoringKind
from .data import Dataset, Partition, gen_synthetic, partition, partition_difficulty
from .errors import ConfigurationError
from .federation import ExperimentConfig, RoundMetrics, run_experiment, train_centralized
from .models import per_sample_losses
from .theory import (
    BiasKind,
    NonconvexProblem,
    constant_stepsizes,
    inverse_round_stepsizes,
    make_bias_schedule,
    make_quadratic,
    verify_convex,
    verify_nonconvex,
)

METRIC_COLUMNS = (
    "round,algorithm,ordering,scoring,pacing_family,pacing_a,pacing_b,seed,"
    "test_acc,test_loss,mean_client_loss,lambda,subset_frac"
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class TrialData:
    seed: int
    ds: Dataset
    part: Partition
    test: Dataset
    expert_params: np.ndarray | None


def _build_trial(cfg: RunConfig, trial: int) -> TrialData:
    seed = cfg.seed + trial
    d = cfg.dataset
    ds = gen_synthetic(d.n, d.classes, d.dim, d.noise_low, d.noise_high, seed)
    test = gen_synthetic(
        cfg.test_n, d.classes, d.dim, d.noise_low, d.noise_high, seed + TEST_SEED_OFFSET
    )
    spec = replace(cfg.partition, seed=seed)
    part = partition(ds, spec)
    expert = None
    if spec.f_ord is not None or cfg.scoring is ScoringKind.EXPERT:
        expert = train_centralized(cfg.model, ds, cfg.hyper, cfg.expert_epochs, seed)
    if spec.f_ord is not None:
        losses = per_sample_losses(cfg.model, expert, ds.batch())
        part = partition_difficulty(ds, part, spec.f_ord, losses, seed)
    return TrialData(seed=seed, ds=ds, part=part, test=test, expert_params=expert)


def _run_one(cfg: RunConfig, arm: str, data: TrialData) -> list[RoundMetrics]:
    exp = ExperimentConfig(
        model=cfg.model,
        num_clients=cfg.partition.num_clients,
        participants=cfg.participants,
        rounds=cfg.rounds,
        local_epochs=cfg.local_epochs,
        algorithm=cfg.algorithm,
        mu_prox=cfg.mu_prox,
        data_curriculum=expand_curriculum_arm(cfg, arm),
        client_curriculum=cfg.client_curriculum,
        hyper=cfg.hyper,
        seed=data.seed,
    )
    return run_experiment(
        exp, data.ds, data.part, data.test.batch(), expert_params=data.expert_params
    )


def _metric_row(cfg: RunConfig, arm: str, seed: int, m: RoundMetrics) -> str:
    if arm == "vanilla":
        scoring, family = "none", "none"
        a = b = 0.0
    else:
        scoring, family = cfg.scoring.value, cfg.pacing_family.value
        a, b = cfg.pacing_a, cfg.pacing_b
    cells = [
        str(m.round), cfg.algorithm.value, arm, scoring, family,
        _fmt(a), _fmt(b), str(seed),
        _fmt(m.test_acc), _fmt(m.test_loss), _fmt(m.mean_client_loss),
        _fmt(m.lam), _fmt(m.subset_frac),
    ]
    return ",".join(cells)


def command_run(cfg: RunConfig, out_dir: str, threads: int) -> int:
    os.makedirs(out_dir, exist_ok=True)
    trials = [_build_trial(cfg, i) for i in range(cfg.n_trials)]
    jobs = [(arm, data) for arm in cfg.arms for data in trials]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda job: _run_one(cfg, *job), jobs))
    else:
        results = [_run_one(cfg, *job) for job in jobs]

    metrics_path = os.path.join(out_dir, "metrics.csv")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(METRIC_COLUMNS + "\n")
        for (arm, data), rows in zip(jobs, results):
            for m in rows:
                fh.write(_metric_row(cfg, arm, data.seed, m) + "\n")

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("ordering,n_trials,final_acc_mean,final_acc_std\n")
        for arm in cfg.arms:
            finals = [rows[-1].test_acc for (a, _), rows in zip(jobs, results) if a == arm]
            mean = float(np.mean(finals))
            std = float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0
            fh.write(f"{arm},{len(finals)},{_fmt(mean)},{_fmt(std)}\n")
            print(f"{arm}: final accuracy {mean:.4f} +/- {std:.4f} over {len(finals)} trials")
    print(f"wrote {metrics_path} and {summary_path}")
    return 0


def _run_convex_case(case):
    prob = make_quadratic(case.dim, case.mu, case.lipschitz, case.problem_seed)
    alpha = case.alpha
    if alpha <= 0:
        alpha = 1.0 / (8.0 * (3.0 + 2.0 * case.rel_var) * case.lipschitz)
    if case.alpha_mode == "constant":
        sched = constant_stepsizes(alpha, case.rounds, case.local_steps)
    else:
        sched = inverse_round_stepsizes(alpha, case.rounds, case.local_steps)
    kind = BiasKind.CLIENT_BASED if case.schedule == "client" else BiasKind.DATA_BASED
    bias = make_bias_schedule(kind, case.rounds, case.local_steps, case.b_start, case.b_end)
    theta0 = prob.theta_star + case.theta0_scale * np.ones(case.dim)
    report = verify_convex(
        prob, sched, bias, case.rel_var, case.sigma**2, case.clients,
        theta0, case.n_runs, np.random.default_rng(case.seed),
    )
    return case, "convex", case.schedule, report


def _run_nonconvex_case(case):
    prob = NonconvexProblem(dim=case.dim)
    sched = constant_stepsizes(case.alpha, case.rounds, case.local_steps)
    theta0 = case.theta0_scale * np.ones(case.dim)
    report = verify_nonconvex(
        prob, sched, case.clients, theta0, case.n_runs,
        np.random.default_rng(case.seed), sigma=case.sigma,
    )
    return case, "nonconvex", "none", report


def command_verify(cfg: TheoryConfig, out_dir: str) -> int:
    """Run the cases one after another in config order. Each case batches
    its Monte-Carlo runs, so worker threads would only contend on the GIL."""
    os.makedirs(out_dir, exist_ok=True)
    results = [_run_convex_case(c) for c in cfg.convex]
    results += [_run_nonconvex_case(c) for c in cfg.nonconvex]

    report_path = os.path.join(out_dir, "report.csv")
    any_failed = False
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("case,kind,T,J,Q,schedule,empirical,bound,slack,passed\n")
        for case, kind, schedule, rep in results:
            slack = rep.bound - rep.empirical
            fh.write(
                f"{case.name},{kind},{case.rounds},{case.local_steps},{case.clients},"
                f"{schedule},{_fmt(rep.empirical)},{_fmt(rep.bound)},{_fmt(slack)},"
                f"{int(rep.passed)}\n"
            )
            status = "PASS" if rep.passed else "FAIL"
            print(
                f"{status} {case.name}: empirical={rep.empirical:.6g} "
                f"bound={rep.bound:.6g} slack={slack:.6g}"
            )
            any_failed = any_failed or not rep.passed
    print(f"wrote {report_path}")
    return 1 if any_failed else 0


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
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads for run; verify ignores it "
                            "(default: FEDCURR_THREADS or 1)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("FEDCURR_THREADS", "1"))
    if threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            cfg = parse_run_config(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
                cfg.partition = replace(cfg.partition, seed=args.seed)
            return command_run(cfg, args.out, threads)
        tcfg = parse_theory_config(args.config)
        if args.seed is not None:
            for case in tcfg.convex + tcfg.nonconvex:
                case.seed = args.seed
        return command_verify(tcfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigurationError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
