"""Benchmark inputs: one fedcurr config per workload, generated from a seed.

The seed changes only seeds inside the config, never a size, so every seed
asks for the same amount of work and run-to-run spread stays small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The four cases of the shipped configs/theory_verify.ini, copied so that a
# later edit of the shipped grid cannot change what this workload measures.
_CONVEX = {"kind": "convex", "dim": 8, "mu": 0.5, "L": 4, "M": 1, "sigma": 0.1,
           "Q": 4, "T": 20, "J": 5, "B_start": 0.0, "B_end": 0.5, "n_runs": 500}
VERIFY_GRID = {
    "convex_client_schedule": dict(_CONVEX, schedule="client"),
    "convex_data_schedule": dict(_CONVEX, schedule="data"),
    "convex_diminishing_alpha": dict(
        _CONVEX, schedule="client", alpha=0.00625, alpha_mode="inverse_round"
    ),
    "nonconvex_logcosh": {"kind": "nonconvex", "dim": 4, "Q": 4, "T": 20, "J": 5,
                          "alpha": 0.05, "sigma": 0.05, "theta0": 0.4, "n_runs": 200},
}

# ROADMAP's desk run: 20 Dirichlet clients, 50 rounds, client curriculum
# picking 4 participants, many small batches.
RUN_DESK = {
    "dataset": {"n": 2000, "classes": 4, "dim": 10, "noise_low": 0.1, "noise_high": 2.0},
    "partition": {"scheme": "dirichlet", "beta": 0.3, "num_clients": 20},
    "model": {"kind": "softmax"},
    "federation": {"algorithm": "fedavg", "rounds": 50, "local_epochs": 2, "participants": 4},
    "optimizer": {"eta0": 0.05, "momentum": 0.9, "weight_decay": 0.0005, "batch_size": 10},
    "data_curriculum": {"orderings": "curriculum,vanilla", "scoring": "g_loss",
                        "pacing_family": "linear", "pacing_a": 0.8, "pacing_b": 0.2},
    "client_curriculum": {"enabled": "true", "ordering": "curriculum",
                          "pacing_family": "linear", "pacing_a": 0.8, "pacing_b": 0.2,
                          "client_batch_size": 4},
    "run": {"n_trials": 2, "test_n": 2000},
}

# Few large label-skewed shards, an expert-ranked reshuffle, an MLP and big
# batches: the same code as run_desk, dominated by large forward passes.
RUN_WIDE = {
    "dataset": {"n": 8000, "classes": 10, "dim": 20, "noise_low": 0.1, "noise_high": 2.0},
    "partition": {"scheme": "label_skew", "skew_classes": 3, "num_clients": 5,
                  "f_ord": 0.8, "expert_epochs": 10},
    "model": {"kind": "mlp", "hidden_dim": 64},
    "federation": {"algorithm": "fedavg", "rounds": 10, "local_epochs": 2, "participants": 3},
    "optimizer": {"eta0": 0.05, "momentum": 0.9, "weight_decay": 0.0005, "batch_size": 100},
    "data_curriculum": {"orderings": "curriculum,anti,random,vanilla", "scoring": "lg_loss",
                        "pacing_family": "linear", "pacing_a": 0.8, "pacing_b": 0.2},
    "run": {"n_trials": 1, "test_n": 10000},
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # fedcurr subcommand: "run" or "verify"
    config: str  # INI text handed to the command
    threads: int
    rounds: int  # simulated rounds one command completes
    trajectories: int  # (arm, trial) runs, or Monte-Carlo trajectories
    arms: tuple[str, ...] = ()
    classes: int = 0


def _ini(sections: dict[str, dict[str, object]]) -> str:
    out = []
    for name, keys in sections.items():
        out.append(f"[{name}]")
        out.extend(f"{key} = {value}" for key, value in keys.items())
        out.append("")
    return "\n".join(out)


def _run_workload(name: str, base: dict, seed: int, max_threads: int) -> Workload:
    sections = {key: dict(value) for key, value in base.items()}
    sections["run"]["seed"] = random.Random(seed).randrange(2**31)
    arms = tuple(sections["data_curriculum"]["orderings"].split(","))
    jobs = len(arms) * sections["run"]["n_trials"]
    return Workload(
        name=name,
        command="run",
        config=_ini(sections),
        threads=max(1, min(max_threads, jobs)),
        rounds=sections["federation"]["rounds"] * jobs,
        trajectories=jobs,
        arms=arms,
        classes=sections["dataset"]["classes"],
    )


def make(name: str, seed: int, nproc: int) -> Workload:
    """The workload ``name`` for ``seed``; ``nproc`` caps run_wide's threads."""
    if name == "verify_grid":
        rng = random.Random(seed)
        cases = {case: dict(keys, seed=rng.randrange(2**31)) for case, keys in VERIFY_GRID.items()}
        return Workload(
            name=name,
            command="verify",
            config=_ini(cases),
            threads=1,
            rounds=sum(c["n_runs"] * c["T"] for c in cases.values()),
            trajectories=sum(c["n_runs"] for c in cases.values()),
        )
    if name == "run_desk":
        return _run_workload(name, RUN_DESK, seed, max_threads=1)
    if name == "run_wide":
        return _run_workload(name, RUN_WIDE, seed, max_threads=nproc)
    raise ValueError(f"unknown workload {name!r}")
