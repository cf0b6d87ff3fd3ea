"""Sectioned key=value run configurations.

The format is INI-style: ``[section]`` headers with one ``key = value`` per
line. ``parse_run_config`` builds the federation experiment description;
``parse_theory_config`` builds the list of bound-verification cases.

All validation happens while parsing, before any work starts, and every
failure raises ``ConfigurationError``: syntax problems carry configparser's
line-numbered message, everything else names the offending key and section.
Range rules live once, in the ``__post_init__`` of the domain dataclasses;
the parser builds those objects and maps the field a failed check names back
to the key it was read from.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from .clients import ClientSelectionConfig
from .curriculum import OrderingKind, PacingFamily, PacingSpec, ScoringKind
from .data import PartitionSpec, Scheme, _check_feasible, _check_synthetic
from .errors import ConfigurationError
from .federation import Algorithm, DataCurriculumConfig, ExperimentConfig
from .models import ModelKind, ModelSpec, SgdHyper

DEFAULT_SEED = 202207
# Offset between the training-data seed and the held-out test-data seed.
TEST_SEED_OFFSET = 7919

ARMS = ("curriculum", "anti", "random", "vanilla")

_HYPER_KEYS = {
    "eta0": float, "decay_alpha": float, "decay_b": float,
    "momentum": float, "weight_decay": float, "batch_size": int,
}


@dataclass(frozen=True)
class DatasetConfig:
    n: int
    classes: int
    dim: int
    noise_low: float
    noise_high: float

    def __post_init__(self):
        _check_synthetic(self.n, self.classes, self.noise_low, self.noise_high)


@dataclass
class RunConfig:
    """What a run needs beyond one federation. Each (arm, trial) job runs
    ``experiment`` with its seed set to the trial's and its data curriculum
    set to the arm (``None`` for vanilla)."""

    dataset: DatasetConfig
    partition: PartitionSpec  # the seed is set per trial
    expert_epochs: int
    n_trials: int
    test_n: int
    arms: list[DataCurriculumConfig | None]
    experiment: ExperimentConfig


@dataclass
class ConvexCase:
    name: str
    dim: int
    mu: float
    lipschitz: float
    rel_var: float
    sigma: float
    clients: int
    rounds: int
    local_steps: int
    schedule: str  # "client" | "data"
    b_start: float
    b_end: float
    alpha: float  # <= 0 means the default 1/(8(3+2M)L)
    alpha_mode: str  # "constant" | "inverse_round"
    theta0_scale: float
    n_runs: int
    seed: int
    problem_seed: int


@dataclass
class NonconvexCase:
    name: str
    dim: int
    clients: int
    rounds: int
    local_steps: int
    alpha: float
    sigma: float
    theta0_scale: float
    n_runs: int
    seed: int


@dataclass
class TheoryConfig:
    convex: list[ConvexCase] = field(default_factory=list)
    nonconvex: list[NonconvexCase] = field(default_factory=list)


def _read(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(str(exc)) from exc
    return cp


def _at(section: str, key: str) -> str:
    return f"key '{key}' in section [{section}]"


def _require(cp: configparser.ConfigParser, section: str, key: str) -> str:
    if not cp.has_section(section):
        raise ConfigurationError(f"missing required section [{section}]")
    if not cp.has_option(section, key):
        raise ConfigurationError(f"missing required {_at(section, key)}")
    return cp.get(section, key)


def _convert(section: str, key: str, raw: str, kind, minimum=None):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        value = kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{_at(section, key)}: cannot parse {raw!r}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigurationError(f"{_at(section, key)}: {raw!r} is not finite")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{_at(section, key)}: must be >= {minimum}, got {value}")
    return value


def _get(cp, section, key, kind, default=None, required=False, minimum=None):
    if not required and not (cp.has_section(section) and cp.has_option(section, key)):
        return default
    return _convert(section, key, _require(cp, section, key), kind, minimum)


def _enum(section: str, key: str, raw: str, enum_cls):
    try:
        return enum_cls(raw.strip().lower())
    except ValueError as exc:
        valid = ", ".join(e.value for e in enum_cls)
        raise ConfigurationError(f"{_at(section, key)}: {raw!r} is not one of {valid}") from exc


def _keys(section: str, *names: str) -> dict[str, tuple[str, str]]:
    """Fields read from keys of the same name in ``section``."""
    return {name: (section, name) for name in names}


def _built(make, keys: dict[str, tuple[str, str]], **kwargs):
    """``make(**kwargs)``. A ``ConfigurationError`` whose field ``keys`` maps
    to a (section, key) is raised again with that key and section named."""
    try:
        return make(**kwargs)
    except ConfigurationError as exc:
        if exc.field not in keys:
            raise
        raise ConfigurationError(f"{_at(*keys[exc.field])}: {exc}") from exc


def _pacing(cp, section: str) -> tuple[dict, dict[str, tuple[str, str]]]:
    """The pacing family and fractions of ``section`` as keyword arguments,
    and the keys the fraction fields are read from."""
    family = _get(cp, section, "pacing_family", str, default="linear")
    kwargs = dict(
        family=_enum(section, "pacing_family", family, PacingFamily),
        a=_get(cp, section, "pacing_a", float, default=0.8),
        b=_get(cp, section, "pacing_b", float, default=0.2),
    )
    return kwargs, {"a": (section, "pacing_a"), "b": (section, "pacing_b")}


def parse_run_config(path: str) -> RunConfig:
    cp = _read(path)

    dataset = _built(
        DatasetConfig,
        _keys("dataset", "n", "classes", "noise_low"),
        n=_get(cp, "dataset", "n", int, required=True),
        classes=_get(cp, "dataset", "classes", int, required=True),
        dim=_get(cp, "dataset", "dim", int, required=True),
        noise_low=_get(cp, "dataset", "noise_low", float, required=True),
        noise_high=_get(cp, "dataset", "noise_high", float, required=True),
    )
    test_n = _get(cp, "run", "test_n", int, default=dataset.n)
    _built(
        _check_synthetic, {"n": ("run", "test_n")}, n=test_n, classes=dataset.classes,
        noise_low=dataset.noise_low, noise_high=dataset.noise_high,
    )

    part_spec = _built(
        PartitionSpec,
        _keys("partition", "num_clients", "beta", "f_ord"),
        scheme=_enum("partition", "scheme", _require(cp, "partition", "scheme"), Scheme),
        num_clients=_get(cp, "partition", "num_clients", int, required=True),
        beta=_get(cp, "partition", "beta", float, default=0.0),
        skew_classes=_get(cp, "partition", "skew_classes", int, default=0),
        f_ord=_get(cp, "partition", "f_ord", float, default=None),
    )
    _built(
        _check_feasible, _keys("partition", "num_clients", "skew_classes"),
        spec=part_spec, n=dataset.n, num_classes=dataset.classes,
    )

    kind = _enum("model", "kind", _require(cp, "model", "kind"), ModelKind)
    model = _built(
        ModelSpec,
        {"input_dim": ("dataset", "dim"), "num_classes": ("dataset", "classes"),
         "hidden_dim": ("model", "hidden_dim")},
        kind=kind,
        input_dim=dataset.dim,
        num_classes=dataset.classes if kind is not ModelKind.LINEAR_REGRESSION else 1,
        hidden_dim=_get(cp, "model", "hidden_dim", int, default=0),
    )
    hyper = _built(
        SgdHyper,
        _keys("optimizer", *_HYPER_KEYS),
        **{
            key: _get(cp, "optimizer", key, kind, default=getattr(SgdHyper, key))
            for key, kind in _HYPER_KEYS.items()
        },
    )
    rounds = _get(cp, "federation", "rounds", int, required=True)

    client_cc = None
    if _get(cp, "client_curriculum", "enabled", bool, default=False):
        pacing_kwargs, pacing_keys = _pacing(cp, "client_curriculum")
        client_cc = _built(
            ClientSelectionConfig,
            _keys("client_curriculum", "client_batch_size"),
            pacing=_built(
                PacingSpec, pacing_keys, **pacing_kwargs,
                total=part_spec.num_clients, budget=max(rounds, 1),
            ),
            ordering=_enum(
                "client_curriculum", "ordering",
                _get(cp, "client_curriculum", "ordering", str, default="curriculum"),
                OrderingKind,
            ),
            client_batch_size=_get(
                cp, "client_curriculum", "client_batch_size", int, default=10
            ),
        )

    names = _get(cp, "data_curriculum", "orderings", str, default="vanilla").split(",")
    names = [name.strip().lower() for name in names if name.strip()]
    for name in names:
        if name not in ARMS:
            valid = ", ".join(ARMS)
            raise ConfigurationError(
                f"{_at('data_curriculum', 'orderings')}: {name!r} is not one of {valid}"
            )
    # Checked even when every arm is vanilla; each other arm sets its ordering.
    pacing_kwargs, pacing_keys = _pacing(cp, "data_curriculum")
    curriculum = _built(
        DataCurriculumConfig, pacing_keys, **pacing_kwargs,
        scoring=_enum(
            "data_curriculum", "scoring",
            _get(cp, "data_curriculum", "scoring", str, default="g_loss"), ScoringKind,
        ),
        ordering=OrderingKind.CURRICULUM,
    )
    arms = [
        None if name == "vanilla" else replace(curriculum, ordering=OrderingKind(name))
        for name in names
    ]

    experiment = _built(
        ExperimentConfig,
        _keys("federation", "participants", "rounds", "local_epochs", "mu_prox"),
        model=model,
        num_clients=part_spec.num_clients,
        participants=_get(cp, "federation", "participants", int, default=10),
        rounds=rounds,
        local_epochs=_get(cp, "federation", "local_epochs", int, default=10),
        algorithm=_enum(
            "federation", "algorithm",
            _get(cp, "federation", "algorithm", str, default="fedavg"), Algorithm,
        ),
        mu_prox=_get(cp, "federation", "mu_prox", float, default=0.0),
        client_curriculum=client_cc,
        hyper=hyper,
        seed=_get(cp, "run", "seed", int, default=DEFAULT_SEED),
    )

    return RunConfig(
        dataset=dataset,
        partition=part_spec,
        expert_epochs=_get(cp, "partition", "expert_epochs", int, default=30),
        n_trials=_get(cp, "run", "n_trials", int, default=3, minimum=1),
        test_n=test_n,
        arms=arms,
        experiment=experiment,
    )


def parse_theory_config(path: str) -> TheoryConfig:
    cp = _read(path)
    out = TheoryConfig()
    for section in cp.sections():
        kind = _require(cp, section, "kind").strip().lower()
        if kind == "convex":
            schedule = _get(cp, section, "schedule", str, default="client").strip().lower()
            if schedule not in ("client", "data"):
                raise ConfigurationError(
                    f"{_at(section, 'schedule')}: must be 'client' or 'data'"
                )
            alpha_mode = _get(cp, section, "alpha_mode", str, default="constant").strip().lower()
            if alpha_mode not in ("constant", "inverse_round"):
                raise ConfigurationError(
                    f"{_at(section, 'alpha_mode')}: must be 'constant' or 'inverse_round'"
                )
            out.convex.append(
                ConvexCase(
                    name=section,
                    dim=_get(cp, section, "dim", int, required=True, minimum=1),
                    mu=_get(cp, section, "mu", float, required=True),
                    lipschitz=_get(cp, section, "L", float, required=True),
                    rel_var=_get(cp, section, "M", float, default=0.0),
                    sigma=_get(cp, section, "sigma", float, default=0.0),
                    clients=_get(cp, section, "Q", int, required=True, minimum=1),
                    rounds=_get(cp, section, "T", int, required=True, minimum=1),
                    local_steps=_get(cp, section, "J", int, required=True, minimum=1),
                    schedule=schedule,
                    b_start=_get(cp, section, "B_start", float, default=0.0),
                    b_end=_get(cp, section, "B_end", float, required=True),
                    alpha=_get(cp, section, "alpha", float, default=-1.0),
                    alpha_mode=alpha_mode,
                    theta0_scale=_get(cp, section, "theta0", float, default=1.0),
                    n_runs=_get(cp, section, "n_runs", int, default=500),
                    seed=_get(cp, section, "seed", int, default=DEFAULT_SEED),
                    problem_seed=_get(cp, section, "problem_seed", int, default=0),
                )
            )
        elif kind == "nonconvex":
            out.nonconvex.append(
                NonconvexCase(
                    name=section,
                    dim=_get(cp, section, "dim", int, required=True, minimum=1),
                    clients=_get(cp, section, "Q", int, required=True, minimum=1),
                    rounds=_get(cp, section, "T", int, required=True, minimum=1),
                    local_steps=_get(cp, section, "J", int, required=True, minimum=1),
                    alpha=_get(cp, section, "alpha", float, required=True),
                    sigma=_get(cp, section, "sigma", float, default=0.0),
                    theta0_scale=_get(cp, section, "theta0", float, default=0.4),
                    n_runs=_get(cp, section, "n_runs", int, default=200),
                    seed=_get(cp, section, "seed", int, default=DEFAULT_SEED),
                )
            )
        else:
            raise ConfigurationError(f"{_at(section, 'kind')}: must be 'convex' or 'nonconvex'")
    return out
