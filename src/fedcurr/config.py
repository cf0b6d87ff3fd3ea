"""Sectioned key=value run configurations.

The format is INI-style: ``[section]`` headers with one ``key = value`` per
line. ``parse_run_config`` builds the federation experiment description;
``parse_theory_config`` builds the list of bound-verification cases.
Validation failures raise ``ConfigError`` naming the offending section/key;
syntax problems surface configparser's line-numbered errors.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .clients import ClientSelectionConfig
from .curriculum import OrderingKind, PacingFamily, PacingSpec, ScoringKind
from .data import PartitionSpec, Scheme
from .federation import Algorithm, DataCurriculumConfig
from .models import ModelKind, ModelSpec, SgdHyper

DEFAULT_SEED = 202207
# Offset between the training-data seed and the held-out test-data seed.
TEST_SEED_OFFSET = 7919

ARMS = ("curriculum", "anti", "random", "vanilla")


class ConfigError(Exception):
    pass


@dataclass
class DatasetConfig:
    n: int
    classes: int
    dim: int
    noise_low: float
    noise_high: float


@dataclass
class RunConfig:
    dataset: DatasetConfig
    partition: PartitionSpec
    expert_epochs: int
    model: ModelSpec
    algorithm: Algorithm
    mu_prox: float
    rounds: int
    local_epochs: int
    participants: int
    hyper: SgdHyper
    arms: list[str]
    scoring: ScoringKind
    pacing_family: PacingFamily
    pacing_a: float
    pacing_b: float
    client_curriculum: ClientSelectionConfig | None
    seed: int
    n_trials: int
    test_n: int


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
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    return cp


def _require(cp: configparser.ConfigParser, section: str, key: str) -> str:
    if not cp.has_section(section):
        raise ConfigError(f"missing required section [{section}]")
    if not cp.has_option(section, key):
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    return cp.get(section, key)


def _convert(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' in section [{section}]: cannot parse {raw!r}") from exc


def _get(cp, section, key, kind, default=None, required=False):
    if required:
        return _convert(section, key, _require(cp, section, key), kind)
    if cp.has_section(section) and cp.has_option(section, key):
        return _convert(section, key, cp.get(section, key), kind)
    return default


def _enum(section: str, key: str, raw: str, enum_cls):
    try:
        return enum_cls(raw.strip().lower())
    except ValueError as exc:
        valid = ", ".join(e.value for e in enum_cls)
        raise ConfigError(
            f"key '{key}' in section [{section}]: {raw!r} is not one of {valid}"
        ) from exc


def parse_run_config(path: str) -> RunConfig:
    cp = _read(path)

    dataset = DatasetConfig(
        n=_get(cp, "dataset", "n", int, required=True),
        classes=_get(cp, "dataset", "classes", int, required=True),
        dim=_get(cp, "dataset", "dim", int, required=True),
        noise_low=_get(cp, "dataset", "noise_low", float, required=True),
        noise_high=_get(cp, "dataset", "noise_high", float, required=True),
    )

    scheme = _enum("partition", "scheme", _require(cp, "partition", "scheme"), Scheme)
    num_clients = _get(cp, "partition", "num_clients", int, required=True)
    beta = _get(cp, "partition", "beta", float, default=0.0)
    if scheme is Scheme.DIRICHLET and beta <= 0:
        raise ConfigError("missing required key 'beta' in section [partition]")
    skew = _get(cp, "partition", "skew_classes", int, default=0)
    if scheme is Scheme.LABEL_SKEW and skew < 1:
        raise ConfigError("missing required key 'skew_classes' in section [partition]")
    f_ord = _get(cp, "partition", "f_ord", float, default=None)
    seed = _get(cp, "run", "seed", int, default=DEFAULT_SEED)
    part_spec = PartitionSpec(
        scheme=scheme, num_clients=num_clients, beta=beta, skew_classes=skew,
        f_ord=f_ord, seed=seed,
    )

    kind = _enum("model", "kind", _require(cp, "model", "kind"), ModelKind)
    hidden = _get(cp, "model", "hidden_dim", int, default=0)
    if kind is ModelKind.MLP_TANH and hidden < 1:
        raise ConfigError("missing required key 'hidden_dim' in section [model]")
    model = ModelSpec(
        kind=kind,
        input_dim=dataset.dim,
        num_classes=dataset.classes if kind is not ModelKind.LINEAR_REGRESSION else 1,
        hidden_dim=hidden,
    )

    algorithm = _enum(
        "federation", "algorithm",
        _get(cp, "federation", "algorithm", str, default="fedavg"), Algorithm,
    )
    rounds = _get(cp, "federation", "rounds", int, required=True)
    hyper = SgdHyper(
        eta0=_get(cp, "optimizer", "eta0", float, default=SgdHyper.eta0),
        decay_alpha=_get(cp, "optimizer", "decay_alpha", float, default=SgdHyper.decay_alpha),
        decay_b=_get(cp, "optimizer", "decay_b", float, default=SgdHyper.decay_b),
        momentum=_get(cp, "optimizer", "momentum", float, default=SgdHyper.momentum),
        weight_decay=_get(cp, "optimizer", "weight_decay", float, default=SgdHyper.weight_decay),
        batch_size=_get(cp, "optimizer", "batch_size", int, default=SgdHyper.batch_size),
    )

    arms_raw = _get(cp, "data_curriculum", "orderings", str, default="vanilla")
    arms = [a.strip().lower() for a in arms_raw.split(",") if a.strip()]
    for arm in arms:
        if arm not in ARMS:
            raise ConfigError(
                f"key 'orderings' in section [data_curriculum]: {arm!r} is not one of "
                + ", ".join(ARMS)
            )
    scoring = _enum(
        "data_curriculum", "scoring",
        _get(cp, "data_curriculum", "scoring", str, default="g_loss"), ScoringKind,
    )
    family = _enum(
        "data_curriculum", "pacing_family",
        _get(cp, "data_curriculum", "pacing_family", str, default="linear"), PacingFamily,
    )
    pacing_a = _get(cp, "data_curriculum", "pacing_a", float, default=0.8)
    pacing_b = _get(cp, "data_curriculum", "pacing_b", float, default=0.2)

    client_cc = None
    if _get(cp, "client_curriculum", "enabled", bool, default=False):
        cc_family = _enum(
            "client_curriculum", "pacing_family",
            _get(cp, "client_curriculum", "pacing_family", str, default="linear"), PacingFamily,
        )
        client_cc = ClientSelectionConfig(
            pacing=PacingSpec(
                family=cc_family,
                a=_get(cp, "client_curriculum", "pacing_a", float, default=0.8),
                b=_get(cp, "client_curriculum", "pacing_b", float, default=0.2),
                total=num_clients,
                budget=max(rounds, 1),
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

    n_trials = _get(cp, "run", "n_trials", int, default=3)
    if n_trials < 1:
        raise ConfigError(f"key 'n_trials' in section [run]: must be >= 1, got {n_trials}")

    return RunConfig(
        dataset=dataset,
        partition=part_spec,
        expert_epochs=_get(cp, "partition", "expert_epochs", int, default=30),
        model=model,
        algorithm=algorithm,
        mu_prox=_get(cp, "federation", "mu_prox", float, default=0.0),
        rounds=rounds,
        local_epochs=_get(cp, "federation", "local_epochs", int, default=10),
        participants=_get(cp, "federation", "participants", int, default=10),
        hyper=hyper,
        arms=arms,
        scoring=scoring,
        pacing_family=family,
        pacing_a=pacing_a,
        pacing_b=pacing_b,
        client_curriculum=client_cc,
        seed=seed,
        n_trials=n_trials,
        test_n=_get(cp, "run", "test_n", int, default=dataset.n),
    )


def parse_theory_config(path: str) -> TheoryConfig:
    cp = _read(path)
    out = TheoryConfig()
    for section in cp.sections():
        kind = _require(cp, section, "kind").strip().lower()
        if kind == "convex":
            schedule = _get(cp, section, "schedule", str, default="client").strip().lower()
            if schedule not in ("client", "data"):
                raise ConfigError(
                    f"key 'schedule' in section [{section}]: must be 'client' or 'data'"
                )
            alpha_mode = _get(cp, section, "alpha_mode", str, default="constant").strip().lower()
            if alpha_mode not in ("constant", "inverse_round"):
                raise ConfigError(
                    f"key 'alpha_mode' in section [{section}]: must be "
                    "'constant' or 'inverse_round'"
                )
            out.convex.append(
                ConvexCase(
                    name=section,
                    dim=_get(cp, section, "dim", int, required=True),
                    mu=_get(cp, section, "mu", float, required=True),
                    lipschitz=_get(cp, section, "L", float, required=True),
                    rel_var=_get(cp, section, "M", float, default=0.0),
                    sigma=_get(cp, section, "sigma", float, default=0.0),
                    clients=_get(cp, section, "Q", int, required=True),
                    rounds=_get(cp, section, "T", int, required=True),
                    local_steps=_get(cp, section, "J", int, required=True),
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
                    dim=_get(cp, section, "dim", int, required=True),
                    clients=_get(cp, section, "Q", int, required=True),
                    rounds=_get(cp, section, "T", int, required=True),
                    local_steps=_get(cp, section, "J", int, required=True),
                    alpha=_get(cp, section, "alpha", float, required=True),
                    sigma=_get(cp, section, "sigma", float, default=0.0),
                    theta0_scale=_get(cp, section, "theta0", float, default=0.4),
                    n_runs=_get(cp, section, "n_runs", int, default=200),
                    seed=_get(cp, section, "seed", int, default=DEFAULT_SEED),
                )
            )
        else:
            raise ConfigError(
                f"key 'kind' in section [{section}]: must be 'convex' or 'nonconvex'"
            )
    return out


def expand_curriculum_arm(cfg: RunConfig, arm: str) -> DataCurriculumConfig | None:
    """Map an arm name to its data-curriculum setting (None for vanilla)."""
    if arm == "vanilla":
        return None
    return DataCurriculumConfig(
        scoring=cfg.scoring,
        family=cfg.pacing_family,
        a=cfg.pacing_a,
        b=cfg.pacing_b,
        ordering=OrderingKind(arm),
    )
