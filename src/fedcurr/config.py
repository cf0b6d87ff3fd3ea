"""Sectioned key=value run configurations.

The format is INI-style: ``[section]`` headers with one ``key = value`` per
line. ``parse_run_config`` builds the federation experiment description;
``parse_theory_config`` builds the bound-verification cases of
``fedcurr.theory``, in config order.

This module only parses keys: it reads each value, converts it to its type
and enum, and builds the domain objects. A key that nothing reads is an
error, so a misspelt key cannot silently leave its default in place. All
validation happens while parsing, before any work starts, and every failure
raises ``ConfigurationError``: syntax problems carry configparser's
line-numbered message, everything else names the offending key and
section. Range rules live once, in the domain modules, which raise
``ConfigurationError`` with the field at fault; the parser maps that field
back to the key it was read from.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .clients import ClientSelectionConfig
from .curriculum import OrderingKind, PacingFamily, PacingSpec, ScoringKind
from .data import (
    PartitionSpec,
    Scheme,
    _check_feasible,
    _check_synthetic,
    _synthetic_class_sizes,
)
from .errors import ConfigurationError
from .federation import Algorithm, DataCurriculumConfig, ExperimentConfig, _check_participants
from .models import ModelKind, ModelSpec, SgdHyper
from .theory import BiasKind, ConvexCase, NonconvexCase, StepsizeMode

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
    partition: PartitionSpec  # dealt with each trial's seed
    expert_epochs: int
    n_trials: int
    test_n: int
    arms: list[DataCurriculumConfig | None]
    experiment: ExperimentConfig


def _read(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_keys = set()  # the (section, key) pairs _require has read
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
    cp.read_keys.add((section, cp.optionxform(key)))
    return cp.get(section, key)


def _check_all_read(cp: configparser.ConfigParser) -> None:
    """A key the parser did not read is a typo or sits in the wrong section."""
    for section in cp.sections():
        for key in cp.options(section):
            if (section, key) not in cp.read_keys:
                raise ConfigurationError(f"{_at(section, key)}: unused; check its spelling")


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


def _pacing(cp, section: str) -> PacingSpec:
    """The pacing family and fractions of ``section``."""
    family = _get(cp, section, "pacing_family", str, default="linear")
    return _built(
        PacingSpec,
        {"a": (section, "pacing_a"), "b": (section, "pacing_b")},
        family=_enum(section, "pacing_family", family, PacingFamily),
        a=_get(cp, section, "pacing_a", float, default=0.8),
        b=_get(cp, section, "pacing_b", float, default=0.2),
    )


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
        spec=part_spec, class_sizes=_synthetic_class_sizes(dataset.n, dataset.classes),
    )
    participants = _get(cp, "federation", "participants", int, default=10)
    _built(
        _check_participants, _keys("federation", "participants"),
        participants=participants, num_clients=part_spec.num_clients,
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

    # Checked even when the client curriculum is off.
    client_cc = ClientSelectionConfig(
        pacing=_pacing(cp, "client_curriculum"),
        ordering=_enum(
            "client_curriculum", "ordering",
            _get(cp, "client_curriculum", "ordering", str, default="curriculum"),
            OrderingKind,
        ),
    )
    client_enabled = _get(cp, "client_curriculum", "enabled", bool, default=False)
    # Retired: [federation] participants sets the clients per round under
    # either selection rule. The key is still accepted where it agrees.
    retired = _get(cp, "client_curriculum", "client_batch_size", int)
    if retired is not None and retired != participants:
        raise ConfigurationError(
            f"{_at('client_curriculum', 'client_batch_size')}: retired; it must equal "
            f"{_at('federation', 'participants')} ({participants}), the clients per round"
        )

    names = _get(cp, "data_curriculum", "orderings", str, default="vanilla").split(",")
    names = [name.strip().lower() for name in names if name.strip()]
    for i, name in enumerate(names):
        if name not in ARMS:
            valid = ", ".join(ARMS)
            raise ConfigurationError(
                f"{_at('data_curriculum', 'orderings')}: {name!r} is not one of {valid}"
            )
        if name in names[:i]:
            raise ConfigurationError(f"{_at('data_curriculum', 'orderings')}: {name!r} repeats")
    # Checked even when every arm is vanilla.
    scoring = _enum(
        "data_curriculum", "scoring",
        _get(cp, "data_curriculum", "scoring", str, default="g_loss"), ScoringKind,
    )
    pacing = _pacing(cp, "data_curriculum")
    arms = [
        None if name == "vanilla" else DataCurriculumConfig(scoring, pacing, OrderingKind(name))
        for name in names
    ]

    experiment = _built(
        ExperimentConfig,
        _keys("federation", "rounds", "local_epochs", "mu_prox"),
        model=model,
        participants=participants,
        rounds=_get(cp, "federation", "rounds", int, required=True),
        local_epochs=_get(cp, "federation", "local_epochs", int, default=10),
        algorithm=_enum(
            "federation", "algorithm",
            _get(cp, "federation", "algorithm", str, default="fedavg"), Algorithm,
        ),
        mu_prox=_get(cp, "federation", "mu_prox", float, default=0.0),
        client_curriculum=client_cc if client_enabled else None,
        hyper=hyper,
        seed=_get(cp, "run", "seed", int, default=DEFAULT_SEED),
    )

    run = RunConfig(
        dataset=dataset,
        partition=part_spec,
        expert_epochs=_get(cp, "partition", "expert_epochs", int, default=30, minimum=0),
        n_trials=_get(cp, "run", "n_trials", int, default=3, minimum=1),
        test_n=test_n,
        arms=arms,
        experiment=experiment,
    )
    _check_all_read(cp)
    return run


def parse_theory_config(path: str) -> list[ConvexCase | NonconvexCase]:
    """The verify cases of the config, one per section, in config order."""
    cp = _read(path)
    cases = []
    for section in cp.sections():
        kind = _require(cp, section, "kind").strip().lower()
        if kind not in ("convex", "nonconvex"):
            raise ConfigurationError(f"{_at(section, 'kind')}: must be 'convex' or 'nonconvex'")
        keys = {
            **_keys(section, "mu", "n_runs", "dim", "sigma", "alpha"),
            "b_start": (section, "B_start"), "clients": (section, "Q"), "rel_var": (section, "M"),
        }
        shared = dict(
            name=section,
            dim=_get(cp, section, "dim", int, required=True, minimum=1),
            clients=_get(cp, section, "Q", int, required=True, minimum=1),
            rounds=_get(cp, section, "T", int, required=True, minimum=1),
            local_steps=_get(cp, section, "J", int, required=True, minimum=1),
            sigma=_get(cp, section, "sigma", float, default=0.0),
            seed=_get(cp, section, "seed", int, default=DEFAULT_SEED),
        )
        if kind == "convex":
            schedule = _get(cp, section, "schedule", str, default="client")
            alpha_mode = _get(cp, section, "alpha_mode", str, default="constant")
            case = _built(
                ConvexCase, keys, **shared,
                mu=_get(cp, section, "mu", float, required=True),
                lipschitz=_get(cp, section, "L", float, required=True),
                rel_var=_get(cp, section, "M", float, default=0.0),
                schedule=_enum(section, "schedule", schedule, BiasKind),
                b_start=_get(cp, section, "B_start", float, default=0.0),
                b_end=_get(cp, section, "B_end", float, required=True),
                alpha=_get(cp, section, "alpha", float),
                alpha_mode=_enum(section, "alpha_mode", alpha_mode, StepsizeMode),
                theta0_scale=_get(cp, section, "theta0", float, default=1.0),
                n_runs=_get(cp, section, "n_runs", int, default=500),
                problem_seed=_get(cp, section, "problem_seed", int, default=0),
            )
        else:
            case = _built(
                NonconvexCase, keys, **shared,
                alpha=_get(cp, section, "alpha", float, required=True),
                theta0_scale=_get(cp, section, "theta0", float, default=0.4),
                n_runs=_get(cp, section, "n_runs", int, default=200),
            )
        cases.append(case)
    _check_all_read(cp)
    return cases
