"""Sample scoring, pacing families and ordered subset selection.

Scores come in three flavours: normalized inverse losses (from the global,
local, expert model, or a global/local average), binary easy/hard flags from
prediction agreement, and random keys. The pacing function maps a step index
to a subset size that grows from a fraction ``b`` of the data to the full set
over a fraction ``a`` of the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .models import LOSS_EPS, Batch, ModelSpec, per_sample_losses, predict


class ScoringKind(Enum):
    G_LOSS = "g_loss"
    L_LOSS = "l_loss"
    LG_LOSS = "lg_loss"
    G_PRED = "g_pred"
    L_PRED = "l_pred"
    LG_PRED = "lg_pred"
    EXPERT = "expert"
    RANDOM = "random"


LOSS_BASED = {ScoringKind.G_LOSS, ScoringKind.L_LOSS, ScoringKind.LG_LOSS, ScoringKind.EXPERT}
PRED_BASED = {ScoringKind.G_PRED, ScoringKind.L_PRED, ScoringKind.LG_PRED}


class OrderingKind(Enum):
    CURRICULUM = "curriculum"
    ANTI = "anti"
    RANDOM = "random"


class PacingFamily(Enum):
    EXPONENTIAL = "exponential"
    STEP = "step"
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    SQRT = "sqrt"


@dataclass(frozen=True)
class PacingSpec:
    """Pacing parameters: subset size over a budget of ``budget`` steps for a
    pool of ``total`` items, starting at fraction ``b`` and reaching the full
    pool at step ``a * budget``."""

    family: PacingFamily
    a: float
    b: float
    total: int
    budget: int

    def __post_init__(self):
        _check_fractions(self.a, self.b)
        if self.total < 1 or self.budget < 1:
            raise ConfigurationError("pacing total and budget must be >= 1")


def _check_fractions(a: float, b: float) -> None:
    """Raise unless both pacing fractions lie in (0, 1]."""
    for name, value in (("a", a), ("b", b)):
        if not 0 < value <= 1:
            raise ConfigurationError(f"pacing {name} must be in (0, 1]", field=name)


@dataclass
class ScoreTable:
    """Raw keys and scores for one scoring pass; loss-based scores sum to 1."""

    raw: np.ndarray
    scores: np.ndarray


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def pace(spec: PacingSpec, t: int) -> int:
    """Subset size at step t, clamped to [round(total*b) or 1, total]."""
    if not 0 <= t <= spec.budget:
        raise ValueError(f"pacing step {t} outside [0, {spec.budget}]")
    n, a, b = float(spec.total), spec.a, spec.b
    at = a * spec.budget
    if t >= at:  # every family saturates at the full pool from a*budget on
        return spec.total
    if spec.family is PacingFamily.LINEAR:
        g = n * b + n * (1 - b) * t / at
    elif spec.family is PacingFamily.QUADRATIC:
        g = n * b + n * (1 - b) * t * t / (at * at)
    elif spec.family is PacingFamily.SQRT:
        g = n * b + n * (1 - b) * math.sqrt(t) / math.sqrt(at)
    elif spec.family is PacingFamily.EXPONENTIAL:
        g = n * b + n * (1 - b) * math.expm1(10.0 * t / at) / math.expm1(10.0)
    else:  # STEP: single jump to the full set at t = a*budget
        g = n * b + n * math.floor(t / at)
    lo = max(1, _round_half_up(n * b))
    return int(min(spec.total, max(lo, _round_half_up(g))))


def scores_from_losses(losses: np.ndarray) -> ScoreTable:
    """Normalized inverse-loss scores: r_i = 1/max(loss_i, eps), s = r/sum(r)."""
    raw = 1.0 / np.maximum(np.asarray(losses, dtype=np.float64), LOSS_EPS)
    return ScoreTable(raw=raw, scores=raw / raw.sum())


def score_samples(
    kind: ScoringKind,
    model: ModelSpec,
    batch: Batch,
    global_params: np.ndarray | None = None,
    local_params: np.ndarray | None = None,
    expert_params: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    global_losses: np.ndarray | None = None,
) -> ScoreTable:
    """Score every sample in the batch with the requested method.

    ``global_losses``, when given, are the per-sample losses of the batch at
    ``global_params``; loss-based scoring then reuses them instead of running
    the model again.
    """

    def need(params, name):
        if params is None:
            raise ConfigurationError(f"scoring {kind.value} requires {name} parameters")
        return params

    if kind in LOSS_BASED:
        if kind in (ScoringKind.G_LOSS, ScoringKind.LG_LOSS) and global_losses is None:
            global_losses = per_sample_losses(model, need(global_params, "global"), batch)
        if kind is ScoringKind.G_LOSS:
            losses = global_losses
        elif kind is ScoringKind.L_LOSS:
            losses = per_sample_losses(model, need(local_params, "local"), batch)
        elif kind is ScoringKind.EXPERT:
            losses = per_sample_losses(model, need(expert_params, "expert"), batch)
        else:
            # A client that has not trained yet has its local model at the
            # global one: both halves are the same losses.
            local = need(local_params, "local")
            local_losses = (
                global_losses
                if local is global_params
                else per_sample_losses(model, local, batch)
            )
            losses = 0.5 * (global_losses + local_losses)
        return scores_from_losses(losses)

    if kind in PRED_BASED:
        if not model.is_classifier:
            raise ConfigurationError("prediction-based scoring requires a classifier")
        if kind is ScoringKind.G_PRED:
            easy = predict(model, need(global_params, "global"), batch) == batch.y
        elif kind is ScoringKind.L_PRED:
            easy = predict(model, need(local_params, "local"), batch) == batch.y
        else:
            easy = predict(model, need(local_params, "local"), batch) == predict(
                model, need(global_params, "global"), batch
            )
        flags = easy.astype(np.float64)
        return ScoreTable(raw=flags, scores=flags)

    if rng is None:
        raise ConfigurationError("random scoring requires an rng")
    keys = rng.random(len(batch))
    return ScoreTable(raw=keys, scores=keys)


def order_and_select(
    scores: np.ndarray | ScoreTable,
    ordering: OrderingKind,
    count: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Pick ``count`` sample indices: highest scores for curriculum, lowest
    for anti, a uniform draw for random. Ties break by ascending index."""
    s = scores.scores if isinstance(scores, ScoreTable) else np.asarray(scores)
    n = len(s)
    if not 1 <= count <= n:
        raise ValueError(f"selection count {count} outside [1, {n}]")
    if ordering is OrderingKind.CURRICULUM:
        order = np.argsort(-s, kind="stable")
    elif ordering is OrderingKind.ANTI:
        order = np.argsort(s, kind="stable")
    else:
        if rng is None:
            raise ConfigurationError("random ordering requires an rng")
        return rng.choice(n, size=count, replace=False)
    return order[:count]
