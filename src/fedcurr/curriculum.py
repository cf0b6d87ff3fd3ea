"""Sample scoring, pacing families and ordered subset selection.

Scores come in three flavours: normalized inverse losses (from the global
or local model, their average, or a fixed expert's precomputed losses),
binary easy/hard flags from prediction agreement, and random keys. The
pacing function maps a step index to a subset size that grows from a
fraction ``b`` of the data to the full set over a fraction ``a`` of the budget.
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
    """Pacing parameters: a pool's subset size grows from fraction ``b`` of
    the pool to all of it at fraction ``a`` of the step budget. The pool
    size and the budget come from where the pacing is used."""

    family: PacingFamily
    a: float
    b: float

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b)):
            if not 0 < value <= 1:
                raise ConfigurationError(f"pacing {name} must be in (0, 1]", field=name)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def pace(spec: PacingSpec, t: int, total: int, budget: int) -> int:
    """Subset size at step t of ``budget`` for a pool of ``total`` items,
    clamped to [round(total*b) or 1, total]."""
    if total < 1 or budget < 1:
        raise ConfigurationError("pacing total and budget must be >= 1")
    if not 0 <= t <= budget:
        raise ConfigurationError(f"pacing step {t} outside [0, {budget}]")
    n, a, b = float(total), spec.a, spec.b
    at = a * budget
    if t >= at:  # every family saturates at the full pool from a*budget on
        return total
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
    return int(min(total, max(lo, _round_half_up(g))))


def scores_from_losses(losses: np.ndarray) -> np.ndarray:
    """Normalized inverse-loss scores: r_i = 1/max(loss_i, eps), s = r/sum(r)."""
    raw = 1.0 / np.maximum(np.asarray(losses, dtype=np.float64), LOSS_EPS)
    return raw / raw.sum()


def score_samples(
    kind: ScoringKind,
    model: ModelSpec,
    batch: Batch,
    global_params: np.ndarray | None = None,
    local_params: np.ndarray | None = None,
    expert_losses: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    global_losses: np.ndarray | None = None,
    global_predictions: np.ndarray | None = None,
) -> np.ndarray:
    """Score every sample in the batch with the requested method: one score
    per sample, the higher the easier. Loss-based scores sum to 1.

    Expert scoring reads ``expert_losses``, the expert's per-sample losses
    on the batch, and runs no model. ``global_losses`` and
    ``global_predictions``, when given, are the per-sample losses and the
    argmax class predictions of the batch at ``global_params``. The scorings
    compute each at ``global_params`` at most once, reusing the given values,
    and this holds for any scored parameters that are ``global_params``
    itself: a client that has not trained yet has its local model at the
    global one.
    """

    def need(params, name):
        if params is None:
            raise ConfigurationError(f"scoring {kind.value} requires {name} parameters")
        return params

    def reusing_global(compute, at_global):
        def value_at(params: np.ndarray) -> np.ndarray:
            nonlocal at_global
            if params is not global_params:
                return compute(model, params, batch)
            if at_global is None:
                at_global = compute(model, params, batch)
            return at_global

        return value_at

    if kind in LOSS_BASED:
        losses_at = reusing_global(per_sample_losses, global_losses)
        if kind is ScoringKind.G_LOSS:
            losses = losses_at(need(global_params, "global"))
        elif kind is ScoringKind.L_LOSS:
            losses = losses_at(need(local_params, "local"))
        elif kind is ScoringKind.EXPERT:
            losses = expert_losses
            if losses is None or len(losses) != len(batch):
                raise ConfigurationError("scoring expert requires one expert loss per sample")
        else:
            losses = 0.5 * (
                losses_at(need(global_params, "global")) + losses_at(need(local_params, "local"))
            )
        return scores_from_losses(losses)

    if kind in PRED_BASED:
        if not model.is_classifier:
            raise ConfigurationError("prediction-based scoring requires a classifier")
        predictions_at = reusing_global(predict, global_predictions)
        if kind is ScoringKind.G_PRED:
            easy = predictions_at(need(global_params, "global")) == batch.y
        elif kind is ScoringKind.L_PRED:
            easy = predictions_at(need(local_params, "local")) == batch.y
        else:
            global_pred = predictions_at(need(global_params, "global"))
            easy = predictions_at(need(local_params, "local")) == global_pred
        return easy.astype(np.float64)

    if rng is None:
        raise ConfigurationError("random scoring requires an rng")
    return rng.random(len(batch))


def order_and_select(
    scores: np.ndarray,
    ordering: OrderingKind,
    count: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Pick ``count`` sample indices: highest scores for curriculum, lowest
    for anti, a uniform draw for random. Ties break by ascending index."""
    s = np.asarray(scores)
    n = len(s)
    if not 1 <= count <= n:
        raise ConfigurationError(f"selection count {count} outside [1, {n}]")
    if ordering is OrderingKind.CURRICULUM:
        order = np.argsort(-s, kind="stable")
    elif ordering is OrderingKind.ANTI:
        order = np.argsort(s, kind="stable")
    else:
        if rng is None:
            raise ConfigurationError("random ordering requires an rng")
        return rng.choice(n, size=count, replace=False)
    return order[:count]
