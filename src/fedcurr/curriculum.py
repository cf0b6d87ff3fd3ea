"""Sample scoring, pacing families and ordered subset selection.

Scores come in three flavours: normalized inverse losses (from the global
or local model, their average, or a fixed expert's precomputed losses),
binary easy/hard flags from prediction agreement, and random keys. Each is
computed from arrays the caller already holds, the losses and outputs of the
round's forward passes, so no scoring runs a model. The pacing function maps
a step index to a subset size that grows from a fraction ``b`` of the data
to the full set over a fraction ``a`` of the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError

# Guard when inverting near-zero losses into scores.
LOSS_EPS = 1e-8


class ScoringKind(Enum):
    G_LOSS = "g_loss"
    L_LOSS = "l_loss"
    LG_LOSS = "lg_loss"
    G_PRED = "g_pred"
    L_PRED = "l_pred"
    LG_PRED = "lg_pred"
    EXPERT = "expert"
    RANDOM = "random"


PRED_BASED = {ScoringKind.G_PRED, ScoringKind.L_PRED, ScoringKind.LG_PRED}
LOCAL_BASED = {ScoringKind.L_LOSS, ScoringKind.LG_LOSS, ScoringKind.L_PRED, ScoringKind.LG_PRED}


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


def _check_scoring(kind: ScoringKind, classifier: bool) -> None:
    """Prediction-based scorings compare argmax classes, so they need a classifier."""
    if kind in PRED_BASED and not classifier:
        raise ConfigurationError("prediction-based scoring requires a classifier", field="scoring")


def score_samples(
    kind: ScoringKind,
    y: np.ndarray,
    at_global: tuple[np.ndarray, np.ndarray] | None,
    at_local: tuple[np.ndarray, np.ndarray] | None,
    expert_losses: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One score per sample with label ``y``, the higher the easier;
    loss-based scores sum to 1. No scoring runs a model: ``at_global`` and
    ``at_local`` are the (per-sample losses, raw outputs) at the global and
    at the client's local model, outputs being (m, C) logits, whose argmax
    prediction-based scorings take, or (m,) for regression. Expert scoring
    reads ``expert_losses``, random scoring draws from ``rng``."""
    if kind is ScoringKind.EXPERT:
        if expert_losses is None or len(expert_losses) != len(y):
            raise ConfigurationError("scoring expert requires one expert loss per sample")
        return scores_from_losses(expert_losses)
    if kind is ScoringKind.RANDOM:
        if rng is None:
            raise ConfigurationError("random scoring requires an rng")
        return rng.random(len(y))
    if kind is ScoringKind.G_LOSS:
        return scores_from_losses(at_global[0])
    if kind is ScoringKind.L_LOSS:
        return scores_from_losses(at_local[0])
    if kind is ScoringKind.LG_LOSS:
        return scores_from_losses(0.5 * (at_global[0] + at_local[0]))
    outputs = at_global[1] if kind is ScoringKind.G_PRED else at_local[1]
    _check_scoring(kind, outputs.ndim == 2)
    agrees_with = at_global[1].argmax(axis=1) if kind is ScoringKind.LG_PRED else y
    return (outputs.argmax(axis=1) == agrees_with).astype(np.float64)


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
