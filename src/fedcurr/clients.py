"""Curriculum over the client population.

Clients are scored by the mean loss of their local data, rank-ordered, and a
pacing function prescribes how many of the best-ranked clients are eligible
each round; the round's participants are a uniform mini-batch drawn from the
eligible set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curriculum import OrderingKind, PacingSpec, pace
from .models import Batch, ModelSpec, per_sample_losses


@dataclass(frozen=True)
class ClientSelectionConfig:
    """Pacing over the client pool (one step per round) and an ordering over
    client scores."""

    pacing: PacingSpec
    ordering: OrderingKind


def client_loss(model: ModelSpec, params: np.ndarray, client_data: Batch) -> float:
    """Mean per-sample loss over the client's local data."""
    return float(per_sample_losses(model, params, client_data).mean())


def score_clients(losses: list[np.ndarray]) -> np.ndarray:
    """Each client's mean per-sample loss, as an (M,) array; ``losses[i]``
    belongs to client ``i``. ``np.add.reduce(l) / len(l)`` gives the bits of
    ``l.mean()`` without numpy's Python wrapper."""
    return np.array([np.add.reduce(l) / len(l) for l in losses], dtype=np.float64)


def select_clients(
    losses: np.ndarray,
    cfg: ClientSelectionConfig,
    t: int,
    rounds: int,
    count: int,
    rng: np.random.Generator,
) -> list[int]:
    """Eligible set = top-K(t) clients under the ordering of their mean
    losses (ties by id), K paced over ``rounds`` for a pool of every client
    in ``losses``; return one uniform mini-batch of size min(count, K(t))
    from it, ascending by id."""
    m = len(losses)
    k = pace(cfg.pacing, t, m, rounds)
    ids = np.arange(m)
    if cfg.ordering is OrderingKind.CURRICULUM:
        eligible = ids[np.lexsort((ids, losses))][:k]
    elif cfg.ordering is OrderingKind.ANTI:
        eligible = ids[np.lexsort((ids, -losses))][:k]
    else:
        eligible = ids[rng.permutation(m)][:k]
    batch = rng.choice(eligible, size=min(count, k), replace=False)
    return sorted(int(c) for c in batch)
