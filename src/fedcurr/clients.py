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
from .errors import ConfigurationError
from .models import LOSS_EPS, Batch, ModelSpec, per_sample_losses


@dataclass
class ClientScore:
    client_id: int
    mean_loss: float
    score: float  # inverse of the mean loss; higher = easier client


@dataclass(frozen=True)
class ClientSelectionConfig:
    """Pacing over the client count (total = clients, budget = rounds),
    an ordering over client scores, and the participating batch size."""

    pacing: PacingSpec
    ordering: OrderingKind
    client_batch_size: int

    def __post_init__(self):
        if not 1 <= self.client_batch_size <= self.pacing.total:
            raise ConfigurationError("client batch size must be in [1, num_clients]")


def client_loss(model: ModelSpec, params: np.ndarray, client_data: Batch) -> float:
    """Mean per-sample loss over the client's local data."""
    if len(client_data) == 0:
        raise ValueError("client holds no samples")
    return float(per_sample_losses(model, params, client_data).mean())


def score_clients(losses: list[np.ndarray]) -> list[ClientScore]:
    """Score each client by the mean of its per-sample losses; ``losses[i]``
    belongs to client ``i``."""
    out = []
    for cid, client_losses in enumerate(losses):
        loss = float(client_losses.mean())
        out.append(ClientScore(client_id=cid, mean_loss=loss, score=1.0 / max(loss, LOSS_EPS)))
    return out


def select_clients(
    scores: list[ClientScore],
    cfg: ClientSelectionConfig,
    t: int,
    rng: np.random.Generator,
) -> list[int]:
    """Eligible set = top-K(t) clients under the ordering; return one uniform
    mini-batch of size min(batch, K(t)) from it, ascending by id."""
    m = cfg.pacing.total
    if len(scores) != m:
        raise ConfigurationError(f"expected scores for all {m} clients, got {len(scores)}")
    k = pace(cfg.pacing, t)
    ids = np.array([s.client_id for s in scores])
    losses = np.array([s.mean_loss for s in scores])
    if cfg.ordering is OrderingKind.CURRICULUM:
        eligible = ids[np.lexsort((ids, losses))][:k]
    elif cfg.ordering is OrderingKind.ANTI:
        eligible = ids[np.lexsort((ids, -losses))][:k]
    else:
        eligible = ids[rng.permutation(m)][:k]
    batch = rng.choice(eligible, size=min(cfg.client_batch_size, k), replace=False)
    return sorted(int(c) for c in batch)


def curriculum_advantage(acc_o: float, acc_vanilla: float) -> float:
    """Accuracy advantage of an ordering over vanilla training."""
    return acc_o - acc_vanilla
