"""Checks the tests share; the package itself has no use for them."""

import numpy as np

from fedcurr import Dataset, Partition


def partition_score_std(part: Partition, scores: np.ndarray) -> np.ndarray:
    """Population standard deviation of the scores held by each client."""
    scores = np.asarray(scores, dtype=np.float64)
    out = np.empty(part.num_clients)
    for i, idx in enumerate(part.assignment):
        if len(idx) < 1:
            raise ValueError(f"client {i} holds no samples")
        out[i] = np.std(scores[idx])
    return out


def check_partition(ds: Dataset, part: Partition) -> None:
    """Raise if the partition is not a disjoint, exhaustive, count-consistent
    cover of the dataset."""
    seen = np.concatenate(part.assignment) if part.assignment else np.array([], dtype=int)
    if len(seen) != len(ds) or len(np.unique(seen)) != len(ds):
        raise AssertionError("partition is not a disjoint cover of the dataset")
    for i, idx in enumerate(part.assignment):
        for c in range(ds.num_classes):
            if int((ds.labels[idx] == c).sum()) != int(part.class_counts[i, c]):
                raise AssertionError(f"class count mismatch at client {i}, class {c}")
    if abs(part.weights.sum() - 1.0) > 1e-12:
        raise AssertionError("client weights do not sum to 1")
