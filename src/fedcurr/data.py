"""Synthetic data with a controllable difficulty axis, plus partitioners.

Samples are drawn as ``x = mean(class) + eps * u`` with per-sample noise
magnitude ``eps`` uniform in a configured range and ``u`` standard normal;
larger ``eps`` makes a sample harder in expectation and is recorded for
diagnostics. Partitioners cover IID dealing, Dirichlet label proportions,
k-class label skew, and a difficulty-ranked reshuffle that preserves the
per-client class counts of a base partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .models import Batch


class Scheme(Enum):
    IID = "iid"
    DIRICHLET = "dirichlet"
    LABEL_SKEW = "label_skew"


@dataclass
class Dataset:
    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) int in [0, num_classes)
    difficulty_noise: np.ndarray  # (n,) generation-time noise magnitude
    num_classes: int

    def __post_init__(self):
        n = self.features.shape[0]
        if n < 1 or self.labels.shape != (n,) or self.difficulty_noise.shape != (n,):
            raise ConfigurationError("inconsistent dataset arrays")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ConfigurationError("labels out of range")

    def __len__(self) -> int:
        return self.features.shape[0]

    def batch(self) -> Batch:
        return Batch(self.features, self.labels)


@dataclass(frozen=True)
class PartitionSpec:
    scheme: Scheme
    num_clients: int
    beta: float = 0.0  # Dirichlet concentration
    skew_classes: int = 0  # classes per client for label skew
    f_ord: float | None = None  # difficulty-reshuffle fraction, None = off

    def __post_init__(self):
        if self.num_clients < 1:
            raise ConfigurationError("num_clients must be >= 1", field="num_clients")
        if self.scheme is Scheme.DIRICHLET and not self.beta > 0:
            raise ConfigurationError("Dirichlet beta must be > 0", field="beta")
        if self.f_ord is not None:
            _check_f_ord(self.f_ord)


def _check_f_ord(f_ord: float) -> None:
    if not 0 <= f_ord <= 1:
        raise ConfigurationError("f_ord must be in [0, 1]", field="f_ord")


def _check_synthetic(n: int, classes: int, noise_low: float, noise_high: float) -> None:
    if classes < 1:
        raise ConfigurationError("need n >= classes >= 1", field="classes")
    if n < classes:
        raise ConfigurationError("need n >= classes >= 1", field="n")
    if not noise_low >= 0 or noise_low > noise_high:
        raise ConfigurationError("need 0 <= noise_low <= noise_high", field="noise_low")
    if not noise_high >= 0:
        raise ConfigurationError("need 0 <= noise_low <= noise_high", field="noise_high")


def _synthetic_class_sizes(n: int, classes: int) -> np.ndarray:
    """Samples per class of ``gen_synthetic(n, classes, ...)``, whose labels
    are ``arange(n) % classes``."""
    return n // classes + (np.arange(classes) < n % classes)


def _skew_holders(num_clients: int, skew_classes: int, num_classes: int) -> list[list[int]]:
    """Label skew's holders of each class, in ascending client id: client i
    holds classes (i*k + j) % C for j < k."""
    holders: list[list[int]] = [[] for _ in range(num_classes)]
    for i in range(num_clients):
        for j in range(skew_classes):
            holders[(i * skew_classes + j) % num_classes].append(i)
    return holders


def _check_feasible(spec: PartitionSpec, class_sizes: np.ndarray) -> None:
    """Rules that tie a partition spec to the per-class sample counts of its
    data."""
    if int(class_sizes.sum()) < spec.num_clients:
        raise ConfigurationError("fewer samples than clients", field="num_clients")
    if spec.scheme is not Scheme.LABEL_SKEW:
        return
    m, k, num_classes = spec.num_clients, spec.skew_classes, len(class_sizes)
    if not 1 <= k <= num_classes:
        raise ConfigurationError(
            "label-skew classes per client must be in [1, C]", field="skew_classes"
        )
    if m * k < num_classes:
        raise ConfigurationError(
            f"label skew infeasible: {m} clients * {k} classes < {num_classes}",
            field="skew_classes",
        )
    # A class of size s is split among its holders with np.array_split, which
    # gives rows to the first s holders only.
    fed = np.zeros(m, dtype=bool)
    for size, clients in zip(class_sizes, _skew_holders(m, k, num_classes)):
        fed[clients[:size]] = True
    if not fed.all():
        raise ConfigurationError(
            f"label skew leaves client {int(np.argmin(fed))} with no samples: "
            f"too few samples per class for {m} clients",
            field="num_clients",
        )


@dataclass
class Partition:
    assignment: list[np.ndarray]  # client -> sorted sample indices
    class_counts: np.ndarray  # (num_clients, num_classes)

    @property
    def num_clients(self) -> int:
        return len(self.assignment)


def _class_means(classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm class means: signed basis vectors while they last, then
    normalized Gaussian draws."""
    means = np.zeros((classes, dim))
    for c in range(classes):
        if c < 2 * dim:
            means[c, c // 2] = 1.0 if c % 2 == 0 else -1.0
        else:
            v = rng.standard_normal(dim)
            means[c] = v / np.linalg.norm(v)
    return means


def gen_synthetic(
    n: int,
    classes: int,
    dim: int,
    noise_low: float,
    noise_high: float,
    seed: int,
) -> Dataset:
    """Gaussian blobs around unit-norm class means with per-sample noise
    magnitude drawn uniform from [noise_low, noise_high]."""
    _check_synthetic(n, classes, noise_low, noise_high)
    rng = np.random.default_rng(seed)
    means = _class_means(classes, dim, rng)
    labels = np.arange(n) % classes
    eps = rng.uniform(noise_low, noise_high, n)
    u = rng.standard_normal((n, dim))
    features = means[labels] + eps[:, None] * u
    return Dataset(features=features, labels=labels, difficulty_noise=eps, num_classes=classes)


def _finalize(ds: Dataset, assignment: list[np.ndarray]) -> Partition:
    m = len(assignment)
    counts = np.zeros((m, ds.num_classes), dtype=np.int64)
    for i, idx in enumerate(assignment):
        assignment[i] = np.sort(np.asarray(idx, dtype=np.int64))
        vals, cnt = np.unique(ds.labels[assignment[i]], return_counts=True)
        counts[i, vals] = cnt
    return Partition(assignment=assignment, class_counts=counts)


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer quotas summing to ``total``; ties go to the lowest index."""
    raw = proportions * total
    quotas = np.floor(raw).astype(np.int64)
    short = total - int(quotas.sum())
    if short > 0:
        order = np.argsort(-(raw - quotas), kind="stable")
        quotas[order[:short]] += 1
    return quotas


def partition(ds: Dataset, spec: PartitionSpec, seed: int) -> Partition:
    """Deal dataset indices to clients under the requested scheme, drawing
    from a generator seeded with ``seed``."""
    m, n = spec.num_clients, len(ds)
    _check_feasible(spec, np.bincount(ds.labels, minlength=ds.num_classes))
    rng = np.random.default_rng(seed)

    if spec.scheme is Scheme.IID:
        perm = rng.permutation(n)
        return _finalize(ds, [perm[i::m] for i in range(m)])

    if spec.scheme is Scheme.DIRICHLET:
        assignment: list[list[int]] = [[] for _ in range(m)]
        for c in range(ds.num_classes):
            pool = rng.permutation(np.flatnonzero(ds.labels == c))
            quotas = _largest_remainder(rng.dirichlet(np.full(m, spec.beta)), len(pool))
            start = 0
            for i in range(m):
                assignment[i].extend(pool[start : start + quotas[i]])
                start += quotas[i]
        # Small beta concentrates whole classes on few clients and can starve
        # the rest; give every empty client one sample from the largest one,
        # which holds two or more since n >= m.
        for i in range(m):
            while not assignment[i]:
                donor = max(range(m), key=lambda j: (len(assignment[j]), j))
                assignment[i].append(assignment[donor].pop())
        return _finalize(ds, [np.array(a) for a in assignment])

    holders = _skew_holders(m, spec.skew_classes, ds.num_classes)
    assignment = [[] for _ in range(m)]
    for c in range(ds.num_classes):
        pool = rng.permutation(np.flatnonzero(ds.labels == c))
        chunks = np.array_split(pool, len(holders[c]))
        for client, chunk in zip(holders[c], chunks):
            assignment[client].extend(chunk)
    return _finalize(ds, [np.array(a) for a in assignment])


def partition_difficulty(
    ds: Dataset,
    base: Partition,
    f_ord: float,
    expert_losses: np.ndarray,
    seed: int,
) -> Partition:
    """Reshuffle samples between clients by difficulty rank, preserving the
    base partition's per-client class counts exactly.

    Per class, samples are sorted by expert loss ascending; client i takes
    floor(f_ord * N_{i,c}) of them in rank order (clients consume the ranked
    list contiguously in id order), and the leftover samples of the class are
    dealt uniformly at random to fill each client's remaining class quota.
    """
    _check_f_ord(f_ord)
    expert_losses = np.asarray(expert_losses, dtype=np.float64)
    if expert_losses.shape != (len(ds),):
        raise ConfigurationError("expert loss vector length must match the dataset")
    if int(base.class_counts.sum()) != len(ds):
        raise ConfigurationError("base partition does not cover the dataset")
    rng = np.random.default_rng(seed)
    m = base.num_clients
    assignment: list[list[int]] = [[] for _ in range(m)]
    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.labels == c)
        ranked = members[np.argsort(expert_losses[members], kind="stable")]
        counts = base.class_counts[:, c]
        take = np.array([int(math.floor(f_ord * int(q) + 1e-9)) for q in counts])
        pos = 0
        for i in range(m):
            assignment[i].extend(ranked[pos : pos + take[i]])
            pos += take[i]
        rest = rng.permutation(ranked[pos:])
        start = 0
        for i in range(m):
            r = int(counts[i]) - take[i]
            assignment[i].extend(rest[start : start + r])
            start += r
    out = _finalize(ds, [np.array(a, dtype=np.int64) for a in assignment])
    if not np.array_equal(out.class_counts, base.class_counts):
        raise AssertionError("difficulty reshuffle changed class counts")
    return out
