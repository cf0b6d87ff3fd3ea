import numpy as np
import pytest
from _helpers import check_partition, partition_score_std
from numpy.testing import assert_allclose

from fedcurr import (
    ConfigurationError,
    Partition,
    PartitionSpec,
    Scheme,
    gen_synthetic,
    partition,
    partition_difficulty,
)


def test_zero_noise_samples_sit_on_class_means():
    ds = gen_synthetic(50, 2, 4, 0.0, 0.0, seed=3)
    for c in range(2):
        rows = ds.features[ds.labels == c]
        assert np.all(rows == rows[0])
        assert abs(np.linalg.norm(rows[0]) - 1.0) < 1e-12
    assert np.all(ds.difficulty_noise == 0.0)


def test_generation_is_deterministic():
    a = gen_synthetic(200, 3, 5, 0.1, 1.0, seed=77)
    b = gen_synthetic(200, 3, 5, 0.1, 1.0, seed=77)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.difficulty_noise, b.difficulty_noise)


def test_generation_input_validation():
    with pytest.raises(ConfigurationError):
        gen_synthetic(2, 3, 4, 0.0, 1.0, seed=0)
    with pytest.raises(ConfigurationError):
        gen_synthetic(10, 2, 4, 1.0, 0.5, seed=0)


def test_difficulty_axis_raises_converged_loss():
    # A converged linear classifier sees monotonically larger average loss
    # on samples generated with larger noise magnitude.
    from fedcurr import ModelKind, ModelSpec, SgdHyper, per_sample_losses, train_centralized

    ds = gen_synthetic(1000, 2, 2, 0.1, 2.0, seed=202207)
    model = ModelSpec(ModelKind.SOFTMAX_REGRESSION, 2, 2)
    hyper = SgdHyper(eta0=0.01, momentum=0.9, weight_decay=1e-4, batch_size=10)
    params = train_centralized(model, ds, hyper, epochs=50, seed=1)
    losses = per_sample_losses(model, params, ds.batch())
    order = np.argsort(ds.difficulty_noise)
    quintiles = [losses[order[i * 200 : (i + 1) * 200]].mean() for i in range(5)]
    assert all(b > a for a, b in zip(quintiles, quintiles[1:]))
    assert quintiles[-1] > 2 * quintiles[0]
    corr = np.corrcoef(losses, ds.difficulty_noise)[0, 1]
    assert corr > 0.15


@pytest.mark.parametrize(
    "spec_kwargs",
    [
        dict(scheme=Scheme.IID),
        dict(scheme=Scheme.DIRICHLET, beta=0.05),
        dict(scheme=Scheme.DIRICHLET, beta=0.2),
        dict(scheme=Scheme.DIRICHLET, beta=0.9),
        dict(scheme=Scheme.LABEL_SKEW, skew_classes=2),
    ],
    ids=["iid", "dir005", "dir02", "dir09", "skew2"],
)
def test_partition_invariants(spec_kwargs):
    ds = gen_synthetic(1200, 10, 4, 0.1, 1.0, seed=5)
    for seed in range(3):
        part = partition(ds, PartitionSpec(num_clients=15, **spec_kwargs), seed)
        check_partition(ds, part)
        sizes = [len(a) for a in part.assignment]
        assert sum(sizes) == len(ds)
        assert min(sizes) >= 1


def test_iid_single_client_gets_everything():
    ds = gen_synthetic(100, 2, 3, 0.1, 1.0, seed=1)
    part = partition(ds, PartitionSpec(scheme=Scheme.IID, num_clients=1), 0)
    assert part.assignment[0].tolist() == list(range(100))


def test_dirichlet_high_beta_approaches_uniform():
    # beta -> infinity makes every client's class histogram uniform.
    for seed in range(5):
        ds = gen_synthetic(5000, 10, 4, 0.1, 1.0, seed=seed)
        part = partition(
            ds, PartitionSpec(scheme=Scheme.DIRICHLET, num_clients=10, beta=1e6), seed
        )
        hist = part.class_counts / np.array([len(a) for a in part.assignment])[:, None]
        assert np.abs(hist - 0.1).max() / 0.1 <= 0.2


def test_label_skew_two_classes_per_client():
    ds = gen_synthetic(10000, 10, 4, 0.1, 1.0, seed=9)
    part = partition(
        ds, PartitionSpec(scheme=Scheme.LABEL_SKEW, num_clients=100, skew_classes=2), 2
    )
    check_partition(ds, part)
    assert np.all((part.class_counts > 0).sum(axis=1) == 2)


def test_label_skew_infeasible():
    ds = gen_synthetic(100, 10, 4, 0.1, 1.0, seed=9)
    with pytest.raises(ConfigurationError):
        partition(
            ds, PartitionSpec(scheme=Scheme.LABEL_SKEW, num_clients=4, skew_classes=2), 0
        )


def test_label_skew_rejects_a_client_left_without_samples():
    # Both classes of 5 samples are split 8 ways; clients 5-7 would get none.
    ds = gen_synthetic(10, 2, 3, 0.1, 1.0, seed=1)
    with pytest.raises(ConfigurationError) as info:
        partition(ds, PartitionSpec(scheme=Scheme.LABEL_SKEW, num_clients=8, skew_classes=2), 0)
    assert info.value.field == "num_clients"
    assert "client 5" in str(info.value)
    part = partition(ds, PartitionSpec(scheme=Scheme.LABEL_SKEW, num_clients=5, skew_classes=2), 0)
    check_partition(ds, part)
    assert min(len(a) for a in part.assignment) >= 1


def _single_class_dataset(n):
    return gen_synthetic(n, 1, 2, 0.0, 1.0, seed=0)


def _two_client_partition(ds):
    return Partition(
        assignment=[np.array([0, 2]), np.array([1, 3])],
        class_counts=np.array([[2], [2]]),
    )


def test_difficulty_reshuffle_full_rank_order():
    ds = _single_class_dataset(4)
    base = _two_client_partition(ds)
    out = partition_difficulty(ds, base, 1.0, np.array([0.1, 0.2, 0.3, 0.4]), seed=11)
    assert out.assignment[0].tolist() == [0, 1]
    assert out.assignment[1].tolist() == [2, 3]


def test_difficulty_reshuffle_half_fraction():
    # floor(0.5 * 2) = 1 ranked element per client, consumed contiguously:
    # client 0 takes the rank-0 element, client 1 the rank-1 element, and
    # the two hardest are dealt at random.
    ds = _single_class_dataset(4)
    base = _two_client_partition(ds)
    losses = np.array([0.1, 0.2, 0.3, 0.4])
    seen_second = set()
    for seed in range(6):
        out = partition_difficulty(ds, base, 0.5, losses, seed=seed)
        assert 0 in out.assignment[0].tolist()
        assert 1 in out.assignment[1].tolist()
        assert set(np.concatenate(out.assignment).tolist()) == {0, 1, 2, 3}
        seen_second.add(tuple(sorted(out.assignment[0].tolist())))
    assert seen_second == {(0, 2), (0, 3)}


def test_difficulty_reshuffle_zero_fraction_is_random_deal():
    ds = gen_synthetic(600, 3, 4, 0.1, 1.0, seed=8)
    base = partition(ds, PartitionSpec(scheme=Scheme.DIRICHLET, num_clients=6, beta=0.3), 1)
    losses = np.random.default_rng(0).uniform(0.1, 2.0, 600)
    out = partition_difficulty(ds, base, 0.0, losses, seed=4)
    check_partition(ds, out)
    assert np.array_equal(out.class_counts, base.class_counts)
    again = partition_difficulty(ds, base, 0.0, losses, seed=4)
    assert all(np.array_equal(a, b) for a, b in zip(out.assignment, again.assignment))


@pytest.mark.parametrize("f_ord", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_difficulty_reshuffle_preserves_class_counts(f_ord):
    ds = gen_synthetic(900, 4, 3, 0.1, 1.5, seed=2)
    base = partition(ds, PartitionSpec(scheme=Scheme.DIRICHLET, num_clients=9, beta=0.2), 3)
    out = partition_difficulty(ds, base, f_ord, ds.difficulty_noise, seed=5)
    check_partition(ds, out)
    assert np.array_equal(out.class_counts, base.class_counts)


def test_full_reshuffle_concatenation_sorted_single_class():
    ds = _single_class_dataset(60)
    rng = np.random.default_rng(12)
    losses = rng.uniform(0.0, 5.0, 60)
    idx = np.arange(60)
    base = Partition(
        assignment=[idx[0:10], idx[10:35], idx[35:40], idx[40:60]],
        class_counts=np.array([[10], [25], [5], [20]]),
    )
    out = partition_difficulty(ds, base, 1.0, losses, seed=0)
    # Assignments are stored index-sorted, so compare rank blocks: sorted
    # within each client, the client-order concatenation is loss-sorted.
    chained = np.concatenate([np.sort(losses[out.assignment[i]]) for i in range(4)])
    assert np.all(np.diff(chained) >= 0)


def test_mean_score_std_nonincreasing_in_f_ord():
    # Larger ranked fractions concentrate similar-difficulty samples on the
    # same client; averaged over seeds the per-client spread shrinks.
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    totals = np.zeros(len(grid))
    for seed in range(5):
        ds = gen_synthetic(4000, 10, 4, 0.1, 2.0, seed=seed)
        base = partition(
            ds, PartitionSpec(scheme=Scheme.DIRICHLET, num_clients=20, beta=0.2), seed
        )
        losses = ds.difficulty_noise
        for i, f in enumerate(grid):
            out = partition_difficulty(ds, base, f, losses, seed=seed)
            totals[i] += partition_score_std(out, losses).mean()
    totals /= 5
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:])), totals


def test_partition_score_std_examples():
    part = Partition(
        assignment=[np.array([0, 1]), np.array([2, 3])],
        class_counts=np.array([[2], [2]]),
    )
    stds = partition_score_std(part, np.array([0.0, 2.0, 1.0, 1.0]))
    assert_allclose(stds, [1.0, 0.0])
    empty = Partition(
        assignment=[np.array([0, 1, 2, 3]), np.array([], dtype=int)],
        class_counts=np.array([[4], [0]]),
    )
    with pytest.raises(ValueError):
        partition_score_std(empty, np.zeros(4))

