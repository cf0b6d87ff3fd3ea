import numpy as np
import pytest
from numpy.testing import assert_allclose

from fedcurr import (
    Batch,
    ClientSelectionConfig,
    ModelKind,
    ModelSpec,
    OrderingKind,
    PacingFamily,
    PacingSpec,
    client_loss,
    per_sample_losses,
    score_clients,
    select_clients,
)

MODEL = ModelSpec(ModelKind.LINEAR_REGRESSION, input_dim=2)


def _batch_with_losses(values):
    # Linear model with zero parameters predicts 0, so a target of
    # sqrt(2*loss) realizes any requested per-sample squared-error loss.
    values = np.asarray(values, dtype=np.float64)
    return Batch(np.zeros((len(values), 2)), np.sqrt(2 * values))


def test_client_loss_is_mean_of_sample_losses():
    params = np.zeros(3)
    assert client_loss(MODEL, params, _batch_with_losses([0.5, 1.5])) == pytest.approx(1.0)
    assert client_loss(MODEL, params, _batch_with_losses([2.0])) == pytest.approx(2.0)


def test_client_loss_invariant_to_duplication():
    params = np.zeros(3)
    batch = _batch_with_losses([0.3, 0.9, 2.1])
    doubled = _batch_with_losses([0.3, 0.9, 2.1, 0.3, 0.9, 2.1])
    assert client_loss(MODEL, params, batch) == pytest.approx(
        client_loss(MODEL, params, doubled)
    )


def test_score_clients_orders_inverse_to_loss():
    params = np.zeros(3)
    batches = [_batch_with_losses([3.0]), _batch_with_losses([1.0]), _batch_with_losses([2.0])]
    losses = score_clients([per_sample_losses(MODEL, params, b) for b in batches])
    assert losses.shape == (3,)
    assert_allclose(losses, [3.0, 1.0, 2.0], rtol=1e-12)
    assert np.argsort(losses).tolist() == [1, 2, 0]


def test_score_clients_is_each_mean_bit_for_bit():
    # Sizes from one sample up, past numpy's 8-wide pairwise-summation
    # blocks, with losses whose sums round.
    rng = np.random.default_rng(23)
    losses = [rng.exponential(size=n) * 10.0 ** rng.integers(-8, 8) for n in
              (1, 1, 2, 3, 7, 8, 9, 17, 128, 129, 1000)]
    expected = np.array([l.mean() for l in losses])
    assert score_clients(losses).tobytes() == expected.tobytes()


def _config(ordering, a=0.8, b=0.2):
    return ClientSelectionConfig(
        pacing=PacingSpec(PacingFamily.LINEAR, a=a, b=b),
        ordering=ordering,
    )


def _scores(losses):
    return np.asarray(losses, dtype=np.float64)


def test_select_clients_batch_equals_eligible_when_k_matches():
    cfg = _config(OrderingKind.CURRICULUM, b=0.2)
    losses = np.arange(1.0, 11.0)
    picked = select_clients(_scores(losses), cfg, 0, 10, 2, np.random.default_rng(0))
    assert picked == [0, 1]


def test_select_clients_curriculum_prefers_low_loss():
    cfg = _config(OrderingKind.CURRICULUM, b=0.67)
    picked = select_clients(_scores([3.0, 1.0, 2.0]), cfg, 0, 10, 2, np.random.default_rng(1))
    assert picked == [1, 2]


def test_select_clients_anti_prefers_high_loss():
    cfg = _config(OrderingKind.ANTI, b=0.67)
    picked = select_clients(_scores([3.0, 1.0, 2.0]), cfg, 0, 10, 2, np.random.default_rng(1))
    assert picked == [0, 2]


def test_select_clients_random_reproducible():
    cfg = _config(OrderingKind.RANDOM)
    losses = np.random.default_rng(3).uniform(0.5, 2.0, 20)
    a = select_clients(_scores(losses), cfg, 2, 10, 5, np.random.default_rng(42))
    b = select_clients(_scores(losses), cfg, 2, 10, 5, np.random.default_rng(42))
    assert a == b


def test_select_clients_rescaling_invariance():
    losses = np.random.default_rng(8).uniform(0.5, 3.0, 12)
    for ordering in (OrderingKind.CURRICULUM, OrderingKind.ANTI):
        cfg = _config(ordering, b=0.5)
        a = select_clients(_scores(losses), cfg, 1, 10, 4, np.random.default_rng(5))
        b = select_clients(_scores(3.7 * losses), cfg, 1, 10, 4, np.random.default_rng(5))
        assert a == b


def test_selected_batch_subset_of_eligible():
    rng = np.random.default_rng(17)
    losses = rng.uniform(0.1, 5.0, 30)
    order = np.argsort(losses)
    for t in range(0, 11, 2):
        cfg = _config(OrderingKind.CURRICULUM)
        from fedcurr import pace

        k = pace(cfg.pacing, t, 30, 10)
        eligible = set(order[:k].tolist())
        picked = select_clients(_scores(losses), cfg, t, 10, 6, rng)
        assert set(picked) <= eligible
        assert len(picked) == min(6, k)
        assert picked == sorted(picked)


def test_everything_eligible_random_ordering_matches_vanilla_sampling():
    # Full initial fraction plus random ordering reduces to plain uniform
    # sampling of Q clients: every client is eligible from round 0 and the
    # draw frequencies are flat.
    m, q = 20, 5
    cfg = _config(OrderingKind.RANDOM, b=1.0)
    losses = np.random.default_rng(2).uniform(0.5, 2.0, m)
    rng = np.random.default_rng(0)
    counts = np.zeros(m)
    for t in range(2000):
        picked = select_clients(_scores(losses), cfg, t % 10, 10, q, rng)
        assert len(picked) == q
        counts[picked] += 1
    freq = counts / counts.sum()
    assert freq.max() / freq.min() < 1.3

