import numpy as np
import pytest
from numpy.testing import assert_allclose

from fedcurr import (
    ConfigurationError,
    OrderingKind,
    PacingFamily,
    PacingSpec,
    ScoringKind,
    order_and_select,
    pace,
    score_samples,
    scores_from_losses,
)
from fedcurr.curriculum import PRED_BASED

LINEAR_SPEC = PacingSpec(PacingFamily.LINEAR, a=0.8, b=0.2)


def test_linear_pacing_exact_values():
    assert pace(LINEAR_SPEC, 0, 100, 100) == 20
    assert pace(LINEAR_SPEC, 40, 100, 100) == 60
    assert pace(LINEAR_SPEC, 80, 100, 100) == 100
    assert pace(LINEAR_SPEC, 100, 100, 100) == 100


@pytest.mark.parametrize("family", list(PacingFamily))
def test_pacing_boundaries_and_monotonicity(family):
    spec = PacingSpec(family, a=0.8, b=0.2)
    values = [pace(spec, t, 100, 100) for t in range(101)]
    assert values[0] == 20
    assert all(v == 100 for t, v in enumerate(values) if t >= 80)
    assert all(b >= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("family", list(PacingFamily))
def test_pacing_random_parameters(family):
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = rng.uniform(0.05, 1.0)
        b = rng.uniform(0.05, 1.0)
        n = int(rng.integers(1, 500))
        budget = int(rng.integers(1, 200))
        spec = PacingSpec(family, a=a, b=b)
        values = [pace(spec, t, n, budget) for t in range(budget + 1)]
        assert values[0] == min(n, max(1, int(np.floor(n * b + 0.5))))
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
        assert all(v == n for t, v in enumerate(values) if t >= a * budget)


def test_pacing_far_past_saturation():
    # Steps far beyond a*budget must not overflow the exponential family.
    spec = PacingSpec(PacingFamily.EXPONENTIAL, a=0.01, b=0.1)
    assert pace(spec, 1000, 50, 1000) == 50
    assert pace(spec, 10, 50, 1000) == 50


def test_pacing_step_out_of_range():
    with pytest.raises(ValueError):
        pace(LINEAR_SPEC, -1, 100, 100)
    with pytest.raises(ValueError):
        pace(LINEAR_SPEC, 101, 100, 100)


def test_invalid_pacing_parameters():
    with pytest.raises(ConfigurationError):
        PacingSpec(PacingFamily.LINEAR, a=0.0, b=0.2)
    with pytest.raises(ConfigurationError):
        PacingSpec(PacingFamily.LINEAR, a=0.5, b=1.5)


def test_inverse_loss_scores():
    scores = scores_from_losses(np.array([1.0, 0.5, 0.25]))
    # Proportional to the inverse losses 1, 2, 4.
    assert_allclose(scores / scores[0], [1.0, 2.0, 4.0], rtol=1e-15)
    assert_allclose(scores, [1 / 7, 2 / 7, 4 / 7], rtol=1e-14)
    assert abs(scores.sum() - 1.0) < 1e-12


def test_equal_losses_give_uniform_scores():
    scores = scores_from_losses(np.full(8, 0.37))
    assert_allclose(scores, 1 / 8, rtol=1e-14)


def test_scores_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        losses = rng.uniform(0.01, 10.0, int(rng.integers(2, 60)))
        scores = scores_from_losses(losses)
        assert abs(scores.sum() - 1.0) < 1e-12
        assert (scores > 0).all()
        order = np.argsort(losses)
        assert (np.diff(scores[order]) <= 0).all()


def test_loss_scaling_leaves_selection_unchanged():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        losses = rng.uniform(0.01, 10.0, n)
        c = rng.uniform(0.5, 2.0)
        count = int(rng.integers(1, n + 1))
        for ordering in (OrderingKind.CURRICULUM, OrderingKind.ANTI):
            base = order_and_select(scores_from_losses(losses), ordering, count)
            scaled = order_and_select(scores_from_losses(c * losses), ordering, count)
            assert set(base.tolist()) == set(scaled.tolist())
        r1 = order_and_select(scores_from_losses(losses), OrderingKind.RANDOM, count,
                              np.random.default_rng(7))
        r2 = order_and_select(scores_from_losses(c * losses), OrderingKind.RANDOM, count,
                              np.random.default_rng(7))
        assert set(r1.tolist()) == set(r2.tolist())


def test_order_and_select_examples():
    scores = np.array([4 / 7, 2 / 7, 1 / 7])
    assert set(order_and_select(scores, OrderingKind.CURRICULUM, 2).tolist()) == {0, 1}
    assert order_and_select(scores, OrderingKind.ANTI, 2).tolist() == [2, 1]
    for ordering in OrderingKind:
        picked = order_and_select(scores, ordering, 3, np.random.default_rng(0))
        assert set(picked.tolist()) == {0, 1, 2}


def test_selection_ties_break_by_index():
    scores = np.array([0.4, 0.4, 0.2])
    assert order_and_select(scores, OrderingKind.CURRICULUM, 2).tolist() == [0, 1]
    scores2 = np.array([0.2, 0.4, 0.2])
    assert order_and_select(scores2, OrderingKind.ANTI, 2).tolist() == [0, 2]


def test_selection_count_out_of_range():
    with pytest.raises(ValueError):
        order_and_select(np.array([0.5, 0.5]), OrderingKind.CURRICULUM, 0)
    with pytest.raises(ValueError):
        order_and_select(np.array([0.5, 0.5]), OrderingKind.CURRICULUM, 3)


def _classifier_arrays(m=10, classes=3):
    """Labels and two (per-sample losses, logits) pairs, as a client holds
    them at the global and at its local model."""
    rng = np.random.default_rng(21)
    y = rng.integers(0, classes, m)

    def at_model():
        return rng.uniform(0.1, 3.0, m), rng.standard_normal((m, classes))

    return y, at_model(), at_model()


@pytest.mark.parametrize("kind", [ScoringKind.G_PRED, ScoringKind.L_PRED], ids=lambda k: k.value)
def test_pred_scoring_all_correct_flags_easy(kind):
    # Labels that are the model's own argmax: every prediction is correct.
    _, at_global, at_local = _classifier_arrays()
    outputs = at_global[1] if kind is ScoringKind.G_PRED else at_local[1]
    y = outputs.argmax(axis=1)
    assert_allclose(score_samples(kind, y, at_global, at_local), 1.0)


def test_pred_scoring_flags_correct_predictions_only():
    y, at_global, at_local = _classifier_arrays()
    for kind, (_, outputs) in ((ScoringKind.G_PRED, at_global), (ScoringKind.L_PRED, at_local)):
        flags = score_samples(kind, y, at_global, at_local)
        assert np.array_equal(flags, (outputs.argmax(axis=1) == y).astype(np.float64))


def test_lg_pred_flags_model_agreement():
    # Agreement between the two models' argmax, whatever the labels say.
    y, at_global, at_local = _classifier_arrays(m=40)
    agree = at_local[1].argmax(axis=1) == at_global[1].argmax(axis=1)
    assert 0 < agree.sum() < len(y)
    flags = score_samples(ScoringKind.LG_PRED, y, at_global, at_local)
    assert np.array_equal(flags, agree.astype(np.float64))
    assert_allclose(score_samples(ScoringKind.LG_PRED, y, at_global, at_global), 1.0)


def test_loss_scorings_read_their_model_losses():
    y, at_global, at_local = _classifier_arrays()
    for kind, losses in ((ScoringKind.G_LOSS, at_global[0]), (ScoringKind.L_LOSS, at_local[0])):
        scores = score_samples(kind, y, at_global, at_local)
        assert np.array_equal(scores, scores_from_losses(losses))


def test_lg_loss_averages_global_and_local():
    y, at_global, at_local = _classifier_arrays()
    mean_loss = 0.5 * (at_global[0] + at_local[0])
    scores = score_samples(ScoringKind.LG_LOSS, y, at_global, at_local)
    assert np.array_equal(scores, scores_from_losses(mean_loss))


def test_expert_scoring_requires_expert_losses():
    y, at_global, at_local = _classifier_arrays()
    with pytest.raises(ConfigurationError, match="one expert loss per sample"):
        score_samples(ScoringKind.EXPERT, y, at_global, at_local)
    for rows in (-1, 1):
        with pytest.raises(ConfigurationError, match="one expert loss per sample"):
            score_samples(
                ScoringKind.EXPERT, y, at_global, at_local, expert_losses=np.ones(len(y) + rows)
            )


def test_expert_scoring_reads_the_given_losses():
    y, _, _ = _classifier_arrays()
    losses = np.linspace(0.5, 2.0, len(y))
    scores = score_samples(ScoringKind.EXPERT, y, None, None, expert_losses=losses)
    assert np.array_equal(scores, scores_from_losses(losses))


@pytest.mark.parametrize("kind", sorted(PRED_BASED, key=lambda k: k.value), ids=lambda k: k.value)
def test_pred_scoring_requires_classifier(kind):
    # Regression outputs are one value per sample: there is no class to take.
    y = np.array([0.0, 1.0, 2.0])
    at_model = (np.ones(3), np.array([0.2, 0.9, 2.1]))
    with pytest.raises(ConfigurationError, match="requires a classifier") as info:
        score_samples(kind, y, at_model, at_model)
    assert info.value.field == "scoring"


def test_random_scoring_reproducible():
    y, at_global, at_local = _classifier_arrays()
    t1 = score_samples(ScoringKind.RANDOM, y, at_global, at_local, rng=np.random.default_rng(5))
    t2 = score_samples(ScoringKind.RANDOM, y, None, None, rng=np.random.default_rng(5))
    assert np.array_equal(t1, t2)
    assert t1.shape == (len(y),)
    with pytest.raises(ConfigurationError, match="requires an rng"):
        score_samples(ScoringKind.RANDOM, y, at_global, at_local)
