import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _helpers import batch_loss, forward_reference, terms_grad_reference

from fedcurr import (
    Batch,
    ConfigurationError,
    ModelKind,
    ModelSpec,
    SgdHyper,
    grad,
    hessian_decomposition,
    init_params,
    per_sample_losses,
    sgd_step,
)

SOFTMAX = ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=3, num_classes=4)
LINEAR = ModelSpec(ModelKind.LINEAR_REGRESSION, input_dim=3)
MLP_REG = ModelSpec(ModelKind.MLP_TANH, input_dim=3, num_classes=1, hidden_dim=5)
MLP_CLF = ModelSpec(ModelKind.MLP_TANH, input_dim=3, num_classes=4, hidden_dim=5)
ALL_MODELS = [SOFTMAX, LINEAR, MLP_REG, MLP_CLF]


def random_batch(model, rng, m=8):
    x = rng.standard_normal((m, model.input_dim))
    if model.is_classifier:
        y = rng.integers(0, model.num_classes, m)
    else:
        y = rng.standard_normal(m)
    return Batch(x, y)


def fd_gradient(model, params, batch):
    """Central finite differences of the mean batch loss, h = 1e-6*(1+|p_i|)."""
    out = np.zeros_like(params)
    for i in range(len(params)):
        h = 1e-6 * (1.0 + abs(params[i]))
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (batch_loss(model, up, batch) - batch_loss(model, dn, batch)) / (2 * h)
    return out


def test_param_count():
    assert SOFTMAX.param_count() == 4 * 3 + 4
    assert LINEAR.param_count() == 4
    assert MLP_REG.param_count() == 5 * 3 + 5 + 5 + 1
    assert MLP_CLF.param_count() == 5 * 3 + 5 + 4 * 5 + 4


def test_zero_params_softmax_loss_is_log_classes():
    model = ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=2, num_classes=2)
    batch = Batch(np.array([[0.3, -1.2], [2.0, 0.1]]), np.array([0, 1]))
    losses = per_sample_losses(model, np.zeros(model.param_count()), batch)
    assert_allclose(losses, math.log(2.0), rtol=0, atol=1e-15)


def test_linear_zero_residual_has_zero_loss_and_gradient():
    x = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
    w = np.array([0.7, -0.3, 1.1])
    b = 0.25
    batch = Batch(x, x @ w + b)
    params = np.concatenate([w, [b]])
    assert_allclose(per_sample_losses(LINEAR, params, batch), 0.0, atol=1e-30)
    assert_allclose(grad(LINEAR, params, batch), 0.0, atol=1e-15)


def test_hand_evaluated_forward_pass():
    # Two-class softmax on three fixed samples, evaluated sample by sample
    # with plain scalar arithmetic.
    model = ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=2, num_classes=2)
    w = [[0.5, -1.0], [0.2, 0.3]]
    b = [0.1, -0.2]
    params = np.array([0.5, -1.0, 0.2, 0.3, 0.1, -0.2])
    xs = [(1.0, 2.0), (-0.5, 0.0), (3.0, -1.0)]
    ys = [1, 0, 1]
    expected = []
    for (x0, x1), y in zip(xs, ys):
        z = [w[c][0] * x0 + w[c][1] * x1 + b[c] for c in range(2)]
        denom = math.exp(z[0]) + math.exp(z[1])
        expected.append(-math.log(math.exp(z[y]) / denom))
    batch = Batch(np.array(xs), np.array(ys))
    assert_allclose(per_sample_losses(model, params, batch), expected, rtol=1e-14)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind.value + str(m.num_classes))
def test_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = init_params(model, rng)
        batch = random_batch(model, rng)
        g = grad(model, params, batch)
        g_fd = fd_gradient(model, params, batch)
        err = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
        assert err <= 1e-5


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind.value + str(m.num_classes))
def test_duplicated_batch_gives_same_gradient(model):
    rng = np.random.default_rng(5)
    params = init_params(model, rng)
    batch = random_batch(model, rng, m=6)
    doubled = Batch(np.vstack([batch.x, batch.x]), np.concatenate([batch.y, batch.y]))
    assert_allclose(grad(model, params, batch), grad(model, params, doubled), rtol=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind.value + str(m.num_classes))
def test_per_sample_mean_equals_batch_loss(model):
    rng = np.random.default_rng(7)
    params = init_params(model, rng)
    batch = random_batch(model, rng)
    assert abs(per_sample_losses(model, params, batch).mean() - batch_loss(model, params, batch)) < 1e-12


def _indexed_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@pytest.mark.parametrize("model", [SOFTMAX, MLP_CLF], ids=lambda m: m.kind.value)
def test_classifier_losses_and_gradient_match_indexed_form_exactly(model):
    # The models take the row max column by column and subtract a one-hot
    # matrix; both must give the bits of the row-reduced, indexed form.
    from fedcurr.models import _forward

    rng = np.random.default_rng(17)
    for _ in range(20):
        params = 30.0 * init_params(model, rng)  # logits far apart
        batch = random_batch(model, rng, m=13)
        m = len(batch)
        terms = _indexed_log_softmax(_forward(model, params, batch.x)[0])
        assert np.array_equal(per_sample_losses(model, params, batch), -terms[np.arange(m), batch.y])
        if model is SOFTMAX:
            p = np.exp(terms)
            p[np.arange(m), batch.y] -= 1.0
            p /= m
            expected = np.concatenate([(p.T @ batch.x).ravel(), p.sum(axis=0)])
            assert np.array_equal(grad(model, params, batch), expected)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind.value + str(m.num_classes))
def test_blockwise_losses_and_grads_match_per_block_calls_exactly(model):
    # The row-wise part runs once over all blocks; each block must still get
    # the bits of its own per_sample_losses and grad calls.
    from fedcurr.models import _forward, _losses_and_grads, _targets

    rng = np.random.default_rng(19)
    params = init_params(model, rng)
    blocks = [random_batch(model, rng, m=m) for m in (1, 5, 13, 2)]
    losses, grads, outputs = _losses_and_grads(
        model, params, [b.x for b in blocks], [b.y for b in blocks],
        [_targets(model, b.y) for b in blocks],
    )
    for block, block_losses, block_grad, out in zip(blocks, losses, grads, outputs):
        assert np.array_equal(block_losses, per_sample_losses(model, params, block))
        assert np.array_equal(block_grad(), grad(model, params, block))
        assert np.array_equal(out, _forward(model, params, block.x)[0])


WIDE_MODELS = [
    ModelSpec(ModelKind.LINEAR_REGRESSION, input_dim=20),
    ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=20, num_classes=10),
    ModelSpec(ModelKind.MLP_TANH, input_dim=20, num_classes=10, hidden_dim=64),
    ModelSpec(ModelKind.MLP_TANH, input_dim=20, num_classes=1, hidden_dim=64),
]


@pytest.mark.parametrize(
    "rows", [slice(0, 1), slice(10_000, None), slice(0, 10_000)], ids=["m1", "remainder", "m10000"]
)
@pytest.mark.parametrize("model", WIDE_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
def test_in_place_kernels_match_out_of_place_formulas(model, rows):
    # The forward pass and the gradient write into arrays they own; every
    # bit must equal the out-of-place expressions and np.concatenate. The
    # 7-row remainder is a view that starts mid-array, as the last
    # mini-batch of an epoch does.
    from fedcurr.models import _forward, _output_terms, _targets, _terms_grad

    rng = np.random.default_rng(29)
    params = 3.0 * init_params(model, rng)
    x, y = rng.standard_normal((10_007, 20))[rows], rng.integers(0, 10, 10_007)[rows]
    out, hidden = _forward(model, params, x)
    ref_out, ref_hidden = forward_reference(model, params, x)
    assert np.array_equal(out, ref_out)
    assert hidden is ref_hidden is None or np.array_equal(hidden, ref_hidden)
    target = _targets(model, y)
    terms = _output_terms(model, out, target)
    if model.is_classifier:
        assert np.array_equal(terms, _indexed_log_softmax(ref_out))
    g = np.full(model.param_count(), np.nan)
    assert _terms_grad(model, params, x, target, terms, hidden, out=g) is g
    assert np.array_equal(g, terms_grad_reference(model, params, x, target, terms, hidden))
    assert np.array_equal(_terms_grad(model, params, x, target, terms, hidden), g)


def test_mlp_forward_allocates_one_hidden_array():
    # x @ w1.T + b1 and its tanh used to take a fresh (m, h) array each,
    # a peak of about 2 m*h*8 bytes; in place it is one plus the logits.
    from fedcurr.models import _forward

    model = WIDE_MODELS[2]
    rng = np.random.default_rng(31)
    params, x = init_params(model, rng), rng.standard_normal((10_000, 20))
    tracemalloc.start()
    try:
        _forward(model, params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 10_000 * 64 * 8


def test_dimension_mismatch_raises():
    batch = Batch(np.ones((2, 5)), np.array([0, 1]))
    with pytest.raises(ConfigurationError):
        per_sample_losses(SOFTMAX, np.zeros(SOFTMAX.param_count()), batch)


def test_sgd_step_plain():
    hyper = SgdHyper(eta0=0.1, decay_alpha=0.0, decay_b=0.0, momentum=0.0, weight_decay=0.0)
    theta = np.array([1.0, -2.0])
    g = np.array([0.5, 0.5])
    new, v = sgd_step(theta, g, hyper, 3, np.zeros(2))
    assert_allclose(new, theta - 0.1 * g)
    assert_allclose(v, g)


def test_sgd_step_fixed_point():
    hyper = SgdHyper(eta0=0.1, momentum=0.9, weight_decay=0.0)
    theta = np.array([1.0, -2.0])
    new, v = sgd_step(theta, np.zeros(2), hyper, 0, np.zeros(2))
    assert_allclose(new, theta)
    assert_allclose(v, 0.0)


def test_learning_rate_schedule_at_zero():
    hyper = SgdHyper(eta0=0.001, decay_alpha=0.001, decay_b=0.75)
    assert hyper.learning_rate(0) == 0.001
    assert 0 < hyper.learning_rate(100) < 0.001


def test_sgd_monotone_on_quadratic():
    # Constant-rate SGD without momentum/decay contracts ||theta - theta*||
    # on a quadratic whenever eta < 2/L.
    rng = np.random.default_rng(3)
    eigs = np.array([0.5, 1.0, 2.5, 4.0])
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = q @ np.diag(eigs) @ q.T
    star = rng.standard_normal(4)
    hyper = SgdHyper(eta0=0.4, decay_alpha=0.0, decay_b=0.0, momentum=0.0, weight_decay=0.0)
    theta = star + rng.standard_normal(4)
    v = np.zeros(4)
    dist = np.linalg.norm(theta - star)
    for i in range(50):
        theta, v = sgd_step(theta, a @ (theta - star), hyper, i, v)
        new_dist = np.linalg.norm(theta - star)
        assert new_dist <= dist + 1e-15
        dist = new_dist


def test_hessian_linear_residual_is_zero():
    rng = np.random.default_rng(9)
    batch = Batch(rng.standard_normal((6, 3)), rng.standard_normal(6))
    params = rng.standard_normal(4)
    dec = hessian_decomposition(LINEAR, params, batch)
    assert_allclose(dec.residual_term, 0.0, atol=0)
    assert_allclose(dec.full, dec.gauss_newton, atol=0)
    # Feature block of the outer-product term is the raw second moment.
    assert_allclose(dec.gauss_newton[:3, :3], batch.x.T @ batch.x / 6, rtol=1e-14)


def test_hessian_mlp_zero_residual():
    # Targets equal to the model outputs zero every residual factor.
    rng = np.random.default_rng(13)
    params = init_params(MLP_REG, rng)
    x = rng.standard_normal((5, 3))
    from fedcurr.models import _forward

    exact = Batch(x, _forward(MLP_REG, params, x)[0])
    dec = hessian_decomposition(MLP_REG, params, exact)
    assert_allclose(dec.residual_term, 0.0, atol=1e-14)


def test_hessian_mlp_matches_fd_of_gradient():
    rng = np.random.default_rng(17)
    params = init_params(MLP_REG, rng)
    batch = random_batch(MLP_REG, rng, m=6)
    dec = hessian_decomposition(MLP_REG, params, batch)
    p = len(params)
    fd = np.zeros((p, p))
    for i in range(p):
        h = 1e-5 * (1.0 + abs(params[i]))
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        fd[:, i] = (grad(MLP_REG, up, batch) - grad(MLP_REG, dn, batch)) / (2 * h)
    assert np.abs(dec.full - fd).max() <= 1e-4
    assert np.abs(dec.full - (dec.gauss_newton + dec.residual_term)).max() <= 1e-10


@pytest.mark.parametrize("model", [LINEAR, MLP_REG], ids=["linear", "mlp"])
def test_hessian_gauss_newton_psd(model):
    rng = np.random.default_rng(23)
    for _ in range(10):
        params = init_params(model, rng)
        batch = random_batch(model, rng)
        dec = hessian_decomposition(model, params, batch)
        assert dec.min_eig_gn >= -1e-10


def test_hessian_rejects_classifiers():
    rng = np.random.default_rng(1)
    with pytest.raises(ConfigurationError):
        hessian_decomposition(SOFTMAX, init_params(SOFTMAX, rng), random_batch(SOFTMAX, rng))


def test_init_params_bounded_by_fan_in():
    rng = np.random.default_rng(2)
    params = init_params(MLP_CLF, rng)
    assert params.shape == (MLP_CLF.param_count(),)
    assert np.abs(params[: 5 * 3 + 5]).max() <= 1 / math.sqrt(3)
    assert np.abs(params[5 * 3 + 5 :]).max() <= 1 / math.sqrt(5)
