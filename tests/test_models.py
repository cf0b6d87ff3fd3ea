import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _helpers import (
    _mlp_blocks,
    batch_loss,
    forward_reference,
    init_reference,
    jacobian_reference,
    mlp_output_hessian_reference,
    targets_reference,
    terms_grad_reference,
)

from fedcurr import (
    Batch,
    ConfigurationError,
    ModelKind,
    ModelSpec,
    SgdHyper,
    evaluate,
    grad,
    hessian_decomposition,
    init_params,
    per_sample_losses,
    sgd_step,
)
from fedcurr.models import _layers

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
    assert SOFTMAX.layer_shapes() == [(3, 4)]
    assert LINEAR.layer_shapes() == [(3, 1)]
    assert MLP_REG.layer_shapes() == [(3, 5), (5, 1)]
    assert MLP_CLF.layer_shapes() == [(3, 5), (5, 4)]


def _models_of_every_kind():
    for d, c, h in [(1, 2, 1), (3, 4, 5), (8, 10, 2), (20, 3, 64)]:
        yield ModelSpec(ModelKind.LINEAR_REGRESSION, input_dim=d)
        yield ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=d, num_classes=c)
        yield ModelSpec(ModelKind.MLP_TANH, input_dim=d, num_classes=1, hidden_dim=h)
        yield ModelSpec(ModelKind.MLP_TANH, input_dim=d, num_classes=c, hidden_dim=h)


def test_init_params_keeps_the_per_kind_draws():
    for i, model in enumerate(_models_of_every_kind()):
        params = init_params(model, np.random.default_rng(i))
        assert params.shape == (model.param_count(),)
        assert np.array_equal(params, init_reference(model, np.random.default_rng(i)))


def test_layers_hand_out_each_flat_index_once_in_storage_order():
    for model in _models_of_every_kind():
        p = model.param_count()
        layers = _layers(model, np.arange(p))
        # Weights come transposed, (in, out), biases as (1, out).
        views = [a for w, b in layers for a in (w.T, b[0])]
        assert np.array_equal(np.concatenate([v.ravel() for v in views]), np.arange(p))
        if model.kind is ModelKind.MLP_TANH:
            blocks = _mlp_blocks(model, np.arange(p))
        else:
            d, c = model.input_dim, p // (model.input_dim + 1)
            blocks = (np.arange(c * d).reshape(c, d), np.arange(c * d, p))
        assert len(views) == len(blocks)
        for view, block in zip(views, blocks):
            assert np.array_equal(view, block)


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
    from fedcurr.models import _bind_forward

    rng = np.random.default_rng(17)
    for _ in range(20):
        params = 30.0 * init_params(model, rng)  # logits far apart
        batch = random_batch(model, rng, m=13)
        m = len(batch)
        terms = _indexed_log_softmax(_bind_forward(model, params)(batch.x)[0])
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
    from fedcurr.models import _bind_forward, _pass, _Pool, _terms_grad

    rng = np.random.default_rng(19)
    params = init_params(model, rng)
    blocks = [random_batch(model, rng, m=m) for m in (1, 5, 13, 2)]
    # Each block's rows and labels read from a pool over all blocks, each
    # block one client, as a run reads its clients'.
    pool = _Pool(model, SgdHyper(), [(b, [np.arange(len(b))]) for b in blocks])
    _, xs, ys = zip(*(client for [client] in pool.clients))
    passes = _pass(model, params, xs, ys)
    for block, x, y, block_losses, out, terms, hidden in zip(blocks, xs, ys, *passes):
        assert np.array_equal(block_losses, per_sample_losses(model, params, block))
        block_grad = _terms_grad(model, params, x, y, terms, hidden)
        assert np.array_equal(block_grad, grad(model, params, block))
        ref = _bind_forward(model, params)(block.x)[0]
        assert np.array_equal(out, ref if model.is_classifier else ref[:, 0])


WIDE_MODELS = [
    ModelSpec(ModelKind.LINEAR_REGRESSION, input_dim=20),
    ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=20, num_classes=10),
    ModelSpec(ModelKind.MLP_TANH, input_dim=20, num_classes=10, hidden_dim=64),
    ModelSpec(ModelKind.MLP_TANH, input_dim=20, num_classes=1, hidden_dim=64),
]
# The desk benchmark's model: 10 features, 4 classes, batches of 10 rows.
DESK_SOFTMAX = ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=10, num_classes=4)


def cohort_step(model, params, x, y):
    """One lockstep step of full slots through ``models._Pool.kernel``:
    parameters (k, dim), rows (k, b, d) and labels (k, b). Returns the
    outputs (k, b, C or 1), the MLP's activations and the gradients (k, dim)."""
    from fedcurr.models import _Pool

    k, b = y.shape
    data = Batch(x.reshape(k * b, -1), y.ravel())
    pool = _Pool(model, SgdHyper(batch_size=b), [(data, [np.arange(k * b)])])
    forward, backward, theta, *_, xs, labels = pool.kernel(k)
    theta[:] = params
    pool.x.take(np.arange(k * b).reshape(k, b), axis=0, out=xs)
    pool.y.take(np.arange(k * b).reshape(k, b), out=labels)
    forward()
    out = pool.out[:k].copy()
    hidden = None if pool.hidden is None else pool.hidden[:k].copy()
    backward([])
    return out, hidden, pool.g[:k].copy()


def terms_reference(model, out, y):
    """The loss terms of the outputs ``out`` as out-of-place expressions:
    log-probabilities for classifiers, residuals otherwise."""
    return _indexed_log_softmax(out) if model.is_classifier else out - y


KERNEL_MODELS = {
    "linear": WIDE_MODELS[0], "softmax": WIDE_MODELS[1], "mlp": WIDE_MODELS[2],
    "mlp_scalar": WIDE_MODELS[3], "desk": DESK_SOFTMAX,
}


@pytest.mark.parametrize(
    "rows",
    [
        slice(0, 1), slice(10_000, None), slice(0, 10_000),
        slice(0, 10), slice(0, 100), slice(0, 2000),
    ],
    ids=["m1", "remainder", "m10000", "m10", "m100", "m2000"],
)
@pytest.mark.parametrize("model", KERNEL_MODELS.values(), ids=KERNEL_MODELS)
def test_in_place_kernels_match_out_of_place_formulas(model, rows):
    # The forward pass and the gradient write their products with np.matmul
    # into arrays they own; every bit must equal the out-of-place @
    # expressions and np.concatenate, in the one-shot calls and in a local
    # step's kernel, here one full slot of a lockstep cohort. The 7-row
    # remainder is a view that starts mid-array, as the last mini-batch of an
    # epoch does. With fewer than 8 classes the one-shot log-softmax sums
    # each row column by column.
    from fedcurr.models import _pass, _terms_grad

    rng = np.random.default_rng(29)
    params = 3.0 * init_params(model, rng)
    labels = model.num_classes if model.is_classifier else 10
    x = rng.standard_normal((10_007, model.input_dim))[rows]
    y = rng.integers(0, labels, 10_007)[rows]
    _, [out], [terms], [hidden] = _pass(model, params, [x], [y])
    ref_out, ref_hidden = forward_reference(model, params, x)
    assert np.array_equal(out, ref_out)
    assert hidden is ref_hidden is None or np.array_equal(hidden, ref_hidden)
    target = targets_reference(model, y)
    assert np.array_equal(terms, terms_reference(model, ref_out, y))
    ref_g = terms_grad_reference(model, params, x, target, terms, hidden)
    assert np.array_equal(_terms_grad(model, params, x, y, terms, hidden), ref_g)
    assert np.array_equal(cohort_step(model, params[None], x[None], y[None])[2][0], ref_g)


# A round's cohort, and the stack sizes of a share's lockstep jobs: 16 slots
# for 4 jobs of 4 participants, 40 and 80 for shares of 4 and 8 jobs of 10.
STACKS = [(slots, rows) for slots in (1, 2, 3, 5) for rows in (1, 2, 7, 10, 100)]
STACKS += [(slots, rows) for slots in (16, 40, 80) for rows in (10, 100)]
# Degenerate widths, a feature, a hidden unit or two classes, where numpy
# routes a product with a dimension of 1 past the matrix-matrix BLAS call.
NARROW_MODELS = (
    [ModelSpec(ModelKind.LINEAR_REGRESSION, input_dim=d) for d in (1, 2, 3)]
    + [
        ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=d, num_classes=c)
        for d in (1, 2, 3)
        for c in (2, 3)
    ]
    + [
        ModelSpec(ModelKind.MLP_TANH, input_dim=d, num_classes=c, hidden_dim=h)
        for d in (1, 2, 3)
        for c in (1, 2, 3)
        for h in (1, 2, 3)
    ]
)
STACK_CASES = [
    pytest.param(model, slots, rows, id=f"{name}-{slots}-{rows}")
    for name, model in KERNEL_MODELS.items()
    for slots, rows in STACKS
] + [
    pytest.param(
        model, slots, rows,
        id=f"{model.kind.value}_d{model.input_dim}_c{model.num_classes}"
        f"_h{model.hidden_dim}-{slots}-{rows}",
    )
    for model in NARROW_MODELS
    for slots in (1, 2, 3)
    for rows in (1, 2, 3)
]


@pytest.mark.parametrize("model,slots,rows", STACK_CASES)
def test_stacked_products_match_per_slot_products(model, slots, rows):
    # A lockstep step runs each product of its slots as one stacked
    # np.matmul and each bias sum as one np.add.reduce over the rows. Per
    # slot, the outputs, the MLP's activations and the gradient must keep
    # the bits of the out-of-place @ expressions on that slot's rows alone,
    # at any stack size, since the jobs of a share train in one stack, and
    # at any width, however numpy routes the product.
    rng = np.random.default_rng([slots, rows])
    params = np.stack([3.0 * init_params(model, rng) for _ in range(slots)])
    labels = model.num_classes if model.is_classifier else 10
    x = rng.standard_normal((slots, rows, model.input_dim))
    y = rng.integers(0, labels, (slots, rows))
    out, hidden, g = cohort_step(model, params, x, y)
    for i in range(slots):
        ref_out, ref_hidden = forward_reference(model, params[i], x[i])
        assert np.array_equal(out[i] if model.is_classifier else out[i, :, 0], ref_out)
        assert hidden is ref_hidden is None or np.array_equal(hidden[i], ref_hidden)
        terms = terms_reference(model, ref_out, y[i])
        target = targets_reference(model, y[i])
        ref_g = terms_grad_reference(model, params[i], x[i], target, terms, ref_hidden)
        assert np.array_equal(g[i], ref_g)


@pytest.mark.parametrize("rows", [1, 7, 65, 2000])
@pytest.mark.parametrize("classes", range(2, 8))
def test_column_row_sums_match_add_reduce(classes, rows):
    # Below 8 classes the one-shot log-softmax adds each row's terms column
    # by column instead of np.add.reduce along the row; the sums, and with
    # them the log-probabilities, must keep every bit, for rows that overflow
    # (inf, 1e308 beside -1e308) or hold nan too.
    from fedcurr.models import _log_softmax

    rng = np.random.default_rng([classes, rows])
    z = 30.0 * rng.standard_normal((rows, classes))
    special = [np.inf, 1e308, -1e308, -np.inf, np.nan]
    for i in range(min(rows - 1, len(special))):
        z[-1 - i, : i + 1] = special[i]
        z[-1 - i, -1] = special[(i + 1) % len(special)]
    by_column, by_reduce = z.copy(), z.copy()
    e, s = np.empty_like(z), np.empty((rows, 1))
    e2, s2 = np.empty_like(z), np.empty((rows, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        _log_softmax(by_column, e, s, by_column.T, e.T)
        _log_softmax(by_reduce, e2, s2, by_reduce.T)
        assert np.array_equal(s, np.log(np.add.reduce(e, axis=1, keepdims=True)), equal_nan=True)
    assert np.array_equal(s, s2, equal_nan=True)
    assert np.array_equal(by_column, by_reduce, equal_nan=True)


def test_mlp_forward_allocates_one_hidden_array():
    # x @ w1.T + b1 and its tanh used to take a fresh (m, h) array each,
    # a peak of about 2 m*h*8 bytes; in place it is one plus the logits.
    from fedcurr.models import _bind_forward

    model = WIDE_MODELS[2]
    rng = np.random.default_rng(31)
    params, x = init_params(model, rng), rng.standard_normal((10_000, 20))
    tracemalloc.start()
    try:
        _bind_forward(model, params)(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 10_000 * 64 * 8


def test_dimension_mismatch_raises():
    batch = Batch(np.ones((2, 5)), np.array([0, 1]))
    with pytest.raises(ConfigurationError):
        per_sample_losses(SOFTMAX, np.zeros(SOFTMAX.param_count()), batch)


@pytest.mark.parametrize("labels", [[True, False], [1.0, 0.0]], ids=["bool", "float"])
def test_classifier_rejects_non_integer_labels(labels):
    # A boolean label would index the logits as a mask, True scored as class
    # 0, and a float label would fail as an index; both are refused up front.
    model = ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=3, num_classes=2)
    params = init_params(model, np.random.default_rng(4))
    batch = Batch(np.ones((2, 3)), np.array(labels))
    for call in (per_sample_losses, grad, evaluate):
        with pytest.raises(ConfigurationError, match="integers"):
            call(model, params, batch)
    # Regression labels may stay floats; integer labels still pass.
    assert len(per_sample_losses(MLP_REG, init_params(MLP_REG, np.random.default_rng(4)),
                                 Batch(np.ones((2, 3)), np.array([0.5, -1.0])))) == 2
    assert len(per_sample_losses(model, params, Batch(np.ones((2, 3)), np.array([1, 0])))) == 2


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
    from fedcurr.models import _bind_forward

    exact = Batch(x, _bind_forward(MLP_REG, params)(x)[0][:, 0])
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


def _hessian_sizes():
    """(d, h, m) triples: fixed ones with h = 1 and m = 1, then random ones."""
    rng = np.random.default_rng(29)
    fixed = [(1, 1, 1), (3, 1, 7), (2, 6, 1), (1, 1, 12)]
    return fixed + [tuple(int(v) for v in rng.integers(1, [9, 9, 40])) for _ in range(12)]


@pytest.mark.parametrize("d,h,m", _hessian_sizes())
def test_hessian_gauss_newton_is_the_jacobians_outer_product(d, h, m):
    rng = np.random.default_rng([d, h, m])
    for model in (ModelSpec(ModelKind.LINEAR_REGRESSION, input_dim=d),
                  ModelSpec(ModelKind.MLP_TANH, input_dim=d, num_classes=1, hidden_dim=h)):
        params = 3.0 * init_params(model, rng)
        batch = random_batch(model, rng, m=m)
        g = jacobian_reference(model, params, batch.x)
        dec = hessian_decomposition(model, params, batch)
        assert np.array_equal(dec.gauss_newton, g.T @ g / m)


@pytest.mark.parametrize("d,h,m", _hessian_sizes())
def test_hessian_residual_term_sums_the_per_sample_output_hessians(d, h, m):
    rng = np.random.default_rng([d, h, m, 1])
    model = ModelSpec(ModelKind.MLP_TANH, input_dim=d, num_classes=1, hidden_dim=h)
    params = 3.0 * init_params(model, rng)
    batch = random_batch(model, rng, m=m)
    f, a = forward_reference(model, params, batch.x)
    ref = sum(
        (f[i] - batch.y[i]) * mlp_output_hessian_reference(model, params, batch.x[i], a[i])
        for i in range(m)
    ) / m
    dec = hessian_decomposition(model, params, batch)
    assert_allclose(dec.residual_term, ref, rtol=1e-12, atol=0)


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
