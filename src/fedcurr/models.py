"""Small differentiable models with hand-derived gradients.

Three model families over a flat parameter vector: linear regression
(squared error), softmax regression (cross-entropy) and a one-hidden-layer
tanh MLP. The MLP acts as a scalar least-squares regressor when
``num_classes == 1`` and as a softmax classifier otherwise. Also provides
the momentum/weight-decay SGD step with a per-round decaying learning rate,
and a dense Hessian decomposition probe for the least-squares models.

The public functions check their inputs on every call. The private kernels
behind them take raw arrays checked once by the caller, and do their
elementwise work in arrays they already own: the forward pass adds the bias
and applies tanh in place, the gradient writes each block into its view of
one output vector, and ``_local_sgd``, the mini-batch loop that local and
centralized training share, updates the parameters and momentum in buffers
allocated once per call. Each keeps the bits of the out-of-place
expressions, and a large pass does not page in fresh memory for every
temporary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ConfigurationError

# Guard when inverting near-zero losses into scores.
LOSS_EPS = 1e-8


class ModelKind(Enum):
    LINEAR_REGRESSION = "linear"
    SOFTMAX_REGRESSION = "softmax"
    MLP_TANH = "mlp"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; parameter length is a function of the fields."""

    kind: ModelKind
    input_dim: int
    num_classes: int = 1
    hidden_dim: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be >= 1", field="input_dim")
        if self.kind is ModelKind.SOFTMAX_REGRESSION and self.num_classes < 2:
            raise ConfigurationError(
                "softmax regression needs num_classes >= 2", field="num_classes"
            )
        if self.kind is ModelKind.MLP_TANH and self.hidden_dim < 1:
            raise ConfigurationError("MLP needs hidden_dim >= 1", field="hidden_dim")
        if self.num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1", field="num_classes")

    @property
    def is_classifier(self) -> bool:
        return self.kind is ModelKind.SOFTMAX_REGRESSION or (
            self.kind is ModelKind.MLP_TANH and self.num_classes >= 2
        )

    def param_count(self) -> int:
        d, c, h = self.input_dim, self.num_classes, self.hidden_dim
        if self.kind is ModelKind.LINEAR_REGRESSION:
            return d + 1
        if self.kind is ModelKind.SOFTMAX_REGRESSION:
            return c * d + c
        return h * d + h + c * h + c


@dataclass(frozen=True)
class SgdHyper:
    """SGD settings: eta(i) = eta0 * (1 + decay_alpha*i)^(-decay_b).

    The step index i is local to a federation round and resets to 0 at the
    start of each round. Defaults follow the reference training recipe.
    """

    eta0: float = 0.001
    decay_alpha: float = 0.001
    decay_b: float = 0.75
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 10

    def __post_init__(self):
        for name in ("eta0", "decay_alpha", "decay_b", "weight_decay"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0", field=name)
        if not 0 <= self.momentum < 1:
            raise ConfigurationError("momentum must be in [0, 1)", field="momentum")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1", field="batch_size")

    def learning_rate(self, step_index: int) -> float:
        return self.eta0 * (1.0 + self.decay_alpha * step_index) ** (-self.decay_b)


@dataclass
class Batch:
    """A slice of samples: features (m, d) and integer labels (m,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ConfigurationError("batch features must be (m, d) with m labels")
        if self.x.shape[0] == 0:
            raise ConfigurationError("batch must be nonempty")

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class HessianDecomposition:
    """Split of the mean least-squares Hessian into its PSD outer-product
    part and the residual-weighted curvature part."""

    gauss_newton: np.ndarray
    residual_term: np.ndarray
    full: np.ndarray
    min_eig_full: float
    min_eig_gn: float


def init_params(model: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init, layer by layer."""
    d, c, h = model.input_dim, model.num_classes, model.hidden_dim
    if model.kind is ModelKind.LINEAR_REGRESSION:
        return rng.uniform(-1, 1, d + 1) / np.sqrt(d)
    if model.kind is ModelKind.SOFTMAX_REGRESSION:
        return rng.uniform(-1, 1, c * d + c) / np.sqrt(d)
    first = rng.uniform(-1, 1, h * d + h) / np.sqrt(d)
    second = rng.uniform(-1, 1, c * h + c) / np.sqrt(h)
    return np.concatenate([first, second])


def _check_batch(model: ModelSpec, params: np.ndarray, batch: Batch) -> None:
    if batch.x.shape[1] != model.input_dim:
        raise ConfigurationError(
            f"feature dim {batch.x.shape[1]} does not match model input_dim {model.input_dim}"
        )
    if params.shape != (model.param_count(),):
        raise ConfigurationError(
            f"parameter length {params.shape} does not match model ({model.param_count()},)"
        )
    if model.is_classifier and (batch.y.min() < 0 or batch.y.max() >= model.num_classes):
        raise ConfigurationError("labels out of range for classifier")


def _unpack_mlp(model: ModelSpec, params: np.ndarray):
    d, c, h = model.input_dim, model.num_classes, model.hidden_dim
    w1 = params[: h * d].reshape(h, d)
    b1 = params[h * d : h * d + h]
    w2 = params[h * d + h : h * d + h + c * h].reshape(c, h)
    b2 = params[h * d + h + c * h :]
    return w1, b1, w2, b2


def _forward(
    model: ModelSpec, params: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Model outputs, (m,) for regression and (m, C) logits for classifiers,
    and the MLP's hidden activations (None for the other models).

    The bias adds and the tanh write into the product they follow, so a pass
    allocates one array per layer; the bits are those of ``x @ w.T + b``."""
    d = model.input_dim
    if model.kind is ModelKind.LINEAR_REGRESSION:
        z = x @ params[:d]
        z += params[d]
        return z, None
    if model.kind is ModelKind.SOFTMAX_REGRESSION:
        c = model.num_classes
        z = x @ params[: c * d].reshape(c, d).T
        z += params[c * d :]
        return z, None
    w1, b1, w2, b2 = _unpack_mlp(model, params)
    a = x @ w1.T
    a += b1
    np.tanh(a, out=a)
    out = a @ w2.T
    out += b2
    return (out[:, 0] if model.num_classes == 1 else out), a


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # The row max taken column by column: numpy's max along a short row axis
    # costs about 50 ns a row, and the max is exact in any order.
    shifted = logits - functools.reduce(np.maximum, logits.T)[:, None]
    shifted -= np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted


def _targets(model: ModelSpec, y: np.ndarray) -> np.ndarray:
    """The labels in the form the gradient takes them: one-hot rows for
    classifiers, the labels themselves for the regression models."""
    if model.is_classifier:
        return np.eye(model.num_classes)[y]
    return y


def _output_terms(model: ModelSpec, out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """What both the losses and the gradient are built from: log-probabilities
    for classifiers, residuals f - y for the regression models (numpy casts
    integer labels to float64 for the subtraction)."""
    if model.is_classifier:
        return _log_softmax(out)
    return out - y


def _terms_losses(model: ModelSpec, terms: np.ndarray, y: np.ndarray) -> np.ndarray:
    if model.is_classifier:
        return -terms[np.arange(len(y)), y]
    return 0.5 * terms**2


def _terms_grad(
    model: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    target: np.ndarray,
    terms: np.ndarray,
    hidden: np.ndarray | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Mean-loss gradient; ``target`` comes from ``_targets``. Each block is
    written into its view of ``out`` (allocated when None), which gives the
    bits of the products and sums concatenated."""
    m = len(target)
    g = np.empty(model.param_count()) if out is None else out
    if model.is_classifier:
        # softmax minus one-hot: subtracting 0.0 leaves the other classes' bits.
        err = np.exp(terms)
        err -= target
        err /= m
    else:
        err = terms / m
    d, c, h = model.input_dim, model.num_classes, model.hidden_dim
    if model.kind is ModelKind.LINEAR_REGRESSION:
        np.matmul(x.T, err, out=g[:d])
        np.add.reduce(err, axis=0, keepdims=True, out=g[d:])
        return g
    if model.kind is ModelKind.SOFTMAX_REGRESSION:
        np.matmul(err.T, x, out=g[: c * d].reshape(c, d))
        np.add.reduce(err, axis=0, out=g[c * d :])
        return g
    w2 = _unpack_mlp(model, params)[2]
    if c == 1:
        np.matmul(hidden.T, err, out=g[h * d + h : h * d + 2 * h])
        np.add.reduce(err, axis=0, keepdims=True, out=g[-1:])
        delta = np.outer(err, w2[0])
    else:
        np.matmul(err.T, hidden, out=g[h * d + h : -c].reshape(c, h))
        np.add.reduce(err, axis=0, out=g[-c:])
        delta = err @ w2
    s = np.square(hidden)
    np.subtract(1.0, s, out=s)
    delta *= s
    np.matmul(delta.T, x, out=g[: h * d].reshape(h, d))
    np.add.reduce(delta, axis=0, out=g[h * d : h * d + h])
    return g


def _losses(model: ModelSpec, out: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _terms_losses(model, _output_terms(model, out, y), y)


def _local_sgd(
    model: ModelSpec,
    hyper: SgdHyper,
    theta: np.ndarray,
    v: np.ndarray,
    x: np.ndarray,
    target: np.ndarray,
    epochs: int,
    rng: np.random.Generator,
    where: str,
    adjust: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> tuple[int, float]:
    """Mini-batch momentum SGD on rows checked by the caller, overwriting
    ``theta`` and the momentum ``v``; ``target`` comes from ``_targets``.

    Each epoch gathers the rows once in a fresh permutation from ``rng`` (one
    ``take``, about 3x faster than fancy indexing), then steps on contiguous
    slices of ``hyper.batch_size`` rows with eta(i), i counting steps from 0.
    ``adjust(g, theta)``, when given, adds its terms to the gradient in place
    before the update. The update is ``sgd_step``'s in its operation order,
    done in buffers allocated once per call. A step that leaves non-finite
    parameters raises FloatingPointError naming ``where`` and the step; the
    overflow warnings on the way there would only repeat it, so they are
    silenced. Returns the step count and the sum of the rates used."""
    bs = hyper.batch_size
    starts = range(0, len(target), bs)
    etas = [hyper.learning_rate(i) for i in range(epochs * len(starts))]
    rho, wd = hyper.momentum, hyper.weight_decay
    g, tmp = np.empty_like(theta), np.empty_like(theta)
    finite = np.empty(theta.shape, dtype=bool)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            perm = rng.permutation(len(target))
            xp, tp = x.take(perm, axis=0), target.take(perm, axis=0)
            for lo in starts:
                xb, tb = xp[lo : lo + bs], tp[lo : lo + bs]
                out, hidden = _forward(model, theta, xb)
                _terms_grad(model, theta, xb, tb, _output_terms(model, out, tb), hidden, out=g)
                if adjust is not None:
                    adjust(g, theta)
                # v <- rho*v + (g + wd*theta); theta <- theta - eta*v
                np.multiply(theta, wd, out=tmp)
                tmp += g
                v *= rho
                v += tmp
                np.multiply(v, etas[step], out=tmp)
                theta -= tmp
                if not np.isfinite(theta, out=finite).all():
                    raise FloatingPointError(
                        f"{where}: non-finite parameters after step {step}"
                    )
                step += 1
    eta_sum = 0.0
    for eta in etas:  # added one by one, as the steps took them
        eta_sum += eta
    return step, eta_sum


def _losses_and_grads(
    model: ModelSpec, params: np.ndarray, xs: list[np.ndarray], ys: list[np.ndarray]
) -> tuple[list[np.ndarray], list[Callable[[], np.ndarray]]]:
    """Unchecked per-sample losses of several blocks of rows, and per block a
    function that returns its mean-loss gradient from the same forward pass
    (computed only when called).

    Each block goes through the model by itself, so every matrix product sees
    the same rows as it would alone. The row-wise rest runs once over all
    blocks, which saves numpy calls and leaves each row's bits as they are."""
    passes = [_forward(model, params, x) for x in xs]
    hidden = [h for _, h in passes]
    y = np.concatenate(ys)
    terms = _output_terms(model, np.concatenate([out for out, _ in passes]), y)
    losses = _terms_losses(model, terms, y)
    ends = np.cumsum([len(b) for b in ys]).tolist()
    blocks = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]

    def grad_of(k: int) -> Callable[[], np.ndarray]:
        return lambda: _terms_grad(
            model, params, xs[k], _targets(model, ys[k]), terms[blocks[k]], hidden[k]
        )

    return [losses[b] for b in blocks], [grad_of(k) for k in range(len(xs))]


def per_sample_losses(model: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """One nonnegative loss per sample; cross-entropy for classifiers,
    0.5*(f - y)^2 for the regression models."""
    _check_batch(model, params, batch)
    return _losses(model, _forward(model, params, batch.x)[0], batch.y)


def grad(model: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Gradient of the mean batch loss with respect to the flat parameters."""
    _check_batch(model, params, batch)
    target = _targets(model, batch.y)
    out, hidden = _forward(model, params, batch.x)
    return _terms_grad(model, params, batch.x, target, _output_terms(model, out, target), hidden)


def predict(model: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Argmax class predictions (classifiers only)."""
    if not model.is_classifier:
        raise ConfigurationError("predict requires a classifier model")
    _check_batch(model, params, batch)
    return _forward(model, params, batch.x)[0].argmax(axis=1)


def sgd_step(
    params: np.ndarray,
    g: np.ndarray,
    hyper: SgdHyper,
    step_index: int,
    momentum_state: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """v <- rho*v + (g + wd*theta); theta <- theta - eta(i)*v."""
    if params.shape != g.shape or params.shape != momentum_state.shape:
        raise ConfigurationError("parameter, gradient and momentum lengths must match")
    v = hyper.momentum * momentum_state + (g + hyper.weight_decay * params)
    new = params - hyper.learning_rate(step_index) * v
    if not np.all(np.isfinite(new)):
        raise FloatingPointError("non-finite parameters after SGD step")
    return new, v


def _mlp_output_hessian(model: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dense Hessian of the scalar MLP output f(theta, x) for one sample.

    Nonzero blocks per hidden unit k (s = 1 - a^2, dd = -2*a*s):
      d2f/dW1_k dW1_k = w2_k*dd_k * x x^T     d2f/dW1_k db1_k = w2_k*dd_k * x
      d2f/db1_k db1_k = w2_k*dd_k             d2f/dW1_k dw2_k = s_k * x
      d2f/db1_k dw2_k = s_k                   (all blocks touching b2 vanish)
    """
    d, h = model.input_dim, model.hidden_dim
    w1, b1, w2, _ = _unpack_mlp(model, params)
    a = np.tanh(w1 @ x + b1)
    s = 1.0 - a**2
    dd = -2.0 * a * s
    p = model.param_count()
    hes = np.zeros((p, p))
    ib1, iw2 = h * d, h * d + h
    xxt = np.outer(x, x)
    for k in range(h):
        rows = slice(k * d, (k + 1) * d)
        c_k = w2[0, k] * dd[k]
        hes[rows, rows] = c_k * xxt
        hes[rows, ib1 + k] = c_k * x
        hes[ib1 + k, rows] = c_k * x
        hes[ib1 + k, ib1 + k] = c_k
        hes[rows, iw2 + k] = s[k] * x
        hes[iw2 + k, rows] = s[k] * x
        hes[ib1 + k, iw2 + k] = s[k]
        hes[iw2 + k, ib1 + k] = s[k]
    return hes


def _output_grads(model: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-sample gradients of the scalar output f(theta, x), rows (m, P)."""
    m = x.shape[0]
    if model.kind is ModelKind.LINEAR_REGRESSION:
        return np.hstack([x, np.ones((m, 1))])
    w1, b1, w2, _ = _unpack_mlp(model, params)
    a = np.tanh(x @ w1.T + b1)
    s = 1.0 - a**2
    ws = w2[0] * s
    gw1 = ws[:, :, None] * x[:, None, :]
    return np.hstack([gw1.reshape(m, -1), ws, a, np.ones((m, 1))])


def hessian_decomposition(
    model: ModelSpec, params: np.ndarray, batch: Batch
) -> HessianDecomposition:
    """Exact decomposition of the mean squared-error Hessian into
    (1/N) sum grad_f grad_f^T plus (1/N) sum (f - y) * hess_f.

    Restricted to the least-squares models (linear, or MLP with a scalar
    head) and to dense-friendly parameter counts.
    """
    if model.is_classifier:
        raise ConfigurationError("Hessian decomposition requires a squared-error model")
    if model.param_count() > 512:
        raise ConfigurationError("parameter count too large for the dense probe")
    _check_batch(model, params, batch)
    m = len(batch)
    g = _output_grads(model, params, batch.x)
    gauss_newton = g.T @ g / m
    resid = _forward(model, params, batch.x)[0] - batch.y.astype(np.float64)
    p = model.param_count()
    residual_term = np.zeros((p, p))
    if model.kind is ModelKind.MLP_TANH:
        for i in range(m):
            residual_term += resid[i] * _mlp_output_hessian(model, params, batch.x[i])
        residual_term /= m
    full = gauss_newton + residual_term
    return HessianDecomposition(
        gauss_newton=gauss_newton,
        residual_term=residual_term,
        full=full,
        min_eig_full=float(np.linalg.eigvalsh(full).min()),
        min_eig_gn=float(np.linalg.eigvalsh(gauss_newton).min()),
    )
