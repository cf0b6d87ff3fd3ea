"""Small differentiable models with hand-derived gradients.

Three model families over a flat parameter vector: linear regression
(squared error), softmax regression (cross-entropy) and a one-hidden-layer
tanh MLP. The MLP acts as a scalar least-squares regressor when
``num_classes == 1`` and as a softmax classifier otherwise. Also provides
the momentum/weight-decay SGD step with a per-round decaying learning rate,
and a dense Hessian decomposition probe for the least-squares models.

The public functions check their inputs on every call. The private kernels
behind them take raw arrays checked once by the caller. The formulas live in
two binders: ``_bind_forward`` and ``_bind_grad`` settle the dispatch on the
model kind and take the views of the parameter (and gradient) vector once,
and return functions that see later in-place updates of those vectors. The
one-shot helpers (``_forward``, ``_terms_grad``), the block pass and
evaluation call them once; ``_local_sgd``, the mini-batch loop that local and
centralized training share, binds one step kernel per batch length at the
start of a call (``_bind_step``), with its buffers. Each step then runs the
forward pass, the log-softmax and softmax minus one-hot in place on one
array and writes the gradient into one vector, and the update works in
buffers allocated once per call. The steps check nothing: one finite check
at the end of the call covers them all, and a call whose parameters end
non-finite replays its steps, each checked, to name the first bad one. The
matrix products go through ``np.dot``, which writes into a buffer at less
cost per call than ``np.matmul`` and reaches the same BLAS routine. Every
in-place form keeps the bits of the out-of-place expressions, and a large
pass does not page in fresh memory for every temporary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ConfigurationError


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


def _bind_forward(
    model: ModelSpec,
    params: np.ndarray,
    out: np.ndarray | None = None,
    hidden: np.ndarray | None = None,
) -> Callable:
    """The forward pass with the dispatch on the model kind and the layer
    views of ``params`` bound once: ``forward(x)`` returns the outputs, (m,)
    for regression and (m, C) logits for classifiers, and the MLP's hidden
    activations (None for the other models). The views follow in-place
    updates of ``params``.

    Each call writes its last product into ``out`` (an (m, 1) array for the
    MLP's scalar head) and the MLP's first into ``hidden``; buffers that are
    None are allocated by each call. The bias adds and the tanh then work in
    place. The bits are those of ``x @ w.T + b``."""
    d, c = model.input_dim, model.num_classes
    if model.kind is not ModelKind.MLP_TANH:
        if model.kind is ModelKind.LINEAR_REGRESSION:
            wt, b = params[:d], params[d:]
        else:
            wt, b = params[: c * d].reshape(c, d).T, params[c * d :]

        def forward(x):
            z = np.dot(x, wt, out=out)
            z += b
            return z, None

        return forward
    w1, b1, w2, b2 = _unpack_mlp(model, params)
    w1t, w2t, scalar = w1.T, w2.T, c == 1

    def mlp_forward(x):
        a = np.dot(x, w1t, out=hidden)
        a += b1
        np.tanh(a, out=a)
        z = np.dot(a, w2t, out=out)
        z += b2
        return (z[:, 0] if scalar else z), a

    return mlp_forward


def _forward(
    model: ModelSpec, params: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """One forward pass in fresh arrays; see ``_bind_forward``."""
    return _bind_forward(model, params)(x)


def _log_softmax(
    z: np.ndarray, e: np.ndarray, s: np.ndarray, columns, e_columns=None
) -> np.ndarray:
    """Log-probabilities of the logits ``z`` (m, C), written over ``z``.
    ``columns`` are the (m,) views of z's columns; ``e`` (m, C) and ``s``
    (m, 1) are scratch. The row sums of ``e`` are added column by column
    when ``e_columns``, the views of e's columns, are given, and by
    ``np.add.reduce`` otherwise."""
    # The row max taken column by column: numpy's max along a short row axis
    # costs about 50 ns a row, and the max is exact in any order.
    rowmax = s[:, 0]
    np.maximum(columns[0], columns[1], out=rowmax)
    for column in columns[2:]:
        np.maximum(rowmax, column, out=rowmax)
    z -= s
    np.exp(z, out=e)
    if e_columns is None:
        np.add.reduce(e, axis=1, keepdims=True, out=s)
    else:
        np.add(e_columns[0], e_columns[1], out=rowmax)
        for column in e_columns[2:]:
            np.add(rowmax, column, out=rowmax)
    np.log(s, out=s)
    z -= s
    return z


def _output_terms(model: ModelSpec, out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """What both the losses and the gradient are built from, written over the
    outputs ``out``: log-probabilities for classifiers, residuals f - y for
    the regression models (numpy casts integer labels to float64)."""
    if model.is_classifier:
        e = np.empty_like(out)
        # Below 8 terms numpy's add.reduce adds a row's terms one after
        # another, the order of a sum taken column by column, which costs a
        # quarter as much on a long pass. From 8 on it sums pairwise.
        e_columns = e.T if out.shape[1] < 8 else None
        return _log_softmax(out, e, np.empty((len(out), 1)), out.T, e_columns)
    return np.subtract(out, y, out=out)


def _bind_terms(model: ModelSpec, out: np.ndarray) -> Callable:
    """``terms(z, y)``: ``_output_terms`` for outputs ``z`` that are always
    the one buffer ``out``, with the log-softmax's scratch and the views of
    its columns bound once."""
    if not model.is_classifier:
        return lambda z, y: np.subtract(z, y, out=z)
    e, s, columns = np.empty_like(out), np.empty((len(out), 1)), list(out.T)
    return lambda z, y: _log_softmax(z, e, s, columns)


def _targets(model: ModelSpec, y: np.ndarray) -> np.ndarray:
    """The labels in the form the gradient takes them: one-hot rows for
    classifiers, the labels themselves for the regression models."""
    if model.is_classifier:
        return np.eye(model.num_classes)[y]
    return y


def _terms_losses(model: ModelSpec, terms: np.ndarray, y: np.ndarray) -> np.ndarray:
    if model.is_classifier:
        return -terms[np.arange(len(y)), y]
    return 0.5 * terms**2


def _bind_grad(
    model: ModelSpec,
    params: np.ndarray,
    g: np.ndarray,
    err: np.ndarray | None = None,
    delta: np.ndarray | None = None,
    square: np.ndarray | None = None,
) -> Callable:
    """The mean-loss gradient with the dispatch on the model kind and the
    views of ``params`` and of the output vector ``g`` bound once:
    ``grad(x, target, terms, hidden)`` writes each block into its view of
    ``g``, which gives the bits of the products and sums concatenated.
    ``target`` comes from ``_targets`` and ``terms`` from ``_bind_terms``.

    Each call writes the loss derivative with respect to the outputs into
    ``err``: softmax minus one-hot for classifiers (subtracting 0.0 leaves
    the other classes' bits), the residual for the regression models, each
    over m. ``err`` may be the array the terms arrive in, which is then
    overwritten. The MLP's backpropagated (m, h) blocks go into ``delta``
    and ``square``. Buffers that are None are allocated by each call."""
    d, c, h = model.input_dim, model.num_classes, model.hidden_dim
    classifier = model.is_classifier

    def loss_derivative(target, terms):
        if classifier:
            e = np.exp(terms, out=err)
            e -= target
            e /= len(target)
            return e
        return np.divide(terms, len(target), out=err)

    if model.kind is ModelKind.LINEAR_REGRESSION:
        gw, gb = g[:d], g[d:]

        def linear_grad(x, target, terms, hidden):
            e = loss_derivative(target, terms)
            np.dot(x.T, e, out=gw)
            np.add.reduce(e, axis=0, keepdims=True, out=gb)

        return linear_grad
    if model.kind is ModelKind.SOFTMAX_REGRESSION:
        gw, gb = g[: c * d].reshape(c, d), g[c * d :]

        def softmax_grad(x, target, terms, hidden):
            e = loss_derivative(target, terms)
            np.dot(e.T, x, out=gw)
            np.add.reduce(e, axis=0, out=gb)

        return softmax_grad
    w2 = _unpack_mlp(model, params)[2]
    gw1, gb1 = g[: h * d].reshape(h, d), g[h * d : h * d + h]
    gw2, gb2 = g[h * d + h : -c].reshape(c, h), g[-c:]
    if c == 1:
        gw2 = gw2[0]

    def mlp_grad(x, target, terms, hidden):
        e = loss_derivative(target, terms)
        if c == 1:
            np.dot(hidden.T, e, out=gw2)
            np.add.reduce(e, axis=0, keepdims=True, out=gb2)
            back = np.multiply(e[:, None], w2[0], out=delta)  # np.outer
        else:
            np.dot(e.T, hidden, out=gw2)
            np.add.reduce(e, axis=0, out=gb2)
            back = np.dot(e, w2, out=delta)
        s = np.square(hidden, out=square)
        np.subtract(1.0, s, out=s)
        back *= s
        np.dot(back.T, x, out=gw1)
        np.add.reduce(back, axis=0, out=gb1)

    return mlp_grad


def _terms_grad(
    model: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    target: np.ndarray,
    terms: np.ndarray,
    hidden: np.ndarray | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Mean-loss gradient written into ``out`` (allocated when None), leaving
    ``terms`` as it is; see ``_bind_grad``."""
    g = np.empty(model.param_count()) if out is None else out
    _bind_grad(model, params, g)(x, target, terms, hidden)
    return g


def _losses(model: ModelSpec, out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample losses from the outputs ``out``, which are overwritten."""
    return _terms_losses(model, _output_terms(model, out, y), y)


def _bind_step(model: ModelSpec, params: np.ndarray, g: np.ndarray, m: int) -> Callable:
    """``step(x, target)``: the mean-loss gradient of ``m`` rows at
    ``params``, written into ``g``. The forward pass, the terms and the loss
    derivative run in place on one outputs array, beside scratch arrays, all
    allocated here once; each keeps the bits of the one-shot calls."""
    c, h, mlp = model.num_classes, model.hidden_dim, model.kind is ModelKind.MLP_TANH
    out = np.empty((m,) if model.kind is ModelKind.LINEAR_REGRESSION else (m, c))
    hidden = delta = square = None
    if mlp:
        hidden, delta, square = np.empty((m, h)), np.empty((m, h)), np.empty((m, h))
    forward = _bind_forward(model, params, out, hidden)
    terms = _bind_terms(model, out)
    # The loss derivative goes over the terms: for the MLP's scalar head, over
    # the (m,) view of its (m, 1) outputs that the forward pass returns.
    err = out[:, 0] if mlp and c == 1 else out
    grad = _bind_grad(model, params, g, err, delta, square)

    def step(x, target):
        z, a = forward(x)
        grad(x, target, terms(z, target), a)

    return step


def _local_sgd(
    model: ModelSpec,
    hyper: SgdHyper,
    theta: np.ndarray,
    v: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    rng: np.random.Generator,
    where: str,
    adjust: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> tuple[int, float]:
    """Mini-batch momentum SGD on rows ``x`` with labels ``y``, checked by
    the caller, overwriting ``theta`` and the momentum ``v``.

    Each epoch gathers the rows once in a fresh permutation from ``rng`` into
    one buffer (one ``take``, about 3x faster than fancy indexing), then
    steps on its contiguous slices of ``hyper.batch_size`` rows with eta(i),
    i counting steps from 0. Everything that does not change within the call
    is bound once at its start: the epochs' permutations (the steps draw
    nothing else from ``rng``, so its stream is as if each epoch drew its
    own), the targets built from ``y``, the slices, one ``_bind_step`` kernel
    per batch length, and the update's buffers. ``adjust(g, theta)``, when
    given, adds its terms to the gradient in place before the update. The
    update is ``sgd_step``'s in its operation order.

    A step that leaves non-finite parameters raises FloatingPointError
    naming ``where`` and the step, yet the steps check nothing: ``theta -=
    tmp`` is the one write to ``theta``, and x - t is inf or nan for every t
    when x is, so a coordinate that turns non-finite stays so, and ``theta``
    is finite after the last step only if it was after every step. One check
    at the end therefore suffices. If it fails, ``theta`` and ``v`` are
    restored from copies taken at the start and the same steps run again,
    each checked, which raises at the first bad step. The floating-point
    warnings on the way there would only repeat the error, so they are
    silenced. Returns the step count and the sum of the rates used."""
    target = _targets(model, y)
    n, bs = len(target), hyper.batch_size
    rho, wd = hyper.momentum, hyper.weight_decay
    g, tmp = np.empty_like(theta), np.empty_like(theta)
    xp, tp = np.empty(x.shape), np.empty(target.shape, dtype=target.dtype)
    kernels: dict[int, Callable] = {}
    batches = []
    for lo in range(0, n, bs):
        hi = min(lo + bs, n)
        if hi - lo not in kernels:
            kernels[hi - lo] = _bind_step(model, theta, g, hi - lo)
        batches.append((xp[lo:hi], tp[lo:hi], kernels[hi - lo]))
    etas = [hyper.learning_rate(i) for i in range(epochs * len(batches))]
    perms = [rng.permutation(n) for _ in range(epochs)]
    theta0, v0 = theta.copy(), v.copy()

    with np.errstate(all="ignore"):
        for check in (False, True):
            step = 0
            for perm in perms:
                # mode="clip" leaves a permutation as it is and skips the copy
                # that the default mode makes of an ``out``.
                x.take(perm, axis=0, out=xp, mode="clip")
                target.take(perm, axis=0, out=tp, mode="clip")
                for xb, tb, kernel in batches:
                    kernel(xb, tb)
                    if adjust is not None:
                        adjust(g, theta)
                    # v <- rho*v + (g + wd*theta); theta <- theta - eta*v
                    np.multiply(theta, wd, out=tmp)
                    tmp += g
                    v *= rho
                    v += tmp
                    np.multiply(v, etas[step], out=tmp)
                    theta -= tmp
                    if check and not np.isfinite(theta).all():
                        raise FloatingPointError(
                            f"{where}: non-finite parameters after step {step}"
                        )
                    step += 1
            if np.isfinite(theta).all():
                break
            # Some step left non-finite values: replay from the start, checked.
            np.copyto(theta, theta0)
            np.copyto(v, v0)
    eta_sum = 0.0
    for eta in etas:  # added one by one, as the steps took them
        eta_sum += eta
    return len(etas), eta_sum


def _losses_and_grads(
    model: ModelSpec,
    params: np.ndarray,
    xs: list[np.ndarray],
    ys: list[np.ndarray],
) -> tuple[list[np.ndarray], list[Callable[[], np.ndarray]], list[np.ndarray]]:
    """Unchecked per-sample losses of several blocks of rows ``xs[k]`` with
    labels ``ys[k]``, per block a function that returns its mean-loss
    gradient from the same forward pass (computed, targets included, only
    when called), and per block the raw model outputs of that pass.

    Each block goes through the model by itself, so every matrix product sees
    the same rows as it would alone. The row-wise rest runs once over all
    blocks, which saves numpy calls and leaves each row's bits as they are."""
    forward = _bind_forward(model, params)
    passes = [forward(x) for x in xs]
    outputs = [out for out, _ in passes]
    y = np.concatenate(ys)
    terms = _output_terms(model, np.concatenate(outputs), y)
    losses = _terms_losses(model, terms, y)
    ends = np.cumsum([len(b) for b in ys]).tolist()
    blocks = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]

    def grad_of(k: int) -> Callable[[], np.ndarray]:
        return lambda: _terms_grad(
            model, params, xs[k], _targets(model, ys[k]), terms[blocks[k]], passes[k][1]
        )

    return [losses[b] for b in blocks], [grad_of(k) for k in range(len(xs))], outputs


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


def _mlp_output_hessian(
    model: ModelSpec, params: np.ndarray, x: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Dense Hessian of the scalar MLP output f(theta, x) for one sample,
    whose hidden activations ``a`` come from the forward pass.

    Nonzero blocks per hidden unit k (s = 1 - a^2, dd = -2*a*s):
      d2f/dW1_k dW1_k = w2_k*dd_k * x x^T     d2f/dW1_k db1_k = w2_k*dd_k * x
      d2f/db1_k db1_k = w2_k*dd_k             d2f/dW1_k dw2_k = s_k * x
      d2f/db1_k dw2_k = s_k                   (all blocks touching b2 vanish)
    """
    d, h = model.input_dim, model.hidden_dim
    w2 = _unpack_mlp(model, params)[2]
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
    # One forward pass gives the residuals and, from its hidden activations,
    # the per-sample gradients of the scalar output f(theta, x), rows (m, P).
    m, x = len(batch), batch.x
    out, hidden = _forward(model, params, x)
    resid = out - batch.y.astype(np.float64)
    if model.kind is ModelKind.LINEAR_REGRESSION:
        g = np.hstack([x, np.ones((m, 1))])
    else:
        ws = _unpack_mlp(model, params)[2][0] * (1.0 - hidden**2)
        gw1 = (ws[:, :, None] * x[:, None, :]).reshape(m, -1)
        g = np.hstack([gw1, ws, hidden, np.ones((m, 1))])
    gauss_newton = g.T @ g / m
    p = model.param_count()
    residual_term = np.zeros((p, p))
    if model.kind is ModelKind.MLP_TANH:
        for i in range(m):
            residual_term += resid[i] * _mlp_output_hessian(model, params, x[i], hidden[i])
        residual_term /= m
    full = gauss_newton + residual_term
    return HessianDecomposition(
        gauss_newton=gauss_newton,
        residual_term=residual_term,
        full=full,
        min_eig_full=float(np.linalg.eigvalsh(full).min()),
        min_eig_gn=float(np.linalg.eigvalsh(gauss_newton).min()),
    )
