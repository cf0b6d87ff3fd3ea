"""Small differentiable models with hand-derived gradients.

Three model families over a flat parameter vector: linear regression
(squared error), softmax regression (cross-entropy) and a one-hidden-layer
tanh MLP. The MLP acts as a scalar least-squares regressor when
``num_classes == 1`` and as a softmax classifier otherwise. Also provides
the momentum/weight-decay SGD step with a per-round decaying learning rate,
and a dense Hessian decomposition probe for the least-squares models.

The flat parameter vector's layout is written once, in
``ModelSpec.layer_shapes``: ``param_count``, ``init_params``, the layer
views (``_layers``) and the pool's buffers read it.

The public functions check their inputs on every call. The private kernels
behind them take raw arrays checked once by the caller. Each model kind's
formulas are written once: ``_bind_forward`` (the forward pass) and
``_bind_backward`` (the gradient from the loss derivative) settle the
dispatch on the model kind and take the layer views (``_layers``) of a
parameter vector, or of a stack of them, once, and return functions that
see later in-place updates of those parameters; the Hessian probe takes its
Jacobian from the same backward pass. Each product is one
``np.matmul``, over a leading stack axis when there is one, which gives
every member of the stack the bits it would get alone. ``_pass``, the pass
behind every loss, evaluation and one-shot gradient, runs them on one vector
over blocks of rows and returns plain arrays per block, among them the terms
and activations from which ``_terms_grad`` takes a block's gradient.

``_local_sgd``, the mini-batch loop that local and centralized training
share, trains the participants of a round of several jobs in lockstep:
``_Pool.kernel`` binds the same two functions to a stack of clients, and
each step runs the forward pass, the log-softmax and softmax minus one-hot
(1 subtracted at each row's label) in place on one stacked array. Every
slot holds ``batch_size`` rows: a client's short last batch of an epoch is
padded with the pool's zero row, whose loss derivative is set to 0, and its
mean runs over its own rows. A client's bits thus depend only on its own
batches, not on the other clients it steps with, and so does the first
step that leaves its parameters non-finite: one finite check of the stack
after each step finds that step, which the kernel returns and
``federation`` words.
The rows and labels of the jobs' clients, laid out client after client,
and the slot buffers (``_Pool``) are built once per share of jobs. Every
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
    """Architecture description. ``layer_shapes`` lays out the flat
    parameter vector, whose length is a function of the fields."""

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

    def layer_shapes(self) -> list[tuple[int, int]]:
        """Each layer's (inputs, outputs), in storage order: the MLP's hidden
        layer, then its output layer; one layer for the other models. A
        layer's weights come first, as ``outputs`` rows of ``inputs``, then
        its ``outputs`` biases."""
        d, c, h = self.input_dim, self.num_classes, self.hidden_dim
        if self.kind is ModelKind.MLP_TANH:
            return [(d, h), (h, c)]
        return [(d, c if self.is_classifier else 1)]

    def param_count(self) -> int:
        return sum(n_out * (n_in + 1) for n_in, n_out in self.layer_shapes())


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
            if not getattr(self, name) >= 0:
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
    return np.concatenate([
        rng.uniform(-1, 1, n_out * (n_in + 1)) / np.sqrt(n_in)
        for n_in, n_out in model.layer_shapes()
    ])


def _check_batch(model: ModelSpec, params: np.ndarray, batch: Batch) -> None:
    if batch.x.shape[1] != model.input_dim:
        raise ConfigurationError(
            f"feature dim {batch.x.shape[1]} does not match model input_dim {model.input_dim}"
        )
    if params.shape != (model.param_count(),):
        raise ConfigurationError(
            f"parameter length {params.shape} does not match model ({model.param_count()},)"
        )
    if model.is_classifier and not np.issubdtype(batch.y.dtype, np.integer):
        raise ConfigurationError(f"classifier labels must be integers, not {batch.y.dtype}")
    if model.is_classifier and (batch.y.min() < 0 or batch.y.max() >= model.num_classes):
        raise ConfigurationError("labels out of range for classifier")


def _layers(model: ModelSpec, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (weight, bias) views of each layer, taken along the last axis of
    ``theta``, which is one parameter vector (dim,) or a stack (k, dim).
    Weights are stored as (out, in) rows and come transposed, (..., in,
    out); biases come as (..., 1, out). The views follow in-place updates of
    ``theta``, and writing into the views of a gradient fills its blocks."""
    lead, layers, start = theta.shape[:-1], [], 0
    for n_in, n_out in model.layer_shapes():
        w = theta[..., start : start + n_out * n_in].reshape(lead + (n_out, n_in))
        start += n_out * n_in
        layers.append((w.swapaxes(-1, -2), theta[..., None, start : start + n_out]))
        start += n_out
    return layers


def _bind_forward(model: ModelSpec, theta: np.ndarray) -> Callable:
    """The forward pass with the dispatch on the model kind and the layer
    views of ``theta`` (see ``_layers``) bound once. ``forward(x, out,
    hidden)`` runs rows x (..., m, d) through the parameters, one set per
    leading index, and returns the outputs (..., m, C), (..., m, 1) for the
    scalar models, and the MLP's hidden activations (..., m, h), None for
    the other models. Each product is one ``np.matmul`` into ``out`` and
    ``hidden`` (fresh arrays when None), in which the bias adds and the tanh
    then work in place. Per leading index, the bits are those of
    ``x @ w.T + b``."""
    layers = _layers(model, theta)
    mlp, (w, b) = model.kind is ModelKind.MLP_TANH, layers[-1]

    def forward(x, out=None, hidden=None):
        if mlp:
            w1, b1 = layers[0]
            x = hidden = np.matmul(x, w1, out=hidden)
            np.add(hidden, b1, out=hidden)
            np.tanh(hidden, out=hidden)
        z = np.matmul(x, w, out=out)
        np.add(z, b, out=z)
        return z, hidden

    return forward


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


def _loss_derivative(
    model: ModelSpec, hits, terms: np.ndarray, rows, out: np.ndarray | None = None
) -> np.ndarray:
    """The mean loss's derivative with respect to the outputs, from the
    terms: softmax minus one-hot for classifiers, 1 subtracted at ``hits``,
    the flat positions of each row's label in ``terms`` (the other classes'
    bits stay as they are), the residual for the regression models, which
    read no ``hits``, each over ``rows``, a row count or per-slot counts that
    broadcast. Written into ``out``, which may be ``terms``, or a fresh array
    when None; either is C-contiguous, so its flat view writes through."""
    if model.is_classifier:
        e = np.exp(terms, out=out)
        e.reshape(-1)[hits] -= 1.0
        e /= rows
        return e
    return np.divide(terms, rows, out=out)


def _bind_backward(model: ModelSpec, theta: np.ndarray, g: np.ndarray) -> Callable:
    """The gradient with the dispatch on the model kind and the layer views
    of ``theta`` and ``g`` (see ``_layers``), shaped alike, bound once.
    ``backward(x, e, hidden, delta, square)`` takes the rows x (..., m, d),
    the loss derivative e with respect to the outputs, shaped as
    ``_bind_forward`` writes them, and the MLP's hidden activations, and
    writes the gradient into ``g``, one per leading index; ``delta`` and
    ``square`` (..., m, h), fresh arrays when None, hold the MLP's
    backpropagated derivative. Each product is one ``np.matmul`` into its
    view of ``g`` and each bias sum one ``np.add.reduce(axis=-2)``, which
    gives the bits of the products and sums concatenated."""
    layers, grads = _layers(model, theta), _layers(model, g)
    mlp = model.kind is ModelKind.MLP_TANH

    def backward(x, e, hidden, delta=None, square=None):
        if mlp:
            (w2, _), (gw2, gb2) = layers[1], grads[1]
            np.matmul(hidden.swapaxes(-1, -2), e, out=gw2)
            np.add.reduce(e, axis=-2, keepdims=True, out=gb2)
            delta = np.matmul(e, w2.swapaxes(-1, -2), out=delta)
            square = np.square(hidden, out=square)
            np.subtract(1.0, square, out=square)
            e = np.multiply(delta, square, out=delta)
        gw, gb = grads[0]
        np.matmul(x.swapaxes(-1, -2), e, out=gw)
        np.add.reduce(e, axis=-2, keepdims=True, out=gb)

    return backward


def _terms_grad(
    model: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    terms: np.ndarray,
    hidden: np.ndarray | None,
) -> np.ndarray:
    """Mean-loss gradient of the rows ``x`` with labels ``y``, from the
    ``terms`` and ``hidden`` of their ``_pass``, leaving ``terms`` as it is."""
    m, g = len(y), np.empty(model.param_count())
    hits = np.ravel_multi_index((np.arange(m), y), terms.shape) if model.is_classifier else None
    e = _loss_derivative(model, hits, terms, m)
    _bind_backward(model, params, g)(x, e.reshape(m, -1), hidden)
    return g


class _Pool:
    """What local training reads, built once per share of jobs. Each block,
    a dataset with its clients' row indices, is laid out client after
    client in the rows ``x`` and labels ``y``; ``clients[b]`` holds block
    b's clients as (lo, features, labels), the views ``x[lo:hi]`` and
    ``y[lo:hi]`` of its pool rows lo..hi. One more row, the last, holds
    zeros and label 0 and belongs to no client: ``_local_sgd`` pads short
    batches with it. The callers check each dataset against the model
    first. The pool also keeps one set of lockstep slot buffers, grown to
    the share's largest cohort: the slots' parameters, momenta and
    gradients (slots, dim), each step's rows, labels, outputs and MLP
    blocks (slots, batch_size, ...), and the row count each slot's mean
    runs over."""

    def __init__(self, model: ModelSpec, hyper: SgdHyper, blocks: list[tuple[Batch, list]]):
        self.model, self.hyper = model, hyper
        n = sum(len(rows) for _, clients in blocks for rows in clients)
        # Row n, the last, stays zeros: the pad row of short batches.
        self.x = np.zeros((n + 1, blocks[0][0].x.shape[1]))
        # A classifier's labels, checked to be classes, index its outputs.
        labels = np.intp if model.is_classifier else np.result_type(*(b.y for b, _ in blocks))
        self.y = np.zeros(n + 1, labels)
        self.clients: list[list[tuple[int, np.ndarray, np.ndarray]]] = []
        lo = 0
        for data, clients in blocks:
            self.clients.append([])
            for rows in clients:
                x, y = self.x[lo : lo + len(rows)], self.y[lo : lo + len(rows)]
                data.x.take(rows, axis=0, out=x)
                data.y.take(rows, out=y)
                self.clients[-1].append((lo, x, y))
                lo += len(rows)
        self.slots, self._kernels = 0, {}

    def _grow(self, size: int) -> None:
        """Slot buffers for ``size`` clients, in place of the smaller ones,
        whose kernels go with them."""
        model, bs = self.model, self.hyper.batch_size
        widths, dim = [n_out for _, n_out in model.layer_shapes()], model.param_count()
        width = widths[-1]
        self.slots, self._kernels = size, {}
        self.theta, self.v, self.g, self.tmp, self.diff = (np.empty((size, dim)) for _ in range(5))
        self.step_x = np.empty((size, bs, self.x.shape[1]))
        self.step_y = np.empty((size, bs), self.y.dtype)
        self.out, self.counts = np.empty((size, bs, width)), np.full((size, 1, 1), float(bs))
        self.hidden = self.delta = self.square = None
        if model.kind is ModelKind.MLP_TANH:
            self.hidden, self.delta, self.square = (np.empty((size, bs, widths[0])) for _ in range(3))
        self.scratch = np.empty((size * bs, width)), np.empty((size * bs, 1))

    def kernel(self, k: int) -> tuple:
        """The first k slots' gradient step, as (forward, backward), and
        their views of theta, v, g, the update's scratch, the rows and the
        labels, growing the slot buffers to k slots when they hold fewer.
        Each slot is one client: parameters ``theta[i]``, gathered rows
        ``step_x[i]`` (b, d) and labels ``step_y[i]``. ``forward()`` writes
        the outputs into ``out`` and the MLP's activations into ``hidden``
        (``_bind_forward`` over the stack). ``backward(pads)`` turns the
        outputs into the terms and the loss derivative in place, the
        log-softmax seeing them as k*b rows of a 2-D array as the one-shot
        callers do, and writes each slot's gradient into its row of ``g``
        (``_bind_backward`` over the stack). Each slot's mean runs over its b
        rows, except for the slots in ``pads``: (slot, m) says that only the
        first m rows of that slot are its batch and the rest pad it. Their
        mean runs over m, through the slot's entry of ``counts``, and the pad
        rows' loss derivative is set to 0, so they add nothing to any
        product or sum. The pad rows are the pool's zero row, so their
        products are 0 * 0 wherever the slot's own parameters are finite,
        never 0 * nan from another client's row. The kernel is bound on
        first use and kept until the buffers grow."""
        if k > self.slots:
            self._grow(k)
        if k in self._kernels:
            return self._kernels[k]
        model, bs = self.model, self.hyper.batch_size
        theta, g, x, y, counts, out = (
            a[:k] for a in (self.theta, self.g, self.step_x, self.step_y, self.counts, self.out)
        )
        hidden, delta, square = (
            None if a is None else a[:k] for a in (self.hidden, self.delta, self.square)
        )
        forward, backward = _bind_forward(model, theta), _bind_backward(model, theta, g)
        classifier = model.is_classifier
        # The outputs as the terms and the loss derivative see them: (k, b, C)
        # for classifiers, (k, b) with per-slot counts (k, 1) otherwise.
        z, count = (out, counts) if classifier else (out[..., 0], counts[..., 0])
        rows = out.reshape(k * bs, -1)
        columns = list(rows.T) if classifier else None
        scratch = tuple(a[: k * bs] for a in self.scratch)
        # Each slot row's flat offset in the outputs, and that of its label.
        starts, hits = np.arange(k * bs) * rows.shape[1], np.empty(k * bs, dtype=np.intp)
        labels = y.reshape(-1)

        def step_forward():
            forward(x, out, hidden)

        def step_backward(pads):
            if classifier:
                _log_softmax(rows, *scratch, columns)
                np.add(starts, labels, out=hits)
            else:
                np.subtract(z, y, out=z)
            for slot, m in pads:
                counts[slot] = m
            _loss_derivative(model, hits, z, count if pads else bs, out=z)
            for slot, m in pads:
                z[slot, m:] = 0.0
                counts[slot] = bs
            backward(x, out, hidden, delta, square)

        self._kernels[k] = (
            step_forward, step_backward, theta, self.v[:k], g, self.tmp[:k], self.diff[:k], x, y,
        )
        return self._kernels[k]


def _local_sgd(
    pool: _Pool,
    rows: list[np.ndarray],
    theta: np.ndarray,
    v: np.ndarray,
    epochs: int,
    rngs: list[np.random.Generator],
    mu: float = 0.0,
    controls: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[int], dict[int, int]]:
    """Mini-batch momentum SGD for a cohort of clients, overwriting their
    parameters ``theta`` and momenta ``v``, stacked (P, dim). Client p
    trains on the rows ``pool.x[rows[p]]`` with their labels, draws its
    epochs' permutations from ``rngs[p]`` at the start (the steps draw
    nothing else, so its stream is as if each epoch drew its own) and steps
    on slices of ``batch_size`` rows with eta(i), i counting its steps from
    0. A nonzero ``mu`` adds FedProx's mu*(theta - start) to each gradient,
    anchoring each client at its own start, and ``controls`` = (server, own)
    adds server - own, left to right; server and own controls are stacked
    (P, dim), one row per client. The update is ``sgd_step``'s in its
    operation order. Returns each client's step count, epochs *
    ceil(rows / batch_size), and each diverging client's first step that
    left its parameters non-finite; the caller words the error.

    The clients step in lockstep: at step i, every client with a step left
    takes it with the others, through one stacked ``_Pool.kernel``. Slots
    are ordered by descending step count, so the clients still stepping are
    always the first ones. Each step gathers its rows and labels with one
    ``take`` each into (P, batch_size, ...) slot buffers. An epoch's short
    tail batch of m rows fills its slot like any other batch: the step table
    pads it with the pool's zero row, whose loss derivative the kernel sets
    to 0, and the slot's mean runs over m. Every product thus runs over
    ``batch_size`` rows per slot, so a client's bits depend only on its own
    rows, never on the other slots, the stack size or the thread count, and
    the first step that leaves its parameters non-finite is the one it
    would meet alone. One finite check of the live slots after each step
    finds it; only when that check fails are the slots looked at one by
    one. A diverging client steps on to its end like the others, and every
    client is written back. The floating-point warnings on the way would
    only repeat the error, so they are silenced."""
    hyper = pool.hyper
    bs, rho, wd = hyper.batch_size, hyper.momentum, hyper.weight_decay
    steps = [epochs * -(-len(r) // bs) for r in rows]
    order = sorted(range(len(rows)), key=lambda p: -steps[p])
    # Each step's rows, per slot and padded with the pool's last row, its
    # zero row, after a tail batch; active[i]: the slots with a step i;
    # tails[i]: (slot, rows) of the short batches at step i.
    table = np.zeros((max(steps), len(rows), bs), dtype=np.intp)
    active = np.zeros(len(table), dtype=np.intp)
    tails: list[list[tuple[int, int]]] = [[] for _ in table]
    for slot, p in enumerate(order):
        n, per_epoch = len(rows[p]), -(-len(rows[p]) // bs)
        padded = np.full((epochs, per_epoch * bs), len(pool.y) - 1, dtype=np.intp)
        for epoch in padded:
            epoch[:n] = rows[p][rngs[p].permutation(n)]
        table[: steps[p], slot] = padded.reshape(-1, bs)
        active[: steps[p]] += 1
        if n % bs:
            for epoch in range(1, epochs + 1):
                tails[epoch * per_epoch - 1].append((slot, n % bs))
    # The per-client stacks in slot order.
    controls = None if controls is None else (controls[0][order], controls[1][order])
    n = len(rows)
    pool.kernel(n)  # step 0's, which trains every client; it grows the slots to them
    theta.take(order, axis=0, out=pool.theta[:n])
    v.take(order, axis=0, out=pool.v[:n])
    starts = pool.theta[:n].copy() if mu else None
    diverged: dict[int, int] = {}
    live = 0
    with np.errstate(all="ignore"):
        for step, step_live in enumerate(active.tolist()):
            if step_live != live:
                live = step_live
                forward, backward, params, mom, g, tmp, diff, x, y = pool.kernel(live)
                if mu:
                    anchor = starts[:live]
                if controls is not None:
                    server, own = (c[:live] for c in controls)
            # mode="clip" leaves valid indices as they are and skips the copy
            # that the default mode makes of an ``out``.
            idx = table[step, :live]
            pool.x.take(idx, axis=0, out=x, mode="clip")
            pool.y.take(idx, out=y, mode="clip")
            forward()
            backward(tails[step])
            if mu:
                # g + mu*(theta - theta_g) + c - c_k, added left to right.
                np.subtract(params, anchor, out=diff)
                np.multiply(diff, mu, out=diff)
                g += diff
            if controls is not None:
                g += server
                g -= own
            # v <- rho*v + (g + wd*theta); theta <- theta - eta*v
            np.multiply(params, wd, out=tmp)
            tmp += g
            mom *= rho
            mom += tmp
            np.multiply(mom, hyper.learning_rate(step), out=tmp)
            params -= tmp
            if not np.isfinite(params).all():
                for slot in np.flatnonzero(~np.isfinite(params).all(axis=1)).tolist():
                    diverged.setdefault(order[slot], step)
    theta[order] = pool.theta[:n]
    v[order] = pool.v[:n]
    return steps, diverged


def _pass(
    model: ModelSpec, params: np.ndarray, xs: list[np.ndarray], ys: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray], list[np.ndarray | None]]:
    """Unchecked pass of ``params`` over several blocks of rows ``xs[k]``
    with labels ``ys[k]``. Per block it returns the per-sample losses, the
    raw outputs ((m, C) logits for classifiers, (m,) for regression), the
    terms that ``_terms_grad`` reads and the MLP's hidden activations (None
    for the other models).

    Each block goes through the model by itself, so every matrix product sees
    the same rows as it would alone. The row-wise rest runs once over all
    blocks, which saves numpy calls and leaves each row's bits as they are."""
    forward = _bind_forward(model, params)
    passes = [forward(x) for x in xs]
    outputs = [out if model.is_classifier else out[:, 0] for out, _ in passes]
    y = np.concatenate(ys)
    terms = _output_terms(model, np.concatenate(outputs), y)
    losses = -terms[np.arange(len(y)), y] if model.is_classifier else 0.5 * terms**2
    ends = np.cumsum([len(b) for b in ys]).tolist()
    blocks = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]
    hidden = [h for _, h in passes]
    return [losses[b] for b in blocks], outputs, [terms[b] for b in blocks], hidden


def per_sample_losses(model: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """One nonnegative loss per sample; cross-entropy for classifiers,
    0.5*(f - y)^2 for the regression models."""
    _check_batch(model, params, batch)
    return _pass(model, params, [batch.x], [batch.y])[0][0]


def grad(model: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Gradient of the mean batch loss with respect to the flat parameters."""
    _check_batch(model, params, batch)
    _, _, [terms], [hidden] = _pass(model, params, [batch.x], [batch.y])
    return _terms_grad(model, params, batch.x, batch.y, terms, hidden)


def predict(model: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Argmax class predictions (classifiers only)."""
    if not model.is_classifier:
        raise ConfigurationError("predict requires a classifier model")
    _check_batch(model, params, batch)
    return _bind_forward(model, params)(batch.x)[0].argmax(axis=1)


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


def hessian_decomposition(
    model: ModelSpec, params: np.ndarray, batch: Batch
) -> HessianDecomposition:
    """Exact decomposition of the mean squared-error Hessian into
    (1/N) sum grad_f grad_f^T plus (1/N) sum (f - y) * hess_f.

    Restricted to the least-squares models (linear, or MLP with a scalar
    head) and to dense-friendly parameter counts. The rows of the Jacobian,
    the per-sample gradients of the output f(theta, x), come from the
    backward pass that training takes its gradients from (``_bind_backward``),
    one sample per stack slot with a loss derivative of 1. The MLP's hess_f
    is a closed form per hidden unit k, with s = 1 - a^2, dd = -2*a*s and
    x~ = (x, 1): w2_k*dd_k * x~ x~^T on the unit's (W1_k, b1_k) block and
    s_k * x~ between that block and w2_k; every other block vanishes.
    """
    if model.is_classifier:
        raise ConfigurationError("Hessian decomposition requires a squared-error model")
    if model.param_count() > 512:
        raise ConfigurationError("parameter count too large for the dense probe")
    _check_batch(model, params, batch)
    m, x, p = len(batch), batch.x, model.param_count()
    # The forward pass runs on the 2-D rows: over (m, 1, d) stacks its
    # products, and so the Jacobian's bits, would change.
    out, hidden = _bind_forward(model, params)(x)
    resid = out[:, 0] - batch.y.astype(np.float64)
    jacobian = np.empty((m, p))
    stacked = None if hidden is None else hidden[:, None, :]
    _bind_backward(model, params, jacobian)(x[:, None, :], np.ones((m, 1, 1)), stacked)
    gauss_newton = jacobian.T @ jacobian / m
    residual_term = np.zeros((p, p))
    if hidden is not None:
        # Row k of ``unit`` holds the flat indices of (W1_k, b1_k), and
        # ``head[k]`` that of w2_k.
        (w1, b1), (head, _) = _layers(model, np.arange(p))
        unit, head = np.vstack([w1, b1]).T, head[:, 0]
        w2 = _layers(model, params)[1][0][:, 0]
        xt = np.hstack([x, np.ones((m, 1))])
        rs = resid[:, None] / m * (1.0 - hidden**2)  # r_i * s_ik
        blocks = np.einsum("ik,ia,ib->kab", -2.0 * hidden * rs, xt, xt)
        residual_term[unit[:, :, None], unit[:, None, :]] = w2[:, None, None] * blocks
        coupling = np.einsum("ik,ia->ka", rs, xt)
        residual_term[unit, head[:, None]] = coupling
        residual_term[head[:, None], unit] = coupling
    full = gauss_newton + residual_term
    return HessianDecomposition(
        gauss_newton=gauss_newton,
        residual_term=residual_term,
        full=full,
        min_eig_full=float(np.linalg.eigvalsh(full).min()),
        min_eig_gn=float(np.linalg.eigvalsh(gauss_newton).min()),
    )
