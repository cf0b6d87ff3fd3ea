"""Checks and reference implementations the tests share; the package itself has
no use for them."""

import math

import numpy as np

from fedcurr import (
    Batch,
    BiasKind,
    Dataset,
    ModelKind,
    ModelSpec,
    Partition,
    SgdHyper,
    client_update,
    grad,
    init_params,
    per_sample_losses,
    run_experiment,
    sgd_step,
)
from fedcurr.federation import _INIT_STREAM, _train, _Training
from fedcurr.models import _output_terms
from fedcurr.theory import _check_cohort, _noisy


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


def validate_bias_schedule(kind: BiasKind, v: np.ndarray) -> None:
    """Raise if the caps ``v`` are not a nonnegative (T+1, J+1) matrix shaped
    as their kind promises."""
    if v.ndim != 2 or np.any(v < 0):
        raise AssertionError("bias values must be a nonnegative (T+1, J+1) matrix")
    T = v.shape[0] - 1
    if kind is BiasKind.CLIENT_BASED:
        if np.any(v.max(axis=1) != v.min(axis=1)):
            raise AssertionError("client-based caps must be constant within a round")
        if np.any(np.diff(v[:, 0]) <= 0):
            raise AssertionError("client-based caps must strictly increase across rounds")
    else:
        if np.any(np.diff(v, axis=1) <= 0):
            raise AssertionError("data-based caps must strictly increase within a round")
        for t in range(T):
            if v[t, -1] != v[t + 1, 0]:
                raise AssertionError("data-based caps must be continuous across rounds")


def run_one(cfg, ds, part, test, expert_losses=None):
    """``run_experiment`` on one job: its metrics rows, or its error raised."""
    [result] = run_experiment([(cfg, ds, part, test, expert_losses)])
    if isinstance(result, Exception):
        raise result
    return result


def update_alone(cfg, pool, ids, global_params, clients, t, rngs, momenta, server_control=None,
                 controls=None, trained=None, expert_losses=None, at_theta=None):
    """One job's round of local training as ``federation._run_job`` runs it
    with no other job in its call: ``client_update`` selects the rows of the
    participants ``ids``, and ``federation._train`` trains them from
    ``global_params``. ``clients``, ``trained`` and ``expert_losses`` are
    per client id, as ``client_update`` takes them; ``momenta`` and
    ``controls`` are the participants' (P, dim) stacks. Returns the chosen
    rows, then the trained parameters, momenta, step counts and diverging
    participants."""
    unset = [None] * len(clients)
    chosen = client_update(
        ids, global_params, cfg, clients, unset if trained is None else trained,
        unset if expert_losses is None else expert_losses, at_theta or {}, t, rngs,
    )
    training = _Training(chosen, rngs, global_params, momenta, server_control, controls)
    [out] = _train(pool, cfg, [training])
    return (chosen, *out)


def batch_loss(model: ModelSpec, params: np.ndarray, batch: Batch) -> float:
    return float(per_sample_losses(model, params, batch).mean())


def _mlp_blocks(model: ModelSpec, params: np.ndarray):
    """The MLP's weights and biases (w1 (h, d), b1, w2 (C, h), b2), sliced
    from ``params`` in their storage order."""
    d, c, h = model.input_dim, model.num_classes, model.hidden_dim
    ends = np.cumsum([h * d, h, c * h])
    w1, b1, w2, b2 = np.split(params, ends)
    return w1.reshape(h, d), b1, w2.reshape(c, h), b2


def forward_reference(model: ModelSpec, params: np.ndarray, x: np.ndarray):
    """The raw outputs and hidden activations of ``models._pass`` as
    out-of-place expressions: (outputs, hidden), the outputs (m,) for
    regression and (m, C) logits for classifiers."""
    d = model.input_dim
    if model.kind is ModelKind.LINEAR_REGRESSION:
        return x @ params[:d] + params[d], None
    if model.kind is ModelKind.SOFTMAX_REGRESSION:
        c = model.num_classes
        return x @ params[: c * d].reshape(c, d).T + params[c * d :], None
    w1, b1, w2, b2 = _mlp_blocks(model, params)
    a = np.tanh(x @ w1.T + b1)
    out = a @ w2.T + b2
    return (out[:, 0] if model.num_classes == 1 else out), a


def targets_reference(model: ModelSpec, y: np.ndarray) -> np.ndarray:
    """The labels as the reference gradient reads them: one-hot rows for
    classifiers, float labels for the regression models."""
    if model.is_classifier:
        return np.eye(model.num_classes)[y]
    return y.astype(np.float64)


def terms_grad_reference(model, params, x, target, terms, hidden, rows=None) -> np.ndarray:
    """``models._terms_grad`` as out-of-place expressions joined by
    ``np.concatenate``. With ``rows``, the mean runs over the first ``rows``
    rows and the loss derivative of the rest, pad rows, is set to 0, as a
    local step does for a short batch."""
    m = len(target) if rows is None else rows
    if model.is_classifier:
        p = (np.exp(terms) - target) / m
        p[m:] = 0.0
    else:
        r = terms / m
        r[m:] = 0.0
    if model.kind is ModelKind.LINEAR_REGRESSION:
        return np.concatenate([x.T @ r, [r.sum()]])
    if model.kind is ModelKind.SOFTMAX_REGRESSION:
        return np.concatenate([(p.T @ x).ravel(), p.sum(axis=0)])
    w2 = _mlp_blocks(model, params)[2]
    if model.num_classes == 1:
        gw2 = hidden.T @ r
        gb2 = np.array([r.sum()])
        delta = np.outer(r, w2[0]) * (1.0 - hidden**2)
    else:
        gw2 = (p.T @ hidden).ravel()
        gb2 = p.sum(axis=0)
        delta = (p @ w2) * (1.0 - hidden**2)
    return np.concatenate([(delta.T @ x).ravel(), delta.sum(axis=0), np.ravel(gw2), gb2])


def padded_grad_reference(model, params, batch, batch_size):
    """The mean-loss gradient of a short ``batch``, as a local step takes it:
    the products run over ``batch_size`` rows, the batch padded with rows of
    zeros whose loss derivative is 0, and the mean runs over the batch's
    rows. A pad row's contents leave the other rows' bits as they are."""
    pad = batch_size - len(batch)
    x = np.concatenate([batch.x, np.zeros((pad, batch.x.shape[1]))])
    target = targets_reference(model, np.concatenate([batch.y, np.zeros(pad, dtype=batch.y.dtype)]))
    out, hidden = forward_reference(model, params, x)
    terms = _output_terms(model, out, target)
    return terms_grad_reference(model, params, x, target, terms, hidden, len(batch))


def local_sgd_reference(model, hyper, theta, v, data, epochs, rng, where, extra=None):
    """``models._local_sgd`` as a loop of the public, per-call-checked ``grad``
    and ``sgd_step`` on mini-batches gathered from the ``Batch`` ``data``; an
    epoch's short last batch takes ``padded_grad_reference`` instead.
    ``extra(g, theta)``, when given, returns the gradient with the FedProx or
    SCAFFOLD terms added, out of place. A step that leaves non-finite
    parameters raises FloatingPointError naming ``where`` and the step.
    Returns (theta, v, steps, the sum of the rates used)."""
    step, eta_sum = 0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            perm = rng.permutation(len(data))
            for lo in range(0, len(data), hyper.batch_size):
                idx = perm[lo : lo + hyper.batch_size]
                batch = Batch(data.x[idx], data.y[idx])
                if len(batch) == hyper.batch_size:
                    g = grad(model, theta, batch)
                else:
                    g = padded_grad_reference(model, theta, batch, hyper.batch_size)
                if extra is not None:
                    g = extra(g, theta)
                eta_sum += hyper.learning_rate(step)
                try:
                    theta, v = sgd_step(theta, g, hyper, step, v)
                except FloatingPointError:
                    raise FloatingPointError(
                        f"{where}: non-finite parameters after step {step}"
                    ) from None
                step += 1
    return theta, v, step, eta_sum


def train_centralized_reference(
    model: ModelSpec, ds: Dataset, hyper: SgdHyper, epochs: int, seed: int
) -> np.ndarray:
    """``train_centralized`` as ``local_sgd_reference`` over the dataset."""
    rng = np.random.default_rng([seed, _INIT_STREAM])
    theta = init_params(model, rng)
    return local_sgd_reference(
        model, hyper, theta, np.zeros_like(theta), ds.batch(), epochs, rng, "expert training"
    )[0]


def _perturb_reference(oracle, g, directions, cap, z):
    """The oracle formula on exact gradients ``g`` as out-of-place expressions,
    with the squared norm taken by the same ``einsum`` as the kernel's."""
    if cap > 0:
        _check_cohort(oracle.num_clients, cap)
        g = g + math.sqrt(cap) * directions
    if z is not None:
        norm2 = np.einsum("...i,...i->...", g, g)[..., None]
        var = oracle.rel_var * norm2 + oracle.sigma**2
        g = g + np.sqrt(var / g.shape[-1]) * z
    return g


def simulate_rounds_reference(oracle, alpha, theta0, n_runs, rng, on_round_start=None):
    """``theory._simulate_rounds`` as a stacked (R, Q, d) kernel: a 3-D ``grad_fn``
    call per step, one (R, Q, d) noise draw per step from ``rng``,
    out-of-place updates and ``mean(axis=1)`` for the cohort average."""
    q, dim = oracle.directions.shape
    theta_hat = np.tile(theta0, (n_runs, 1))
    for t in range(alpha.shape[0] - 1):
        if on_round_start is not None:
            on_round_start(theta_hat)
        thetas = np.repeat(theta_hat[:, None, :], q, axis=1)
        for j in range(alpha.shape[1]):
            g = oracle.grad_fn(thetas)
            z = rng.standard_normal((n_runs, q, dim)) if _noisy(oracle) else None
            thetas -= alpha[t, j] * _perturb_reference(
                oracle, g, oracle.directions, float(oracle.bias_values[t, j]), z
            )
        theta_hat = thetas.mean(axis=1)
    return theta_hat
