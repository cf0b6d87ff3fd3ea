"""Federated round loop: broadcast, curriculum-aware local training, and
aggregation under FedAvg, FedProx, SCAFFOLD or FedNova.

Each client's rows and one-hot targets are gathered once per run. Each
round runs the model once per needed client at the broadcast parameters, and
that pass's per-sample losses, argmax predictions and gradient feed the
client ranking, the round diagnostics and sample scoring. Local training
takes the same rows and checks them and the parameter shapes once per client
update. It then runs ``models._local_sgd``, the one momentum-SGD loop, which
``train_centralized`` shares for the expert model.

Determinism contract: every random draw comes from a generator keyed by
(seed, stream tag, round, client id), and the clients of a round train one
after another in ascending id order, so reruns are bitwise identical. Runs
share no state, so the CLI's worker processes, each running a fixed share
of the (arm, trial) jobs one after another, change no digit either.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .clients import ClientSelectionConfig, score_clients, select_clients
from .curriculum import (
    PRED_BASED,
    OrderingKind,
    PacingSpec,
    ScoringKind,
    order_and_select,
    pace,
    score_samples,
)
from .data import Dataset, Partition
from .errors import ConfigurationError
from .models import (
    Batch,
    ModelSpec,
    SgdHyper,
    _check_batch,
    _forward,
    _local_sgd,
    _losses,
    _losses_and_grads,
    _targets,
    init_params,
)

# Seed-stream tags; each generator is keyed (seed, tag, ...).
_INIT_STREAM = 0
_SERVER_STREAM = 1
_CLIENT_STREAM = 2


class Algorithm(Enum):
    FEDAVG = "fedavg"
    FEDPROX = "fedprox"
    SCAFFOLD = "scaffold"
    FEDNOVA = "fednova"


@dataclass(frozen=True)
class DataCurriculumConfig:
    """Sample scoring, and pacing over a client's data (one step per round)."""

    scoring: ScoringKind
    pacing: PacingSpec
    ordering: OrderingKind


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    participants: int = 10  # clients per round, under either selection rule
    rounds: int = 100
    local_epochs: int = 10
    algorithm: Algorithm = Algorithm.FEDAVG
    mu_prox: float = 0.0
    data_curriculum: DataCurriculumConfig | None = None
    client_curriculum: ClientSelectionConfig | None = None
    hyper: SgdHyper = field(default_factory=SgdHyper)
    seed: int = 202207

    def __post_init__(self):
        if self.rounds < 0:
            raise ConfigurationError("rounds must be >= 0", field="rounds")
        if self.local_epochs < 1:
            raise ConfigurationError("local_epochs must be >= 1", field="local_epochs")
        if self.mu_prox < 0:
            raise ConfigurationError("mu_prox must be >= 0", field="mu_prox")


def _check_participants(participants: int, num_clients: int) -> None:
    if not 1 <= participants <= num_clients:
        raise ConfigurationError("need 1 <= participants <= num_clients", field="participants")


@dataclass
class ClientState:
    """One client across rounds: its data and optimizer state, and what its
    last ``client_update`` produced, which ``aggregate`` reads."""

    client_id: int
    indices: np.ndarray
    momentum: np.ndarray
    local_params: np.ndarray | None = None  # last locally trained parameters
    control: np.ndarray | None = None  # SCAFFOLD control variate
    tau: int = 0  # local steps taken in the last update
    selected: int = 0  # size of the subset trained in the last update
    control_delta: np.ndarray | None = None  # SCAFFOLD control change in the last update


@dataclass
class RoundMetrics:
    round: int
    test_acc: float
    test_loss: float
    participants: list[int]
    mean_client_loss: float
    lam: float
    subset_frac: float


def gradient_dissimilarity(grads: list[np.ndarray], weights: np.ndarray) -> float:
    """Weighted per-client gradient energy over the energy of the weighted
    aggregate; 1 for homogeneous gradients, larger for dissimilar ones."""
    weights = np.asarray(weights, dtype=np.float64)
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    num = sum(w * float(g @ g) for w, g in zip(weights, grads))
    agg = sum(w * g for w, g in zip(weights, grads))
    den = float(agg @ agg)
    if den <= 1e-300 * max(num, 1.0):
        raise ValueError("aggregate gradient is zero; dissimilarity undefined")
    return num / den


def client_update(
    state: ClientState,
    global_params: np.ndarray,
    cfg: ExperimentConfig,
    x: np.ndarray,
    y: np.ndarray,
    t: int,
    rng: np.random.Generator,
    server_control: np.ndarray | None = None,
    expert_params: np.ndarray | None = None,
    global_losses: np.ndarray | None = None,
    global_predictions: np.ndarray | None = None,
) -> ClientState:
    """One local-training pass: select the paced subset, run the configured
    epochs of mini-batch SGD from the broadcast parameters, and return the
    client's new state, with the trained parameters in ``local_params``.
    ``state`` itself is left as it was. The momentum buffer persists across
    rounds; the step index (and with it the learning-rate schedule) resets
    each round.

    ``x`` and ``y`` are the client's rows, ``ds.features[state.indices]`` and
    ``ds.labels[state.indices]``; ``run_experiment`` gathers them once per
    run and passes the same arrays every round. ``global_losses`` and
    ``global_predictions``, when given, are the per-sample losses and argmax
    predictions of those rows at ``global_params``; loss- and
    prediction-based scoring reuse them. The rows and parameter shapes are
    checked here, on every call, and the training targets are built here
    from the selected labels. ``models._local_sgd`` then steps on them
    unchecked, with the FedProx and SCAFFOLD terms added to each gradient in
    place. A step that leaves non-finite parameters raises
    FloatingPointError naming the round, the client and the step."""
    if len(y) < 1:
        raise ConfigurationError(f"client {state.client_id} holds no data")
    model = cfg.model
    batch = Batch(x, y)
    _check_batch(model, global_params, batch)
    x, y = batch.x, batch.y
    if state.momentum.shape != global_params.shape:
        raise ConfigurationError("parameter and momentum lengths must match")
    dc = cfg.data_curriculum
    if dc is not None:
        scores = score_samples(
            dc.scoring,
            model,
            batch,
            global_params=global_params,
            local_params=(
                state.local_params if state.local_params is not None else global_params
            ),
            expert_params=expert_params,
            rng=rng,
            global_losses=global_losses,
            global_predictions=global_predictions,
        )
        n_sel = pace(dc.pacing, t, len(y), cfg.rounds)
        chosen = np.sort(order_and_select(scores, dc.ordering, n_sel, rng))
        x, y = x[chosen], y[chosen]
    else:
        n_sel = len(y)

    prox = cfg.algorithm is Algorithm.FEDPROX and cfg.mu_prox != 0.0
    scaffold = cfg.algorithm is Algorithm.SCAFFOLD
    diff = np.empty_like(global_params) if prox else None

    def adjust(g: np.ndarray, theta: np.ndarray) -> None:
        # g + mu*(theta - theta_g) + c - c_k, added left to right.
        if prox:
            np.subtract(theta, global_params, out=diff)
            np.multiply(diff, cfg.mu_prox, out=diff)
            g += diff
        if scaffold:
            g += server_control
            g -= state.control

    theta = global_params.copy()
    v = state.momentum.copy()
    step, eta_sum = _local_sgd(
        model, cfg.hyper, theta, v, x, _targets(model, y), cfg.local_epochs, rng,
        f"round {t}, client {state.client_id}", adjust if prox or scaffold else None,
    )

    control_delta = None
    new_control = state.control
    if scaffold:
        alpha_bar = eta_sum / step
        new_control = state.control - server_control + (global_params - theta) / (step * alpha_bar)
        control_delta = new_control - state.control
    return replace(
        state,
        momentum=v,
        local_params=theta,
        control=new_control,
        tau=step,
        selected=n_sel,
        control_delta=control_delta,
    )


def aggregate(
    states: list[ClientState],
    algorithm: Algorithm,
    global_params: np.ndarray,
    server_control: np.ndarray | None = None,
    num_clients_total: int = 0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Combine the participants' trained parameters into the new global
    model; ``states`` are the states ``client_update`` returned this round.

    Weights are the participants' sample counts renormalized to sum to 1.
    The update is applied in delta form, theta - sum w_k * s_k * (theta -
    theta_k), with s_k = 1 except under FedNova where s_k = tau_eff / tau_k;
    tau_eff is computed with an integer numerator so equal step counts give
    s_k exactly 1.
    """
    if not states:
        raise ValueError("no client updates to aggregate")
    sizes = [len(s.indices) for s in states]
    n_round = sum(sizes)
    if algorithm is Algorithm.FEDNOVA:
        tau_eff = sum(n * s.tau for n, s in zip(sizes, states)) / n_round
        scales = [tau_eff / s.tau for s in states]
    else:
        scales = [1.0] * len(states)
    if len(states) == 1:
        new = states[0].local_params.copy()
    else:
        new = global_params.copy()
        for n, s, scale in zip(sizes, states, scales):
            new = new - (n / n_round) * scale * (global_params - s.local_params)
    new_control = server_control
    if algorithm is Algorithm.SCAFFOLD:
        if server_control is None or num_clients_total < 1:
            raise ConfigurationError("SCAFFOLD aggregation needs server control state")
        mean_delta = sum(s.control_delta for s in states) / len(states)
        new_control = server_control + (len(states) / num_clients_total) * mean_delta
    return new, new_control


def evaluate(model: ModelSpec, params: np.ndarray, test: Batch) -> tuple[float, float]:
    """Test accuracy and mean test loss, from one forward pass."""
    _check_batch(model, params, test)
    out = _forward(model, params, test.x)[0]
    hits = out.argmax(axis=1) if model.is_classifier else np.rint(out)
    return float((hits == test.y).mean()), float(_losses(model, out, test.y).mean())


def run_experiment(
    cfg: ExperimentConfig,
    ds: Dataset,
    part: Partition,
    test: Batch,
    expert_params: np.ndarray | None = None,
) -> list[RoundMetrics]:
    """Run the full federation and return one metrics row per round
    (or the initial model's row when rounds == 0).

    The dataset is checked against the model once, and each client's rows,
    labels and one-hot targets are gathered from it once per run. Every
    round's pass at the broadcast parameters reads all three, and every
    ``client_update`` the rows and labels, which it checks again on each
    call."""
    m = part.num_clients
    _check_participants(cfg.participants, m)
    if cfg.data_curriculum is not None and cfg.data_curriculum.scoring is ScoringKind.EXPERT:
        if expert_params is None:
            raise ConfigurationError("expert scoring needs expert parameters")
    model = cfg.model
    theta = init_params(model, np.random.default_rng([cfg.seed, _INIT_STREAM]))
    dim = theta.shape[0]
    states = [
        ClientState(
            client_id=i,
            indices=part.assignment[i],
            momentum=np.zeros(dim),
            control=np.zeros(dim) if cfg.algorithm is Algorithm.SCAFFOLD else None,
        )
        for i in range(m)
    ]
    server_control = np.zeros(dim) if cfg.algorithm is Algorithm.SCAFFOLD else None

    if cfg.rounds == 0:
        acc, loss = evaluate(model, theta, test)
        return [RoundMetrics(0, acc, loss, [], float("nan"), float("nan"), float("nan"))]

    data = ds.batch()
    _check_batch(model, theta, data)
    xs = [data.x.take(s.indices, axis=0) for s in states]
    ys = [data.y[s.indices] for s in states]
    targets = [_targets(model, y) for y in ys]
    dc = cfg.data_curriculum
    predicting = dc is not None and dc.scoring in PRED_BASED and model.is_classifier
    metrics = []
    for t in range(cfg.rounds):
        round_rng = np.random.default_rng([cfg.seed, _SERVER_STREAM, t])
        if cfg.client_curriculum is not None:
            scored = range(m)
        else:
            ids = sorted(int(c) for c in round_rng.choice(m, size=cfg.participants, replace=False))
            scored = ids
        # One forward pass per scored client at theta. Its losses serve the
        # client ranking, the round diagnostics and loss-based sample scoring,
        # the argmax of its outputs prediction-based scoring, and its gradient
        # lambda.
        block_losses, block_grads, block_outputs = _losses_and_grads(
            model, theta, [xs[i] for i in scored], [ys[i] for i in scored],
            [targets[i] for i in scored],
        )
        if cfg.client_curriculum is not None:  # block i is client i
            ids = select_clients(
                score_clients(block_losses), cfg.client_curriculum, t, cfg.rounds,
                cfg.participants, round_rng,
            )
        losses = dict(zip(scored, block_losses))
        predictions = {
            i: out.argmax(axis=1) for i, out in zip(scored, block_outputs) if predicting and i in ids
        }

        sizes = np.array([len(states[i].indices) for i in ids], dtype=np.float64)
        w = sizes / sizes.sum()
        grad_at_theta = dict(zip(scored, block_grads))
        grads = [grad_at_theta[i]() for i in ids]
        del grad_at_theta, block_grads, block_outputs  # free the forward passes before training
        try:
            lam = gradient_dissimilarity(grads, w)
        except ValueError:
            lam = float("nan")
        mean_cl = float(np.mean([float(losses[i].mean()) for i in ids]))

        for cid in ids:  # ascending id: fixed reduction order
            crng = np.random.default_rng([cfg.seed, _CLIENT_STREAM, t, cid])
            states[cid] = client_update(
                states[cid], theta, cfg, xs[cid], ys[cid], t, crng, server_control,
                expert_params, global_losses=losses[cid],
                global_predictions=predictions.get(cid),
            )
        updated = [states[cid] for cid in ids]
        theta, server_control = aggregate(updated, cfg.algorithm, theta, server_control, m)

        acc, loss = evaluate(model, theta, test)
        subset_frac = float(np.mean([s.selected / len(s.indices) for s in updated]))
        metrics.append(RoundMetrics(t, acc, loss, list(ids), mean_cl, lam, subset_frac))
    return metrics


def train_centralized(
    model: ModelSpec,
    ds: Dataset,
    hyper: SgdHyper,
    epochs: int,
    seed: int,
) -> np.ndarray:
    """Plain centralized SGD over the full dataset; used to build expert
    and reference models. The data is checked once, then the steps run in
    ``models._local_sgd``, as local training does. A step that leaves
    non-finite parameters raises FloatingPointError naming expert training
    and the step."""
    rng = np.random.default_rng([seed, _INIT_STREAM])
    theta = init_params(model, rng)
    data = ds.batch()
    _check_batch(model, theta, data)
    _local_sgd(
        model, hyper, theta, np.zeros_like(theta), data.x, _targets(model, data.y), epochs,
        rng, "expert training",
    )
    return theta
