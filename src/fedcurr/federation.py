"""Federated round loop: broadcast, curriculum-aware local training, and
aggregation under FedAvg, FedProx, SCAFFOLD or FedNova.

Each round runs the model once per needed client at the broadcast
parameters, and that pass's per-sample losses and gradient feed the client
ranking, the round diagnostics and loss-based sample scoring. Local training
checks its data once per client update and then steps on raw array slices.

Determinism contract: every random draw comes from a generator keyed by
(seed, stream tag, round, client id), and the clients of a round train one
after another in ascending id order, so reruns are bitwise identical. Runs
share no state, so the CLI's worker threads, one (arm, trial) job each,
change no digit either.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .clients import ClientSelectionConfig, score_clients, select_clients
from .curriculum import (
    OrderingKind,
    PacingFamily,
    PacingSpec,
    ScoringKind,
    _check_fractions,
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
    _grad,
    _losses,
    _losses_and_grads,
    _targets,
    grad,
    init_params,
    sgd_step,
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
    scoring: ScoringKind
    family: PacingFamily
    a: float
    b: float
    ordering: OrderingKind

    def __post_init__(self):
        _check_fractions(self.a, self.b)


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    num_clients: int = 100
    participants: int = 10
    rounds: int = 100
    local_epochs: int = 10
    algorithm: Algorithm = Algorithm.FEDAVG
    mu_prox: float = 0.0
    data_curriculum: DataCurriculumConfig | None = None
    client_curriculum: ClientSelectionConfig | None = None
    hyper: SgdHyper = field(default_factory=SgdHyper)
    seed: int = 202207

    def __post_init__(self):
        if self.num_clients < 1:
            raise ConfigurationError("num_clients must be >= 1", field="num_clients")
        if not 1 <= self.participants <= self.num_clients:
            raise ConfigurationError(
                "need 1 <= participants <= num_clients", field="participants"
            )
        if self.rounds < 0:
            raise ConfigurationError("rounds must be >= 0", field="rounds")
        if self.local_epochs < 1:
            raise ConfigurationError("local_epochs must be >= 1", field="local_epochs")
        if self.mu_prox < 0:
            raise ConfigurationError("mu_prox must be >= 0", field="mu_prox")
        if self.client_curriculum is not None:
            if self.client_curriculum.pacing.total != self.num_clients:
                raise ConfigurationError("client pacing total must equal num_clients")


@dataclass
class ClientState:
    client_id: int
    indices: np.ndarray
    momentum: np.ndarray
    local_params: np.ndarray | None = None  # last locally trained parameters
    control: np.ndarray | None = None  # SCAFFOLD control variate
    tau: int = 0  # local steps taken in the last update


@dataclass
class ClientUpdateResult:
    client_id: int
    params: np.ndarray
    num_samples: int
    tau: int
    selected: int  # size of the trained subset
    control_delta: np.ndarray | None = None


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
    ds: Dataset,
    t: int,
    rng: np.random.Generator,
    server_control: np.ndarray | None = None,
    expert_params: np.ndarray | None = None,
    global_losses: np.ndarray | None = None,
) -> tuple[ClientUpdateResult, ClientState]:
    """One local-training pass: select the paced subset, run the configured
    epochs of mini-batch SGD from the broadcast parameters, and report the
    trained parameters. The momentum buffer persists across rounds; the step
    index (and with it the learning-rate schedule) resets each round.

    ``global_losses``, when given, are the per-sample losses of the client's
    data at ``global_params``; loss-based scoring reuses them. The data and
    parameters are checked once, then the steps run unchecked on raw slices
    with ``sgd_step``'s arithmetic. A step that leaves non-finite parameters
    raises FloatingPointError naming the round and the client."""
    if len(state.indices) < 1:
        raise ConfigurationError(f"client {state.client_id} holds no data")
    model, hyper = cfg.model, cfg.hyper
    full = ds.batch(state.indices)
    _check_batch(model, global_params, full)
    if state.momentum.shape != global_params.shape:
        raise ConfigurationError("parameter and momentum lengths must match")
    dc = cfg.data_curriculum
    if dc is not None:
        table = score_samples(
            dc.scoring,
            model,
            full,
            global_params=global_params,
            local_params=state.local_params if state.local_params is not None else global_params,
            expert_params=expert_params,
            rng=rng,
            global_losses=global_losses,
        )
        spec = PacingSpec(dc.family, dc.a, dc.b, total=len(state.indices), budget=cfg.rounds)
        n_sel = pace(spec, t)
        chosen = np.sort(order_and_select(table, dc.ordering, n_sel, rng))
        x, y = full.x[chosen], full.y[chosen]
    else:
        n_sel = len(state.indices)
        x, y = full.x, full.y

    target = _targets(model, y)
    bs = hyper.batch_size
    starts = range(0, len(y), bs)
    etas = [hyper.learning_rate(i) for i in range(cfg.local_epochs * len(starts))]
    rho, wd, mu = hyper.momentum, hyper.weight_decay, cfg.mu_prox
    prox = cfg.algorithm is Algorithm.FEDPROX and mu != 0.0
    scaffold = cfg.algorithm is Algorithm.SCAFFOLD
    theta = global_params.copy()
    v = state.momentum.copy()
    step = 0
    eta_sum = 0.0
    # The finite check reports a diverging step, so numpy's overflow
    # warnings on the way there would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.local_epochs):
            # One gather per epoch (take copies rows about 3x faster than
            # fancy indexing); each mini-batch is then a contiguous slice.
            perm = rng.permutation(len(y))
            xp, tp = x.take(perm, axis=0), target.take(perm, axis=0)
            for lo in starts:
                g = _grad(model, theta, xp[lo : lo + bs], tp[lo : lo + bs])
                if prox:
                    g = g + mu * (theta - global_params)
                if scaffold:
                    g = g + server_control - state.control
                eta = etas[step]
                eta_sum += eta
                v = rho * v + (g + wd * theta)
                theta = theta - eta * v
                if not np.isfinite(theta).all():
                    raise FloatingPointError(
                        f"round {t}, client {state.client_id}: non-finite parameters "
                        f"after local step {step}"
                    )
                step += 1

    control_delta = None
    new_control = state.control
    if scaffold:
        alpha_bar = eta_sum / step
        new_control = state.control - server_control + (global_params - theta) / (step * alpha_bar)
        control_delta = new_control - state.control
    new_state = replace(
        state,
        momentum=v,
        local_params=theta.copy(),
        control=new_control,
        tau=step,
    )
    result = ClientUpdateResult(
        client_id=state.client_id,
        params=theta,
        num_samples=len(state.indices),
        tau=step,
        selected=n_sel,
        control_delta=control_delta,
    )
    return result, new_state


def aggregate(
    updates: list[ClientUpdateResult],
    algorithm: Algorithm,
    global_params: np.ndarray,
    server_control: np.ndarray | None = None,
    num_clients_total: int = 0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Combine client parameters into the new global model.

    Weights are the participants' sample counts renormalized to sum to 1.
    The update is applied in delta form, theta - sum w_k * s_k * (theta -
    theta_k), with s_k = 1 except under FedNova where s_k = tau_eff / tau_k;
    tau_eff is computed with an integer numerator so equal step counts give
    s_k exactly 1.
    """
    if not updates:
        raise ValueError("no client updates to aggregate")
    n_round = sum(u.num_samples for u in updates)
    if algorithm is Algorithm.FEDNOVA:
        tau_eff = sum(u.num_samples * u.tau for u in updates) / n_round
        scales = [tau_eff / u.tau for u in updates]
    else:
        scales = [1.0] * len(updates)
    if len(updates) == 1:
        new = updates[0].params.copy()
    else:
        new = global_params.copy()
        for u, s in zip(updates, scales):
            new = new - (u.num_samples / n_round) * s * (global_params - u.params)
    new_control = server_control
    if algorithm is Algorithm.SCAFFOLD:
        if server_control is None or num_clients_total < 1:
            raise ConfigurationError("SCAFFOLD aggregation needs server control state")
        mean_delta = sum(u.control_delta for u in updates) / len(updates)
        new_control = server_control + (len(updates) / num_clients_total) * mean_delta
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
    (or the initial model's row when rounds == 0)."""
    if part.num_clients != cfg.num_clients:
        raise ConfigurationError("partition does not match num_clients")
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
        for i in range(cfg.num_clients)
    ]
    server_control = np.zeros(dim) if cfg.algorithm is Algorithm.SCAFFOLD else None

    if cfg.rounds == 0:
        acc, loss = evaluate(model, theta, test)
        return [RoundMetrics(0, acc, loss, [], float("nan"), float("nan"), float("nan"))]

    # Every client's data is a subset of the dataset: check it once.
    data = ds.batch()
    _check_batch(model, theta, data)
    metrics = []
    for t in range(cfg.rounds):
        round_rng = np.random.default_rng([cfg.seed, _SERVER_STREAM, t])
        if cfg.client_curriculum is not None:
            scored = range(cfg.num_clients)
        else:
            ids = sorted(
                int(c)
                for c in round_rng.choice(cfg.num_clients, size=cfg.participants, replace=False)
            )
            scored = ids
        # One forward pass per scored client at theta. Its losses serve the
        # client ranking, the round diagnostics and loss-based sample scoring;
        # its gradient serves lambda.
        block_losses, block_grads = _losses_and_grads(
            model,
            theta,
            [data.x.take(states[i].indices, axis=0) for i in scored],
            [data.y[states[i].indices] for i in scored],
        )
        if cfg.client_curriculum is not None:  # block i is client i
            ids = select_clients(score_clients(block_losses), cfg.client_curriculum, t, round_rng)
        losses = dict(zip(scored, block_losses))

        sizes = np.array([len(states[i].indices) for i in ids], dtype=np.float64)
        w = sizes / sizes.sum()
        grad_at_theta = dict(zip(scored, block_grads))
        grads = [grad_at_theta[i]() for i in ids]
        del grad_at_theta, block_grads  # free the forward passes before training
        try:
            lam = gradient_dissimilarity(grads, w)
        except ValueError:
            lam = float("nan")
        mean_cl = float(np.mean([float(losses[i].mean()) for i in ids]))

        updates = []
        for cid in ids:  # ascending id: fixed reduction order
            crng = np.random.default_rng([cfg.seed, _CLIENT_STREAM, t, cid])
            result, states[cid] = client_update(
                states[cid], theta, cfg, ds, t, crng, server_control, expert_params,
                global_losses=losses[cid],
            )
            updates.append(result)
        theta, server_control = aggregate(
            updates, cfg.algorithm, theta, server_control, cfg.num_clients
        )

        acc, loss = evaluate(model, theta, test)
        subset_frac = float(np.mean([u.selected / u.num_samples for u in updates]))
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
    and reference models."""
    rng = np.random.default_rng([seed, _INIT_STREAM])
    theta = init_params(model, rng)
    v = np.zeros_like(theta)
    data = ds.batch()
    step = 0
    for _ in range(epochs):
        perm = rng.permutation(len(data))
        for lo in range(0, len(data), hyper.batch_size):
            mini = data.subset(perm[lo : lo + hyper.batch_size])
            theta, v = sgd_step(theta, grad(model, theta, mini), hyper, step, v)
            step += 1
    return theta
