"""Federated round loop: broadcast, curriculum-aware local training, and
aggregation under FedAvg, FedProx, SCAFFOLD or FedNova.

``run_experiment`` runs a list of (arm, trial) jobs in lockstep by round,
each one ``_run_job`` generator that stops at its training step and keeps
its clients' state in arrays indexed by client id. The training pool that
the call builds holds each client's rows and labels once, client after
client, per distinct (dataset, partition) pair; a job reads its clients as
views of the pool, and a participant's chosen rows as its first pool row
plus positions in its block. Under expert scoring each client's expert
losses are gathered once per run. Each round runs the model once per
needed client at the broadcast parameters; that pass's losses and raw
outputs feed the client ranking, the round diagnostics and sample scoring,
which runs no model, and its terms and activations lambda's gradients. The
rows are checked once per job, at its set-up. Each round's local training,
for every job still running, is one call of ``models._local_sgd``, the one
momentum-SGD loop, which trains all the participants together and which
``train_centralized`` shares for the expert model. A job fails at the first
non-finite value it reads: its parameters after a local step (the step that
``_local_sgd`` returns, worded by ``_run_job``), a loss of the pass at theta
or at a local model, a gradient of lambda, the mean client loss or the test
loss. A job that fails stops, and the others of its call run on.

Determinism contract: every random draw comes from a generator keyed by
(seed, stream tag, round, client id). The participants of a round train in
lockstep with each other and with those of the other jobs of the call;
each local step runs a client's products over its own batch_size rows,
padded with zero rows where its batch is short, so its bits depend on its
own batches alone, not on the clients it steps with or on the rows of any
other job's dataset. Aggregation sums a job's updates
in ascending id order, so reruns are bitwise identical. Jobs share the
training pool and the local-SGD call, but no state that changes a digit:
each job's rows, or its error, are those of its run alone, whichever jobs
share its call and whichever of them fail, so the CLI's worker processes,
each running a fixed share of the jobs in lockstep, give the bits of the
jobs run one after another.
"""

from __future__ import annotations

import itertools
from collections.abc import Generator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .clients import ClientSelectionConfig, score_clients, select_clients
from .curriculum import (
    LOCAL_BASED,
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
    _local_sgd,
    _pass,
    _Pool,
    _terms_grad,
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
        if not self.mu_prox >= 0:
            raise ConfigurationError("mu_prox must be >= 0", field="mu_prox")
        if self.algorithm is Algorithm.SCAFFOLD and self.hyper.eta0 == 0:
            # Its control update divides by the mean rate.
            raise ConfigurationError("SCAFFOLD needs eta0 > 0", field="eta0")


def _check_participants(participants: int, num_clients: int) -> None:
    if not 1 <= participants <= num_clients:
        raise ConfigurationError("need 1 <= participants <= num_clients", field="participants")


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
    aggregate; 1 for homogeneous gradients, larger for dissimilar ones, and
    nan where the aggregate is zero and the ratio undefined."""
    weights = np.asarray(weights, dtype=np.float64)
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ConfigurationError("weights must sum to 1")
    num = sum(w * float(g @ g) for w, g in zip(weights, grads))
    agg = sum(w * g for w, g in zip(weights, grads))
    den = float(agg @ agg)
    if den <= 1e-300 * max(num, 1.0):
        return float("nan")
    return num / den


def _check_finite(values, where: str, what: str, clients: list[int] | range | None = None) -> None:
    """Fail the job with a FloatingPointError naming ``where``, ``what``
    and, when ``clients`` name the rows of ``values``, the first client whose
    row is not finite, unless every value is finite."""
    finite = np.isfinite(values)
    if finite.all():
        return
    if clients is not None:
        first = np.flatnonzero(~finite.reshape(len(clients), -1).all(axis=1))[0]
        where = f"{where}, client {clients[first]}"
    raise FloatingPointError(f"{where}: non-finite {what}")


@dataclass
class _Training:
    """One job's part of a round's local training, as ``_run_job`` yields
    it: per participant its chosen pool rows, generator, momentum and, under
    SCAFFOLD, control, and the job's broadcast parameters and server
    control, which every participant starts from."""

    rows: list[np.ndarray]
    rngs: list[np.random.Generator]
    global_params: np.ndarray
    momenta: np.ndarray  # (P, dim)
    server_control: np.ndarray | None
    controls: np.ndarray | None  # (P, dim), SCAFFOLD only


_Trained = tuple[np.ndarray, np.ndarray, list[int], dict[int, int]]  # see _train


def _train(pool: _Pool, cfg: ExperimentConfig, trainings: list[_Training]) -> list[_Trained]:
    """The jobs' parts of a round's local training, in one
    ``models._local_sgd`` call: for each part its trained parameters,
    momenta and step counts, and, keyed by its index in the part, each
    diverging participant's first non-finite step. The parts share
    ``cfg``'s model, rates, epochs and algorithm; FedProx anchors each
    client at its start, its own job's broadcast parameters, and SCAFFOLD
    adds its own job's server control."""
    counts = [len(tr.rows) for tr in trainings]
    theta = np.repeat(np.array([tr.global_params for tr in trainings]), counts, axis=0)
    v = np.concatenate([tr.momenta for tr in trainings])
    mu = cfg.mu_prox if cfg.algorithm is Algorithm.FEDPROX else 0.0
    controls = None
    if cfg.algorithm is Algorithm.SCAFFOLD:
        controls = (
            np.repeat(np.array([tr.server_control for tr in trainings]), counts, axis=0),
            np.concatenate([tr.controls for tr in trainings]),
        )
    steps, diverged = _local_sgd(
        pool, [r for tr in trainings for r in tr.rows], theta, v, cfg.local_epochs,
        [rng for tr in trainings for rng in tr.rngs], mu, controls,
    )
    ends = list(itertools.accumulate(counts))
    return [
        (theta[lo:hi], v[lo:hi], steps[lo:hi],
         {p - lo: step for p, step in diverged.items() if lo <= p < hi})
        for lo, hi in zip([0] + ends, ends)
    ]


def client_update(
    ids: list[int],
    global_params: np.ndarray,
    cfg: ExperimentConfig,
    clients: list[tuple[int, np.ndarray, np.ndarray]],
    trained: list[np.ndarray | None],
    expert_losses: list[np.ndarray | None],
    at_theta: dict[int, tuple[np.ndarray, np.ndarray]],
    t: int,
    rngs: list[np.random.Generator],
) -> list[np.ndarray]:
    """The pool rows each participant of ``ids`` (ascending) trains on in
    round ``t``: all of its rows without a data curriculum, else its paced
    subset, selected with its own generator ``rngs[k]``.

    The per-client lists are indexed by client id: ``clients[c]`` holds
    client c's first pool row lo and its features and labels, the pool's
    views of its rows (``_Pool.clients``), so the rows chosen at positions
    S of its block are lo + S; ``trained[c]`` holds its last trained
    parameters (None before its first round) and ``expert_losses[c]`` the
    expert's per-sample losses on its rows. ``at_theta[c]`` holds the per-sample losses and raw
    outputs of those rows at ``global_params``. Under the random ordering,
    which reads no score, only random scoring runs, for its draw from
    ``rngs[k]``. Otherwise the pair at the local model is computed here, by
    one ``_pass``, only for a scoring that reads it and a client that has
    trained before to parameters other than ``global_params``, and is
    ``at_theta[c]`` otherwise; a non-finite loss there fails the job."""
    model = cfg.model
    dc = cfg.data_curriculum
    chosen = []
    for k, cid in enumerate(ids):
        lo, x, y = clients[cid]
        if dc is None:
            chosen.append(np.arange(lo, lo + len(y)))
            continue
        if dc.ordering is OrderingKind.RANDOM and dc.scoring is not ScoringKind.RANDOM:
            # The random ordering reads only how many scores there are, and
            # no scoring but random draws from rngs[k].
            scores = np.zeros(len(y))
        else:
            at_local, local_params = at_theta[cid], trained[cid]
            if (
                dc.scoring in LOCAL_BASED
                and local_params is not None
                and not np.array_equal(local_params, global_params)
            ):
                # [:2] drops the terms and activations, which no scoring reads.
                with np.errstate(all="ignore"):
                    [losses], [outputs] = _pass(model, local_params, [x], [y])[:2]
                _check_finite(losses, f"round {t}, client {cid}", "loss at its local model")
                at_local = losses, outputs
            expert = expert_losses[cid]
            scores = score_samples(dc.scoring, y, at_theta[cid], at_local, expert, rngs[k])
        n_sel = pace(dc.pacing, t, len(y), cfg.rounds)
        chosen.append(lo + np.sort(order_and_select(scores, dc.ordering, n_sel, rngs[k])))
    return chosen


def aggregate(
    trained: np.ndarray,
    sizes: list[int],
    steps: list[int],
    algorithm: Algorithm,
    global_params: np.ndarray,
    server_control: np.ndarray | None = None,
    controls: np.ndarray | None = None,
    hyper: SgdHyper | None = None,
    num_clients_total: int = 0,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Combine the participants' trained parameters ``trained`` (P, dim),
    in ascending id order, into the new global model; ``sizes`` are their
    row counts and ``steps`` their local step counts. Returns the new
    global parameters, server control and participants' controls.

    Weights are the participants' sample counts renormalized to sum to 1.
    The update is applied in delta form, theta - sum w_k * s_k * (theta -
    theta_k), with s_k = 1 except under FedNova where s_k = tau_eff / tau_k;
    tau_eff is computed with an integer numerator so equal step counts give
    s_k exactly 1.

    Under SCAFFOLD each participant's control ``controls[k]`` becomes c_k -
    c + (theta - theta_k) / (tau_k * alpha_k), alpha_k its mean rate over
    its tau_k steps of ``hyper``'s schedule, whose rates are summed one by
    one in step order; the server control c moves by P /
    ``num_clients_total`` times the mean change.
    """
    if not len(trained):
        raise ConfigurationError("no client updates to aggregate")
    n_round = sum(sizes)
    scales = [1.0] * len(trained)
    if algorithm is Algorithm.FEDNOVA:
        tau_eff = sum(n * tau for n, tau in zip(sizes, steps)) / n_round
        scales = [tau_eff / tau for tau in steps]
    if len(trained) == 1:
        new = trained[0].copy()
    else:
        new = global_params.copy()
        for n, theta_k, scale in zip(sizes, trained, scales):
            new = new - (n / n_round) * scale * (global_params - theta_k)
    if algorithm is not Algorithm.SCAFFOLD:
        return new, server_control, controls
    if server_control is None or controls is None or hyper is None or num_clients_total < 1:
        raise ConfigurationError("SCAFFOLD aggregation needs server control state")
    rate_sums = list(itertools.accumulate(map(hyper.learning_rate, range(max(steps)))))
    new_controls = np.array([
        c_k - server_control + (global_params - theta_k) / (tau * (rate_sums[tau - 1] / tau))
        for c_k, theta_k, tau in zip(controls, trained, steps)
    ])
    mean_delta = sum(new_controls - controls) / len(trained)
    new_server = server_control + (len(trained) / num_clients_total) * mean_delta
    return new, new_server, new_controls


def evaluate(model: ModelSpec, params: np.ndarray, test: Batch) -> tuple[float, float]:
    """Test accuracy and mean test loss, from one forward pass."""
    _check_batch(model, params, test)
    [losses], [out] = _pass(model, params, [test.x], [test.y])[:2]
    hits = out.argmax(axis=1) if model.is_classifier else np.rint(out)
    return float((hits == test.y).mean()), float(losses.mean())


def _evaluated(model: ModelSpec, params: np.ndarray, test: Batch, t: int) -> tuple[float, float]:
    """``evaluate`` for round ``t`` of a job, which a non-finite test loss
    fails."""
    with np.errstate(all="ignore"):
        acc, loss = evaluate(model, params, test)
    _check_finite(loss, f"round {t}", "test loss")
    return acc, loss


Job = tuple[ExperimentConfig, Dataset, Partition, Batch, np.ndarray | None]
# Per job of a call: its metrics rows, or the error that stopped it.
JobResult = list[RoundMetrics] | ValueError | FloatingPointError


def _run_job(
    cfg: ExperimentConfig,
    ds: Dataset,
    part: Partition,
    test: Batch,
    expert_losses: np.ndarray | None,
) -> Generator[Batch | _Training, list[tuple] | _Trained, list[RoundMetrics]]:
    """One job's federation, as the generator that ``run_experiment``
    drives in lockstep with the other jobs of its call.

    After the set-up checks it yields its dataset as a ``Batch``, checked
    against the model, and is sent its clients, each as its first row in
    the call's pool and the views of its features and labels there
    (``_Pool.clients``). It keeps, per client id, the momentum and the
    SCAFFOLD control as (m, dim) arrays, the last trained parameters and
    the row count; the momenta persist across rounds, while the step index,
    and with it the rate schedule, resets each round. Each round it scores,
    selects (``client_update``), yields the participants' ``_Training``, is
    sent the trained arrays (``_train``), writes them back by id, and
    aggregates and evaluates; a local step that leaves parameters non-finite
    fails the job, naming the lowest-id such participant and its first such
    step. It returns one metrics row per round, or, with rounds == 0, the
    initial model's row before yielding anything."""
    m = part.num_clients
    _check_participants(cfg.participants, m)
    for i, indices in enumerate(part.assignment):
        if len(indices) < 1:
            raise ConfigurationError(f"client {i} holds no data")
    dc = cfg.data_curriculum
    expert = dc is not None and dc.scoring is ScoringKind.EXPERT
    if expert and np.shape(expert_losses) != (len(ds),):
        raise ConfigurationError("expert scoring needs one expert loss per dataset row")
    model = cfg.model
    theta = init_params(model, np.random.default_rng([cfg.seed, _INIT_STREAM]))
    dim = theta.shape[0]
    scaffold = cfg.algorithm is Algorithm.SCAFFOLD
    sizes = [len(indices) for indices in part.assignment]
    momenta = np.zeros((m, dim))
    controls = np.zeros((m, dim)) if scaffold else None
    server_control = np.zeros(dim) if scaffold else None
    trained: list[np.ndarray | None] = [None] * m  # each client's last trained parameters

    if cfg.rounds == 0:
        acc, loss = _evaluated(model, theta, test, 0)
        return [RoundMetrics(0, acc, loss, [], float("nan"), float("nan"), float("nan"))]

    data = ds.batch()
    _check_batch(model, theta, data)
    clients = yield data
    _, xs, ys = zip(*clients)
    experts = [expert_losses[indices] if expert else None for indices in part.assignment]
    metrics = []
    for t in range(cfg.rounds):
        round_rng = np.random.default_rng([cfg.seed, _SERVER_STREAM, t])
        if cfg.client_curriculum is not None:
            scored = range(m)
        else:
            ids = sorted(int(c) for c in round_rng.choice(m, size=cfg.participants, replace=False))
            scored = ids
        # One forward pass per scored client at theta. Its losses serve the
        # client ranking, the round diagnostics and, with its outputs, sample
        # scoring; its terms and activations give lambda's gradients. A
        # non-finite value fails the job here, before any of them reads it.
        with np.errstate(all="ignore"):
            losses, outputs, terms, hidden = _pass(
                model, theta, [xs[i] for i in scored], [ys[i] for i in scored]
            )
            means = score_clients(losses)
        _check_finite(means, f"round {t}", "loss at the global model", scored)
        if cfg.client_curriculum is not None:  # block i is client i
            ids = select_clients(means, cfg.client_curriculum, t, cfg.rounds, cfg.participants,
                                 round_rng)
        block = {cid: k for k, cid in enumerate(scored)}
        at_theta = {i: (losses[block[i]], outputs[block[i]]) for i in ids}

        w = np.array([sizes[i] for i in ids], dtype=np.float64)
        with np.errstate(all="ignore"):
            grads = [
                _terms_grad(model, theta, xs[i], ys[i], terms[block[i]], hidden[block[i]])
                for i in ids
            ]
            lam = gradient_dissimilarity(grads, w / w.sum())
            mean_cl = float(np.mean([means[block[i]] for i in ids]))
        del terms, outputs, hidden  # free the pass's MLP activations before training
        _check_finite(grads, f"round {t}", "gradient at the global model", ids)
        _check_finite(mean_cl, f"round {t}", "mean client loss")

        # Ascending id: the fixed reduction order of aggregate.
        rngs = [np.random.default_rng([cfg.seed, _CLIENT_STREAM, t, cid]) for cid in ids]
        chosen = client_update(ids, theta, cfg, clients, trained, experts, at_theta, t, rngs)
        own = controls[ids] if scaffold else None
        training = _Training(chosen, rngs, theta, momenta[ids], server_control, own)
        local, v, steps, diverged = yield training
        if diverged:
            k = min(diverged)
            raise FloatingPointError(f"round {t}, client {ids[k]}: non-finite "
                                     f"parameters after step {diverged[k]}")
        momenta[ids] = v
        for k, cid in enumerate(ids):
            trained[cid] = local[k]
        theta, server_control, new_controls = aggregate(
            local, [sizes[cid] for cid in ids], steps, cfg.algorithm, theta, server_control, own,
            cfg.hyper, m,
        )
        if scaffold:
            controls[ids] = new_controls

        acc, loss = _evaluated(model, theta, test, t)
        subset_frac = float(np.mean([len(c) / sizes[cid] for c, cid in zip(chosen, ids)]))
        metrics.append(RoundMetrics(t, acc, loss, list(ids), mean_cl, lam, subset_frac))
    return metrics


def _shared(cfg: ExperimentConfig) -> tuple:
    """What the jobs of one ``run_experiment`` call train with alike."""
    return cfg.model, cfg.hyper, cfg.local_epochs, cfg.algorithm, cfg.mu_prox


def run_experiment(jobs: list[Job]) -> list[JobResult]:
    """Run the federation of each job (cfg, ds, part, test, expert_losses)
    and return, per job, one metrics row per round, or the initial model's
    row when rounds == 0, or the ValueError or FloatingPointError that
    stopped it. ``expert_losses``, which expert scoring needs, holds the
    expert's per-sample loss of each row of ``ds``. The jobs differ at most
    in their seed, data, rounds and curricula; the rest must match
    (``_shared``).

    The jobs run in lockstep by round, each a ``_run_job`` generator: each
    scores, selects, aggregates and evaluates on its own, and at each round
    the participants of all jobs still running train through one
    ``models._local_sgd`` call (``_train``), over one ``_Pool`` built here.
    The pool lays out the clients' rows and labels once per distinct
    (dataset, partition) pair, by identity, which the arms of a trial share,
    and each job reads its clients as views of them. Each dataset is
    checked against the model once per job, at its set-up. A job that fails
    stops; the others run on, and since the jobs share no state that changes
    a digit, each job's entry is that of its run alone."""
    if len({_shared(job[0]) for job in jobs}) > 1:
        raise ConfigurationError(
            "the jobs of one call must share model, optimizer, local epochs and algorithm"
        )
    runs = [_run_job(*job) for job in jobs]
    results: list[JobResult | None] = [None] * len(jobs)
    waiting: dict[int, Batch | _Training] = {}  # what each running job last yielded

    def resume(j: int, value) -> None:
        waiting.pop(j, None)
        try:
            waiting[j] = runs[j].send(value)
        except StopIteration as stop:
            results[j] = stop.value
        except (ValueError, FloatingPointError) as exc:
            results[j] = exc

    for j in range(len(jobs)):
        resume(j, None)
    if waiting:
        cfg = jobs[0][0]
        block = {j: (id(jobs[j][1]), id(jobs[j][2])) for j in waiting}  # (dataset, partition)
        first: dict[tuple[int, int], int] = {}  # block -> its first waiting job
        for j in waiting:
            first.setdefault(block[j], j)
        pool = _Pool(cfg.model, cfg.hyper, [(waiting[j], jobs[j][2].assignment)
                                            for j in first.values()])
        clients = dict(zip(first, pool.clients))
        for j in list(waiting):
            resume(j, clients[block[j]])
        while waiting:
            live = sorted(waiting)
            for j, part in zip(live, _train(pool, cfg, [waiting[j] for j in live])):
                resume(j, part)
    return results


def train_centralized(
    model: ModelSpec,
    ds: Dataset,
    hyper: SgdHyper,
    epochs: int,
    seed: int,
) -> np.ndarray:
    """Plain centralized SGD over the full dataset; used to build expert
    and reference models. The data is checked once, then the steps run in
    ``models._local_sgd``, as a cohort of one client. A step that leaves
    non-finite parameters raises FloatingPointError naming expert training
    and the first such step."""
    rng = np.random.default_rng([seed, _INIT_STREAM])
    theta = init_params(model, rng)[None]
    data = ds.batch()
    _check_batch(model, theta[0], data)
    rows = np.arange(len(data))
    _, diverged = _local_sgd(
        _Pool(model, hyper, [(data, [rows])]), [rows], theta, np.zeros_like(theta), epochs, [rng]
    )
    if diverged:
        raise FloatingPointError(f"expert training: non-finite parameters after step {diverged[0]}")
    return theta[0]
