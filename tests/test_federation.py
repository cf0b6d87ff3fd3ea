import dataclasses
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _helpers import (
    forward_reference,
    local_sgd_reference,
    run_one,
    train_centralized_reference,
    update_alone,
)

from fedcurr import (
    Algorithm,
    Batch,
    ClientSelectionConfig,
    ConfigurationError,
    DataCurriculumConfig,
    ExperimentConfig,
    ModelKind,
    ModelSpec,
    OrderingKind,
    PacingFamily,
    PacingSpec,
    PartitionSpec,
    Scheme,
    ScoringKind,
    SgdHyper,
    aggregate,
    federation,
    gen_synthetic,
    grad,
    gradient_dissimilarity,
    init_params,
    models,
    order_and_select,
    pace,
    partition,
    per_sample_losses,
    run_experiment,
    score_samples,
    train_centralized,
)

MODEL = ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=5, num_classes=2)
HYPER = SgdHyper(eta0=0.05, momentum=0.9, weight_decay=5e-4, batch_size=10)
FOUR_MODELS = [
    ModelSpec(ModelKind.LINEAR_REGRESSION, input_dim=5),
    ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=5, num_classes=3),
    ModelSpec(ModelKind.MLP_TANH, input_dim=5, num_classes=3, hidden_dim=4),
    ModelSpec(ModelKind.MLP_TANH, input_dim=5, num_classes=1, hidden_dim=4),
]


def small_world(seed=42, n=400, clients=8, scheme=Scheme.DIRICHLET, beta=0.3):
    ds = gen_synthetic(n, 2, 5, 0.1, 1.5, seed=seed)
    kwargs = dict(beta=beta) if scheme is Scheme.DIRICHLET else {}
    part = partition(ds, PartitionSpec(scheme=scheme, num_clients=clients, **kwargs), seed)
    test = gen_synthetic(n, 2, 5, 0.1, 1.5, seed=seed + 1).batch()
    return ds, part, test


def base_config(**overrides):
    defaults = dict(
        model=MODEL,
        participants=4,
        rounds=4,
        local_epochs=2,
        hyper=HYPER,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# The client curriculum, and a data-curriculum arm, that the run tests use.
CLIENT_CURRICULUM = ClientSelectionConfig(
    pacing=PacingSpec(PacingFamily.LINEAR, a=0.5, b=0.5), ordering=OrderingKind.CURRICULUM
)


def curriculum_arm(scoring, ordering=OrderingKind.CURRICULUM):
    return DataCurriculumConfig(scoring, PacingSpec(PacingFamily.LINEAR, 0.8, 0.2), ordering)


def pool_of(cfg, params, ds, part):
    """A share's training pool over ``ds`` dealt by ``part`` alone, checked
    against the model, as run_experiment builds it, and per client id its
    first pool row, features and labels, as client_update takes them."""
    data = ds.batch()
    models._check_batch(cfg.model, params, data)
    pool = models._Pool(cfg.model, cfg.hyper, [(data, part.assignment)])
    return pool, pool.clients[0]


def whole_pool(model, hyper, data):
    """A training pool whose one client holds every row of the ``Batch``
    ``data`` in order, so that pool row r is row r of ``data``."""
    return models._Pool(model, hyper, [(data, [np.arange(len(data))])])


def metrics_equal(a, b):
    return all(
        x.test_acc == y.test_acc
        and x.test_loss == y.test_loss
        and x.mean_client_loss == y.mean_client_loss
        and (x.lam == y.lam or (np.isnan(x.lam) and np.isnan(y.lam)))
        and x.participants == y.participants
        for x, y in zip(a, b)
    )


def test_zero_learning_rate_returns_broadcast_unchanged():
    ds, part, _ = small_world()
    cfg = base_config(hyper=SgdHyper(eta0=0.0, momentum=0.9))
    theta = np.linspace(-1, 1, MODEL.param_count())
    pool, clients = pool_of(cfg, theta, ds, part)
    _, local, *_ = update_alone(
        cfg, pool, [0], theta, clients, 0, [np.random.default_rng(0)],
        np.zeros((1, len(theta))),
    )
    assert np.array_equal(local[0], theta)


def test_scaffold_rejects_a_zero_learning_rate():
    # Its control update divides by the mean rate; FedAvg trains at 0.
    with pytest.raises(ConfigurationError) as info:
        base_config(algorithm=Algorithm.SCAFFOLD, hyper=SgdHyper(eta0=0.0))
    assert info.value.field == "eta0"


def test_fedprox_zero_mu_identical_to_fedavg():
    ds, part, _ = small_world()
    theta = np.random.default_rng(1).standard_normal(MODEL.param_count()) * 0.1
    local = []
    for cfg in (base_config(), base_config(algorithm=Algorithm.FEDPROX, mu_prox=0.0)):
        pool, clients = pool_of(cfg, theta, ds, part)
        local.append(update_alone(
            cfg, pool, [2], theta, clients, 0, [np.random.default_rng(9)],
            np.zeros((1, len(theta))),
        )[1])
    assert np.array_equal(*local)


def test_curriculum_with_full_initial_fraction_matches_off():
    ds, part, test = small_world()
    on = base_config(
        data_curriculum=DataCurriculumConfig(
            ScoringKind.G_LOSS, PacingSpec(PacingFamily.LINEAR, a=0.8, b=1.0),
            ordering=OrderingKind.CURRICULUM,
        )
    )
    off = base_config()
    m_on = run_one(on, ds, part, test)
    m_off = run_one(off, ds, part, test)
    assert metrics_equal(m_on, m_off)


def test_aggregate_single_participant_exact():
    theta = np.array([5.0, -3.0])
    new, _, _ = aggregate(np.array([[1.5, 2.5]]), [10], [4], Algorithm.FEDAVG, theta)
    assert np.array_equal(new, np.array([1.5, 2.5]))


def test_aggregate_weighted_mean():
    theta = np.array([0.0])
    new, _, _ = aggregate(np.array([[1.0], [3.0]]), [1, 3], [4, 4], Algorithm.FEDAVG, theta)
    assert_allclose(new, [2.5], rtol=1e-12)


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate(np.zeros((0, 2)), [], [], Algorithm.FEDAVG, np.zeros(2))


def test_aggregate_moves_each_scaffold_control_and_the_server_control():
    # Per participant c_k - c + (theta - theta_k) / S_k, S_k the sum of its
    # tau_k rates; the server control moves by P / m times the mean change.
    rng = np.random.default_rng(5)
    theta, server_c = rng.standard_normal(4), rng.standard_normal(4)
    trained, controls = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    steps, eta_sums = [2, 5, 3], list(np.cumsum(rng.uniform(0.1, 1.0, 5)))
    _, new_server, new_controls = aggregate(
        trained, [4, 6, 5], steps, Algorithm.SCAFFOLD, theta, server_c, controls, eta_sums, 8
    )
    expected = np.array([controls[k] - server_c + (theta - trained[k]) / eta_sums[tau - 1]
                         for k, tau in enumerate(steps)])
    assert_allclose(new_controls, expected, rtol=1e-12)
    assert_allclose(new_server, server_c + 3 / 8 * (expected - controls).mean(axis=0), rtol=1e-12)


@pytest.mark.parametrize("server_control,total", [(None, 4), (np.zeros(1), 0)],
                         ids=["no_server_control", "no_clients"])
def test_scaffold_aggregate_needs_server_control_state(server_control, total):
    with pytest.raises(ConfigurationError, match="^SCAFFOLD aggregation needs server control"):
        aggregate(np.array([[1.0]]), [1], [4], Algorithm.SCAFFOLD, np.zeros(1), server_control,
                  np.zeros((1, 1)), [1.0] * 4, total)


def test_fednova_equal_steps_matches_fedavg_bitwise():
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(6)
    trained, sizes = rng.standard_normal((3, 6)), [17, 23, 11]
    avg, _, _ = aggregate(trained, sizes, [40] * 3, Algorithm.FEDAVG, theta)
    nova, _, _ = aggregate(trained, sizes, [40] * 3, Algorithm.FEDNOVA, theta)
    assert np.array_equal(avg, nova)


def test_fednova_unequal_steps_differs_from_fedavg():
    rng = np.random.default_rng(4)
    theta = rng.standard_normal(6)
    trained, sizes, steps = rng.standard_normal((3, 6)), [17, 23, 11], [10, 40, 25]
    avg, _, _ = aggregate(trained, sizes, steps, Algorithm.FEDAVG, theta)
    nova, _, _ = aggregate(trained, sizes, steps, Algorithm.FEDNOVA, theta)
    assert not np.allclose(avg, nova)


def test_fednova_full_run_matches_fedavg_with_equal_sizes():
    ds, part, test = small_world(scheme=Scheme.IID)
    m_avg = run_one(base_config(), ds, part, test)
    m_nova = run_one(base_config(algorithm=Algorithm.FEDNOVA), ds, part, test)
    assert metrics_equal(m_avg, m_nova)


def test_scaffold_control_is_mean_of_client_controls():
    # Full participation, equal client sizes: after every aggregation the
    # server control equals the (uniform = weight-renormalized) mean of the
    # client controls.
    ds, part, test = small_world(scheme=Scheme.IID)
    cfg = base_config(algorithm=Algorithm.SCAFFOLD, participants=8, rounds=3)
    dim = MODEL.param_count()
    theta, server_c = np.zeros(dim), np.zeros(dim)
    momenta, controls = np.zeros((8, dim)), np.zeros((8, dim))
    pool, clients = pool_of(cfg, theta, ds, part)
    rows = [np.arange(lo, lo + len(y)) for lo, _, y in clients]
    sizes = [len(r) for r in rows]
    for t in range(3):
        rngs = [np.random.default_rng([cfg.seed, 2, t, cid]) for cid in range(8)]
        [(local, momenta, steps, diverged)] = federation._train(
            pool, cfg, [federation._Training(rows, rngs, theta, momenta, server_c, controls)]
        )
        assert diverged == {}
        theta, server_c, controls = aggregate(
            local, sizes, steps, Algorithm.SCAFFOLD, theta, server_c, controls, pool.eta_sums, 8
        )
        assert np.abs(server_c - controls.mean(axis=0)).max() <= 1e-10


def test_scaffold_full_run_smoke():
    ds, part, test = small_world()
    metrics = run_one(
        base_config(algorithm=Algorithm.SCAFFOLD), ds, part, test
    )
    assert len(metrics) == 4
    assert all(0 <= m.test_acc <= 1 for m in metrics)


def test_lambda_identical_gradients():
    g = np.array([1.0, 2.0, 3.0])
    assert gradient_dissimilarity([g, g, g], np.full(3, 1 / 3)) == pytest.approx(1.0)


def test_lambda_orthogonal_pair():
    lam = gradient_dissimilarity(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])], np.array([0.5, 0.5])
    )
    assert abs(lam - 2.0) < 1e-12


def test_lambda_opposed_gradients_error():
    # A zero aggregate leaves the ratio undefined: nan, not an exception.
    lam = gradient_dissimilarity(
        [np.array([1.0, 0.0]), np.array([-1.0, 0.0])], np.array([0.5, 0.5])
    )
    assert np.isnan(lam)


def test_lambda_rejects_weights_that_do_not_sum_to_one():
    with pytest.raises(ConfigurationError, match="^weights must sum to 1$"):
        gradient_dissimilarity([np.ones(2), np.ones(2)], np.array([0.5, 0.6]))


def test_lambda_at_least_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(2, 8))
        grads = [rng.standard_normal(5) for _ in range(m)]
        w = rng.uniform(0.1, 1.0, m)
        w /= w.sum()
        assert gradient_dissimilarity(grads, w) >= 1.0 - 1e-12


def test_zero_rounds_reports_initial_model():
    ds, part, test = small_world()
    metrics = run_one(base_config(rounds=0), ds, part, test)
    assert len(metrics) == 1
    assert metrics[0].round == 0
    assert metrics[0].participants == []


def test_run_is_deterministic():
    ds, part, test = small_world()
    cfg = base_config(data_curriculum=curriculum_arm(ScoringKind.G_LOSS))
    assert metrics_equal(run_one(cfg, ds, part, test), run_one(cfg, ds, part, test))


def test_client_curriculum_run_smoke():
    ds, part, test = small_world()
    cfg = base_config(client_curriculum=CLIENT_CURRICULUM, participants=3)
    metrics = run_one(cfg, ds, part, test)
    assert len(metrics) == 4
    assert all(len(m.participants) == 3 for m in metrics)


def test_run_checks_participants_against_the_partition():
    ds, part, test = small_world(clients=4)
    with pytest.raises(ConfigurationError) as info:
        run_one(base_config(participants=5), ds, part, test)
    assert info.value.field == "participants"


@pytest.mark.parametrize("selection", [None, "client_curriculum"])
def test_run_rejects_a_client_that_holds_no_data(selection):
    # partition() never deals an empty client, but a library caller may.
    # The job's set-up checks every client, before any round's pass at theta.
    ds, part, test = small_world()
    part.assignment[1] = np.sort(np.concatenate(part.assignment[:2]))
    part.assignment[0] = part.assignment[0][:0]
    cfg = base_config(client_curriculum=CLIENT_CURRICULUM if selection else None)
    [result] = run_experiment([(cfg, ds, part, test, None)])
    assert isinstance(result, ConfigurationError) and str(result) == "client 0 holds no data"


def test_frozen_scores_give_nested_selections():
    # With scores held fixed, top-k selections nest as the pacing size grows.
    rng = np.random.default_rng(33)
    scores = rng.uniform(0, 1, 50)
    previous = set()
    for k in range(1, 51):
        chosen = set(order_and_select(scores, OrderingKind.CURRICULUM, k).tolist())
        assert previous <= chosen
        previous = chosen


def test_expert_scoring_requires_expert_losses_in_run():
    ds, part, test = small_world()
    cfg = base_config(data_curriculum=curriculum_arm(ScoringKind.EXPERT))
    with pytest.raises(ConfigurationError):
        run_one(cfg, ds, part, test)


@pytest.mark.parametrize("rows", [-1, 1], ids=["short", "long"])
def test_run_rejects_expert_losses_of_the_wrong_length(rows):
    ds, part, test = small_world()
    cfg = base_config(data_curriculum=curriculum_arm(ScoringKind.EXPERT))
    with pytest.raises(ConfigurationError, match="one expert loss per dataset row"):
        run_one(cfg, ds, part, test, expert_losses=np.ones(len(ds) + rows))


def test_expert_scoring_hands_each_client_its_own_expert_losses(monkeypatch):
    import inspect

    ds, part, test = small_world()
    cfg = base_config(data_curriculum=curriculum_arm(ScoringKind.EXPERT))
    expert_losses = np.random.default_rng(3).uniform(0.1, 2.0, len(ds))
    update, handed = federation.client_update, []
    signature = inspect.signature(update)

    def recorded(*args, **kwargs):
        call = signature.bind(*args, **kwargs).arguments
        handed.extend((part.assignment[c], call["expert_losses"][c]) for c in call["ids"])
        return update(*args, **kwargs)

    monkeypatch.setattr(federation, "client_update", recorded)
    run_one(cfg, ds, part, test, expert_losses=expert_losses)
    assert len(handed) == cfg.rounds * cfg.participants
    for indices, losses in handed:
        assert np.array_equal(losses, expert_losses[indices])


@pytest.mark.parametrize("a,b,field", [(1.5, 0.2, "a"), (0.0, 0.2, "a"), (0.8, 0.0, "b")])
def test_data_curriculum_rejects_pacing_fractions_when_built(a, b, field):
    with pytest.raises(ConfigurationError) as info:
        DataCurriculumConfig(
            ScoringKind.G_LOSS, PacingSpec(PacingFamily.LINEAR, a, b), OrderingKind.ANTI
        )
    assert info.value.field == field


@pytest.mark.parametrize(
    "bad",
    [
        lambda x, y: (x, -1 - y),  # labels below 0 (numpy would wrap them)
        lambda x, y: (x, y + MODEL.num_classes),  # labels past the last class
        lambda x, y: (x[:-1], y),  # fewer feature rows than labels
        lambda x, y: (x[:, :-1], y),  # wrong feature width
    ],
    ids=["negative_labels", "labels_past_classes", "short_features", "narrow_features"],
)
def test_run_rejects_rows_that_do_not_fit_the_model(bad):
    # The rows are checked once per job, at its set-up, before any round.
    ds, part, test = small_world()
    ds.features, ds.labels = bad(ds.features, ds.labels)
    with pytest.raises(ConfigurationError):
        run_one(base_config(), ds, part, test)


def at_model(model, params, batch):
    """The (per-sample losses, raw outputs) of ``batch`` at ``params``."""
    return per_sample_losses(model, params, batch), forward_reference(model, params, batch.x)[0]


def _reference_update(arrays, part, global_params, cfg, ds, t, rng, server_control=None,
                      expert=None):
    """Client 1's round written with the public, per-call-checked functions,
    from its entries of the job's per-client ``arrays`` (see ``_one_client``);
    ``expert`` holds the expert's losses on the client's rows. Returns its
    trained parameters, momentum, step count and, under SCAFFOLD, control."""
    momenta, controls, trained = arrays
    indices = part.assignment[CLIENT]
    full = Batch(ds.features[indices], ds.labels[indices])
    dc = cfg.data_curriculum
    if dc is not None:
        # Both passes, the local one even where the local model is the global.
        local = trained[CLIENT] if trained[CLIENT] is not None else global_params
        scores = score_samples(
            dc.scoring, full.y, at_model(cfg.model, global_params, full),
            at_model(cfg.model, local, full), expert, rng,
        )
        n_sel = pace(dc.pacing, t, len(indices), cfg.rounds)
        idx = indices[np.sort(order_and_select(scores, dc.ordering, n_sel, rng))]
        batch = Batch(ds.features[idx], ds.labels[idx])
    else:
        batch = full

    def extra(g, theta):
        if cfg.algorithm is Algorithm.FEDPROX:
            g = g + cfg.mu_prox * (theta - global_params)
        if cfg.algorithm is Algorithm.SCAFFOLD:
            g = g + server_control - controls[CLIENT]
        return g

    theta, v, step, eta_sum = local_sgd_reference(
        cfg.model, cfg.hyper, global_params.copy(), momenta[CLIENT].copy(), batch,
        cfg.local_epochs, rng, f"round {t}, client {CLIENT}", extra,
    )
    control = None
    if cfg.algorithm is Algorithm.SCAFFOLD:
        control = controls[CLIENT] - server_control + (global_params - theta) / (
            step * (eta_sum / step)
        )
    return theta, v, step, control


CLIENT = 1  # the client of the bitwise training tests


def _one_client(model, algorithm, hyper, data_curriculum=None):
    """A config, a 4-client IID partition whose client 1 holds 75 rows, and
    the broadcast parameters and SCAFFOLD server control for the bitwise
    training tests; then the job's per-client arrays before its first
    round: momenta, SCAFFOLD controls and last trained parameters."""
    ds = gen_synthetic(300, 3, 5, 0.1, 1.5, seed=5)
    part = partition(ds, PartitionSpec(Scheme.IID, num_clients=4), 5)
    cfg = base_config(
        model=model,
        participants=2,
        algorithm=algorithm,
        mu_prox=0.1 if algorithm is Algorithm.FEDPROX else 0.0,
        hyper=hyper,
        data_curriculum=data_curriculum,
    )
    dim = model.param_count()
    scaffold = algorithm is Algorithm.SCAFFOLD
    init_rng = np.random.default_rng(11)
    theta = init_params(model, init_rng)
    server_c = init_rng.standard_normal(dim) * 0.01 if scaffold else None
    arrays = np.zeros((4, dim)), np.zeros((4, dim)) if scaffold else None, [None] * 4
    return ds, part, cfg, theta, server_c, arrays


def _client_round(cfg, ds, part, theta, t, rng, arrays, server_c=None, expert=None):
    """Client 1's round as the one participant of its job, as ``_run_job``
    runs it: its pass at theta, ``update_alone``, then, unless it diverged,
    its ``arrays`` written back by id and, under SCAFFOLD, its control from
    ``aggregate``. Returns its chosen rows, step count and diverging steps."""
    momenta, controls, trained = arrays
    pool, clients = pool_of(cfg, theta, ds, part)
    ids = [CLIENT]
    own = None if controls is None else controls[ids]
    at_theta = {CLIENT: at_model(cfg.model, theta, Batch(*clients[CLIENT][1:3]))}
    experts = [expert if c == CLIENT else None for c in range(len(clients))]
    [chosen], local, v, steps, diverged = update_alone(
        cfg, pool, ids, theta, clients, t, [rng], momenta[ids], server_c, own, trained, experts,
        at_theta,
    )
    if not diverged:
        momenta[ids] = v
        trained[CLIENT] = local[0]
        if own is not None:
            controls[ids] = aggregate(
                local, [len(part.assignment[CLIENT])], steps, cfg.algorithm, theta, server_c,
                own, pool.eta_sums, 4,
            )[2]
    return chosen, steps[0], diverged


ALGORITHMS = [Algorithm.FEDAVG, Algorithm.FEDPROX, Algorithm.SCAFFOLD]
BATCH_7 = SgdHyper(eta0=0.05, momentum=0.9, weight_decay=5e-4, batch_size=7)


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_client_update_trains_bit_for_bit_as_the_public_functions(model, algorithm):
    # 75 rows in batches of 7 end each epoch on a 5-row remainder. Three
    # rounds carry the momentum and the SCAFFOLD control across updates.
    ds, part, cfg, theta, server_c, arrays = _one_client(model, algorithm, BATCH_7)
    momenta, controls, trained = arrays
    assert len(part.assignment[CLIENT]) % BATCH_7.batch_size != 0
    for t in range(3):
        ref_theta, ref_v, ref_tau, ref_control = _reference_update(
            arrays, part, theta, cfg, ds, t, np.random.default_rng([3, t]), server_c
        )
        _, tau, _ = _client_round(
            cfg, ds, part, theta, t, np.random.default_rng([3, t]), arrays, server_c
        )
        assert np.array_equal(trained[CLIENT], ref_theta)
        assert np.array_equal(momenta[CLIENT], ref_v)
        assert tau == ref_tau == cfg.local_epochs * 11
        if algorithm is Algorithm.SCAFFOLD:
            assert np.array_equal(controls[CLIENT], ref_control)
        theta = theta + 0.5 * (trained[CLIENT] - theta)


def _diverging_client_update_step(model, algorithm, eta0) -> int:
    """Check that client 1's round diverges at the step that the reference
    loop's error names, and return that step."""
    hyper = SgdHyper(eta0=eta0, decay_alpha=0.0, momentum=0.9, weight_decay=5e-4, batch_size=7)
    ds, part, cfg, theta, server_c, arrays = _one_client(model, algorithm, hyper)
    with pytest.raises(FloatingPointError) as expected:
        _reference_update(arrays, part, theta, cfg, ds, 2, np.random.default_rng(3), server_c)
    _, _, diverged = _client_round(
        cfg, ds, part, theta, 2, np.random.default_rng(3), arrays, server_c
    )
    assert list(diverged) == [0]
    assert str(expected.value) == (
        f"round 2, client 1: non-finite parameters after step {diverged[0]}"
    )
    return diverged[0]


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_diverging_client_update_fails_at_the_reference_step(model, algorithm):
    _diverging_client_update_step(model, algorithm, 1e20)


# Per model of FOUR_MODELS, a rate at which training first leaves finite
# values mid-way through its second epoch: in local training on 75 rows
# (11 steps an epoch) and in expert training on 230 rows (33 steps).
LATE_CLIENT_ETA0 = [1e16, 1e20, 1e20, 1e10]
LATE_EXPERT_ETA0 = [1e6, 1e9, 1e9, 1e3]


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_late_diverging_client_update_fails_at_the_reference_step(model, algorithm):
    # The steps draw every epoch's permutation up front; the second epoch's
    # must come from the same place in the stream as the reference's.
    eta0 = LATE_CLIENT_ETA0[FOUR_MODELS.index(model)]
    assert 11 < _diverging_client_update_step(model, algorithm, eta0) < 21


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
def test_diverging_local_sgd_replays_the_reference_steps(model):
    # The pass runs all 33 steps, on the same permutations from the same
    # start as the reference loop, so the first step that leaves the
    # parameters non-finite, which the error names, is the reference's.
    hyper = SgdHyper(
        eta0=LATE_CLIENT_ETA0[FOUR_MODELS.index(model)], decay_alpha=0.0, momentum=0.9,
        weight_decay=5e-4, batch_size=7,
    )
    ds, part, _, theta, _, _ = _one_client(model, Algorithm.FEDAVG, hyper)
    rows = part.assignment[CLIENT]
    expected = []

    def record(g, _theta):
        expected.append(g.copy())
        return g

    with pytest.raises(FloatingPointError) as ref:
        local_sgd_reference(
            model, hyper, theta.copy(), np.zeros_like(theta),
            Batch(ds.features[rows], ds.labels[rows]), 3, np.random.default_rng(6), "client",
            record,
        )
    _, diverged = models._local_sgd(
        whole_pool(model, hyper, ds.batch()), [rows], theta[None].copy(),
        np.zeros((1, len(theta))), 3, [np.random.default_rng(6)],
    )
    assert list(diverged) == [0]
    assert f"client: non-finite parameters after step {diverged[0]}" == str(ref.value)
    assert 11 < len(expected) < 22


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
def test_cohort_names_the_lowest_id_diverging_client(model):
    # Clients 1 and 3 diverge, 3 first: its start momentum overflows at step
    # 0. Each gets its own reference step, and no other client gets one.
    # Client 3 holds more rows, so it takes the first slot. As one job's
    # participants, the five clients diverge at the same steps, and client 1,
    # whose error the job reports, is the lowest id of them.
    hyper = SgdHyper(
        eta0=LATE_CLIENT_ETA0[FOUR_MODELS.index(model)], decay_alpha=0.0, momentum=0.9,
        weight_decay=5e-4, batch_size=7,
    )
    ds, _, cfg, theta, _, _ = _one_client(model, Algorithm.FEDAVG, hyper)
    part = partition(ds, PartitionSpec(Scheme.IID, num_clients=4), 5).assignment
    rows = [part[0][:1], part[1], part[2][:6], np.concatenate([part[3], part[2][6:20]]),
            part[0][1:9]]
    momenta = np.zeros((5, len(theta)))
    momenta[3] = 1e300
    errors = {}
    for p, r in enumerate(rows):
        try:
            local_sgd_reference(
                model, hyper, theta.copy(), momenta[p].copy(), Batch(ds.features[r], ds.labels[r]),
                3, np.random.default_rng([7, p]), f"client {p}",
            )
        except FloatingPointError as error:
            errors[p] = str(error)
    assert sorted(errors) == [1, 3]
    assert int(errors[3].rsplit(" ", 1)[1]) < int(errors[1].rsplit(" ", 1)[1])
    pool = models._Pool(model, hyper, [(ds.batch(), rows)])
    [clients] = pool.clients
    _, diverged = models._local_sgd(
        pool, [np.arange(lo, lo + len(y)) for lo, _, y in clients], np.tile(theta, (5, 1)),
        momenta.copy(), 3, [np.random.default_rng([7, p]) for p in range(5)],
    )
    worded = {p: f"client {p}: non-finite parameters after step {s}" for p, s in diverged.items()}
    assert worded == errors
    *_, diverged = update_alone(
        dataclasses.replace(cfg, local_epochs=3), pool, list(range(5)), theta, clients, 4,
        [np.random.default_rng([7, p]) for p in range(5)], momenta.copy(),
    )
    assert {p: f"client {p}: non-finite parameters after step {s}"
            for p, s in diverged.items()} == errors
    assert min(diverged) == 1


# At batch size 7: 1, bs - 1, bs, bs + 1 and 3*bs + 2 rows.
COHORT_ROWS = [1, 6, 7, 8, 23]


@pytest.mark.parametrize("size", range(1, 6))
@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cohort_trains_each_client_as_the_reference(algorithm, model, size):
    # Each client of a cohort of 1-5 gets the bits of the reference loop
    # run for it alone, from its own start and momentum, with the FedProx or
    # SCAFFOLD terms. Row counts rotate with the cohort size, so the slots
    # (by descending step count) come in another order than the clients and
    # the short batches fall on different steps.
    rng = np.random.default_rng([size, FOUR_MODELS.index(model), ALGORITHMS.index(algorithm)])
    ds = gen_synthetic(300, 3, 5, 0.1, 1.5, seed=5)
    rows = [rng.choice(len(ds), COHORT_ROWS[(size + p) % 5], replace=False) for p in range(size)]
    dim = model.param_count()
    theta = np.stack([init_params(model, rng) for _ in range(size)])
    v = 0.1 * rng.standard_normal((size, dim))
    prox = (0.1, init_params(model, rng)) if algorithm is Algorithm.FEDPROX else None
    controls = None
    if algorithm is Algorithm.SCAFFOLD:
        controls = 0.01 * rng.standard_normal(dim), 0.01 * rng.standard_normal((size, dim))
    # The kernel takes the anchor and the server control per client.
    stacked_prox = None if prox is None else (prox[0], np.tile(prox[1], (size, 1)))
    stacked_controls = None if controls is None else (np.tile(controls[0], (size, 1)), controls[1])
    expected = []
    for p in range(size):

        def extra(g, params, p=p):
            if prox is not None:
                g = g + prox[0] * (params - prox[1])
            if controls is not None:
                g = g + controls[0] - controls[1][p]
            return g

        expected.append(local_sgd_reference(
            model, BATCH_7, theta[p].copy(), v[p].copy(), Batch(ds.features[rows[p]],
            ds.labels[rows[p]]), 3, np.random.default_rng([9, p]), f"client {p}", extra,
        ))
    pool = whole_pool(model, BATCH_7, ds.batch())
    steps, diverged = models._local_sgd(
        pool, rows, theta, v, 3, [np.random.default_rng([9, p]) for p in range(size)],
        stacked_prox, stacked_controls,
    )
    assert diverged == {}
    for p, (ref_theta, ref_v, ref_steps, ref_eta_sum) in enumerate(expected):
        assert np.array_equal(theta[p], ref_theta)
        assert np.array_equal(v[p], ref_v)
        assert steps[p] == ref_steps
        assert pool.eta_sums[steps[p] - 1] == ref_eta_sum


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
def test_slot_buffers_grow_to_the_largest_cohort(model):
    # One pool serves cohorts of 2, 5 and 3 clients, as a share's calls do
    # when a client curriculum admits more clients each round: its slot
    # buffers grow to 5 slots at the second call. The clients take 2 to 6
    # steps an epoch, so each call also runs the kernels of fewer slots,
    # which the first call bound to the smaller buffers. Each call's clients
    # get the bits of the same call on a fresh pool.
    ds = gen_synthetic(300, 3, 5, 0.1, 1.5, seed=5)
    shared = whole_pool(model, BATCH_7, ds.batch())
    start = init_params(model, np.random.default_rng(3))
    for size in (2, 5, 3):
        rows = [np.arange(40 * p, 40 * p + 9 + 7 * p) for p in range(size)]
        runs = []
        for pool in (shared, whole_pool(model, BATCH_7, ds.batch())):
            theta, v = np.tile(start, (size, 1)), np.zeros((size, len(start)))
            models._local_sgd(
                pool, rows, theta, v, 2, [np.random.default_rng([size, p]) for p in range(size)]
            )
            runs.append((theta, v))
        (theta, v), (fresh_theta, fresh_v) = runs
        assert np.array_equal(theta, fresh_theta) and np.array_equal(v, fresh_v)
    assert shared.slots == 5


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
def test_pad_rows_reach_no_gradient(model):
    # Every epoch of the three clients ends on a short batch, which the step
    # table pads with pool row 0. Here row 0 belongs to no client and its
    # features are 1e308: against first-layer weights of at least 0.5, its
    # first product would overflow to inf, so the linear model's residual
    # would be inf and the softmax's log-probabilities nan. The step zeroes
    # the pad rows once gathered and sets their loss derivative to 0, so
    # each client keeps the bits of the same call with an ordinary row 0.
    ds = gen_synthetic(300, 3, 5, 0.1, 1.5, seed=5)
    rng = np.random.default_rng(13)
    rows = [1 + rng.choice(299, n, replace=False) for n in (23, 12, 9)]
    start = np.abs(init_params(model, rng)) + 1.0
    hyper = SgdHyper(eta0=0.001, momentum=0.9, weight_decay=5e-4, batch_size=7)
    huge = ds.features.copy()
    huge[0] = 1e308
    runs = []
    for x in (ds.features, huge):
        pool = whole_pool(model, hyper, Batch(x, ds.labels))
        theta, v = np.tile(start, (3, 1)), np.zeros((3, len(start)))
        steps, diverged = models._local_sgd(
            pool, rows, theta, v, 3, [np.random.default_rng([5, p]) for p in range(3)]
        )
        assert diverged == {}
        runs.append((theta, v, steps))
    (theta, v, steps), (huge_theta, huge_v, huge_steps) = runs
    assert steps == huge_steps == [12, 6, 6]
    assert np.array_equal(theta, huge_theta) and np.array_equal(v, huge_v)
    first = model.input_dim * {"linear": 1, "softmax": model.num_classes, "mlp": model.hidden_dim}[
        model.kind.value
    ]
    assert (huge_theta[:, :first] > 0.5).all()


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
def test_nan_pool_row_0_reaches_no_other_client(model):
    # Pool row 0 holds nan and belongs to no client of the call. The
    # client's 23 rows end each epoch on a short batch of 2, which the step
    # table pads with row 0; the client still gets the bits of the reference
    # loop, whose pad rows are zero rows.
    ds = gen_synthetic(300, 3, 5, 0.1, 1.5, seed=5)
    x = ds.features.copy()
    x[0] = np.nan
    rows = 1 + np.random.default_rng(13).choice(299, 23, replace=False)
    start = init_params(model, np.random.default_rng(14))
    ref_theta, ref_v, ref_steps, _ = local_sgd_reference(
        model, BATCH_7, start.copy(), np.zeros_like(start),
        Batch(ds.features[rows], ds.labels[rows]), 3, np.random.default_rng(9), "client 0",
    )
    pool = whole_pool(model, BATCH_7, Batch(x, ds.labels))
    theta, v = start[None].copy(), np.zeros((1, len(start)))
    steps, diverged = models._local_sgd(pool, [rows], theta, v, 3, [np.random.default_rng(9)])
    assert diverged == {} and steps == [ref_steps] == [12]
    assert np.array_equal(theta[0], ref_theta) and np.array_equal(v[0], ref_v)


def test_rate_table_grows_in_step_order():
    # One pool serves a call of 3 steps, then one of 40: the table holds the
    # rates of 40 steps and their running sums, bit for bit as if built in
    # one pass.
    model = FOUR_MODELS[1]
    pool = whole_pool(model, BATCH_7, gen_synthetic(300, 3, 5, 0.1, 1.5, seed=5).batch())
    for rows, epochs, size in ((np.arange(7), 3, 3), (np.arange(280), 1, 40)):
        theta = init_params(model, np.random.default_rng(0))[None]
        models._local_sgd(pool, [rows], theta, np.zeros_like(theta), epochs,
                          [np.random.default_rng(1)])
        assert len(pool.etas) == len(pool.eta_sums) == size
    etas = [BATCH_7.learning_rate(i) for i in range(40)]
    assert np.array(pool.etas).tobytes() == np.array(etas).tobytes()
    assert np.array(pool.eta_sums).tobytes() == np.array(list(itertools.accumulate(etas))).tobytes()


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_client_update_matches_checked_reference(model, algorithm):
    # Two rounds of one client under lg_loss scoring, so the second round
    # scores with a local model that differs from the global one. The paced
    # subsets, 23 and 39 rows, end on a short batch.
    ds, part, cfg, theta, server_c, arrays = _one_client(
        model, algorithm, BATCH_7,
        DataCurriculumConfig(
            ScoringKind.LG_LOSS, PacingSpec(PacingFamily.LINEAR, 0.8, 0.3), OrderingKind.CURRICULUM
        ),
    )
    momenta, controls, trained = arrays
    for t in range(2):
        ref_theta, ref_v, ref_tau, ref_control = _reference_update(
            arrays, part, theta, cfg, ds, t, np.random.default_rng([3, t]), server_c
        )
        chosen, tau, _ = _client_round(
            cfg, ds, part, theta, t, np.random.default_rng([3, t]), arrays, server_c
        )
        assert len(chosen) % BATCH_7.batch_size != 0
        assert np.array_equal(trained[CLIENT], ref_theta)
        assert np.array_equal(momenta[CLIENT], ref_v)
        assert tau == ref_tau
        if algorithm is Algorithm.SCAFFOLD:
            assert np.array_equal(controls[CLIENT], ref_control)
        theta = theta + 0.1 * (trained[CLIENT] - theta)


CLASSIFIERS = [FOUR_MODELS[1], FOUR_MODELS[2]]


def _check_scoring_rounds(model, scoring, next_theta):
    """Three rounds of one client against the reference, the broadcast model
    of each next round made by ``next_theta(theta, local_params)``."""
    ds, part, cfg, theta, _, arrays = _one_client(
        model, Algorithm.FEDAVG, BATCH_7,
        DataCurriculumConfig(scoring, PacingSpec(PacingFamily.LINEAR, 0.8, 0.3), OrderingKind.ANTI),
    )
    momenta, _, trained = arrays
    expert = np.random.default_rng(8).uniform(0.1, 2.0, len(part.assignment[CLIENT]))
    for t in range(3):
        ref_theta, ref_v, _, _ = _reference_update(
            arrays, part, theta, cfg, ds, t, np.random.default_rng([4, t]), expert=expert
        )
        _client_round(cfg, ds, part, theta, t, np.random.default_rng([4, t]), arrays, expert=expert)
        assert np.array_equal(trained[CLIENT], ref_theta)
        assert np.array_equal(momenta[CLIENT], ref_v)
        theta = next_theta(theta, trained[CLIENT])


@pytest.mark.parametrize("model", CLASSIFIERS, ids=["softmax", "mlp"])
@pytest.mark.parametrize("scoring", list(ScoringKind), ids=lambda k: k.value)
def test_every_scoring_matches_checked_reference(model, scoring):
    # The first round scores at the global model only, the later ones also
    # at the client's own last local model.
    _check_scoring_rounds(model, scoring, lambda theta, local: theta + 0.5 * (local - theta))


@pytest.mark.parametrize("model", CLASSIFIERS, ids=["softmax", "mlp"])
@pytest.mark.parametrize("scoring", list(ScoringKind), ids=lambda k: k.value)
def test_sole_participant_scoring_matches_checked_reference(model, scoring):
    # As the sole participant, the client's local model is the next global
    # one, whose pass at theta then serves both sides; the reference runs both.
    _check_scoring_rounds(model, scoring, lambda theta, local: local.copy())


def count_forwards(monkeypatch) -> dict:
    """Count every forward pass by the bytes of its (parameters, rows) at the
    moment it runs. Every pass binds its parameters through
    ``models._bind_forward``; a local step's pass over a stack of clients
    (k, dim) counts once per slot, with the slot's rows padded to the batch
    size."""
    seen = {}
    bind_forward = models._bind_forward

    def bind(model, theta):
        forward = bind_forward(model, theta)

        def counted(x, *args):
            stack = zip(theta, x) if theta.ndim == 2 else [(theta, x)]
            for params, rows in stack:
                key = (params.tobytes(), rows.tobytes(), rows.shape)
                seen[key] = seen.get(key, 0) + 1
            return forward(x, *args)

        return counted

    monkeypatch.setattr(models, "_bind_forward", bind)
    return seen


@pytest.mark.parametrize(
    "scoring", [ScoringKind.G_LOSS, ScoringKind.L_LOSS, ScoringKind.LG_LOSS], ids=lambda k: k.value
)
def test_round_forwards_each_params_and_data_pair_once(monkeypatch, scoring):
    # Client curriculum and loss-based scoring both need every client's
    # losses at the broadcast model (a client that has not trained yet has
    # its local model there); each (parameters, data) pair is run through
    # the model once. Parameters change every round and every local step, so
    # checking the whole run covers each round.
    ds, part, test = small_world(scheme=Scheme.IID)
    cfg = base_config(
        client_curriculum=CLIENT_CURRICULUM, participants=3, data_curriculum=curriculum_arm(scoring)
    )
    seen = count_forwards(monkeypatch)
    metrics = run_one(cfg, ds, part, test)
    assert len(metrics) == 4
    # Per round: 8 clients scored, plus the test set.
    assert len(seen) > 4 * (8 + 1)
    assert max(seen.values()) == 1


@pytest.mark.parametrize("scoring", list(ScoringKind), ids=lambda k: k.value)
def test_every_scoring_forwards_each_params_and_data_pair_once(monkeypatch, scoring):
    # The participants' pass at the broadcast model serves the prediction-
    # based scorings too: g_pred, l_pred for a client that has not trained
    # yet and the global half of lg_pred take its argmax instead of running
    # the model again. Expert scoring reads losses computed before the run
    # and runs no model. Parameters change every round and every local
    # step, so counting over the whole run covers each round.
    ds, part, test = small_world(scheme=Scheme.IID)
    cfg = base_config(data_curriculum=curriculum_arm(scoring))
    expert = init_params(MODEL, np.random.default_rng(5))
    expert_losses = per_sample_losses(MODEL, expert, ds.batch())
    expected = run_one(cfg, ds, part, test, expert_losses=expert_losses)
    seen = count_forwards(monkeypatch)
    metrics = run_one(cfg, ds, part, test, expert_losses=expert_losses)
    assert metrics_equal(metrics, expected)
    # Per round: 4 participants, their local steps and the test set.
    assert len(seen) > 4 * (4 + 1)
    assert max(seen.values()) == 1


@pytest.mark.parametrize(
    "scoring",
    [ScoringKind.L_LOSS, ScoringKind.LG_LOSS, ScoringKind.L_PRED, ScoringKind.LG_PRED],
    ids=lambda k: k.value,
)
def test_redrawn_sole_participant_is_forwarded_once(monkeypatch, scoring):
    # With one participant, aggregate hands that client's local parameters
    # on as the next broadcast model. A client drawn in two rounds running
    # then has its local model equal to the global one, and the round's pass
    # at theta serves the local-based scoring too.
    ds, part, test = small_world(clients=2)
    cfg = base_config(participants=1, rounds=8, data_curriculum=curriculum_arm(scoring))
    expected = run_one(cfg, ds, part, test)
    seen = count_forwards(monkeypatch)
    metrics = run_one(cfg, ds, part, test)
    assert metrics_equal(metrics, expected)
    assert any(a.participants == b.participants for a, b in zip(metrics, metrics[1:]))
    assert max(seen.values()) == 1


def test_random_ordering_forwards_no_client_at_its_local_model(monkeypatch):
    # The random ordering reads no score, so a random-ordering lg_loss job
    # runs no pass at a client's local parameters: each client's rows go
    # through the model once per round that draws it, in the pass at the
    # broadcast parameters. Its rows equal those of a g_loss job, whose
    # scores it does not read either.
    ds, part, test = small_world(scheme=Scheme.IID)
    pacing = PacingSpec(PacingFamily.LINEAR, 0.8, 0.2)
    cfg = base_config(
        data_curriculum=DataCurriculumConfig(ScoringKind.LG_LOSS, pacing, OrderingKind.RANDOM)
    )
    seen = count_forwards(monkeypatch)
    metrics = run_one(cfg, ds, part, test)
    drawn = [cid for m in metrics for cid in m.participants]
    assert len(set(drawn)) < len(drawn)  # a client trains again: it has a local model
    clients = {ds.features[rows].tobytes() for rows in part.assignment}
    assert sum(n for (_, x, _), n in seen.items() if x in clients) == len(drawn)
    g_loss = DataCurriculumConfig(ScoringKind.G_LOSS, pacing, OrderingKind.RANDOM)
    g_loss_cfg = dataclasses.replace(cfg, data_curriculum=g_loss)
    assert rows_equal(metrics, run_one(g_loss_cfg, ds, part, test))


@pytest.mark.parametrize("selection", [None, CLIENT_CURRICULUM], ids=["drawn", "curriculum"])
@pytest.mark.parametrize("model", CLASSIFIERS, ids=["softmax", "mlp"])
def test_round_diagnostics_follow_their_definitions(monkeypatch, model, selection):
    # Each round's diagnostics, recomputed to the bit from the public
    # functions at the broadcast parameters that client_update is handed:
    # lambda weighs each participant's full-data gradient by its row count,
    # mean_client_loss averages the participants' mean losses, unweighted,
    # and subset_frac averages each participant's paced share of its rows.
    ds, part, test = small_world()
    arm = curriculum_arm(ScoringKind.G_LOSS)
    cfg = base_config(
        model=model, participants=3, client_curriculum=selection, data_curriculum=arm
    )
    update, rounds = federation.client_update, []

    def recorded(ids, global_params, *args):
        rounds.append((list(ids), global_params.copy()))
        return update(ids, global_params, *args)

    monkeypatch.setattr(federation, "client_update", recorded)
    metrics = run_one(cfg, ds, part, test)
    assert len(metrics) == len(rounds) == cfg.rounds
    for row, (ids, theta) in zip(metrics, rounds):
        assert row.participants == ids
        batches = [Batch(ds.features[part.assignment[c]], ds.labels[part.assignment[c]])
                   for c in ids]
        sizes = np.array([len(b) for b in batches], dtype=np.float64)
        grads = [grad(model, theta, b) for b in batches]
        assert row.lam == gradient_dissimilarity(grads, sizes / sizes.sum())
        means = [per_sample_losses(model, theta, b).mean() for b in batches]
        assert row.mean_client_loss == float(np.mean(means))
        fracs = [pace(arm.pacing, row.round, len(b), cfg.rounds) / len(b) for b in batches]
        assert row.subset_frac == float(np.mean(fracs))


def test_no_pass_activations_survive_into_the_training_yield():
    # The pass at theta holds each scored client's MLP activations (m, h)
    # until lambda has read them; a job waiting for its training, in the
    # first round and in one with passes at local models, holds none.
    ds, part, test = small_world()
    hidden_dim = 7
    model = ModelSpec(ModelKind.MLP_TANH, input_dim=5, num_classes=3, hidden_dim=hidden_dim)
    cfg = base_config(
        model=model, participants=3, client_curriculum=CLIENT_CURRICULUM,
        data_curriculum=curriculum_arm(ScoringKind.LG_PRED),
    )

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)
        elif isinstance(value, dict):
            for item in value.values():
                yield from arrays(item)

    job = federation._run_job(cfg, ds, part, test, None)
    data = next(job)
    pool = models._Pool(model, cfg.hyper, [(data, part.assignment)])
    training = job.send((pool, pool.clients[0]))
    for _ in range(2):
        assert isinstance(training, federation._Training)
        held = [a for value in job.gi_frame.f_locals.values() for a in arrays(value)]
        assert held
        assert not any(a.ndim == 2 and a.shape[-1] == hidden_dim for a in held)
        [trained] = federation._train(pool, cfg, [training])
        training = job.send(trained)
    job.close()


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
def test_late_diverging_train_centralized_fails_at_the_reference_step(model):
    # 230 rows in batches of 7 take 33 steps an epoch; the parameters first
    # leave finite values mid-way through the second.
    ds = gen_synthetic(230, 3, 5, 0.1, 1.5, seed=9)
    eta0 = LATE_EXPERT_ETA0[FOUR_MODELS.index(model)]
    hyper = SgdHyper(eta0=eta0, decay_alpha=0.0, momentum=0.9, weight_decay=5e-4, batch_size=7)
    with pytest.raises(FloatingPointError) as expected:
        train_centralized_reference(model, ds, hyper, epochs=3, seed=4)
    with pytest.raises(FloatingPointError) as caught:
        train_centralized(model, ds, hyper, epochs=3, seed=4)
    assert str(caught.value) == str(expected.value)
    assert str(caught.value).startswith("expert training: non-finite parameters after step ")
    assert 33 < int(str(caught.value).rsplit(" ", 1)[1]) < 65


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
def test_train_centralized_with_no_epochs_returns_the_initial_parameters(model):
    # expert_epochs = 0 trains nothing: the expert is the initial model.
    ds = gen_synthetic(230, 3, 5, 0.1, 1.5, seed=9)
    expert = train_centralized(model, ds, BATCH_7, epochs=0, seed=4)
    assert np.array_equal(expert, init_params(model, np.random.default_rng([4, 0])))


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
def test_train_centralized_matches_checked_reference(model):
    # 230 rows in batches of 7 end each epoch on a 6-row remainder.
    ds = gen_synthetic(230, 3, 5, 0.1, 1.5, seed=9)
    hyper = SgdHyper(eta0=0.05, momentum=0.9, weight_decay=5e-4, batch_size=7)
    expected = train_centralized_reference(model, ds, hyper, epochs=3, seed=4)
    assert np.array_equal(train_centralized(model, ds, hyper, epochs=3, seed=4), expected)


def rows_equal(a, b) -> bool:
    """Whether two runs' metrics rows are the same to the bit; ``repr`` of a
    float names its double exactly, and nan equals nan."""
    return [repr(dataclasses.astuple(m)) for m in a] == [repr(dataclasses.astuple(m)) for m in b]


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_lockstep_jobs_match_their_solo_runs(algorithm):
    # The jobs of one call train in one local-SGD call per round, yet each
    # gets the bits of its run alone: vanilla and two data-curriculum arms,
    # with and without the client curriculum, on 3 trials whose Dirichlet
    # partitions differ, and one job that stops after 2 rounds.
    trials = [small_world(seed=seed) for seed in (42, 43, 44)]
    assert len({tuple(map(len, part.assignment)) for _, part, _ in trials}) == 3
    arms = [None, curriculum_arm(ScoringKind.G_LOSS),
            curriculum_arm(ScoringKind.LG_LOSS, OrderingKind.ANTI)]
    jobs = [
        (base_config(algorithm=algorithm, mu_prox=0.1, data_curriculum=arm, client_curriculum=c,
                     participants=3, seed=7 + k), ds, part, test, None)
        for arm in arms
        for c in (None, CLIENT_CURRICULUM)
        for k, (ds, part, test) in enumerate(trials)
    ]
    ds, part, test = trials[1]
    jobs.append((base_config(algorithm=algorithm, mu_prox=0.1, rounds=2), ds, part, test, None))
    done = run_experiment(jobs)
    assert len(done) == len(jobs) and len(done[-1]) == 2
    for job, rows in zip(jobs, done):
        assert rows_equal(rows, run_one(*job))


# Linear-regression jobs of 2 participants of 4 clients over 5 rounds. On
# DIVERGING data client 3's features are 1e50 times too large, so a job fails
# in the first round that draws client 3: round 3 at seed 3, round 1 at seed
# 8. On FINITE data every job ends.
LINEAR = ModelSpec(ModelKind.LINEAR_REGRESSION, input_dim=5)


def failing_jobs():
    bad, bad_part, bad_test = small_world(clients=4)
    bad.features = bad.features.copy()
    bad.features[bad_part.assignment[3]] *= 1e50
    good, good_part, good_test = small_world(seed=43, clients=4)

    def job(seed, diverging):
        cfg = base_config(model=LINEAR, participants=2, rounds=5, seed=seed)
        if diverging:
            return cfg, bad, bad_part, bad_test, None
        return cfg, good, good_part, good_test, None

    return job


def solo_result(job):
    """The job's metrics rows run alone, or the error that stopped it."""
    try:
        return run_one(*job)
    except (ValueError, FloatingPointError) as error:
        return error


def assert_solo_results(jobs, done):
    """Each job's entry is that of its run alone: the same rows to the bit,
    or the same error type and message."""
    assert len(done) == len(jobs)
    for j, (job, entry) in enumerate(zip(jobs, done)):
        solo = solo_result(job)
        if isinstance(solo, Exception):
            assert type(entry) is type(solo) and str(entry) == str(solo), j
        else:
            assert rows_equal(entry, solo), j


def first_error(done):
    """The entry a run in job order would stop at: the first error."""
    return next((j, entry) for j, entry in enumerate(done) if isinstance(entry, Exception))


def test_lowest_failing_job_is_reported_across_lockstep_jobs():
    # Job 2 diverges at round 1 and job 0 at round 3: one after another, job
    # 0 fails first, so its error is the first in job order, with the same
    # round, client and step as its solo run. Jobs 1 and 3 train to the end.
    job = failing_jobs()
    jobs = [job(3, True), job(3, False), job(8, True), job(8, False)]
    done = run_experiment(jobs)
    assert_solo_results(jobs, done)
    assert str(done[0]).startswith("round 3, client 3: non-finite parameters after step ")
    assert str(done[2]).startswith("round 1, client 3: non-finite parameters after step ")
    assert [len(done[j]) for j in (1, 3)] == [5, 5]
    assert first_error(done) == (0, done[0])


def test_job_before_a_diverging_one_keeps_its_trained_arrays():
    # Jobs 1 and 2 diverge at round 1 in the same local-SGD call that trains
    # job 0's participants; job 0 runs on to the end with the bits of its
    # solo run. Job 3, which fails later, is not dropped: it gets its own
    # error.
    job = failing_jobs()
    cfg, *world = job(8, True)
    curriculum = (dataclasses.replace(cfg, data_curriculum=curriculum_arm(ScoringKind.G_LOSS)),
                  *world)
    jobs = [job(3, False), job(8, True), curriculum, job(3, True)]
    done = run_experiment(jobs)
    assert_solo_results(jobs, done)
    assert len(done[0]) == 5
    for j in (1, 2):
        assert str(done[j]).startswith("round 1, client 3: non-finite parameters after step ")
    assert str(done[3]).startswith("round 3, client 3: non-finite parameters after step ")


def recorded_pools(monkeypatch):
    """The ``_Pool`` of each later ``run_experiment`` call, in call order."""
    pools = []

    def recording(*args):
        pools.append(models._Pool(*args))
        return pools[-1]

    monkeypatch.setattr(federation, "_Pool", recording)
    return pools


def test_pool_lays_out_each_dataset_and_partition_once(monkeypatch):
    # Two datasets, the first under two partitions, and two arms on one of
    # those pairs: the call's pool holds three blocks, one per (dataset,
    # partition) pair, each client's rows and labels once. Every job reads
    # its clients as views of the pool, the rows of its own partition; the
    # two arms read the same block. Each job's rows are those of its solo
    # run.
    ds, part, test = small_world()
    iid = partition(ds, PartitionSpec(Scheme.IID, num_clients=6), 5)
    ds2, part2, test2 = small_world(seed=43, n=300, clients=5)
    arm = curriculum_arm(ScoringKind.G_LOSS)
    jobs = [(base_config(seed=1), ds, part, test, None),
            (base_config(seed=2, data_curriculum=arm), ds2, part2, test2, None),
            (base_config(seed=3, data_curriculum=arm), ds, part, test, None),
            (base_config(seed=4), ds, iid, test, None)]
    pools, read = recorded_pools(monkeypatch), {}
    client_update = federation.client_update

    def recording(ids, global_params, cfg, clients, *rest):
        read.setdefault(cfg.seed, clients)
        return client_update(ids, global_params, cfg, clients, *rest)

    monkeypatch.setattr(federation, "client_update", recording)
    done = run_experiment(jobs)
    monkeypatch.undo()
    [pool] = pools
    assert [len(block) for block in pool.clients] == [8, 5, 6]
    assert len(pool.x) == len(pool.y) == 400 + 300 + 400
    assert read[1] is read[3] is pool.clients[0]
    assert read[2] is pool.clients[1] and read[4] is pool.clients[2]
    for seed, (job_ds, job_part) in zip((1, 2, 4), ((ds, part), (ds2, part2), (ds, iid))):
        for (lo, x, y), rows in zip(read[seed], job_part.assignment, strict=True):
            assert np.shares_memory(x, pool.x) and np.shares_memory(y, pool.y)
            assert np.array_equal(x, pool.x[lo : lo + len(rows)])
            assert np.array_equal(y, pool.y[lo : lo + len(rows)])
            assert np.array_equal(x, job_ds.features[rows])
            assert np.array_equal(y, job_ds.labels[rows])
    assert_solo_results(jobs, done)


def test_nan_row_of_a_failing_job_leaves_the_others_their_solo_rows(monkeypatch):
    # Job 0's clients come first in the call's pool, so the first row of its
    # client 0, nan here, is the pool's row 0, the row that pads every short
    # batch of the call. Job 0 fails at its pass at theta; job 1 trains to
    # the end with the rows of its run alone.
    bad, part, test = small_world(seed=43)
    bad.features = bad.features.copy()
    bad.features[part.assignment[0][0]] = np.nan
    jobs = [(base_config(seed=1, client_curriculum=CLIENT_CURRICULUM), bad, part, test, None),
            (base_config(seed=2), *small_world(seed=42), None)]
    pools = recorded_pools(monkeypatch)
    done = run_experiment(jobs)
    monkeypatch.undo()
    assert np.isnan(pools[0].x[0]).all()
    assert_solo_results(jobs, done)
    assert str(done[0]) == "round 0, client 0: non-finite loss at the global model"
    assert len(done[1]) == 4


def test_configuration_error_in_a_later_job_hides_no_earlier_result(monkeypatch):
    # A job that raises ConfigurationError at its round 2 stops; the jobs
    # before it keep their results and their own errors, and a job after it
    # that diverges first, at round 1, is not the first error in job order.
    job = failing_jobs()
    cfg, ds, part, test, _ = job(8, False)
    broken = Batch(test.x, test.y)  # the test set of the job that breaks
    evaluate, calls = federation.evaluate, []

    def breaking(model, params, batch):
        if batch is broken:
            calls.append(None)
            if len(calls) == 3:
                raise ConfigurationError("broken at round 2", field="rounds")
        return evaluate(model, params, batch)

    monkeypatch.setattr(federation, "evaluate", breaking)
    jobs = [job(3, False), (cfg, ds, part, broken, None), job(8, True)]
    done = run_experiment(jobs)
    assert isinstance(done[1], ConfigurationError) and str(done[1]) == "broken at round 2"
    assert first_error(done) == (1, done[1])
    assert len(done[0]) == 5 and rows_equal(done[0], solo_result(jobs[0]))
    assert str(done[2]).startswith("round 1, client 3: non-finite parameters after step ")
    assert str(done[2]) == str(solo_result(jobs[2]))
    calls.clear()
    jobs = [job(3, True), (cfg, ds, part, broken, None)]
    done = run_experiment(jobs)
    assert first_error(done) == (0, done[0])
    assert str(done[0]) == str(solo_result(jobs[0]))
    assert isinstance(done[1], ConfigurationError) and str(done[1]) == "broken at round 2"


@pytest.mark.parametrize(
    "other", [dict(local_epochs=1), dict(algorithm=Algorithm.FEDNOVA), dict(hyper=BATCH_7)]
)
def test_jobs_of_one_call_must_train_alike(other):
    # One local-SGD call trains the jobs of a call, with one model, rate
    # schedule, epoch count and algorithm.
    ds, part, test = small_world()
    with pytest.raises(ConfigurationError, match="must share"):
        run_experiment([(base_config(), ds, part, test, None),
                        (base_config(**other), ds, part, test, None)])
