import numpy as np
import pytest
from numpy.testing import assert_allclose

from _helpers import local_sgd_reference, train_centralized_reference

from fedcurr import (
    Algorithm,
    Batch,
    ClientSelectionConfig,
    ClientState,
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
    client_update,
    federation,
    gen_synthetic,
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


def fresh_state(ds, part, cid, scaffold=False):
    dim = MODEL.param_count()
    return ClientState(
        client_id=cid,
        indices=part.assignment[cid],
        momentum=np.zeros(dim),
        control=np.zeros(dim) if scaffold else None,
    )


def client_rows(ds, state):
    """The client's rows, as run_experiment hands them to client_update."""
    return ds.features[state.indices], ds.labels[state.indices]


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
    state = fresh_state(ds, part, 0)
    new = client_update(
        state, theta, cfg, *client_rows(ds, state), 0, np.random.default_rng(0)
    )
    assert np.array_equal(new.local_params, theta)


def test_fedprox_zero_mu_identical_to_fedavg():
    ds, part, _ = small_world()
    theta = np.random.default_rng(1).standard_normal(MODEL.param_count()) * 0.1
    state = fresh_state(ds, part, 2)
    res_a = client_update(
        state, theta, base_config(), *client_rows(ds, state), 0, np.random.default_rng(9)
    )
    res_p = client_update(
        state,
        theta,
        base_config(algorithm=Algorithm.FEDPROX, mu_prox=0.0),
        *client_rows(ds, state),
        0,
        np.random.default_rng(9),
    )
    assert np.array_equal(res_a.local_params, res_p.local_params)


def test_curriculum_with_full_initial_fraction_matches_off():
    ds, part, test = small_world()
    on = base_config(
        data_curriculum=DataCurriculumConfig(
            ScoringKind.G_LOSS, PacingSpec(PacingFamily.LINEAR, a=0.8, b=1.0),
            ordering=OrderingKind.CURRICULUM,
        )
    )
    off = base_config()
    m_on = run_experiment(on, ds, part, test)
    m_off = run_experiment(off, ds, part, test)
    assert metrics_equal(m_on, m_off)


def _update(cid, params, n, tau):
    """A client of ``n`` samples after a ``tau``-step update to ``params``."""
    params = np.asarray(params, dtype=np.float64)
    return ClientState(
        client_id=cid, indices=np.arange(n), momentum=np.zeros_like(params),
        local_params=params, tau=tau, selected=n,
    )


def test_aggregate_single_participant_exact():
    theta = np.array([5.0, -3.0])
    new, _ = aggregate([_update(0, [1.5, 2.5], 10, 4)], Algorithm.FEDAVG, theta)
    assert np.array_equal(new, np.array([1.5, 2.5]))


def test_aggregate_weighted_mean():
    theta = np.array([0.0])
    new, _ = aggregate(
        [_update(0, [1.0], 1, 4), _update(1, [3.0], 3, 4)], Algorithm.FEDAVG, theta
    )
    assert_allclose(new, [2.5], rtol=1e-12)


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate([], Algorithm.FEDAVG, np.zeros(2))


def test_fednova_equal_steps_matches_fedavg_bitwise():
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(6)
    updates = [
        _update(i, rng.standard_normal(6), n, 40)
        for i, n in enumerate([17, 23, 11])
    ]
    avg, _ = aggregate(updates, Algorithm.FEDAVG, theta)
    nova, _ = aggregate(updates, Algorithm.FEDNOVA, theta)
    assert np.array_equal(avg, nova)


def test_fednova_unequal_steps_differs_from_fedavg():
    rng = np.random.default_rng(4)
    theta = rng.standard_normal(6)
    updates = [
        _update(i, rng.standard_normal(6), n, tau)
        for i, (n, tau) in enumerate([(17, 10), (23, 40), (11, 25)])
    ]
    avg, _ = aggregate(updates, Algorithm.FEDAVG, theta)
    nova, _ = aggregate(updates, Algorithm.FEDNOVA, theta)
    assert not np.allclose(avg, nova)


def test_fednova_full_run_matches_fedavg_with_equal_sizes():
    ds, part, test = small_world(scheme=Scheme.IID)
    m_avg = run_experiment(base_config(), ds, part, test)
    m_nova = run_experiment(base_config(algorithm=Algorithm.FEDNOVA), ds, part, test)
    assert metrics_equal(m_avg, m_nova)


def test_scaffold_control_is_mean_of_client_controls():
    # Full participation, equal client sizes: after every aggregation the
    # server control equals the (uniform = weight-renormalized) mean of the
    # client controls.
    ds, part, test = small_world(scheme=Scheme.IID)
    cfg = base_config(algorithm=Algorithm.SCAFFOLD, participants=8, rounds=3)
    dim = MODEL.param_count()
    states = [fresh_state(ds, part, i, scaffold=True) for i in range(8)]
    theta = np.zeros(dim)
    server_c = np.zeros(dim)
    for t in range(3):
        for cid in range(8):
            rng = np.random.default_rng([cfg.seed, 2, t, cid])
            states[cid] = client_update(
                states[cid], theta, cfg, *client_rows(ds, states[cid]), t, rng,
                server_control=server_c,
            )
        theta, server_c = aggregate(states, Algorithm.SCAFFOLD, theta, server_c, 8)
        mean_control = np.mean([s.control for s in states], axis=0)
        assert np.abs(server_c - mean_control).max() <= 1e-10


def test_scaffold_full_run_smoke():
    ds, part, test = small_world()
    metrics = run_experiment(
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
    with pytest.raises(ValueError):
        gradient_dissimilarity(
            [np.array([1.0, 0.0]), np.array([-1.0, 0.0])], np.array([0.5, 0.5])
        )


def test_lambda_at_least_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(2, 8))
        grads = [rng.standard_normal(5) for _ in range(m)]
        w = rng.uniform(0.1, 1.0, m)
        w /= w.sum()
        try:
            lam = gradient_dissimilarity(grads, w)
        except ValueError:
            continue
        assert lam >= 1.0 - 1e-12


def test_zero_rounds_reports_initial_model():
    ds, part, test = small_world()
    metrics = run_experiment(base_config(rounds=0), ds, part, test)
    assert len(metrics) == 1
    assert metrics[0].round == 0
    assert metrics[0].participants == []


def test_run_is_deterministic():
    ds, part, test = small_world()
    cfg = base_config(
        data_curriculum=DataCurriculumConfig(
            ScoringKind.G_LOSS, PacingSpec(PacingFamily.LINEAR, 0.8, 0.2), OrderingKind.CURRICULUM
        )
    )
    assert metrics_equal(run_experiment(cfg, ds, part, test), run_experiment(cfg, ds, part, test))


def test_client_curriculum_run_smoke():
    ds, part, test = small_world()
    cc = ClientSelectionConfig(
        pacing=PacingSpec(PacingFamily.LINEAR, a=0.5, b=0.5),
        ordering=OrderingKind.CURRICULUM,
    )
    metrics = run_experiment(base_config(client_curriculum=cc, participants=3), ds, part, test)
    assert len(metrics) == 4
    assert all(len(m.participants) == 3 for m in metrics)


def test_run_checks_participants_against_the_partition():
    from fedcurr import ConfigurationError

    ds, part, test = small_world(clients=4)
    with pytest.raises(ConfigurationError) as info:
        run_experiment(base_config(participants=5), ds, part, test)
    assert info.value.field == "participants"


def test_frozen_scores_give_nested_selections():
    # With scores held fixed, top-k selections nest as the pacing size grows.
    rng = np.random.default_rng(33)
    scores = rng.uniform(0, 1, 50)
    previous = set()
    for k in range(1, 51):
        chosen = set(order_and_select(scores, OrderingKind.CURRICULUM, k).tolist())
        assert previous <= chosen
        previous = chosen


def test_expert_scoring_requires_expert_in_run():
    ds, part, test = small_world()
    cfg = base_config(
        data_curriculum=DataCurriculumConfig(
            ScoringKind.EXPERT, PacingSpec(PacingFamily.LINEAR, 0.8, 0.2), OrderingKind.CURRICULUM
        )
    )
    from fedcurr import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_experiment(cfg, ds, part, test)


@pytest.mark.parametrize("a,b,field", [(1.5, 0.2, "a"), (0.0, 0.2, "a"), (0.8, 0.0, "b")])
def test_data_curriculum_rejects_pacing_fractions_when_built(a, b, field):
    from fedcurr import ConfigurationError

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
def test_client_update_rejects_rows_that_do_not_fit_the_model(bad):
    from fedcurr import ConfigurationError

    ds, part, _ = small_world()
    state = fresh_state(ds, part, 0)
    theta = np.zeros(MODEL.param_count())
    with pytest.raises(ConfigurationError):
        client_update(
            state, theta, base_config(), *bad(*client_rows(ds, state)), 0,
            np.random.default_rng(0),
        )


def _reference_update(state, global_params, cfg, ds, t, rng, server_control=None):
    """client_update written with the public, per-call-checked functions."""
    full = Batch(ds.features[state.indices], ds.labels[state.indices])
    dc = cfg.data_curriculum
    if dc is not None:
        # A copy, so the reference runs the local half instead of reusing
        # the global losses.
        local = state.local_params if state.local_params is not None else global_params.copy()
        scores = score_samples(
            dc.scoring, cfg.model, full, global_params=global_params, local_params=local, rng=rng
        )
        n_sel = pace(dc.pacing, t, len(state.indices), cfg.rounds)
        idx = state.indices[np.sort(order_and_select(scores, dc.ordering, n_sel, rng))]
        batch = Batch(ds.features[idx], ds.labels[idx])
    else:
        batch = full

    def extra(g, theta):
        if cfg.algorithm is Algorithm.FEDPROX:
            g = g + cfg.mu_prox * (theta - global_params)
        if cfg.algorithm is Algorithm.SCAFFOLD:
            g = g + server_control - state.control
        return g

    theta, v, step, eta_sum = local_sgd_reference(
        cfg.model, cfg.hyper, global_params.copy(), state.momentum.copy(), batch,
        cfg.local_epochs, rng, f"round {t}, client {state.client_id}", extra,
    )
    control = state.control
    if cfg.algorithm is Algorithm.SCAFFOLD:
        control = state.control - server_control + (global_params - theta) / (
            step * (eta_sum / step)
        )
    return theta, v, step, control


def _one_client(model, algorithm, hyper, data_curriculum=None):
    """A config, a client of 75 IID rows and its broadcast parameters (and
    SCAFFOLD server control) for the bitwise training tests."""
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
    state = ClientState(
        client_id=1,
        indices=part.assignment[1],
        momentum=np.zeros(dim),
        control=np.zeros(dim) if scaffold else None,
    )
    init_rng = np.random.default_rng(11)
    theta = init_params(model, init_rng)
    server_c = init_rng.standard_normal(dim) * 0.01 if scaffold else None
    return ds, cfg, state, theta, server_c


ALGORITHMS = [Algorithm.FEDAVG, Algorithm.FEDPROX, Algorithm.SCAFFOLD]
BATCH_7 = SgdHyper(eta0=0.05, momentum=0.9, weight_decay=5e-4, batch_size=7)


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_client_update_trains_bit_for_bit_as_the_public_functions(model, algorithm):
    # 75 rows in batches of 7 end each epoch on a 5-row remainder. Three
    # rounds carry the momentum and the SCAFFOLD control across updates.
    ds, cfg, state, theta, server_c = _one_client(model, algorithm, BATCH_7)
    assert len(state.indices) % BATCH_7.batch_size != 0
    for t in range(3):
        ref_theta, ref_v, ref_tau, ref_control = _reference_update(
            state, theta, cfg, ds, t, np.random.default_rng([3, t]), server_c
        )
        state = client_update(
            state, theta, cfg, *client_rows(ds, state), t, np.random.default_rng([3, t]),
            server_c,
        )
        assert np.array_equal(state.local_params, ref_theta)
        assert np.array_equal(state.momentum, ref_v)
        assert state.tau == ref_tau == cfg.local_epochs * 11
        if algorithm is Algorithm.SCAFFOLD:
            assert np.array_equal(state.control, ref_control)
        theta = theta + 0.5 * (state.local_params - theta)


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_diverging_client_update_fails_at_the_reference_step(model, algorithm):
    hyper = SgdHyper(eta0=1e20, decay_alpha=0.0, momentum=0.9, weight_decay=5e-4, batch_size=7)
    ds, cfg, state, theta, server_c = _one_client(model, algorithm, hyper)
    with pytest.raises(FloatingPointError) as expected:
        _reference_update(state, theta, cfg, ds, 2, np.random.default_rng(3), server_c)
    with pytest.raises(FloatingPointError) as caught:
        client_update(
            state, theta, cfg, *client_rows(ds, state), 2, np.random.default_rng(3), server_c
        )
    assert str(caught.value) == str(expected.value)
    assert str(caught.value).startswith("round 2, client 1: non-finite parameters after step ")


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_client_update_matches_checked_reference(model, algorithm):
    # Two rounds of one client under lg_loss scoring, so the second round
    # scores with a local model that differs from the global one. The paced
    # subsets, 23 and 39 rows, end on a short batch.
    ds, cfg, state, theta, server_c = _one_client(
        model, algorithm, BATCH_7,
        DataCurriculumConfig(
            ScoringKind.LG_LOSS, PacingSpec(PacingFamily.LINEAR, 0.8, 0.3), OrderingKind.CURRICULUM
        ),
    )
    for t in range(2):
        ref_theta, ref_v, ref_tau, ref_control = _reference_update(
            state, theta, cfg, ds, t, np.random.default_rng([3, t]), server_c
        )
        losses = per_sample_losses(
            model, theta, Batch(ds.features[state.indices], ds.labels[state.indices])
        )
        state = client_update(
            state, theta, cfg, *client_rows(ds, state), t, np.random.default_rng([3, t]),
            server_c,
            global_losses=losses,
        )
        assert state.selected % BATCH_7.batch_size != 0
        assert np.array_equal(state.local_params, ref_theta)
        assert np.array_equal(state.momentum, ref_v)
        assert state.tau == ref_tau
        if algorithm is Algorithm.SCAFFOLD:
            assert np.array_equal(state.control, ref_control)
        theta = theta + 0.1 * (state.local_params - theta)


def count_forwards(monkeypatch) -> dict:
    """Count every forward pass, local steps included, by its round and the
    bytes of its (parameters, rows) at the moment it runs. Each pass binds
    its parameters through ``models._bind_forward``, and ``evaluate`` ends a
    round."""
    seen, rounds = {}, [0]
    bind_forward, evaluate = models._bind_forward, federation.evaluate

    def bind(model, params, *buffers):
        forward = bind_forward(model, params, *buffers)

        def counted(x):
            key = (rounds[0], params.tobytes(), x.tobytes(), x.shape)
            seen[key] = seen.get(key, 0) + 1
            return forward(x)

        return counted

    def end_round(*args):
        try:
            return evaluate(*args)
        finally:
            rounds[0] += 1

    monkeypatch.setattr(models, "_bind_forward", bind)
    monkeypatch.setattr(federation, "evaluate", end_round)
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
    cc = ClientSelectionConfig(
        pacing=PacingSpec(PacingFamily.LINEAR, a=0.5, b=0.5),
        ordering=OrderingKind.CURRICULUM,
    )
    cfg = base_config(
        client_curriculum=cc,
        participants=3,
        data_curriculum=DataCurriculumConfig(
            scoring, PacingSpec(PacingFamily.LINEAR, 0.8, 0.2), OrderingKind.CURRICULUM
        ),
    )
    seen = count_forwards(monkeypatch)
    metrics = run_experiment(cfg, ds, part, test)
    assert len(metrics) == 4
    whole_run = {}
    for (_, *pair), n in seen.items():
        whole_run[tuple(pair)] = whole_run.get(tuple(pair), 0) + n
    # Per round: 8 clients scored, plus the test set.
    assert len(whole_run) > 4 * (8 + 1)
    assert max(whole_run.values()) == 1


@pytest.mark.parametrize("scoring", list(ScoringKind), ids=lambda k: k.value)
def test_every_scoring_forwards_each_params_and_data_pair_once(monkeypatch, scoring):
    # The participants' pass at the broadcast model serves the prediction-
    # based scorings too: g_pred, l_pred for a client that has not trained
    # yet and the global half of lg_pred take its argmax instead of running
    # the model again. Expert scoring repeats its pass across rounds, since
    # the expert does not change, but not within one.
    ds, part, test = small_world(scheme=Scheme.IID)
    cfg = base_config(
        data_curriculum=DataCurriculumConfig(
            scoring, PacingSpec(PacingFamily.LINEAR, 0.8, 0.2), OrderingKind.CURRICULUM
        ),
    )
    expert = init_params(MODEL, np.random.default_rng(5))
    expected = run_experiment(cfg, ds, part, test, expert_params=expert)
    seen = count_forwards(monkeypatch)
    metrics = run_experiment(cfg, ds, part, test, expert_params=expert)
    assert metrics_equal(metrics, expected)
    # Per round: 4 participants, their local steps and the test set.
    assert len(seen) > 4 * (4 + 1)
    assert max(seen.values()) == 1


@pytest.mark.parametrize("model", FOUR_MODELS, ids=["linear", "softmax", "mlp", "mlp_scalar"])
def test_train_centralized_matches_checked_reference(model):
    # 230 rows in batches of 7 end each epoch on a 6-row remainder.
    ds = gen_synthetic(230, 3, 5, 0.1, 1.5, seed=9)
    hyper = SgdHyper(eta0=0.05, momentum=0.9, weight_decay=5e-4, batch_size=7)
    expected = train_centralized_reference(model, ds, hyper, epochs=3, seed=4)
    assert np.array_equal(train_centralized(model, ds, hyper, epochs=3, seed=4), expected)
