import numpy as np
import pytest
from numpy.testing import assert_allclose

from fedcurr import (
    Algorithm,
    ClientSelectionConfig,
    ClientState,
    ClientUpdateResult,
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
    sgd_step,
)

MODEL = ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=5, num_classes=2)
HYPER = SgdHyper(eta0=0.05, momentum=0.9, weight_decay=5e-4, batch_size=10)


def small_world(seed=42, n=400, clients=8, scheme=Scheme.DIRICHLET, beta=0.3):
    ds = gen_synthetic(n, 2, 5, 0.1, 1.5, seed=seed)
    kwargs = dict(beta=beta) if scheme is Scheme.DIRICHLET else {}
    part = partition(ds, PartitionSpec(scheme=scheme, num_clients=clients, seed=seed, **kwargs))
    test = gen_synthetic(n, 2, 5, 0.1, 1.5, seed=seed + 1).batch()
    return ds, part, test


def base_config(**overrides):
    defaults = dict(
        model=MODEL,
        num_clients=8,
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
    result, _ = client_update(
        fresh_state(ds, part, 0), theta, cfg, ds, 0, np.random.default_rng(0)
    )
    assert np.array_equal(result.params, theta)


def test_fedprox_zero_mu_identical_to_fedavg():
    ds, part, _ = small_world()
    theta = np.random.default_rng(1).standard_normal(MODEL.param_count()) * 0.1
    res_a, _ = client_update(
        fresh_state(ds, part, 2), theta, base_config(), ds, 0, np.random.default_rng(9)
    )
    res_p, _ = client_update(
        fresh_state(ds, part, 2),
        theta,
        base_config(algorithm=Algorithm.FEDPROX, mu_prox=0.0),
        ds,
        0,
        np.random.default_rng(9),
    )
    assert np.array_equal(res_a.params, res_p.params)


def test_curriculum_with_full_initial_fraction_matches_off():
    ds, part, test = small_world()
    on = base_config(
        data_curriculum=DataCurriculumConfig(
            ScoringKind.G_LOSS, PacingFamily.LINEAR, a=0.8, b=1.0,
            ordering=OrderingKind.CURRICULUM,
        )
    )
    off = base_config()
    m_on = run_experiment(on, ds, part, test)
    m_off = run_experiment(off, ds, part, test)
    assert metrics_equal(m_on, m_off)


def _update(cid, params, n, tau):
    return ClientUpdateResult(
        client_id=cid, params=np.asarray(params, dtype=np.float64),
        num_samples=n, tau=tau, selected=n,
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
        ClientUpdateResult(i, rng.standard_normal(6), n, tau, n)
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
        updates = []
        for cid in range(8):
            rng = np.random.default_rng([cfg.seed, 2, t, cid])
            result, states[cid] = client_update(
                states[cid], theta, cfg, ds, t, rng, server_control=server_c
            )
            updates.append(result)
        theta, server_c = aggregate(updates, Algorithm.SCAFFOLD, theta, server_c, 8)
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
            ScoringKind.G_LOSS, PacingFamily.LINEAR, 0.8, 0.2, OrderingKind.CURRICULUM
        )
    )
    assert metrics_equal(run_experiment(cfg, ds, part, test), run_experiment(cfg, ds, part, test))


def test_client_curriculum_run_smoke():
    ds, part, test = small_world()
    cc = ClientSelectionConfig(
        pacing=PacingSpec(PacingFamily.LINEAR, a=0.5, b=0.5, total=8, budget=4),
        ordering=OrderingKind.CURRICULUM,
        client_batch_size=3,
    )
    metrics = run_experiment(base_config(client_curriculum=cc, participants=3), ds, part, test)
    assert len(metrics) == 4
    assert all(len(m.participants) == 3 for m in metrics)


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
            ScoringKind.EXPERT, PacingFamily.LINEAR, 0.8, 0.2, OrderingKind.CURRICULUM
        )
    )
    from fedcurr import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_experiment(cfg, ds, part, test)


@pytest.mark.parametrize("a,b,field", [(1.5, 0.2, "a"), (0.0, 0.2, "a"), (0.8, 0.0, "b")])
def test_data_curriculum_rejects_pacing_fractions_when_built(a, b, field):
    from fedcurr import ConfigurationError

    with pytest.raises(ConfigurationError) as info:
        DataCurriculumConfig(ScoringKind.G_LOSS, PacingFamily.LINEAR, a, b, OrderingKind.ANTI)
    assert info.value.field == field


def _reference_update(state, global_params, cfg, ds, t, rng, server_control=None):
    """client_update written with the public, per-call-checked functions."""
    full = ds.batch(state.indices)
    dc = cfg.data_curriculum
    if dc is not None:
        # A copy, so the reference runs the local half instead of reusing
        # the global losses.
        local = state.local_params if state.local_params is not None else global_params.copy()
        table = score_samples(
            dc.scoring, cfg.model, full, global_params=global_params, local_params=local, rng=rng
        )
        n_sel = pace(PacingSpec(dc.family, dc.a, dc.b, len(state.indices), cfg.rounds), t)
        batch = ds.batch(state.indices[np.sort(order_and_select(table, dc.ordering, n_sel, rng))])
    else:
        batch = full
    theta, v = global_params.copy(), state.momentum.copy()
    bs = cfg.hyper.batch_size
    step, eta_sum = 0, 0.0
    for _ in range(cfg.local_epochs):
        perm = rng.permutation(len(batch))
        for lo in range(0, len(batch), bs):
            g = grad(cfg.model, theta, batch.subset(perm[lo : lo + bs]))
            if cfg.algorithm is Algorithm.FEDPROX:
                g = g + cfg.mu_prox * (theta - global_params)
            if cfg.algorithm is Algorithm.SCAFFOLD:
                g = g + server_control - state.control
            eta_sum += cfg.hyper.learning_rate(step)
            theta, v = sgd_step(theta, g, cfg.hyper, step, v)
            step += 1
    control = state.control
    if cfg.algorithm is Algorithm.SCAFFOLD:
        control = state.control - server_control + (global_params - theta) / (
            step * (eta_sum / step)
        )
    return theta, v, step, control


@pytest.mark.parametrize(
    "model",
    [
        ModelSpec(ModelKind.LINEAR_REGRESSION, input_dim=5),
        ModelSpec(ModelKind.SOFTMAX_REGRESSION, input_dim=5, num_classes=3),
        ModelSpec(ModelKind.MLP_TANH, input_dim=5, num_classes=3, hidden_dim=4),
        ModelSpec(ModelKind.MLP_TANH, input_dim=5, num_classes=1, hidden_dim=4),
    ],
    ids=["linear", "softmax", "mlp", "mlp_scalar"],
)
@pytest.mark.parametrize("algorithm", [Algorithm.FEDAVG, Algorithm.FEDPROX, Algorithm.SCAFFOLD])
def test_client_update_matches_checked_reference(model, algorithm):
    # Two rounds of one client under lg_loss scoring, so the second round
    # scores with a local model that differs from the global one.
    ds = gen_synthetic(300, 3, 5, 0.1, 1.5, seed=5)
    part = partition(ds, PartitionSpec(Scheme.IID, num_clients=4, seed=5))
    cfg = base_config(
        model=model,
        num_clients=4,
        participants=2,
        algorithm=algorithm,
        mu_prox=0.1 if algorithm is Algorithm.FEDPROX else 0.0,
        hyper=SgdHyper(eta0=0.05, momentum=0.9, weight_decay=5e-4, batch_size=7),
        data_curriculum=DataCurriculumConfig(
            ScoringKind.LG_LOSS, PacingFamily.LINEAR, 0.8, 0.3, OrderingKind.CURRICULUM
        ),
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
    for t in range(2):
        ref_theta, ref_v, ref_tau, ref_control = _reference_update(
            state, theta, cfg, ds, t, np.random.default_rng([3, t]), server_c
        )
        losses = per_sample_losses(model, theta, ds.batch(state.indices))
        result, state = client_update(
            state, theta, cfg, ds, t, np.random.default_rng([3, t]), server_c,
            global_losses=losses,
        )
        assert np.array_equal(result.params, ref_theta)
        assert np.array_equal(state.momentum, ref_v)
        assert result.tau == state.tau == ref_tau
        if scaffold:
            assert np.array_equal(state.control, ref_control)
        theta = theta + 0.1 * (result.params - theta)


def test_round_forwards_each_params_and_data_pair_once(monkeypatch):
    # Client curriculum and g_loss scoring both need every client's losses at
    # the broadcast model; each (parameters, data) pair is run through the
    # model once. Parameters change every round and every local step, so
    # checking the whole run covers each round.
    ds, part, test = small_world(scheme=Scheme.IID)
    cc = ClientSelectionConfig(
        pacing=PacingSpec(PacingFamily.LINEAR, a=0.5, b=0.5, total=8, budget=4),
        ordering=OrderingKind.CURRICULUM,
        client_batch_size=3,
    )
    cfg = base_config(
        client_curriculum=cc,
        participants=3,
        data_curriculum=DataCurriculumConfig(
            ScoringKind.G_LOSS, PacingFamily.LINEAR, 0.8, 0.2, OrderingKind.CURRICULUM
        ),
    )
    seen = {}
    original = models._forward

    def counted(model, params, x):
        key = (params.tobytes(), x.tobytes(), x.shape)
        seen[key] = seen.get(key, 0) + 1
        return original(model, params, x)

    monkeypatch.setattr(models, "_forward", counted)
    monkeypatch.setattr(federation, "_forward", counted)
    metrics = run_experiment(cfg, ds, part, test)
    assert len(metrics) == 4
    # Per round: 8 clients scored, plus the test set.
    assert len(seen) > 4 * (8 + 1)
    assert max(seen.values()) == 1
