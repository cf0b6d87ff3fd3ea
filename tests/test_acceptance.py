"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale
directional checks use fixed seeds and are fully deterministic.
"""

import os
import time

import numpy as np
import pytest
from _helpers import check_partition, partition_score_std

import fedcurr as fc
from fedcurr.cli import main as cli_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOFTMAX2 = fc.ModelSpec(fc.ModelKind.SOFTMAX_REGRESSION, input_dim=10, num_classes=2)
DESK_HYPER = fc.SgdHyper(
    eta0=0.003, decay_alpha=0.001, decay_b=0.75, momentum=0.9,
    weight_decay=1e-4, batch_size=10,
)
DESK_SEEDS = [202207 + s for s in range(5)]


class Timer:
    def __init__(self, limit_s):
        self.limit = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s over budget"


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def desk_world(seed):
    ds = fc.gen_synthetic(4000, 2, 10, 0.1, 2.0, seed)
    part = fc.partition(ds, fc.PartitionSpec(fc.Scheme.DIRICHLET, 20, beta=0.1), seed)
    test = fc.gen_synthetic(4000, 2, 10, 0.1, 2.0, seed + 7919).batch()
    return ds, part, test


def desk_config(seed, arm, client_curriculum=None):
    dc = None
    if arm != "vanilla":
        dc = fc.DataCurriculumConfig(
            fc.ScoringKind.G_LOSS, fc.PacingSpec(fc.PacingFamily.LINEAR, a=0.8, b=0.2),
            ordering=fc.OrderingKind(arm),
        )
    return fc.ExperimentConfig(
        model=SOFTMAX2, participants=2, rounds=50, local_epochs=1,
        data_curriculum=dc, client_curriculum=client_curriculum,
        hyper=DESK_HYPER, seed=seed,
    )


def final_accuracy(seed, arm, part=None, ds=None, test=None, client_curriculum=None):
    if ds is None:
        ds, part, test = desk_world(seed)
    cfg = desk_config(seed, arm, client_curriculum)
    return fc.run_experiment(cfg, ds, part, test)[-1].test_acc


def test_criterion_1_pacing_exactness():
    with Timer(1.0):
        for family in fc.PacingFamily:
            spec = fc.PacingSpec(family, a=0.8, b=0.2)
            values = [fc.pace(spec, t, 100, 100) for t in range(101)]
            assert values[0] == 20
            assert all(v == 100 for t, v in enumerate(values) if t >= 80)
            assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
        linear = fc.PacingSpec(fc.PacingFamily.LINEAR, 0.8, 0.2)
        assert fc.pace(linear, 40, 100, 100) == 60
    report(1, "pacing families exact at the pinned parameters")


def test_criterion_2_scoring_normalization_and_scale_invariance():
    with Timer(5.0):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 50))
            losses = rng.uniform(0.01, 10.0, n)
            scores = fc.scores_from_losses(losses)
            assert abs(scores.sum() - 1.0) <= 1e-12
            c = rng.uniform(0.5, 2.0)
            count = int(rng.integers(1, n + 1))
            scaled = fc.scores_from_losses(c * losses)
            for ordering in (fc.OrderingKind.CURRICULUM, fc.OrderingKind.ANTI):
                assert set(fc.order_and_select(scores, ordering, count).tolist()) == set(
                    fc.order_and_select(scaled, ordering, count).tolist()
                )
            r1 = fc.order_and_select(scores, fc.OrderingKind.RANDOM, count,
                                     np.random.default_rng(17))
            r2 = fc.order_and_select(scaled, fc.OrderingKind.RANDOM, count,
                                     np.random.default_rng(17))
            assert set(r1.tolist()) == set(r2.tolist())
    report(2, "scores normalized to 1e-12 and selection invariant to loss scaling")


def test_criterion_3_partition_invariants():
    with Timer(30.0):
        ds = fc.gen_synthetic(2000, 10, 4, 0.1, 2.0, seed=1)
        specs = [
            fc.PartitionSpec(fc.Scheme.IID, 15),
            fc.PartitionSpec(fc.Scheme.DIRICHLET, 15, beta=0.05),
            fc.PartitionSpec(fc.Scheme.DIRICHLET, 15, beta=0.2),
            fc.PartitionSpec(fc.Scheme.DIRICHLET, 15, beta=0.9),
            fc.PartitionSpec(fc.Scheme.LABEL_SKEW, 15, skew_classes=2),
        ]
        for spec in specs:
            part = fc.partition(ds, spec, 3)
            check_partition(ds, part)
            for f_ord in (0.0, 0.5, 1.0):
                shuffled = fc.partition_difficulty(ds, part, f_ord, ds.difficulty_noise, seed=5)
                check_partition(ds, shuffled)
                assert np.array_equal(shuffled.class_counts, part.class_counts)

        # Single-class rank-order property at f_ord = 1.
        single = fc.gen_synthetic(60, 1, 2, 0.0, 1.0, seed=0)
        losses = np.random.default_rng(2).uniform(0, 5, 60)
        idx = np.arange(60)
        base = fc.Partition(
            assignment=[idx[:20], idx[20:45], idx[45:]],
            class_counts=np.array([[20], [25], [15]]),
        )
        ranked = fc.partition_difficulty(single, base, 1.0, losses, seed=9)
        chained = np.concatenate([np.sort(losses[ranked.assignment[i]]) for i in range(3)])
        assert np.all(np.diff(chained) >= 0)

        # Mean per-client score std nonincreasing in f_ord, averaged over 5 seeds.
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        model = fc.ModelSpec(fc.ModelKind.SOFTMAX_REGRESSION, 8, 10)
        totals = np.zeros(len(grid))
        for seed in DESK_SEEDS:
            dsx = fc.gen_synthetic(4000, 10, 8, 0.1, 2.0, seed)
            basex = fc.partition(dsx, fc.PartitionSpec(fc.Scheme.DIRICHLET, 20, beta=0.2), seed)
            expert = fc.train_centralized(model, dsx, DESK_HYPER, epochs=20, seed=seed)
            exp_losses = fc.per_sample_losses(model, expert, dsx.batch())
            scores = fc.scores_from_losses(exp_losses) * len(dsx)
            for i, f in enumerate(grid):
                out = fc.partition_difficulty(dsx, basex, f, exp_losses, seed=seed)
                totals[i] += partition_score_std(out, scores).mean()
        totals /= len(DESK_SEEDS)
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:])), totals
    report(3, f"partition invariants hold; score std falls {totals[0]:.3f} -> {totals[-1]:.3f}")


def test_criterion_4_gradient_correctness():
    from test_models import fd_gradient, random_batch

    with Timer(30.0):
        models = [
            fc.ModelSpec(fc.ModelKind.LINEAR_REGRESSION, 4),
            fc.ModelSpec(fc.ModelKind.SOFTMAX_REGRESSION, 4, 3),
            fc.ModelSpec(fc.ModelKind.MLP_TANH, 4, 1, hidden_dim=4),
            fc.ModelSpec(fc.ModelKind.MLP_TANH, 4, 3, hidden_dim=4),
        ]
        rng = np.random.default_rng(6)
        for model in models:
            for _ in range(100):
                params = fc.init_params(model, rng)
                batch = random_batch(model, rng, m=7)
                g = fc.grad(model, params, batch)
                g_fd = fd_gradient(model, params, batch)
                rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
                assert rel <= 1e-5
    report(4, "analytic gradients match finite differences at 1e-5 over 100 draws per model")


def test_criterion_5_convex_bound_verification():
    with Timer(60.0):
        prob = fc.make_quadratic(8, mu=0.5, L=4.0, seed=0)
        rel_var, sigma = 1.0, 0.1
        alpha = 1.0 / (8.0 * (3.0 + 2.0 * rel_var) * 4.0)
        sched = fc.constant_stepsizes(alpha, 20, 5)
        theta0 = prob.theta_star + np.ones(8)
        slacks = []
        for kind in (fc.BiasKind.CLIENT_BASED, fc.BiasKind.DATA_BASED):
            bias = fc.make_bias_schedule(kind, 20, 5, 0.0, 0.5)
            rep = fc.verify_convex(
                prob, sched, bias, rel_var, sigma**2, 4, theta0, 500,
                np.random.default_rng(202207),
            )
            assert rep.empirical <= rep.bound, (kind, rep)
            slacks.append(rep.bound - rep.empirical)
    report(5, f"strongly convex bound holds for both schedules (slack {min(slacks):.3f})")


def test_criterion_6_nonconvex_bound_verification():
    with Timer(60.0):
        prob = fc.NonconvexProblem(dim=4)
        sched = fc.constant_stepsizes(0.05, 20, 5)
        rep = fc.verify_nonconvex(
            prob, sched, 4, np.full(4, 0.4), 200, np.random.default_rng(202207), sigma=0.05
        )
        assert rep.empirical <= rep.bound, rep
    report(6, f"nonconvex ergodic bound holds ({rep.empirical:.3f} <= {rep.bound:.3f})")


def test_criterion_7_directional_curriculum_effect():
    with Timer(300.0):
        finals = {
            arm: np.array([final_accuracy(seed, arm) for seed in DESK_SEEDS])
            for arm in ("curriculum", "anti", "random", "vanilla")
        }
        curr, anti = finals["curriculum"], finals["anti"]
        rand, van = finals["random"], finals["vanilla"]
        gap = curr.mean() - anti.mean()
        pooled_se = np.sqrt(curr.var(ddof=1) / 5 + anti.var(ddof=1) / 5)
        assert gap > 0, finals
        assert gap > pooled_se, (gap, pooled_se)
        rand_between = anti.mean() <= rand.mean() <= curr.mean()
        rand_near_vanilla = abs(rand.mean() - van.mean()) <= np.sqrt(
            rand.var(ddof=1) / 5 + van.var(ddof=1) / 5
        )
        assert rand_between or rand_near_vanilla
    report(
        7,
        f"curriculum {curr.mean():.4f} > anti {anti.mean():.4f} "
        f"(gap {gap:.4f} > SE {pooled_se:.4f}), random {rand.mean():.4f} in between",
    )


def test_criterion_8_consistency_and_client_curriculum():
    with Timer(600.0):
        a_f0, a_f1, a_cc = [], [], []
        client_cc = fc.ClientSelectionConfig(
            pacing=fc.PacingSpec(fc.PacingFamily.LINEAR, a=0.5, b=0.4),
            ordering=fc.OrderingKind.CURRICULUM,
        )
        for seed in DESK_SEEDS:
            ds, base, test = desk_world(seed)
            expert = fc.train_centralized(SOFTMAX2, ds, DESK_HYPER, epochs=30, seed=seed)
            losses = fc.per_sample_losses(SOFTMAX2, expert, ds.batch())
            p0 = fc.partition_difficulty(ds, base, 0.0, losses, seed)
            p1 = fc.partition_difficulty(ds, base, 1.0, losses, seed)
            for part, sink in ((p0, a_f0), (p1, a_f1)):
                curr = final_accuracy(seed, "curriculum", part, ds, test)
                van = final_accuracy(seed, "vanilla", part, ds, test)
                sink.append(curr - van)
            cc = final_accuracy(seed, "vanilla", p1, ds, test, client_curriculum=client_cc)
            van1 = final_accuracy(seed, "vanilla", p1, ds, test)
            a_cc.append(cc - van1)
        a_f0, a_f1, a_cc = (np.array(v) for v in (a_f0, a_f1, a_cc))
        assert a_f0.mean() - a_f1.mean() > 0, (a_f0, a_f1)
        assert a_cc.mean() > 0, a_cc
    report(
        8,
        f"data-curriculum advantage shrinks {a_f0.mean():.4f} -> {a_f1.mean():.4f} "
        f"with uniform-difficulty clients; client curriculum restores {a_cc.mean():+.4f}",
    )


def test_criterion_9_algorithm_equivalences():
    from test_federation import base_config, metrics_equal, small_world

    with Timer(60.0):
        ds, part, test = small_world(scheme=fc.Scheme.DIRICHLET)
        m_avg = fc.run_experiment(base_config(), ds, part, test)
        m_prox = fc.run_experiment(
            base_config(algorithm=fc.Algorithm.FEDPROX, mu_prox=0.0), ds, part, test
        )
        assert metrics_equal(m_avg, m_prox)

        ds_i, part_i, test_i = small_world(scheme=fc.Scheme.IID)
        m_avg_i = fc.run_experiment(base_config(), ds_i, part_i, test_i)
        m_nova = fc.run_experiment(
            base_config(algorithm=fc.Algorithm.FEDNOVA), ds_i, part_i, test_i
        )
        assert metrics_equal(m_avg_i, m_nova)

        from test_federation import MODEL, client_rows, fresh_state

        cfg = base_config(algorithm=fc.Algorithm.SCAFFOLD, participants=8, rounds=3)
        dim = MODEL.param_count()
        states = [fresh_state(ds_i, part_i, i, scaffold=True) for i in range(8)]
        theta, server_c = np.zeros(dim), np.zeros(dim)
        for t in range(3):
            for cid in range(8):
                rng = np.random.default_rng([cfg.seed, 9, t, cid])
                states[cid] = fc.client_update(
                    states[cid], theta, cfg, *client_rows(ds_i, states[cid]), t, rng,
                    server_control=server_c,
                )
            theta, server_c = fc.aggregate(states, fc.Algorithm.SCAFFOLD, theta, server_c, 8)
            mean_c = np.mean([s.control for s in states], axis=0)
            assert np.abs(server_c - mean_c).max() <= 1e-10
    report(9, "FedProx(0) and equal-step FedNova match FedAvg bitwise; SCAFFOLD control mean holds")


def test_criterion_10_cli_determinism(tmp_path):
    with Timer(300.0):
        cfg = os.path.join(ROOT, "configs", "example_run.ini")
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / name
            assert cli_main(["run", cfg, "--out", str(out), "--threads", threads]) == 0
            with open(out / "metrics.csv", "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1] == outputs[2]
    report(10, "shipped config reruns byte-identical across invocations and thread counts")


def test_criterion_11_dissimilarity_properties():
    with Timer(1.0):
        g = np.array([0.3, -1.2, 0.5])
        assert fc.gradient_dissimilarity([g, g], np.array([0.5, 0.5])) == pytest.approx(1.0)
        lam = fc.gradient_dissimilarity(
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])], np.array([0.5, 0.5])
        )
        assert abs(lam - 2.0) <= 1e-12
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = int(rng.integers(2, 10))
            grads = [rng.standard_normal(6) for _ in range(m)]
            w = rng.uniform(0.05, 1.0, m)
            w /= w.sum()
            assert fc.gradient_dissimilarity(grads, w) >= 1.0 - 1e-12
    report(11, "dissimilarity is 1 for identical gradients, 2 for the orthogonal pair, >= 1 always")


def test_criterion_12_hessian_probe_and_bound_comparison():
    with Timer(30.0):
        rng = np.random.default_rng(0)
        linear = fc.ModelSpec(fc.ModelKind.LINEAR_REGRESSION, 4)
        batch = fc.Batch(rng.standard_normal((8, 4)), rng.standard_normal(8))
        dec = fc.hessian_decomposition(linear, rng.standard_normal(5), batch)
        assert np.all(dec.residual_term == 0.0)

        mlp = fc.ModelSpec(fc.ModelKind.MLP_TANH, 4, 1, hidden_dim=5)
        params = fc.init_params(mlp, rng)
        batch_m = fc.Batch(rng.standard_normal((6, 4)), rng.standard_normal(6))
        dec_m = fc.hessian_decomposition(mlp, params, batch_m)
        p = mlp.param_count()
        fd = np.zeros((p, p))
        for i in range(p):
            h = 1e-5 * (1.0 + abs(params[i]))
            up, dn = params.copy(), params.copy()
            up[i] += h
            dn[i] -= h
            fd[:, i] = (fc.grad(mlp, up, batch_m) - fc.grad(mlp, dn, batch_m)) / (2 * h)
        assert np.abs(dec_m.full - fd).max() <= 1e-4

        prob = fc.make_quadratic(8, 0.5, 4.0, seed=5)
        sched = fc.inverse_round_stepsizes(1 / 160, 20, 5)
        fwd = fc.make_bias_schedule(fc.BiasKind.DATA_BASED, 20, 5, 0.0, 0.5)
        rev = fwd[::-1, ::-1].copy()
        theta0 = prob.theta_star + np.ones(8)
        b_fwd = fc.bound_convex(prob, sched, fwd, 1.0, 0.01, 4, theta0)
        b_rev = fc.bound_convex(prob, sched, rev, 1.0, 0.01, 4, theta0)
        assert b_fwd < b_rev
    report(12, "Hessian split exact; growing-bias schedule beats its reverse under decay")
