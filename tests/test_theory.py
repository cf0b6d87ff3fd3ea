import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _helpers import simulate_rounds_reference, validate_bias_schedule
from fedcurr import theory
from fedcurr import (
    BiasKind,
    BiasedGradOracle,
    ConfigurationError,
    NonconvexProblem,
    biased_grad,
    bound_convex,
    bound_nonconvex,
    constant_stepsizes,
    inverse_round_stepsizes,
    make_bias_schedule,
    make_quadratic,
    verify_convex,
    verify_nonconvex,
    zero_sum_directions,
)


def exact_running_sum(vectors):
    total = np.zeros_like(vectors[0])
    for v in vectors:
        total = total + v
    return total


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_zero_sum_directions(q):
    dirs = zero_sum_directions(q, 6)
    assert np.all(exact_running_sum(list(dirs)) == 0.0)
    for row in dirs:
        assert abs(np.linalg.norm(row) - 1.0) <= 1e-12


def test_zero_sum_directions_odd_needs_two_dims():
    with pytest.raises(ConfigurationError):
        zero_sum_directions(3, 1)


def _oracle(q=4, dim=6, bias=None, rel_var=0.0, sigma=0.0, T=2, J=3):
    prob = make_quadratic(dim, 0.5, 2.0, seed=1)
    values = np.zeros((T + 1, J + 1)) if bias is None else bias
    return prob, BiasedGradOracle(
        grad_fn=prob.grad,
        bias_values=values,
        directions=zero_sum_directions(q, dim),
        rel_var=rel_var,
        sigma=sigma,
    )


def test_biased_grad_noiseless_unbiased_is_exact():
    prob, oracle = _oracle()
    theta = np.linspace(-1, 1, 6)
    g = biased_grad(oracle, 2, theta, 0, 0, np.random.default_rng(0))
    assert np.array_equal(g, prob.grad(theta))


def test_bias_norm_realizes_cap_and_sums_to_zero():
    values = np.full((3, 4), 0.37)
    prob, oracle = _oracle(bias=values)
    # At the minimizer the base gradient vanishes, so the draw IS the bias.
    theta = prob.theta_star
    rng = np.random.default_rng(1)
    biases = [biased_grad(oracle, k, theta, 1, 2, rng) for k in range(4)]
    for b in biases:
        assert abs(b @ b - 0.37) <= 1e-12
    assert np.all(exact_running_sum(biases) == 0.0)


def test_bias_requires_cohort_of_two():
    values = np.full((1, 1), 0.5)
    prob = make_quadratic(4, 0.5, 2.0, seed=0)
    oracle = BiasedGradOracle(prob.grad, values, zero_sum_directions(1, 4))
    with pytest.raises(ConfigurationError):
        biased_grad(oracle, 0, np.zeros(4), 0, 0, np.random.default_rng(0))


@pytest.mark.parametrize("caps", [np.full((4, 3), -1.0), np.eye(4, 3) * -1e-3])
def test_negative_bias_caps_are_rejected(caps):
    # The oracle applies no bias for a cap <= 0, so a bound that used a
    # negative cap would not bound what the simulation ran.
    prob = make_quadratic(4, 0.5, 2.0, seed=0)
    sched = constant_stepsizes(0.01, 3, 2)
    calls = [
        lambda: bound_convex(prob, sched, caps, 0.0, 0.0, 4, prob.theta_star + 1),
        lambda: verify_convex(
            prob, sched, caps, 0.0, 0.0, 4, prob.theta_star + 1, 100, np.random.default_rng(0)
        ),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError, match=r"bias\[0,0\]") as caught:
            call()
        assert caught.value.field == "bias"


def test_verify_convex_bias_requires_cohort_of_two():
    prob = make_quadratic(4, 0.5, 2.0, seed=0)
    bias = make_bias_schedule(BiasKind.CLIENT_BASED, 3, 2, 0.1, 0.5)
    with pytest.raises(ConfigurationError, match="at least 2"):
        verify_convex(
            prob, constant_stepsizes(0.01, 3, 2), bias, 0.0, 0.0, 1,
            prob.theta_star + 1, 100, np.random.default_rng(0),
        )


def _reference_rounds(oracle, alpha, theta0, n_runs, rng, on_round_start):
    """Local SGD of ``n_runs`` runs from per-call biased_grad draws on one
    generator, in the order (t, j, run, client)."""
    q = oracle.num_clients
    theta_hat = [theta0.copy() for _ in range(n_runs)]
    for t in range(alpha.shape[0] - 1):
        on_round_start(theta_hat)
        thetas = [[start.copy() for _ in range(q)] for start in theta_hat]
        for j in range(alpha.shape[1]):
            for run in thetas:
                for k in range(q):
                    g = biased_grad(oracle, k, run[k], t, j, rng)
                    run[k] = run[k] - alpha[t, j] * g
        theta_hat = [np.mean(run, axis=0) for run in thetas]
    return np.array(theta_hat)


@pytest.mark.parametrize("kind", list(BiasKind))
def test_batched_rounds_match_per_call_reference(kind):
    # Odd cohort (planar triple), M > 0 and sigma > 0: pins the draw order
    # (t, j, run, client, then d coordinates) of the batched kernel.
    T, J, q, dim, n_runs = 3, 2, 3, 4, 5
    prob = make_quadratic(dim, 0.5, 2.0, seed=4)
    sched = constant_stepsizes(0.02, T, J)
    bias = make_bias_schedule(kind, T, J, 0.05, 0.6)
    oracle = BiasedGradOracle(
        prob.grad, bias, zero_sum_directions(q, dim), rel_var=0.7, sigma=0.3
    )
    theta0 = prob.theta_star + np.linspace(-1.0, 1.0, dim)
    starts, ref_starts = [], []
    batched = theory._simulate_rounds(
        oracle, sched, theta0, n_runs, np.random.default_rng(9), starts.append
    )
    assert batched.shape == (n_runs, dim)
    endpoints = _reference_rounds(
        oracle, sched, theta0, n_runs, np.random.default_rng(9), ref_starts.append
    )
    assert_allclose(batched, endpoints, rtol=1e-12)
    assert len(starts) == len(ref_starts) == T
    for s, ref in zip(starts, ref_starts):
        assert_allclose(s, ref, rtol=1e-12)


_DRAW_ORACLES = [(0.7, 0.3, True), (0.0, 0.0, False)]


@pytest.mark.parametrize(
    "rel_var,sigma,noisy,T",
    # One round, and more than one, of each oracle.
    [pytest.param(m, s, n, 3, id=f"{m}-{s}-{n}") for m, s, n in _DRAW_ORACLES]
    + [pytest.param(m, s, n, T, id=f"{m}-{s}-{n}-T{T}")
       for T in (1, 2) for m, s, n in _DRAW_ORACLES],
)
def test_batched_rounds_draw_one_normal_per_coordinate(rel_var, sigma, noisy, T):
    # Each oracle call draws d normals, so R runs of T rounds draw
    # T (J+1) R Q d of them from the case's generator; a noiseless oracle none.
    J, q, dim, n_runs = 2, 3, 4, 5
    prob = make_quadratic(dim, 0.5, 2.0, seed=4)
    oracle = BiasedGradOracle(
        prob.grad, np.zeros((T + 1, J + 1)), zero_sum_directions(q, dim),
        rel_var=rel_var, sigma=sigma,
    )
    rng = np.random.default_rng(9)
    theory._simulate_rounds(
        oracle, constant_stepsizes(0.02, T, J), prob.theta_star + 1.0, n_runs, rng
    )
    fresh = np.random.default_rng(9)
    fresh.standard_normal(T * (J + 1) * n_runs * q * dim if noisy else 0)
    assert rng.bit_generator.state == fresh.bit_generator.state


def _assert_same_trajectories(oracle, alpha, theta0, n_runs):
    """The kernel and the stacked reference, each on a fresh generator of
    one seed: equal bits at every round start and at the end."""
    results = []
    for kernel in (theory._simulate_rounds, simulate_rounds_reference):
        starts = []
        end = kernel(oracle, alpha, theta0, n_runs, np.random.default_rng(3), starts.append)
        results.append((end, starts))
    (end, starts), (ref_end, ref_starts) = results
    assert np.array_equal(end, ref_end)
    assert len(starts) == len(ref_starts) == alpha.shape[0] - 1  # T
    for s, ref in zip(starts, ref_starts):
        assert np.array_equal(s, ref)


@pytest.mark.parametrize("T", [1, 2, 3, 5])
@pytest.mark.parametrize("q,dim", [(q, dim) for q in (1, 2, 3, 4) for dim in (2, 3, 8, 17)])
def test_convex_kernel_matches_stacked_reference_bitwise(q, dim, T):
    # 2-D gradient, column-wise average, one noise block per step and in-place
    # updates against the stacked (R, Q, d) kernel; a single client has no bias.
    J, n_runs = 2, 40
    prob = make_quadratic(dim, 0.5, 2.0, seed=dim)
    sched = constant_stepsizes(0.02, T, J)
    caps = np.zeros((T + 1, J + 1))
    if q > 1:
        caps = make_bias_schedule(BiasKind.DATA_BASED, T, J, 0.05, 0.6)
    theta0 = prob.theta_star + np.linspace(-1.0, 1.0, dim)
    for rel_var, sigma in [(0.0, 0.0), (0.7, 0.3)]:
        oracle = BiasedGradOracle(
            prob.grad, caps, zero_sum_directions(q, dim), rel_var=rel_var, sigma=sigma
        )
        _assert_same_trajectories(oracle, sched, theta0, n_runs)


@pytest.mark.parametrize("T", [1, 2, 3, 5])
@pytest.mark.parametrize("q", [1, 4])
def test_nonconvex_kernel_matches_stacked_reference_bitwise(q, T):
    J, dim, n_runs = 3, 4, 40
    prob = NonconvexProblem(dim=dim)
    sched = constant_stepsizes(0.05, T, J)
    oracle = BiasedGradOracle(
        prob.grad, np.zeros_like(sched), zero_sum_directions(q, dim), sigma=0.05
    )
    _assert_same_trajectories(oracle, sched, np.full(dim, 0.4), n_runs)


def test_kernel_leaves_an_aliasing_gradient_input_alone():
    # grad_fn of 0.5 ||theta||^2 may hand back its input; the in-place
    # oracle formula must then work on a copy, not on the iterates.
    T, J, q, dim = 2, 1, 2, 3
    sched = constant_stepsizes(0.1, T, J)
    caps = np.full((T + 1, J + 1), 0.04)
    theta0 = np.linspace(0.5, 1.5, dim)
    identity = BiasedGradOracle(lambda th: th, caps, zero_sum_directions(q, dim), sigma=0.2)
    fresh = BiasedGradOracle(lambda th: th.copy(), caps, zero_sum_directions(q, dim), sigma=0.2)
    ends = [
        theory._simulate_rounds(o, sched, theta0, 3, np.random.default_rng(0))
        for o in (identity, fresh)
    ]
    assert np.array_equal(ends[0], ends[1])
    theta = theta0.copy()
    biased_grad(identity, 0, theta, 0, 0, np.random.default_rng(0))
    assert np.array_equal(theta, theta0)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64])
@pytest.mark.parametrize("rel_var,sigma", [(0.5, 0.0), (0.0, 0.3), (0.5, 0.3)])
def test_noise_second_moment_matches_the_assumption(rel_var, sigma, bit_generator):
    # E ||xi||^2 = M ||grad + bias||^2 + sigma^2 with equality; 10,000 draws
    # put the 5% tolerance near 9 standard errors. SFC64 is the verify
    # cases' generator (theory._case_rng), PCG64 numpy's default.
    bias = np.full((3, 4), 0.2)
    prob, oracle = _oracle(bias=bias, rel_var=rel_var, sigma=sigma)
    theta = np.full(6, 0.7)
    rng = np.random.Generator(bit_generator(17))
    exact = biased_grad(replace(oracle, rel_var=0.0, sigma=0.0), 1, theta, 0, 0, rng)
    draws = np.array(
        [biased_grad(oracle, 1, theta, 0, 0, rng) - exact for _ in range(10_000)]
    )
    second = float((draws**2).sum(axis=1).mean())
    target = rel_var * float(exact @ exact) + sigma**2
    assert abs(second - target) / target < 0.05


@pytest.mark.parametrize("shape", ["single", "stacked"])
@pytest.mark.parametrize("dim", range(1, 41))
def test_perturb_noise_scale_matches_the_summed_norm(dim, shape):
    # _perturb takes ||g + bias||^2 with einsum; its noise scale must agree
    # with the plain np.sum form to rounding, on one gradient (d,) and on
    # the kernel's (R, Q, d) stack.
    q = 2
    rng = np.random.default_rng(dim)
    size = (dim,) if shape == "single" else (5, q, dim)
    g = rng.standard_normal(size)
    directions = zero_sum_directions(q, dim)
    direction = directions[1] if shape == "single" else directions
    cap, rel_var, sigma = 0.3, 0.7, 0.2
    oracle = BiasedGradOracle(
        lambda th: th, np.zeros((1, 1)), directions, rel_var=rel_var, sigma=sigma
    )
    z = np.ones(size)
    out = theory._perturb(oracle, g.copy(), direction, cap, z)
    biased = g + math.sqrt(cap) * direction
    scale = np.sqrt(
        (rel_var * np.sum(biased * biased, axis=-1, keepdims=True) + sigma**2) / dim
    )
    assert_allclose(z, np.broadcast_to(scale, size), rtol=1e-14)
    assert np.array_equal(out, biased + z)
    # The noiseless path adds the bias and nothing else, in place.
    noiseless = replace(oracle, rel_var=0.0, sigma=0.0)
    exact = g.copy()
    assert theory._perturb(noiseless, exact, direction, cap, None) is exact
    assert np.array_equal(exact, g + math.sqrt(cap) * direction)


@pytest.mark.parametrize("rel_var,sigma", [(-0.1, 0.0), (0.0, -0.1)])
def test_oracle_rejects_negative_noise_parameters(rel_var, sigma):
    with pytest.raises(ConfigurationError):
        _oracle(rel_var=rel_var, sigma=sigma)


def test_verify_nonconvex_matches_per_call_reference():
    T, J, q, dim, n_runs = 4, 2, 3, 4, 100
    prob = NonconvexProblem(dim=dim)
    sched = constant_stepsizes(0.1, T, J)
    theta0 = np.linspace(-0.8, 0.5, dim)
    report = verify_nonconvex(
        prob, sched, q, theta0, n_runs, np.random.default_rng(5), sigma=0.2
    )
    oracle = BiasedGradOracle(
        prob.grad, np.zeros_like(sched), zero_sum_directions(q, dim), sigma=0.2
    )
    starts = []
    _reference_rounds(oracle, sched, theta0, n_runs, np.random.default_rng(5), starts.append)
    total = 0.0
    for r in range(n_runs):
        total += sum(
            float(np.sum(sched[t])) * float(np.sum(prob.grad(s[r]) ** 2))
            for t, s in enumerate(starts)
        )
    assert report.empirical == pytest.approx(total / n_runs, rel=1e-12)


def test_noise_mean_and_second_moment():
    prob, oracle = _oracle(rel_var=0.5, sigma=0.3)
    theta = np.full(6, 0.7)
    base = prob.grad(theta)
    rng = np.random.default_rng(42)
    draws = np.array(
        [biased_grad(oracle, 0, theta, 0, 0, rng) - base for _ in range(100_000)]
    )
    # Componentwise mean within 3 standard errors of zero.
    se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0)) <= 3 * se)
    second = float((draws**2).sum(axis=1).mean())
    target = 0.5 * float(base @ base) + 0.3**2
    assert abs(second - target) / target < 0.05


def test_client_based_schedule_values():
    caps = make_bias_schedule(BiasKind.CLIENT_BASED, T=1, J=1, b_start=0.0, b_end=1.0)
    assert_allclose(caps, [[0.0, 0.0], [1.0, 1.0]])
    validate_bias_schedule(BiasKind.CLIENT_BASED, caps)


def test_data_based_schedule_values():
    caps = make_bias_schedule(BiasKind.DATA_BASED, T=1, J=1, b_start=0.0, b_end=1.0)
    assert_allclose(caps, [[0.0, 1 / 3], [1 / 3, 1.0]])
    validate_bias_schedule(BiasKind.DATA_BASED, caps)


@pytest.mark.parametrize("kind", list(BiasKind))
def test_generated_schedules_pass_validation(kind):
    for t, j in [(1, 1), (3, 2), (10, 5)]:
        validate_bias_schedule(kind, make_bias_schedule(kind, t, j, 0.1, 2.0))


def test_bias_schedule_rejects_bad_range():
    with pytest.raises(ValueError):
        make_bias_schedule(BiasKind.CLIENT_BASED, 2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_bias_schedule(BiasKind.DATA_BASED, 2, 2, -0.5, 1.0)


def test_validator_rejects_nonmonotone():
    caps = make_bias_schedule(BiasKind.CLIENT_BASED, 2, 2, 0.0, 1.0)
    caps[2, :] = 0.0
    with pytest.raises(AssertionError):
        validate_bias_schedule(BiasKind.CLIENT_BASED, caps)


def test_bound_convex_zero_stepsize_is_initial_distance():
    prob = make_quadratic(5, 0.5, 2.0, seed=3)
    sched = constant_stepsizes(0.0, 4, 3)
    theta0 = prob.theta_star + np.ones(5)
    bound = bound_convex(prob, sched, np.zeros((5, 4)), 0.0, 0.0, 4, theta0)
    assert bound == pytest.approx(5.0, abs=1e-12)


def test_bound_convex_pure_contraction_closed_form():
    prob = make_quadratic(5, 0.5, 2.0, seed=3)
    alpha = 0.01
    T, J = 6, 2
    sched = constant_stepsizes(alpha, T, J)
    theta0 = prob.theta_star + np.ones(5)
    bound = bound_convex(prob, sched, np.zeros((T + 1, J + 1)), 0.0, 0.0, 4, theta0)
    expected = (1 - alpha * prob.mu / 2) ** (T * (J + 1)) * 5.0
    assert bound == pytest.approx(expected, rel=1e-12)


def test_bound_convex_monotone_in_bias():
    prob = make_quadratic(5, 0.5, 2.0, seed=3)
    sched = constant_stepsizes(0.01, 6, 2)
    theta0 = prob.theta_star + np.ones(5)
    base = make_bias_schedule(BiasKind.CLIENT_BASED, 6, 2, 0.0, 0.8)
    b1 = bound_convex(prob, sched, base, 0.0, 0.0, 4, theta0)
    b2 = bound_convex(prob, sched, 2.0 * base, 0.0, 0.0, 4, theta0)
    assert b2 > b1


def test_bound_convex_monotone_in_noise_and_distance():
    prob = make_quadratic(5, 0.5, 2.0, seed=3)
    sched = constant_stepsizes(0.01, 6, 2)
    bias = make_bias_schedule(BiasKind.CLIENT_BASED, 6, 2, 0.0, 0.8)
    near = prob.theta_star + 0.5 * np.ones(5)
    far = prob.theta_star + 2.0 * np.ones(5)
    assert bound_convex(prob, sched, bias, 0.0, 0.2, 4, near) > bound_convex(
        prob, sched, bias, 0.0, 0.0, 4, near
    )
    assert bound_convex(prob, sched, bias, 0.0, 0.0, 4, far) > bound_convex(
        prob, sched, bias, 0.0, 0.0, 4, near
    )


def test_bound_convex_stepsize_precondition_names_entry():
    prob = make_quadratic(5, 0.5, 2.0, seed=3)
    alpha = np.full((3, 3), 0.01)
    alpha[2, 1] = 1.0
    with pytest.raises(ValueError, match=r"alpha\[2,1\]"):
        bound_convex(prob, alpha, np.zeros((3, 3)), 0.0, 0.0, 4,
                     prob.theta_star + 1)


def test_bound_nonconvex_zero_stepsize():
    prob = NonconvexProblem(dim=4)
    theta0 = np.full(4, 0.8)
    sched = constant_stepsizes(0.0, 5, 3)
    assert bound_nonconvex(prob, sched, 4, theta0) == pytest.approx(
        4 * prob.value(theta0), rel=1e-12
    )
    assert bound_nonconvex(prob, sched, 4, np.zeros(4)) == 0.0


def test_bound_nonconvex_hand_expanded_cross_term():
    # T=0, J=1, constant alpha:
    # sum_j a*(a + suffix) = a*(a+2a) + a*(a+a) = 5a^2, doubled = 10a^2*L*G^2.
    prob = NonconvexProblem(dim=4)
    alpha = 0.1
    sched = constant_stepsizes(alpha, 0, 1)
    expected = 10 * alpha**2 * prob.lipschitz * prob.grad_bound**2
    assert bound_nonconvex(prob, sched, 4, np.zeros(4)) == pytest.approx(expected, rel=1e-12)
    # The noise adds sigma^2 to G^2, the oracle's second moment.
    noisy = 10 * alpha**2 * prob.lipschitz * (prob.grad_bound**2 + 0.5**2)
    assert bound_nonconvex(prob, sched, 4, np.zeros(4), 0.5) == pytest.approx(noisy, rel=1e-12)


def test_nonconvex_problem_properties():
    prob = NonconvexProblem(dim=9)
    assert prob.grad_bound == 3.0
    assert prob.f_star == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = rng.standard_normal(9) * 10
        assert np.linalg.norm(prob.grad(theta)) <= prob.grad_bound + 1e-12
        assert prob.value(theta) >= prob.f_star
    big = np.full(9, 400.0)
    assert np.isfinite(prob.value(big))


def test_verify_convex_zero_stepsize_is_equality():
    prob = make_quadratic(4, 0.5, 2.0, seed=5)
    sched = constant_stepsizes(0.0, 3, 2)
    theta0 = prob.theta_star + np.ones(4)
    report = verify_convex(
        prob, sched, np.zeros((4, 3)), 0.0, 0.0, 4, theta0, 100, np.random.default_rng(0)
    )
    assert report.empirical == pytest.approx(report.bound, abs=1e-12)
    assert report.passed


def test_verify_convex_deterministic_contraction():
    prob = make_quadratic(4, 0.5, 2.0, seed=5)
    sched = constant_stepsizes(1 / (4 * 3 * 2.0) / 2, 10, 2)
    theta0 = prob.theta_star + np.ones(4)
    report = verify_convex(
        prob, sched, np.zeros((11, 3)), 0.0, 0.0, 4, theta0, 100, np.random.default_rng(0)
    )
    assert report.passed
    assert report.empirical < 4.0


@pytest.mark.parametrize(
    "per_run,bound,message",
    [([1.0, np.inf], 5.0, "empirical mean (inf)"), ([1.0, np.nan], 5.0, "empirical mean (nan)"),
     ([1.0, 2.0], np.inf, "bound (inf)"), ([np.nan, 2.0], np.nan, "bound (nan)")],
)
def test_report_compares_only_finite_numbers(per_run, bound, message):
    # Both verifiers end here: an inf bound would pass any mean, and a nan
    # would fail against any bound.
    with pytest.raises(FloatingPointError) as caught:
        theory._report(np.array(per_run), bound)
    assert str(caught.value) == f"non-finite {message}"
    assert theory._report(np.array([1.0, 2.0]), 1.5) == theory.BoundReport(1.5, 1.5, True)


def test_verify_convex_requires_enough_runs():
    prob = make_quadratic(4, 0.5, 2.0, seed=5)
    with pytest.raises(ValueError):
        verify_convex(
            prob, constant_stepsizes(0.0, 2, 2), np.zeros((3, 3)), 0.0, 0.0, 4,
            prob.theta_star, 50, np.random.default_rng(0),
        )


@pytest.mark.parametrize("n_runs", [0, 1, 99])
def test_verify_nonconvex_requires_enough_runs(n_runs):
    with pytest.raises(ConfigurationError, match="n_runs >= 100") as caught:
        verify_nonconvex(
            NonconvexProblem(dim=4), constant_stepsizes(0.1, 2, 2), 4, np.zeros(4), n_runs,
            np.random.default_rng(0),
        )
    assert caught.value.field == "n_runs"


def _convex_case(**changes):
    fields = dict(
        name="c", dim=4, mu=0.5, lipschitz=2.0, rel_var=0.5, sigma=0.1, clients=4, rounds=3,
        local_steps=2, schedule=BiasKind.DATA_BASED, b_start=0.0, b_end=0.3, alpha=None,
        alpha_mode=theory.StepsizeMode.CONSTANT, theta0_scale=1.0, n_runs=100, seed=1,
        problem_seed=0,
    )
    return theory.ConvexCase(**{**fields, **changes})


def _nonconvex_case(**changes):
    fields = dict(
        name="n", dim=3, clients=4, rounds=3, local_steps=2, alpha=0.1, sigma=0.02,
        theta0_scale=0.4, n_runs=100, seed=2,
    )
    return theory.NonconvexCase(**{**fields, **changes})


def _quadratic():
    return make_quadratic(4, 0.5, 2.0, seed=0)


# (rule, field, a bad case, the library call that breaks the same rule). L = 2 and
# M = 0.5 in both, so the stepsize limit 1/(4(3+2M)L) is 1/32.
RULES = [
    ("mu", "mu", lambda: _convex_case(mu=3.0),
     lambda: theory.ConvexProblem(np.eye(4), np.zeros(4), 3.0, 2.0)),
    # With alpha omitted the default stepsize would divide by 3 + 2M = 0.
    ("M", "rel_var", lambda: _convex_case(rel_var=-1.5),
     lambda: bound_convex(_quadratic(), constant_stepsizes(0.01, 3, 2), np.zeros((4, 3)),
                          -1.5, 0.0, 4, np.zeros(4))),
    ("sigma", "sigma", lambda: _nonconvex_case(sigma=-0.1),
     lambda: _oracle(sigma=-0.1)),
    ("stepsize_limit", "alpha", lambda: _convex_case(alpha=5.0),
     lambda: bound_convex(_quadratic(), constant_stepsizes(5.0, 3, 2), np.zeros((4, 3)),
                          0.5, 0.0, 4, np.zeros(4))),
    ("bias_range", "b_start", lambda: _convex_case(b_start=0.6),
     lambda: make_bias_schedule(BiasKind.DATA_BASED, 3, 2, 0.6, 0.3)),
    ("cohort", "clients", lambda: _convex_case(clients=1),
     lambda: verify_convex(
         _quadratic(), constant_stepsizes(0.01, 3, 2),
         make_bias_schedule(BiasKind.DATA_BASED, 3, 2, 0.0, 0.3), 0.5, 0.0, 1, np.zeros(4),
         100, np.random.default_rng(0))),
    ("n_runs", "n_runs", lambda: _nonconvex_case(n_runs=50),
     lambda: verify_nonconvex(NonconvexProblem(dim=3), constant_stepsizes(0.1, 3, 2), 4,
                              np.zeros(3), 50, np.random.default_rng(0))),
    ("odd_cohort_dim", "dim", lambda: _convex_case(dim=1, clients=3),
     lambda: zero_sum_directions(3, 1)),
    ("nonnegative_alpha", "alpha", lambda: _nonconvex_case(alpha=-0.05),
     lambda: bound_nonconvex(NonconvexProblem(dim=3), constant_stepsizes(-0.05, 3, 2), 4,
                             np.zeros(3))),
]


@pytest.mark.parametrize("rule,field,case,library", RULES, ids=[r[0] for r in RULES])
def test_case_and_library_share_each_range_check(rule, field, case, library):
    errors = []
    for build in (case, library):
        with pytest.raises(ConfigurationError) as caught:
            build()
        errors.append(caught.value)
    assert [e.field for e in errors] == [field, field]
    assert str(errors[0]) == str(errors[1])


@pytest.mark.parametrize("alpha", [0.0, float("nan")])
def test_nonconvex_case_rejects_a_step_that_is_not_positive(alpha):
    with pytest.raises(ConfigurationError) as caught:
        _nonconvex_case(alpha=alpha)
    assert caught.value.field == "alpha"


def _one_nan(alpha):
    alpha[1, 1] = float("nan")
    return alpha


NAN_STEPSIZES = [
    ("convex_case", lambda: _convex_case(alpha=float("nan"))),
    ("bound_convex", lambda: bound_convex(
        _quadratic(), _one_nan(constant_stepsizes(0.01, 3, 2)),
        make_bias_schedule(BiasKind.DATA_BASED, 3, 2, 0.0, 0.3), 0.5, 0.01, 4, np.zeros(4))),
    ("bound_nonconvex", lambda: bound_nonconvex(
        NonconvexProblem(dim=3), _one_nan(constant_stepsizes(0.1, 3, 2)), 4, np.zeros(3))),
    ("bound_convex_inverse_round", lambda: bound_convex(
        _quadratic(), inverse_round_stepsizes(float("nan"), 3, 2),
        make_bias_schedule(BiasKind.DATA_BASED, 3, 2, 0.0, 0.3), 0.5, 0.01, 4, np.zeros(4))),
]


@pytest.mark.parametrize("build", [b for _, b in NAN_STEPSIZES], ids=[n for n, _ in NAN_STEPSIZES])
def test_nan_stepsizes_fail_as_alpha(build):
    # NaN passes every "< 0" and "<= 0" test, so it would reach the bound as nan.
    with pytest.raises(ConfigurationError) as caught:
        build()
    assert caught.value.field == "alpha"


def test_convex_case_with_zero_caps_in_its_rounds_runs_with_one_client():
    # A client schedule from B_start = 0 over T = 1 applies only its round-0
    # caps, all zero, so the cohort rule does not apply.
    case = _convex_case(clients=1, rounds=1, schedule=BiasKind.CLIENT_BASED, dim=2)
    assert case.verify().passed


def test_cases_verify_as_the_library_calls_do():
    case = _convex_case(alpha=0.02, alpha_mode=theory.StepsizeMode.INVERSE_ROUND)
    prob = make_quadratic(4, 0.5, 2.0, seed=0)
    expected = verify_convex(
        prob, inverse_round_stepsizes(0.02, 3, 2),
        make_bias_schedule(BiasKind.DATA_BASED, 3, 2, 0.0, 0.3), 0.5, 0.1**2, 4,
        prob.theta_star + 1.0, 100, theory._case_rng(1),
    )
    assert case.verify() == expected
    expected = verify_nonconvex(
        NonconvexProblem(dim=3), constant_stepsizes(0.1, 3, 2), 4, np.full(3, 0.4), 100,
        theory._case_rng(2), sigma=0.02,
    )
    assert _nonconvex_case().verify() == expected


def test_verify_convex_diminishing_stepsizes_pass():
    prob = make_quadratic(6, 0.5, 3.0, seed=2)
    alpha0 = 1 / (4 * (3 + 2 * 1.0) * 3.0)
    sched = inverse_round_stepsizes(alpha0, 10, 3)
    bias = make_bias_schedule(BiasKind.CLIENT_BASED, 10, 3, 0.0, 0.4)
    report = verify_convex(
        prob, sched, bias, 1.0, 0.1**2, 4, prob.theta_star + np.ones(6), 500,
        np.random.default_rng(7),
    )
    assert report.passed


def test_verify_convex_grid_of_settings():
    # Bounds are deterministic upper bounds: every grid point must pass.
    rng = np.random.default_rng(11)
    cases = [
        dict(mu=0.5, L=2.0, M=0.0, sigma=0.0, kind=BiasKind.CLIENT_BASED),
        dict(mu=0.5, L=2.0, M=1.0, sigma=0.1, kind=BiasKind.CLIENT_BASED),
        dict(mu=0.5, L=2.0, M=1.0, sigma=0.1, kind=BiasKind.DATA_BASED),
        dict(mu=1.0, L=4.0, M=0.5, sigma=0.3, kind=BiasKind.CLIENT_BASED),
        dict(mu=1.0, L=4.0, M=0.5, sigma=0.3, kind=BiasKind.DATA_BASED),
        dict(mu=0.2, L=1.0, M=2.0, sigma=0.05, kind=BiasKind.CLIENT_BASED),
        dict(mu=0.2, L=1.0, M=2.0, sigma=0.05, kind=BiasKind.DATA_BASED),
        dict(mu=2.0, L=8.0, M=0.0, sigma=0.5, kind=BiasKind.CLIENT_BASED),
        dict(mu=2.0, L=8.0, M=0.0, sigma=0.5, kind=BiasKind.DATA_BASED),
        dict(mu=0.5, L=4.0, M=1.0, sigma=0.1, kind=BiasKind.DATA_BASED),
    ]
    for i, case in enumerate(cases):
        prob = make_quadratic(6, case["mu"], case["L"], seed=i)
        alpha = 1 / (8 * (3 + 2 * case["M"]) * case["L"])
        sched = constant_stepsizes(alpha, 10, 3)
        bias = make_bias_schedule(case["kind"], 10, 3, 0.0, 0.4)
        report = verify_convex(
            prob, sched, bias, case["M"], case["sigma"] ** 2, 4,
            prob.theta_star + np.ones(6), 500, np.random.default_rng(100 + i),
        )
        assert report.passed, f"grid case {i}: {report.empirical} > {report.bound}"


def test_verify_nonconvex_frozen_iterates():
    # Zero stepsizes freeze the iterates and weigh every round by zero: the
    # left side is 0 and the bound is the gap term alone.
    prob = NonconvexProblem(dim=4)
    theta0 = np.full(4, 0.6)
    report = verify_nonconvex(
        prob, constant_stepsizes(0.0, 5, 3), 4, theta0, 100, np.random.default_rng(0), sigma=0.3
    )
    assert report.empirical == 0.0
    assert report.bound == pytest.approx(4 * prob.value(theta0), rel=1e-12)


def test_verify_nonconvex_weights_each_round_by_its_stepsizes():
    # Without noise every run is gradient descent on tanh, the same in each
    # client: round t adds (sum_j alpha(t, j)) ||tanh(theta_t)||^2, and the
    # final average adds nothing.
    prob = NonconvexProblem(dim=3)
    sched = inverse_round_stepsizes(0.4, 4, 2)
    theta = np.array([1.5, -0.4, 0.8])
    report = verify_nonconvex(prob, sched, 2, theta, 100, np.random.default_rng(0))
    expected = 0.0
    for t in range(4):
        expected += float(np.sum(sched[t])) * float(np.sum(np.tanh(theta) ** 2))
        for j in range(3):
            theta = theta - sched[t, j] * np.tanh(theta)
    assert report.empirical == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.001, 0.02, 0.05, 0.5])
@pytest.mark.parametrize("sigma", [0.0, 0.05, 3.0, 20.0])
@pytest.mark.parametrize("theta0", [0.0, 0.4, 3.0])
def test_verify_nonconvex_passes_on_the_correct_simulator(alpha, sigma, theta0):
    # The shipped case's shape with one stepsize, noise level and start
    # each. A small alpha failed while the left side was not weighted by the
    # stepsizes, and a large sigma while G^2 left out the noise.
    prob = NonconvexProblem(dim=4)
    report = verify_nonconvex(
        prob, constant_stepsizes(alpha, 20, 5), 4, np.full(4, theta0), 100,
        np.random.default_rng(202207), sigma=sigma,
    )
    assert report.passed, (report.empirical, report.bound)


def test_verify_nonconvex_at_minimizer():
    prob = NonconvexProblem(dim=4)
    report = verify_nonconvex(
        prob, constant_stepsizes(0.0, 5, 3), 4, np.zeros(4), 100, np.random.default_rng(0)
    )
    assert report.empirical == 0.0
    assert report.bound == 0.0
    assert report.passed


def test_verify_nonconvex_monte_carlo_passes():
    prob = NonconvexProblem(dim=4)
    sched = constant_stepsizes(0.05, 20, 5)
    report = verify_nonconvex(
        prob, sched, 4, np.full(4, 0.4), 200, np.random.default_rng(3), sigma=0.05
    )
    assert report.passed


def test_curriculum_ordered_bias_beats_reversed_under_diminishing_steps():
    # Front-loading the small caps where the stepsizes are large gives a
    # strictly smaller bound than the reversed (large-first) ordering.
    prob = make_quadratic(8, 0.5, 4.0, seed=5)
    sched = inverse_round_stepsizes(1 / (8 * 5 * 4.0), 20, 5)
    forward = make_bias_schedule(BiasKind.DATA_BASED, 20, 5, 0.0, 0.5)
    reversed_values = forward[::-1, ::-1].copy()
    theta0 = prob.theta_star + np.ones(8)
    b_fwd = bound_convex(prob, sched, forward, 1.0, 0.01, 4, theta0)
    b_rev = bound_convex(prob, sched, reversed_values, 1.0, 0.01, 4, theta0)
    assert b_fwd < b_rev
