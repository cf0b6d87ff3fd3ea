"""Local SGD with explicitly constructed biased stochastic gradients, and
closed-form evaluators for the strongly-convex and nonconvex error bounds.

The gradient oracle realizes a per-client bias of exactly the scheduled
squared norm through a fixed family of unit directions that sums to zero
over the cohort, plus zero-mean Gaussian noise with second moment exactly
M * ||grad + bias||^2 + sigma^2. The noise is one scaled draw,
sqrt(M ||grad + bias||^2 + sigma^2) z with z ~ N(0, I/d): the sum of a
relative and an additive Gaussian term has that law, so one standard normal
per coordinate suffices. Monte-Carlo verification averages many
simulated trajectories and checks them against the evaluated bound; the
bounds are deterministic upper bounds, so a failure indicates a bug rather
than bad luck.

Index conventions: a schedule matrix has shape (T+1, J+1); one round runs
local steps j = 0..J. The simulators execute rounds t = 0..T-1 (so the
measured endpoint is the round-T starting average), while the convex bound
consumes rows 1..T of the schedules and the nonconvex bound rows 0..T. The
nonconvex left side weights the squared gradient norm at the start of each
round t < T by that round's total stepsize, the sum of row t.

Batching: a verifier steps all of its R = n_runs trajectories at once. The
iterates of every run and client form one (R, Q, d) array, and each local
step (t, j) is one array update. All runs share the case's one generator,
numpy's SFC64 seeded by the case's ``seed`` (``_case_rng``): each step
draws the noise of every run in one call, in the order (t, j, run, client,
coordinate), into one reused (R, Q, d) array, so a case holds R Q d noise
values at once. A case's numbers thus depend on its seed and on all of its
sizes, n_runs included: the first k runs of an R-run case are not a k-run
case.

Verify cases: ``ConvexCase`` and ``NonconvexCase`` describe one case of a
verification grid, and ``verify()`` builds its problem, stepsizes, bias and
start point and runs the verifier. Each range rule has one check that
raises ``ConfigurationError`` naming the field at fault. The library
functions call these checks, and building a case runs the ones its
``verify()`` would meet, so a bad case fails before any case runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar

import numpy as np

from .errors import ConfigurationError


class BiasKind(Enum):
    CLIENT_BASED = "client"  # grows across rounds, constant within a round
    DATA_BASED = "data"  # grows within rounds, continuous at round boundaries


def _check_curvature(mu: float, lipschitz: float) -> None:
    if not 0 < mu <= lipschitz:
        raise ConfigurationError(f"need 0 < mu <= L, got mu = {mu}, L = {lipschitz}", field="mu")


def _check_noise(rel_var: float, sigma: float) -> None:
    """M >= 0 and sigma >= 0; a caller that holds sigma^2 passes that."""
    if not rel_var >= 0:
        raise ConfigurationError(f"need M >= 0, got {rel_var}", field="rel_var")
    if not sigma >= 0:
        raise ConfigurationError(f"need sigma >= 0, got {sigma}", field="sigma")


def _check_convex_stepsizes(alpha: np.ndarray, lipschitz: float, rel_var: float) -> None:
    """The convex bound admits stepsizes up to 1/(4(3+2M)L), widened by a
    relative 1e-12 so that a stepsize computed to the limit passes."""
    limit = 1.0 / (4.0 * (3.0 + 2.0 * rel_var) * lipschitz) * (1 + 1e-12)
    bad = np.argwhere(alpha > limit)
    if len(bad):
        t, j = (int(v) for v in bad[0])
        raise ConfigurationError(
            f"stepsize alpha[{t},{j}] = {alpha[t, j]:g} exceeds 1/(4(3+2M)L) = {limit:g}",
            field="alpha",
        )


def _check_cohort(num_clients: int, caps: float | np.ndarray) -> None:
    """A positive bias cap (a float or an array of them) needs a zero-sum
    family, so a cohort of at least 2 clients."""
    if num_clients < 2 and np.any(caps > 0):
        raise ConfigurationError(
            "a zero-sum bias needs a cohort of at least 2 clients", field="clients"
        )


def _check_directions(num_clients: int, dim: int) -> None:
    # zero_sum_directions lays an odd cohort of 3 or more out in a plane.
    if num_clients % 2 == 1 and num_clients > 1 and dim < 2:
        raise ConfigurationError("an odd cohort of 3 or more clients needs dim >= 2", field="dim")


def _check_runs(n_runs: int) -> None:
    if n_runs < 100:
        raise ConfigurationError(
            f"need n_runs >= 100 for a meaningful average, got {n_runs}", field="n_runs"
        )


def make_bias_schedule(
    kind: BiasKind, T: int, J: int, b_start: float, b_end: float
) -> np.ndarray:
    """The (T+1, J+1) matrix of squared-norm bias caps, growing linearly from
    b_start to b_end over the (t, j) grid: by round for a client-based
    schedule (constant within a round), by local step for a data-based one
    (continuous at round boundaries)."""
    if not 0 <= b_start < b_end:
        raise ConfigurationError(
            f"need 0 <= B_start < B_end, got {b_start} and {b_end}", field="b_start"
        )
    if kind is BiasKind.CLIENT_BASED:
        if T < 1:
            raise ConfigurationError("client-based schedule needs T >= 1", field="rounds")
        rows = b_start + (b_end - b_start) * np.arange(T + 1) / T
        values = np.repeat(rows[:, None], J + 1, axis=1)
    else:
        if J < 1:
            raise ConfigurationError("data-based schedule needs J >= 1", field="local_steps")
        flat_max = (T + 1) * (J + 1) - 1
        values = (
            b_start + (b_end - b_start) * np.arange(flat_max + 1) / flat_max
        ).reshape(T + 1, J + 1)
        for t in range(1, T + 1):
            values[t, 0] = values[t - 1, J]
    return values


def zero_sum_directions(num_clients: int, dim: int) -> np.ndarray:
    """Unit-norm direction per client whose running sum cancels exactly in
    floating point: an equilateral planar triple when the count is odd,
    then +/- basis-vector pairs."""
    _check_directions(num_clients, dim)
    dirs = np.zeros((num_clients, dim))
    if num_clients == 1:
        return dirs
    i = 0
    axis = 0
    if num_clients % 2 == 1:
        s = math.sqrt(3.0) / 2.0
        dirs[0, 0] = 1.0
        dirs[1, 0], dirs[1, 1] = -0.5, s
        dirs[2, 0], dirs[2, 1] = -0.5, -s
        i, axis = 3, 2 % dim
    while i < num_clients:
        a = axis % dim
        dirs[i, a] = 1.0
        dirs[i + 1, a] = -1.0
        i += 2
        axis += 1
    return dirs


@dataclass
class BiasedGradOracle:
    """Gradient oracle g = grad(theta) + bias_k + noise with a zero-sum,
    norm-capped bias per client and relative-plus-additive noise. The noise
    of one call is sqrt(M ||grad + bias_k||^2 + sigma^2) z with z ~ N(0, I/d),
    one standard normal per coordinate."""

    grad_fn: Callable[[np.ndarray], np.ndarray]
    bias_values: np.ndarray  # (T+1, J+1) squared-norm caps
    directions: np.ndarray  # (num_clients, dim) zero-sum unit family
    rel_var: float = 0.0  # M: relative variance coefficient
    sigma: float = 0.0  # additive noise scale

    def __post_init__(self):
        _check_noise(self.rel_var, self.sigma)

    @property
    def num_clients(self) -> int:
        return self.directions.shape[0]


def _perturb(
    oracle: BiasedGradOracle,
    g: np.ndarray,
    directions: np.ndarray,
    cap: float,
    z: np.ndarray | None,
) -> np.ndarray:
    """The oracle formula applied in place to exact gradients ``g`` of shape
    (..., d), which the caller owns (``_fresh_grad``): add the bias
    sqrt(cap) * directions, then the noise sqrt((M ||g + bias||^2 + sigma^2) / d) z.
    ``z`` holds one standard normal per coordinate, shape (..., d), and is
    None for a noiseless oracle; the 1/sqrt(d) of z ~ N(0, I/d) is folded
    into the scale. ``z`` is scaled in place too. The squared norm is one
    ``einsum`` over the last axis, which numpy runs faster than
    ``np.sum(g * g, axis=-1)`` on a short axis; the two agree to rounding,
    not bit for bit. Returns ``g``."""
    if cap > 0:
        _check_cohort(oracle.num_clients, cap)
        g += math.sqrt(cap) * directions
    if z is not None:
        norm2 = np.einsum("...i,...i->...", g, g)[..., None]
        var = oracle.rel_var * norm2 + oracle.sigma * oracle.sigma
        var /= g.shape[-1]
        z *= np.sqrt(var, out=var)
        g += z
    return g


def _fresh_grad(oracle: BiasedGradOracle, theta: np.ndarray) -> np.ndarray:
    """``grad_fn(theta)`` as a float64 array that ``_perturb`` may overwrite:
    copied when ``grad_fn`` hands back ``theta`` itself, a view of it, or an
    array it may not write."""
    g = oracle.grad_fn(theta)
    if (
        not isinstance(g, np.ndarray)
        or g.dtype != np.float64
        or not g.flags.writeable
        or np.may_share_memory(g, theta)
    ):
        g = np.array(g, dtype=np.float64)
    return g


def _noisy(oracle: BiasedGradOracle) -> bool:
    return oracle.rel_var > 0 or oracle.sigma > 0


def biased_grad(
    oracle: BiasedGradOracle,
    k: int,
    theta: np.ndarray,
    t: int,
    j: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One stochastic gradient draw for client k at local step (t, j)."""
    z = None
    if _noisy(oracle):
        z = rng.standard_normal(theta.shape[0])
    g = _fresh_grad(oracle, theta)
    return _perturb(oracle, g, oracle.directions[k], float(oracle.bias_values[t, j]), z)


@dataclass
class ConvexProblem:
    """Quadratic 0.5 (theta - theta*)^T A (theta - theta*) with spectrum
    inside [mu, L]."""

    matrix: np.ndarray
    theta_star: np.ndarray
    mu: float
    L: float

    def __post_init__(self):
        _check_curvature(self.mu, self.L)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        """Gradient at one point (d,) or at each row of a batch (..., d)."""
        return (theta - self.theta_star) @ self.matrix.T


def make_quadratic(dim: int, mu: float, L: float, seed: int = 0) -> ConvexProblem:
    """Random-rotation quadratic with eigenvalues spread linearly in [mu, L]."""
    rng = np.random.default_rng(seed)
    eigs = np.linspace(mu, L, dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = q @ np.diag(eigs) @ q.T
    a = 0.5 * (a + a.T)
    return ConvexProblem(matrix=a, theta_star=rng.standard_normal(dim), mu=mu, L=L)


@dataclass
class NonconvexProblem:
    """Separable log-cosh objective: smooth, bounded gradient, lower bounded."""

    dim: int

    @property
    def grad_bound(self) -> float:  # uniform bound on ||grad f||
        return math.sqrt(self.dim)

    @property
    def lipschitz(self) -> float:
        return 1.0

    @property
    def f_star(self) -> float:
        return 0.0

    def value(self, theta: np.ndarray) -> float:
        ax = np.abs(theta)
        return float(np.sum(ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return np.tanh(theta)


def constant_stepsizes(alpha: float, T: int, J: int) -> np.ndarray:
    """The (T+1, J+1) stepsize matrix alpha(t, j) = alpha."""
    return np.full((T + 1, J + 1), alpha)


def inverse_round_stepsizes(alpha0: float, T: int, J: int) -> np.ndarray:
    """The (T+1, J+1) stepsize matrix alpha(t, j) = alpha0 / (t + 1):
    diminishing across rounds."""
    rows = alpha0 / (np.arange(T + 1) + 1.0)
    return np.repeat(rows[:, None], J + 1, axis=1)


def _stepsize_matrix(alpha: np.ndarray) -> np.ndarray:
    """``alpha`` as a float (T+1, J+1) matrix; each stepsize must be >= 0."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 2 or not np.all(alpha >= 0):
        raise ConfigurationError("stepsizes must be a nonnegative (T+1, J+1) matrix", field="alpha")
    return alpha


def _bias_matrix(bias: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The caps ``bias`` as a float (T+1, J+1) matrix. Each must be >= 0: the
    oracle applies no bias for a cap <= 0, so a bound that used a negative
    cap would not bound the simulated runs."""
    values = np.asarray(bias, dtype=np.float64)
    if values.shape != shape:
        raise ConfigurationError(
            f"bias schedule shape {values.shape} != stepsize shape {shape}", field="bias"
        )
    bad = np.argwhere(~(values >= 0))
    if len(bad):
        t, j = (int(v) for v in bad[0])
        raise ConfigurationError(
            f"bias cap bias[{t},{j}] = {values[t, j]:g}, need >= 0", field="bias"
        )
    return values


def bound_convex(
    prob: ConvexProblem,
    alpha: np.ndarray,
    bias: np.ndarray,
    rel_var: float,
    sigma2: float,
    num_clients: int,
    theta0: np.ndarray,
) -> float:
    """Right-hand side of the strongly convex distance bound.

    contraction * ||theta0 - theta*||^2
      + sum 2 a^2 (L (3+2M) B + 3 sigma^2) / Q
      + sum 2 a L B^2 / (mu Q)
    with the contraction product and both sums running over rounds 1..T and
    local steps 0..J.
    """
    alpha = _stepsize_matrix(alpha)
    _check_noise(rel_var, sigma2)
    _check_convex_stepsizes(alpha, prob.L, rel_var)
    values = _bias_matrix(bias, alpha.shape)
    a = alpha[1:, :]
    b = values[1:, :]
    d0 = float(np.sum((theta0 - prob.theta_star) ** 2))
    contraction = float(np.prod(1.0 - a * prob.mu / 2.0))
    term_var = float(np.sum(2.0 * a**2 * (prob.L * (3.0 + 2.0 * rel_var) * b + 3.0 * sigma2)))
    term_bias = float(np.sum(2.0 * a * prob.L * b**2)) / prob.mu
    return contraction * d0 + term_var / num_clients + term_bias / num_clients


def bound_nonconvex(
    prob: NonconvexProblem,
    alpha: np.ndarray,
    num_clients: int,
    theta0: np.ndarray,
    sigma: float = 0.0,
) -> float:
    """Right-hand side of the nonconvex ergodic bound:
    Q (f(theta0) - f*) + 2 sum a (a + suffix-sum of a) L G^2 over all (t, j).
    G^2 bounds the second moment of a stochastic gradient, E||grad f + xi||^2
    = ||grad f||^2 + sigma^2 <= dim + sigma^2 for the additive-noise oracle."""
    alpha = _stepsize_matrix(alpha)
    _check_noise(0.0, sigma)
    suffix = np.cumsum(alpha[:, ::-1], axis=1)[:, ::-1]
    cross = float(np.sum(alpha * (alpha + suffix)))
    gap = prob.value(theta0) - prob.f_star
    second_moment = prob.grad_bound**2 + sigma * sigma
    return num_clients * gap + 2.0 * cross * prob.lipschitz * second_moment


@dataclass
class BoundReport:
    empirical: float
    bound: float
    passed: bool


def _report(per_run: np.ndarray, bound: float) -> BoundReport:
    """The mean of the per-run values against the bound. The mean sums the
    runs one by one, in run order, to keep report.csv's digits. A bound or
    mean that is not finite raises FloatingPointError, so that every
    comparison made is between finite numbers."""
    total = 0.0
    for value in per_run:
        total += float(value)
    empirical = total / len(per_run)
    for name, value in (("bound", bound), ("empirical mean", empirical)):
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite {name} ({value})")
    return BoundReport(empirical=empirical, bound=bound, passed=empirical <= bound)


def _simulate_rounds(
    oracle: BiasedGradOracle,
    alpha: np.ndarray,
    theta0: np.ndarray,
    n_runs: int,
    rng: np.random.Generator,
    on_round_start: Callable[[np.ndarray], None] | None = None,
) -> np.ndarray:
    """Full-participation Local SGD for R = n_runs independent runs at
    once: rounds t = 0..T-1 of J+1 steps each, with the (T+1, J+1)
    stepsizes ``alpha``, averaging the cohort after every round. Returns
    the (R, d) final averages.

    The iterates are one C-contiguous (R, Q, d) array, and ``grad_fn`` gets
    its (R Q, d) view, so a quadratic's gradient is one 2-D product per
    step. For Q = 1 it gets the (R, 1, d) array instead: numpy takes that
    stacked product as one vector-matrix product per run, whose rounding a
    2-D product does not repeat. ``_perturb`` adds bias and noise in place
    on that fresh gradient, which is then scaled by the stepsize in place
    and subtracted.

    All runs draw their noise from ``rng``: each step (t, j) fills one
    C-contiguous (R, Q, d) array with one standard normal per coordinate,
    so the draw order is (t, j, run, client, coordinate).

    The cohort average is ((theta_0 + theta_1) + ...) / Q, one client column
    at a time, the order ``mean(axis=1)`` sums in; for Q = 1 it is a copy of
    the one column. ``on_round_start`` sees the (R, d) averages at the start
    of every round, each a new array."""
    q, dim = oracle.directions.shape
    rounds, steps = alpha.shape[0] - 1, alpha.shape[1]
    theta_hat = np.tile(theta0, (n_runs, 1))
    thetas = np.empty((n_runs, q, dim))
    points = thetas.reshape(n_runs * q, dim) if q > 1 else thetas
    z = np.empty((n_runs, q, dim)) if _noisy(oracle) else None
    for t in range(rounds):
        if on_round_start is not None:
            on_round_start(theta_hat)
        thetas[...] = theta_hat[:, None, :]
        for j in range(steps):
            g = _fresh_grad(oracle, points).reshape(n_runs, q, dim)
            if z is not None:
                rng.standard_normal(out=z)
            _perturb(oracle, g, oracle.directions, float(oracle.bias_values[t, j]), z)
            g *= alpha[t, j]
            thetas -= g
        theta_hat = thetas[:, 0].copy()
        for k in range(1, q):
            theta_hat += thetas[:, k]
        if q > 1:
            theta_hat /= q
    return theta_hat


def verify_convex(
    prob: ConvexProblem,
    alpha: np.ndarray,
    bias: np.ndarray,
    rel_var: float,
    sigma2: float,
    num_clients: int,
    theta0: np.ndarray,
    n_runs: int,
    rng: np.random.Generator,
) -> BoundReport:
    """Monte-Carlo check that the mean squared distance of the simulated
    endpoint stays below the evaluated convex bound. A bound or mean that is
    not finite raises FloatingPointError (``_report``); the floating-point
    warnings on the way would only repeat it, so they are silenced."""
    _check_runs(n_runs)
    with np.errstate(all="ignore"):
        bound = bound_convex(prob, alpha, bias, rel_var, sigma2, num_clients, theta0)
        oracle = BiasedGradOracle(
            grad_fn=prob.grad,
            bias_values=_bias_matrix(bias, alpha.shape),
            directions=zero_sum_directions(num_clients, theta0.shape[0]),
            rel_var=rel_var,
            sigma=math.sqrt(sigma2),
        )
        endpoints = _simulate_rounds(oracle, alpha, theta0, n_runs, rng)
        return _report(np.sum((endpoints - prob.theta_star) ** 2, axis=1), bound)


def verify_nonconvex(
    prob: NonconvexProblem,
    alpha: np.ndarray,
    num_clients: int,
    theta0: np.ndarray,
    n_runs: int,
    rng: np.random.Generator,
    sigma: float = 0.0,
) -> BoundReport:
    """Monte-Carlo check of the ergodic bound: per run the stepsize-weighted
    sum over rounds t < T of (sum_j alpha(t, j)) ||grad f(theta_hat_t)||^2,
    the squared gradient norm at each round's start, averaged over runs and
    compared with ``bound_nonconvex``. Gradients carry additive noise only;
    bias is off.

    The weights are those of the standard nonconvex SGD and Local-SGD
    results (Ghadimi & Lan 2013; Stich 2019; Koloskova et al. 2020): summing
    the descent lemma over the steps bounds each round's decrease by its
    total stepsize times the squared gradient norm. An unweighted left side
    is no valid inequality: as alpha -> 0 the right side tends to
    Q (f(theta0) - f*), while an unweighted sum tends to T (J+1)
    ||grad f(theta0)||^2, which can be far larger; the weighted sum tends to
    0. The right side's G^2 must bound the oracle's second moment, so the
    noise enters it as sigma^2 (see ``bound_nonconvex``); without it, a
    large sigma breaks the check on a correct simulator. Non-finite values
    fail as in ``verify_convex``."""
    _check_runs(n_runs)
    weights = iter(alpha[:-1].sum(axis=1))  # sum_j alpha(t, j) of rounds t < T
    acc = np.zeros(n_runs)  # per-run weighted sum of round-start squared norms

    def record(theta_hat: np.ndarray) -> None:
        acc[:] += next(weights) * np.sum(prob.grad(theta_hat) ** 2, axis=1)

    with np.errstate(all="ignore"):
        bound = bound_nonconvex(prob, alpha, num_clients, theta0, sigma)
        oracle = BiasedGradOracle(
            grad_fn=prob.grad,
            bias_values=np.zeros_like(alpha),
            directions=np.zeros((num_clients, theta0.shape[0])),  # every cap is 0: never read
            sigma=sigma,
        )
        _simulate_rounds(oracle, alpha, theta0, n_runs, rng, on_round_start=record)
        return _report(acc, bound)


def _case_rng(seed: int) -> np.random.Generator:
    """A verify case's one generator: SFC64 seeded by the case's ``seed``.
    SFC64 draws the normals of a local step faster than PCG64."""
    return np.random.Generator(np.random.SFC64(seed))


class StepsizeMode(Enum):
    CONSTANT = "constant"
    INVERSE_ROUND = "inverse_round"  # alpha / (t + 1)


@dataclass
class ConvexCase:
    """A strongly convex case: a random quadratic with spectrum in [mu, L],
    a bias schedule from B_start to B_end, and Local SGD started at
    theta* + theta0_scale * (1, ..., 1)."""

    kind: ClassVar[str] = "convex"

    name: str
    dim: int
    mu: float
    lipschitz: float
    rel_var: float
    sigma: float
    clients: int
    rounds: int
    local_steps: int
    schedule: BiasKind
    b_start: float
    b_end: float
    alpha: float | None  # None means the default 1/(8(3+2M)L)
    alpha_mode: StepsizeMode
    theta0_scale: float
    n_runs: int
    seed: int
    problem_seed: int

    def __post_init__(self):
        # M before the default stepsize divides by 3 + 2M, sigma before
        # verify() squares it.
        _check_curvature(self.mu, self.lipschitz)
        _check_noise(self.rel_var, self.sigma)
        if self.alpha is not None and not self.alpha > 0:
            raise ConfigurationError("alpha must be > 0; omit it for the default", field="alpha")
        _check_convex_stepsizes(self._stepsizes(), self.lipschitz, self.rel_var)
        # Only the caps of the rounds a run takes (t < T) reach the oracle.
        _check_cohort(self.clients, self._bias()[:-1])
        _check_runs(self.n_runs)
        _check_directions(self.clients, self.dim)

    def _stepsizes(self) -> np.ndarray:
        alpha = self.alpha
        if alpha is None:
            alpha = 1.0 / (8.0 * (3.0 + 2.0 * self.rel_var) * self.lipschitz)
        if self.alpha_mode is StepsizeMode.CONSTANT:
            return constant_stepsizes(alpha, self.rounds, self.local_steps)
        return inverse_round_stepsizes(alpha, self.rounds, self.local_steps)

    def _bias(self) -> np.ndarray:
        return make_bias_schedule(
            self.schedule, self.rounds, self.local_steps, self.b_start, self.b_end
        )

    def verify(self) -> BoundReport:
        prob = make_quadratic(self.dim, self.mu, self.lipschitz, self.problem_seed)
        return verify_convex(
            prob, self._stepsizes(), self._bias(), self.rel_var, self.sigma * self.sigma,
            self.clients, prob.theta_star + self.theta0_scale * np.ones(self.dim), self.n_runs,
            _case_rng(self.seed),
        )


@dataclass
class NonconvexCase:
    """A nonconvex case: log-cosh in ``dim`` coordinates, a constant
    stepsize, additive noise only, and Local SGD started at
    theta0_scale * (1, ..., 1)."""

    kind: ClassVar[str] = "nonconvex"
    schedule: ClassVar[None] = None  # the oracle adds no bias

    name: str
    dim: int
    clients: int
    rounds: int
    local_steps: int
    alpha: float
    sigma: float
    theta0_scale: float
    n_runs: int
    seed: int

    def __post_init__(self):
        _check_noise(0.0, self.sigma)
        _stepsize_matrix(self._stepsizes())  # alpha >= 0, as the library checks it
        if not self.alpha > 0:  # a zero step never moves theta0
            raise ConfigurationError("alpha must be > 0", field="alpha")
        _check_runs(self.n_runs)

    def _stepsizes(self) -> np.ndarray:
        return constant_stepsizes(self.alpha, self.rounds, self.local_steps)

    def verify(self) -> BoundReport:
        return verify_nonconvex(
            NonconvexProblem(dim=self.dim), self._stepsizes(), self.clients,
            self.theta0_scale * np.ones(self.dim), self.n_runs,
            _case_rng(self.seed), sigma=self.sigma,
        )
