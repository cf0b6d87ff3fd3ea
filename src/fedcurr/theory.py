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
consumes rows 1..T of the schedules and the nonconvex bound rows 0..T.

Batching: a verifier steps all of its R = n_runs trajectories at once. The
iterates of every run and client form one (R, Q, d) array, and each local
step (t, j) is one array update. Run r still draws its noise only from its
own child generator r of ``rng.spawn(n_runs)``, in the order of the per-call
oracle: steps (t, j), then clients k, d normals each. Noise is drawn two
rounds per run and call, so a case holds 2 R (J+1) Q d noise values at once.

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
from typing import Callable, ClassVar, Sequence

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
    into the scale. ``z`` is scaled in place too. Returns ``g``."""
    if cap > 0:
        _check_cohort(oracle.num_clients, cap)
        g += math.sqrt(cap) * directions
    if z is not None:
        var = oracle.rel_var * np.sum(g * g, axis=-1, keepdims=True) + oracle.sigma**2
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

    def value(self, theta: np.ndarray) -> float:
        d = theta - self.theta_star
        return 0.5 * float(d @ self.matrix @ d)

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
    if alpha.ndim != 2 or np.any(alpha < 0):
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
) -> float:
    """Right-hand side of the nonconvex ergodic bound:
    Q (f(theta0) - f*) + 2 sum a (a + suffix-sum of a) L G^2 over all (t, j)."""
    alpha = _stepsize_matrix(alpha)
    suffix = np.cumsum(alpha[:, ::-1], axis=1)[:, ::-1]
    cross = float(np.sum(alpha * (alpha + suffix)))
    gap = prob.value(theta0) - prob.f_star
    return num_clients * gap + 2.0 * cross * prob.lipschitz * prob.grad_bound**2


@dataclass
class BoundReport:
    empirical: float
    bound: float
    passed: bool


# Rounds of noise one draw call fills per run: k rounds hold the noise buffer
# at k (R, J+1, Q, d) blocks and take 1/k of the per-run calls.
_NOISE_ROUNDS = 2


def _simulate_rounds(
    oracle: BiasedGradOracle,
    alpha: np.ndarray,
    theta0: np.ndarray,
    rngs: Sequence[np.random.Generator],
    on_round_start: Callable[[np.ndarray], None] | None = None,
) -> np.ndarray:
    """Full-participation Local SGD for R = len(rngs) independent runs at
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

    Run r draws its noise from ``rngs[r]`` alone, in the per-call order
    (t, j, k, coordinate), one standard normal per coordinate of each
    oracle call. One call fills up to ``_NOISE_ROUNDS`` rounds of it into an
    (R, _NOISE_ROUNDS, J+1, Q, d) buffer, the last call only the rounds
    left; the stream is the one per-round calls would give.

    The cohort average is ((theta_0 + theta_1) + ...) / Q, one client column
    at a time, the order ``mean(axis=1)`` sums in; for Q = 1 it is a copy of
    the one column. ``on_round_start`` sees the (R, d) averages at the start
    of every round and at the end, each a new array."""
    q, dim = oracle.directions.shape
    runs = len(rngs)
    rounds, steps = alpha.shape[0] - 1, alpha.shape[1]
    theta_hat = np.tile(theta0, (runs, 1))
    thetas = np.empty((runs, q, dim))
    points = thetas.reshape(runs * q, dim) if q > 1 else thetas
    noise = None
    if _noisy(oracle):
        noise = np.empty((runs, _NOISE_ROUNDS, steps, q, dim))
    for t in range(rounds):
        if on_round_start is not None:
            on_round_start(theta_hat)
        block = t % _NOISE_ROUNDS
        if noise is not None and block == 0:
            n = min(_NOISE_ROUNDS, rounds - t)
            for r, child in enumerate(rngs):
                child.standard_normal(out=noise[r, :n])
        thetas[...] = theta_hat[:, None, :]
        for j in range(steps):
            g = _fresh_grad(oracle, points).reshape(runs, q, dim)
            z = None if noise is None else noise[:, block, j]
            _perturb(oracle, g, oracle.directions, float(oracle.bias_values[t, j]), z)
            g *= alpha[t, j]
            thetas -= g
        theta_hat = thetas[:, 0].copy()
        for k in range(1, q):
            theta_hat += thetas[:, k]
        if q > 1:
            theta_hat /= q
    if on_round_start is not None:
        on_round_start(theta_hat)
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
    endpoint stays below the evaluated convex bound."""
    _check_runs(n_runs)
    bound = bound_convex(prob, alpha, bias, rel_var, sigma2, num_clients, theta0)
    values = _bias_matrix(bias, alpha.shape)
    oracle = BiasedGradOracle(
        grad_fn=prob.grad,
        bias_values=values,
        directions=zero_sum_directions(num_clients, theta0.shape[0]),
        rel_var=rel_var,
        sigma=math.sqrt(sigma2),
    )
    endpoints = _simulate_rounds(oracle, alpha, theta0, rng.spawn(n_runs))
    total = 0.0  # summed run by run, in spawn order, to keep report.csv's digits
    for dist2 in np.sum((endpoints - prob.theta_star) ** 2, axis=1):
        total += float(dist2)
    empirical = total / n_runs
    return BoundReport(empirical=empirical, bound=bound, passed=empirical <= bound)


def verify_nonconvex(
    prob: NonconvexProblem,
    alpha: np.ndarray,
    num_clients: int,
    theta0: np.ndarray,
    n_runs: int,
    rng: np.random.Generator,
    sigma: float = 0.0,
) -> BoundReport:
    """Monte-Carlo check of the ergodic bound: the (J+1)-weighted sum of
    squared round-start gradient norms against the nonconvex right-hand
    side. Gradients carry additive noise only; bias is off."""
    _check_runs(n_runs)
    bound = bound_nonconvex(prob, alpha, num_clients, theta0)
    oracle = BiasedGradOracle(
        grad_fn=prob.grad,
        bias_values=np.zeros_like(alpha),
        directions=zero_sum_directions(num_clients, theta0.shape[0]),
        sigma=sigma,
    )
    multiplier = alpha.shape[1]  # J + 1
    acc = np.zeros(n_runs)  # per-run weighted sum of round-start squared norms

    def record(theta_hat: np.ndarray) -> None:
        acc[:] += multiplier * np.sum(prob.grad(theta_hat) ** 2, axis=1)

    _simulate_rounds(oracle, alpha, theta0, rng.spawn(n_runs), on_round_start=record)
    total = 0.0  # summed run by run, in spawn order, to keep report.csv's digits
    for run_total in acc:
        total += float(run_total)
    empirical = total / n_runs
    return BoundReport(empirical=empirical, bound=bound, passed=empirical <= bound)


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
        if self.alpha is not None and self.alpha <= 0:
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
            prob, self._stepsizes(), self._bias(), self.rel_var, self.sigma**2, self.clients,
            prob.theta_star + self.theta0_scale * np.ones(self.dim), self.n_runs,
            np.random.default_rng(self.seed),
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
        _check_directions(self.clients, self.dim)

    def _stepsizes(self) -> np.ndarray:
        return constant_stepsizes(self.alpha, self.rounds, self.local_steps)

    def verify(self) -> BoundReport:
        return verify_nonconvex(
            NonconvexProblem(dim=self.dim), self._stepsizes(), self.clients,
            self.theta0_scale * np.ones(self.dim), self.n_runs,
            np.random.default_rng(self.seed), sigma=self.sigma,
        )
