"""Step-search SQP with exact constraints and noisy objective oracles.

Solves min f(x) subject to c(x) = 0. Each iteration draws a noisy
gradient, computes a Newton-KKT direction d from

    [ I  J^T ] [ d ]     [ gbar ]
    [ J   0  ] [ y ] = - [  c   ]

(the model Hessian is the identity), updates the l1-merit penalty
parameter tau so that the predicted merit reduction

    delta_l = -tau * gbar'd + ||c||_1

dominates tau * d'd + sigma * ||c||_1, then tests a single
trial point x + alpha*d with a noise-relaxed sufficient-decrease
condition on the sampled merit tau * fbar + ||c||_1. Acceptance moves
the iterate and grows alpha (capped at alpha_max); rejection keeps the
iterate, shrinks alpha, and the next iteration recomputes a direction
from fresh samples. Constraint values and the termination diagnostics
(exact-gradient least-squares KKT residual, infinity-norm
infeasibility) are exact and never consume oracle budget.

Each exact quantity is evaluated once per point. f and c are evaluated
once at each trial point; on acceptance those values become the new
iterate's, so only grad f and J are evaluated there. The oracle samples
add fresh noise to the exact f and grad f the loop holds, and the same
exact values classify the iteration. The dot products and norms of an
iteration (g'd, d'd, |g|'|d|, ||d||_1, ||y||_1, ||c||_1) are each
computed once and handed to the helpers below as scalars.

Each run owns one KktSystem: the matrix [[I, J^T], [J, 0]] and the
right-hand sides (-grad f, 0) and (-gbar, -c), allocated once, into
which each new iterate writes J, J^T and -c. Its one LU factorization
per iterate gives the least-squares multipliers and the KKT residual
(the augmented-system method for linear least squares) and the step,
whose solve residual holds J d + c. The exact values c, J, grad f and
f, the factors and the KKT residual all depend on x alone, so after a
rejected step they are carried over rather than recomputed; no oracle
sample is ever reused, and no logged array is a workspace view.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .linalg import (
    LuFactors,
    SingularMatrixError,
    as_matrix,
    lu_factor,
    # lu_solve stays importable here: perfbench/workloads.py traces it
    # (and max_abs) as sqp attributes.
    lu_solve,  # noqa: F401
    max_abs,
)
from .oracles import OracleConfig, StochasticOracle, is_finite, is_int
from .problems import Problem

# Runs abort once the merit penalty parameter falls to this floor; the
# update rule cannot recover from it and the merit function has
# degenerated to (nearly) pure infeasibility.
TAU_COLLAPSE_FLOOR = 1e-12
DENOM_SIGN_RTOL = 1e-12
# Safety factor on the solve-residual part of the denominator noise
# floor; covers the residual's own rounding plus the bound arithmetic.
DENOM_SOLVE_NOISE_FACTOR = 4.0

# Absolute slack for the model-reduction inequality, which holds exactly
# in real arithmetic by construction of the tau update.
MODEL_REDUCTION_SLACK = 1e-9

# Accepted relative inaccuracy of the linearized-feasibility residual
# ||J d + c||_inf of a KKT solve, beyond which the run aborts.
LINEARIZED_FEASIBILITY_RTOL = 1e-9


class InvariantViolationError(AssertionError):
    """A guaranteed runtime invariant failed; indicates an implementation bug."""


class RunStatus(enum.Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"
    LINEAR_ALGEBRA_FAILURE = "linear_algebra_failure"


@dataclass(frozen=True)
class SolverParams:
    """Algorithm constants and termination settings.

    eps_f_accept is the noise allowance added (scaled by 2*tau) to the
    acceptance test; None couples it to the oracle's eps_f_noise.
    """

    tau_init: float = 0.1
    sigma: float = 0.1
    eps_tau: float = 1e-2
    theta: float = 1e-4
    gamma: float = 0.5
    alpha_max: float = 1.0
    alpha0: float = 1.0
    eps_f_accept: Optional[float] = None
    max_iters: int = 1000
    tol_infeas: float = 1e-6
    tol_kkt: float = 1e-4

    def __post_init__(self):
        if not (self.tau_init > 0.0 and is_finite(self.tau_init)):
            raise ValueError("tau_init must be finite and > 0")
        for name in ("sigma", "eps_tau", "theta", "gamma"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if not 0.0 < self.alpha_max <= 1.0:
            raise ValueError("alpha_max must lie in (0, 1]")
        if not 0.0 < self.alpha0 <= self.alpha_max:
            raise ValueError("alpha0 must lie in (0, alpha_max]")
        if self.eps_f_accept is not None and not (
            self.eps_f_accept >= 0.0 and is_finite(self.eps_f_accept)
        ):
            raise ValueError("eps_f_accept must be finite and >= 0 (or None)")
        if not is_int(self.max_iters) or self.max_iters < 0:
            raise ValueError("max_iters must be a non-negative integer")
        if not self.tol_infeas >= 0.0:
            raise ValueError("tol_infeas must be >= 0")
        if not self.tol_kkt >= 0.0:
            raise ValueError("tol_kkt must be >= 0")


def effective_eps_f(params: SolverParams, oracle_cfg: OracleConfig) -> float:
    """Noise allowance used by the acceptance test for this run."""
    if params.eps_f_accept is not None:
        return params.eps_f_accept
    return oracle_cfg.eps_f_noise


class KktSolution(NamedTuple):
    """Direction d, multipliers y, and inf-norms of the solve's residual and its J d + c block."""

    d: np.ndarray
    y: np.ndarray
    residual_inf: float
    lin_feas: float


class KktSystem:
    """[[I, J^T], [J, 0]] for n variables and m constraints, its LU factors and right-hand sides.

    update() writes a new J and c in place and factors once; multipliers()
    and step() then solve against those factors for any number of gradients.
    """

    def __init__(self, n: int, m: int):
        self._n = n
        self._a = np.zeros((n + m, n + m))
        self._a[:n, :n] = np.eye(n)
        self._mult_rhs = np.zeros(n + m)
        self._step_rhs = np.zeros(n + m)
        self._factors: Optional[LuFactors] = None

    def update(self, jac: np.ndarray, c: np.ndarray) -> None:
        """Write J and c, then factor; raises SingularMatrixError if J is (near-)rank deficient."""
        n = self._n
        self._a[:n, n:] = jac.T
        self._a[n:, :n] = jac
        np.negative(c, out=self._step_rhs[n:])
        self._factors = lu_factor(self._a)

    def multipliers(self, g: np.ndarray) -> tuple[np.ndarray, float]:
        """Multipliers y minimizing ||g + J^T y||_2, and ||g + J^T y||_inf.

        The right-hand side (-g, 0) gives d + J^T y = -g and J d = 0, so y
        minimizes ||g + J^T y||_2 and d = -(g + J^T y) is the residual
        itself (the augmented-system method for linear least squares).
        Unlike the normal equations J J^T y = -J g this forms no product
        J J^T, so where the singular values of J are at least 1 the matrix
        is conditioned like J, not like J J^T. Singular values below 1
        still enter squared; Bjorck's scaled form, with alpha * I in place
        of I and alpha near sigma_min(J), would avoid that at the price of
        a factorization separate from the step's.
        """
        n = self._n
        rhs = self._mult_rhs
        np.negative(g, out=rhs[:n])
        z = self._factors.solve(rhs)
        return z[n:], max_abs(z[:n])

    def step(self, g: np.ndarray) -> KktSolution:
        """Direction d and multipliers y from [[I, J^T], [J, 0]] (d, y) = -(g, c)."""
        n = self._n
        rhs = self._step_rhs
        np.negative(g, out=rhs[:n])
        z = self._factors.solve(rhs)
        r = self._a.dot(z) - rhs
        return KktSolution(z[:n], z[n:], max_abs(r), max_abs(r[n:]))


def solve_kkt(jac: np.ndarray, g: np.ndarray, c: np.ndarray) -> KktSolution:
    """One KktSystem.step for the (m, n) Jacobian J, gradient g and constraint values c.

    Raises SingularMatrixError if J is (near-)rank deficient.
    """
    g = np.asarray(g, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    kkt = KktSystem(g.size, c.size)
    kkt.update(as_matrix(jac, (c.size, g.size), "J"), c)
    return kkt.step(g)


def model_reduction(tau_bar: float, gd: float, c_l1: float) -> float:
    """Predicted merit decrease -tau * g'd + ||c||_1 of a step, given gd = g'd."""
    return -tau_bar * gd + c_l1


def tau_trial(
    gd: float,
    dd: float,
    abs_gd: float,
    c_l1: float,
    sigma: float,
    extra_noise_floor: float = 0.0,
) -> float:
    """Largest penalty parameter keeping the model reduction adequate.

    Takes the step's products gd = g'd, dd = d'd (the curvature term,
    model Hessian H = I) and abs_gd = |g|'|d|. Returns math.inf when
    g'd + d'd <= 0, in which case any positive parameter is adequate.
    The sign is decided against a noise floor rather than bare zero: for
    directions from the KKT system the quantity equals c'y, which
    vanishes exactly at feasible points, so the computed value there is
    pure cancellation noise. The floor covers the dot products' own
    rounding; callers solving the KKT system in floating point must add
    the identity's solve-error bound residual_inf * (||d||_1 + ||y||_1),
    scaled by a safety factor, through extra_noise_floor.
    """
    denom = gd + dd
    noise_floor = extra_noise_floor + DENOM_SIGN_RTOL * (abs_gd + dd)
    if denom <= noise_floor:
        return math.inf
    return (1.0 - sigma) * c_l1 / denom


def kkt_denom_noise_floor(residual_inf: float, d_l1: float, y_l1: float) -> float:
    """Noise certificate for the tau-trial denominator of a KKT direction.

    Bounds |d'r_1 - r_2'y| for the solve residual r = (r_1, r_2), the
    amount by which the computed g'd + d'd can drift from its exact
    value c'y, with a safety factor for the bound's own rounding. Takes
    ||r||_inf, ||d||_1 and ||y||_1.
    """
    return DENOM_SOLVE_NOISE_FACTOR * residual_inf * (d_l1 + y_l1)


def update_tau(tau_bar: float, trial: float, eps_tau: float) -> float:
    """Keep tau_bar if it does not exceed the trial value, else cut it.

    A change lands at min((1 - eps_tau) * tau_bar, trial), so the
    parameter never increases and any decrease is by a factor of at
    least (1 - eps_tau).
    """
    if tau_bar <= trial:
        return tau_bar
    return min((1.0 - eps_tau) * tau_bar, trial)


def acceptance_test(
    phi_trial: float,
    phi_current: float,
    alpha: float,
    theta: float,
    delta_l: float,
    tau_bar: float,
    eps_f: float,
) -> bool:
    """Noise-relaxed sufficient decrease on the sampled merit (non-strict)."""
    return phi_trial <= phi_current - alpha * theta * delta_l + 2.0 * tau_bar * eps_f


def step_size_update(alpha: float, accepted: bool, gamma: float, alpha_max: float) -> float:
    """Grow alpha by 1/gamma (capped) on acceptance, shrink by gamma otherwise."""
    if accepted:
        return min(alpha_max, alpha / gamma)
    return gamma * alpha


def least_squares_multipliers(g: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, float]:
    """KktSystem.multipliers for one J: (y, ||g + J^T y||_inf); J must have full row rank."""
    jac = np.asarray(jac, dtype=np.float64)
    kkt = KktSystem(jac.shape[1], jac.shape[0])
    kkt.update(jac, np.zeros(jac.shape[0]))
    return kkt.multipliers(np.asarray(g, dtype=np.float64))


@dataclass(slots=True)
class IterationLog:
    """Diagnostics for one iteration, recorded at its start point x.

    Call counters are cumulative totals after the iteration finished.
    true_iter marks iterations whose sampled gradient and function
    values were within their nominal noise allowances (see
    classify_iteration).
    """

    k: int
    x: np.ndarray
    d: np.ndarray
    g_bar: np.ndarray
    alpha: float
    tau_bar: float
    delta_l: float
    phi_bar_current: float
    phi_bar_trial: float
    f_bar_current: float
    f_bar_trial: float
    accepted: bool
    infeas_inf: float
    kkt_inf: float
    zeroth_calls: int
    first_calls: int
    true_iter: bool = False


@dataclass
class RunRecord:
    """Outcome of one solve: status, per-iteration logs, final state."""

    status: RunStatus
    iterations: list[IterationLog]
    final_x: np.ndarray
    wall_time: float
    final_infeas_inf: Optional[float] = None
    final_kkt_inf: Optional[float] = None
    failure_reason: Optional[str] = None

    @property
    def zeroth_calls(self) -> int:
        return self.iterations[-1].zeroth_calls if self.iterations else 0

    @property
    def first_calls(self) -> int:
        return self.iterations[-1].first_calls if self.iterations else 0


def classify_iteration(
    grad_err: float,
    value_err: float,
    alpha: float,
    delta_l: float,
    eps_g: float,
    eps_f: float,
) -> bool:
    """Whether an iteration is true in the sense of the paper.

    True: the sampled gradient's error grad_err = ||gbar - grad f||_2 is
    within max(eps_g, alpha * sqrt(delta_l)), with eps_g the oracle's
    eps_g_noise, and the two sampled function values' errors, summed to
    value_err = |fbar(x) - f(x)| + |fbar(x+) - f(x+)|, are within
    2 * eps_f, with eps_f the acceptance allowance.
    """
    grad_ok = grad_err <= max(eps_g, alpha * math.sqrt(max(delta_l, 0.0)))
    return grad_ok and value_err <= 2.0 * eps_f


def _finite(a: np.ndarray, total: float) -> bool:
    """Whether every entry of a is finite, given the sum of its entries or of their magnitudes.

    A finite total settles it; a non-finite one may be an overflow of
    finite entries, so it falls back to the per-entry test.
    """
    return math.isfinite(total) or bool(np.isfinite(a).all())


def solve(
    problem: Problem,
    params: SolverParams = SolverParams(),
    oracle_cfg: OracleConfig = OracleConfig(),
) -> RunRecord:
    """Run the step-search SQP loop on one problem.

    Parameters
    ----------
    problem : Problem
        Problem to solve; evaluators must be smooth and deterministic.
    params : SolverParams
        Algorithm constants, iteration budget, termination thresholds.
    oracle_cfg : OracleConfig
        Noise scales and RNG identity for the objective oracles.

    Returns
    -------
    RunRecord
        Status and final metrics come from the last iterate the run
        evaluated: CONVERGED exactly when that iterate passes both
        termination thresholds, even if the budget is spent (a budget of
        0 evaluates x0 alone), else BUDGET_EXHAUSTED after max_iters
        iterations. Linear-algebra breakdowns (rank-deficient Jacobians,
        inaccurate KKT solves, non-finite evaluations, merit-parameter
        collapse) end the run with status LINEAR_ALGEBRA_FAILURE and a
        failure_reason instead of raising.
    """
    t_start = time.perf_counter()
    # The run's KKT workspace (see the module docstring).
    kkt = KktSystem(problem.n, problem.m)

    oracle = StochasticOracle(problem, oracle_cfg)
    eps_f = effective_eps_f(params, oracle_cfg)
    eps_g = oracle_cfg.eps_g_noise

    # x is rebound, never written in place, so logs share it uncopied.
    x = problem.x0.copy()
    alpha = params.alpha0
    tau_bar = params.tau_init
    logs: list[IterationLog] = []
    status: Optional[RunStatus] = None
    reason: Optional[str] = None
    # f and c at the current iterate: evaluated here for x0, then carried
    # over from the trial point of each accepted step.
    f_exact = problem.f(x)
    c_vec = problem.c(x)
    c_l1 = float(np.add.reduce(np.abs(c_vec)))
    # True until the exact quantities below describe the current x.
    moved = True

    k = 0
    while True:
        if moved:
            # Exact diagnostics at a new iterate (no oracle budget). They
            # and the KKT factors stay valid while rejected steps keep x;
            # infeas_inf and kkt_inf are the run's final metrics, None
            # where the evaluation broke down.
            infeas_inf = kkt_inf = None
            jac = problem.jacobian(x)
            g_exact = problem.grad_f(x)
            if not (
                _finite(c_vec, c_l1)
                and _finite(jac, np.add.reduce(jac, axis=None))
                and _finite(g_exact, np.add.reduce(g_exact))
                and math.isfinite(f_exact)
            ):
                status = RunStatus.LINEAR_ALGEBRA_FAILURE
                reason = "non-finite problem evaluation at the current iterate"
                break
            infeas_inf = max_abs(c_vec)
            try:
                kkt.update(jac, c_vec)
            except SingularMatrixError:
                status = RunStatus.LINEAR_ALGEBRA_FAILURE
                reason = "constraint Jacobian is rank deficient"
                break
            _, kkt_inf = kkt.multipliers(g_exact)
            moved = False
            if infeas_inf <= params.tol_infeas and kkt_inf <= params.tol_kkt:
                status = RunStatus.CONVERGED
                break

        if k >= params.max_iters:
            status = RunStatus.BUDGET_EXHAUSTED
            break

        # Noisy gradient, KKT direction.
        g_bar = oracle.noisy_grad(g_exact)
        if not _finite(g_bar, np.add.reduce(g_bar)):
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = "non-finite noisy gradient"
            break
        d, y, residual_inf, lin_feas = kkt.step(g_bar)
        # Negated, so that a NaN fails the test.
        if not (lin_feas <= LINEARIZED_FEASIBILITY_RTOL * (1.0 + infeas_inf)):
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = f"inaccurate KKT solve: ||J d + c||_inf = {lin_feas:g}"
            break

        # The step's reductions, each computed once.
        gd = float(g_bar.dot(d))
        dd = float(d.dot(d))
        abs_d = np.abs(d)
        abs_gd = float(np.abs(g_bar).dot(abs_d))
        denom_floor = kkt_denom_noise_floor(
            residual_inf, float(np.add.reduce(abs_d)), float(np.add.reduce(np.abs(y)))
        )

        # Merit parameter update and predicted reduction.
        trial = tau_trial(gd, dd, abs_gd, c_l1, params.sigma, extra_noise_floor=denom_floor)
        tau_bar = update_tau(tau_bar, trial, params.eps_tau)
        if tau_bar <= TAU_COLLAPSE_FLOOR:
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = f"merit parameter collapsed to {tau_bar:g}"
            break
        delta_l = model_reduction(tau_bar, gd, c_l1)
        if not (delta_l >= tau_bar * dd + params.sigma * c_l1 - MODEL_REDUCTION_SLACK):
            raise InvariantViolationError(
                f"model reduction {delta_l:g} below guaranteed bound "
                f"{tau_bar * dd + params.sigma * c_l1:g} at iteration {k}"
            )

        # Trial point, its exact f and c, and the two fresh merit samples.
        x_plus = x + alpha * d
        f_plus = problem.f(x_plus)
        c_plus = problem.c(x_plus)
        f_bar_current = oracle.noisy_f(f_exact)
        f_bar_trial = oracle.noisy_f(f_plus)
        c_plus_l1 = float(np.add.reduce(np.abs(c_plus)))
        if not (
            _finite(c_plus, c_plus_l1)
            and math.isfinite(f_bar_current)
            and math.isfinite(f_bar_trial)
        ):
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = "non-finite evaluation at the trial point"
            break
        phi_bar_current = tau_bar * f_bar_current + c_l1
        phi_bar_trial = tau_bar * f_bar_trial + c_plus_l1
        accepted = acceptance_test(
            phi_bar_trial, phi_bar_current, alpha, params.theta, delta_l, tau_bar, eps_f
        )

        g_err = g_bar - g_exact
        true_iter = classify_iteration(
            math.sqrt(g_err.dot(g_err)),
            abs(f_bar_current - f_exact) + abs(f_bar_trial - f_plus),
            alpha,
            delta_l,
            eps_g,
            eps_f,
        )
        logs.append(
            IterationLog(
                k=k,
                x=x,
                d=d,
                g_bar=g_bar,
                alpha=alpha,
                tau_bar=tau_bar,
                delta_l=delta_l,
                phi_bar_current=phi_bar_current,
                phi_bar_trial=phi_bar_trial,
                f_bar_current=f_bar_current,
                f_bar_trial=f_bar_trial,
                accepted=accepted,
                infeas_inf=infeas_inf,
                kkt_inf=kkt_inf,
                zeroth_calls=oracle.counters.zeroth_calls,
                first_calls=oracle.counters.first_calls,
                true_iter=true_iter,
            )
        )

        if accepted:
            x, f_exact, c_vec, c_l1 = x_plus, f_plus, c_plus, c_plus_l1
            moved = True
        alpha = step_size_update(alpha, accepted, params.gamma, params.alpha_max)
        k += 1

    wall = time.perf_counter() - t_start
    return RunRecord(
        status=status,
        iterations=logs,
        final_x=x.copy(),
        wall_time=wall,
        final_infeas_inf=infeas_inf,
        final_kkt_inf=kkt_inf,
        failure_reason=reason,
    )

