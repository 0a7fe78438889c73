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

The KKT matrix is factored once per iterate: the one LU factorization
of [[I, J^T], [J, 0]] serves two right-hand sides. (-grad f, 0) gives
the least-squares multipliers and the KKT residual (the augmented-system
method for linear least squares), and (-gbar, -c) gives the step. The
exact values c, J, grad f and f, the factors and the KKT residual all
depend on x alone, so after a rejected step they are carried over rather
than recomputed; no oracle sample is ever reused.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .linalg import (
    LuFactors,
    SingularMatrixError,
    as_matrix,
    lu_factor,
    lu_solve,
    max_abs,
    require_symmetric,
)
from .oracles import OracleConfig, StochasticOracle, is_int
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
        if not (self.tau_init > 0.0 and np.isfinite(self.tau_init)):
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
            self.eps_f_accept >= 0.0 and np.isfinite(self.eps_f_accept)
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


@dataclass(frozen=True)
class KktSolution:
    """Direction d, multipliers y, and the solve's residual infinity-norm."""

    d: np.ndarray
    y: np.ndarray
    residual_inf: float


def solve_kkt(h: np.ndarray, jac: np.ndarray, g: np.ndarray, c: np.ndarray) -> KktSolution:
    """Solve the Newton-KKT system for a direction and multipliers.

    Parameters
    ----------
    h : array_like, shape (n, n)
        Symmetric model Hessian.
    jac : array_like, shape (m, n)
        Constraint Jacobian at the current iterate.
    g : array_like, shape (n,)
        (Possibly noisy) objective gradient.
    c : array_like, shape (m,)
        Constraint values at the current iterate.

    Raises
    ------
    SingularMatrixError
        If the assembled KKT matrix is (near-)singular.
    """
    g = np.asarray(g, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n, m = g.size, c.size
    h = as_matrix(h, (n, n), "H")
    require_symmetric(h, "H")
    jac = as_matrix(jac, (m, n), "J")

    kkt = kkt_matrix(h, jac)
    rhs = np.concatenate([-g, -c])
    return _kkt_solution(kkt, lu_solve(kkt, rhs), rhs, n)


def kkt_matrix(h: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Assemble [[H, J^T], [J, 0]] from validated float64 blocks."""
    m, n = jac.shape
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = h
    kkt[:n, n:] = jac.T
    kkt[n:, :n] = jac
    return kkt


def _kkt_solution(kkt: np.ndarray, z: np.ndarray, rhs: np.ndarray, n: int) -> KktSolution:
    return KktSolution(d=z[:n], y=z[n:], residual_inf=max_abs(kkt @ z - rhs))


def kkt_step(factors: LuFactors, g: np.ndarray, c: np.ndarray) -> KktSolution:
    """Direction and multipliers from factors of [[H, J^T], [J, 0]].

    Solves the system of :func:`solve_kkt` for gradient g and constraint
    values c without refactoring the matrix.
    """
    rhs = np.concatenate([-g, -c])
    return _kkt_solution(factors.a, factors.solve(rhs), rhs, g.size)


def kkt_multipliers(factors: LuFactors, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares multipliers from factors of [[I, J^T], [J, 0]].

    The right-hand side (-g, 0) gives d + J^T y = -g and J d = 0, so y
    minimizes ||g + J^T y||_2 and d = -(g + J^T y) is the residual
    itself (the augmented-system method for linear least squares).
    Returns y and ||d||_inf. Unlike the normal equations J J^T y = -J g
    this forms no product J J^T, so where the singular values of J are
    at least 1 the matrix is conditioned like J, not like J J^T. Singular
    values below 1 still enter squared; Bjorck's scaled form, with
    alpha * I in place of I and alpha near sigma_min(J), would avoid that
    at the price of a factorization separate from the step's.
    """
    n = g.size
    rhs = np.zeros(factors.a.shape[0])
    rhs[:n] = -g
    z = factors.solve(rhs)
    return z[n:], max_abs(z[:n])


def model_reduction(tau_bar: float, g: np.ndarray, d: np.ndarray, c_l1: float) -> float:
    """Predicted merit decrease -tau * g'd + ||c||_1 of the step d."""
    return -tau_bar * float(g @ d) + c_l1


def tau_trial(
    g: np.ndarray,
    d: np.ndarray,
    c_l1: float,
    sigma: float,
    extra_noise_floor: float = 0.0,
) -> float:
    """Largest penalty parameter keeping the model reduction adequate.

    The curvature term is d'd (model Hessian H = I). Returns math.inf
    when g'd + d'd <= 0, in which case any positive parameter is
    adequate. The sign is decided against a noise floor rather than bare
    zero: for directions from the KKT system the quantity equals c'y,
    which vanishes exactly at feasible points, so the computed value
    there is pure cancellation noise. The floor covers the dot products'
    own rounding; callers solving the KKT system in floating point must
    add the identity's solve-error bound residual_inf * (||d||_1 +
    ||y||_1), scaled by a safety factor, through extra_noise_floor.
    """
    dd = float(d @ d)
    denom = float(g @ d) + dd
    noise_floor = extra_noise_floor + DENOM_SIGN_RTOL * (float(np.abs(g) @ np.abs(d)) + dd)
    if denom <= noise_floor:
        return math.inf
    return (1.0 - sigma) * c_l1 / denom


def kkt_denom_noise_floor(kkt: KktSolution) -> float:
    """Noise certificate for the tau-trial denominator of a KKT direction.

    Bounds |d'r_1 - r_2'y| for the solve residual r = (r_1, r_2), the
    amount by which the computed g'd + d'd can drift from its exact
    value c'y, with a safety factor for the bound's own rounding.
    """
    return DENOM_SOLVE_NOISE_FACTOR * kkt.residual_inf * (
        float(np.sum(np.abs(kkt.d))) + float(np.sum(np.abs(kkt.y)))
    )


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
    """Multipliers minimizing ||g + J^T y||_2, and that residual's inf-norm.

    Solves the normal equations (J J^T) y = -J g by Cholesky; requires J
    to have full row rank.
    """
    g = np.asarray(g, dtype=np.float64)
    jac = np.asarray(jac, dtype=np.float64)
    jjt = jac @ jac.T
    y = linalg.cholesky_solve(jjt, -(jac @ g))
    residual = g + jac.T @ y
    return y, max_abs(residual)


@dataclass
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
    log: IterationLog,
    exact_f_values: tuple[float, float],
    exact_grad: np.ndarray,
    oracle_cfg: OracleConfig,
    params: SolverParams,
) -> bool:
    """Whether an iteration is true in the sense of the paper.

    True: the sampled gradient error is within
    max(eps_g, alpha * sqrt(delta_l)), with eps_g the oracle's
    eps_g_noise, and the two sampled function values are jointly within
    2 * eps_f of the exact ones, with eps_f the acceptance allowance.
    """
    eps_f = effective_eps_f(params, oracle_cfg)
    grad_err = float(np.linalg.norm(log.g_bar - exact_grad))
    grad_ok = grad_err <= max(
        oracle_cfg.eps_g_noise, log.alpha * math.sqrt(max(log.delta_l, 0.0))
    )
    e_current = abs(log.f_bar_current - exact_f_values[0])
    e_trial = abs(log.f_bar_trial - exact_f_values[1])
    zeroth_ok = e_current + e_trial <= 2.0 * eps_f
    return bool(grad_ok and zeroth_ok)


def _all_finite(*arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


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
    identity = np.eye(problem.n)

    oracle = StochasticOracle(problem, oracle_cfg)
    eps_f = effective_eps_f(params, oracle_cfg)

    x = problem.x0.copy()
    alpha = params.alpha0
    tau_bar = params.tau_init
    logs: list[IterationLog] = []
    status: Optional[RunStatus] = None
    reason: Optional[str] = None
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
            c_vec = problem.c(x)
            jac = problem.jacobian(x)
            g_exact = problem.grad_f(x)
            f_exact = problem.f(x)
            if not (_all_finite(c_vec, jac, g_exact) and math.isfinite(f_exact)):
                status = RunStatus.LINEAR_ALGEBRA_FAILURE
                reason = "non-finite problem evaluation at the current iterate"
                break
            infeas_inf = max_abs(c_vec)
            try:
                factors = lu_factor(kkt_matrix(identity, jac))
            except SingularMatrixError:
                status = RunStatus.LINEAR_ALGEBRA_FAILURE
                reason = "constraint Jacobian is rank deficient"
                break
            _, kkt_inf = kkt_multipliers(factors, g_exact)
            c_l1 = float(np.sum(np.abs(c_vec)))
            moved = False
            if infeas_inf <= params.tol_infeas and kkt_inf <= params.tol_kkt:
                status = RunStatus.CONVERGED
                break

        if k >= params.max_iters:
            status = RunStatus.BUDGET_EXHAUSTED
            break

        # Noisy gradient, KKT direction.
        g_bar = oracle.noisy_grad(x)
        if not _all_finite(g_bar):
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = "non-finite noisy gradient"
            break
        kkt = kkt_step(factors, g_bar, c_vec)
        d = kkt.d
        lin_feas = max_abs(jac @ d + c_vec)
        if lin_feas > LINEARIZED_FEASIBILITY_RTOL * (1.0 + infeas_inf):
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = f"inaccurate KKT solve: ||J d + c||_inf = {lin_feas:g}"
            break

        # Merit parameter update and predicted reduction.
        trial = tau_trial(
            g_bar, d, c_l1, params.sigma, extra_noise_floor=kkt_denom_noise_floor(kkt)
        )
        tau_bar = update_tau(tau_bar, trial, params.eps_tau)
        if tau_bar <= TAU_COLLAPSE_FLOOR:
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = f"merit parameter collapsed to {tau_bar:g}"
            break
        delta_l = model_reduction(tau_bar, g_bar, d, c_l1)
        curvature = float(d @ d)
        if delta_l < tau_bar * curvature + params.sigma * c_l1 - MODEL_REDUCTION_SLACK:
            raise InvariantViolationError(
                f"model reduction {delta_l:g} below guaranteed bound "
                f"{tau_bar * curvature + params.sigma * c_l1:g} at iteration {k}"
            )

        # Trial point and the two fresh merit samples.
        x_plus = x + alpha * d
        f_bar_current = oracle.noisy_f(x)
        f_bar_trial = oracle.noisy_f(x_plus)
        c_plus = problem.c(x_plus)
        if not (
            _all_finite(c_plus)
            and math.isfinite(f_bar_current)
            and math.isfinite(f_bar_trial)
        ):
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = "non-finite evaluation at the trial point"
            break
        phi_bar_current = tau_bar * f_bar_current + c_l1
        phi_bar_trial = tau_bar * f_bar_trial + float(np.sum(np.abs(c_plus)))
        accepted = acceptance_test(
            phi_bar_trial, phi_bar_current, alpha, params.theta, delta_l, tau_bar, eps_f
        )

        log = IterationLog(
            k=k,
            x=x.copy(),
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
        )
        log.true_iter = classify_iteration(
            log, (f_exact, problem.f(x_plus)), g_exact, oracle_cfg, params
        )
        logs.append(log)

        if accepted:
            x = x_plus
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

