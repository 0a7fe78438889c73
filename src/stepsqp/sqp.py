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
from fresh samples. A trial point where f or c is NaN or +inf is a
rejected step like any other, so a run backs off from a boundary past
which f is undefined; a run fails only at the current iterate, its
gradient sample, its KKT solve or its merit parameter. Constraint
values and the termination diagnostics (exact-gradient least-squares
KKT residual, infinity-norm infeasibility) are exact and never consume
oracle budget.

Each exact quantity is evaluated once per point. f and c are evaluated
once at each trial point; on acceptance those values become the new
iterate's, so only grad f and J are evaluated there. The oracle samples
add fresh noise to the exact f and grad f the loop holds, and the same
exact values classify the iteration. A step's products are d'd, c'y
and ||c||_1, each computed once and handed to the helpers below as
scalars. For a direction from the system above, gbar'd + d'd = c'y
(multiply its first block row by d and use J d = -c). So the trial
penalty parameter is (1 - sigma) * ||c||_1 / c'y when c'y > 0 and
infinite otherwise, with c'y exactly 0 wherever c = 0, and gbar'd is
taken as c'y - d'd: tau and delta_l come from the same two scalars, and
the model-reduction bound then holds up to their rounding.

Each run owns one KktSystem: the matrix [[I, J^T], [J, 0]] and the
right-hand sides (-grad f, 0) and (-gbar, -c), allocated once with fixed
views of their J, J^T, -g and -c blocks, through which each new iterate
writes J, J^T and -c and each solve writes -g. The matrix's max-norm,
the scale of the pivot floor, is max(1, ||J||_max), from the ||J||_max
the loop takes anyway to test J for finiteness. Its one LU factorization
per iterate gives the least-squares multipliers and the KKT residual
(the augmented-system method for linear least squares) and the step,
whose constraint rows give J d + c. The exact values c, J, grad f and
f, the factors and the KKT residual all depend on x alone, so after a
rejected step they are carried over rather than recomputed; no oracle
sample is ever reused. The run's log is one structured array with a row
per iteration, into which each iteration's fields are copied with one
assignment; the finished array, read-only, is the record's iterations.
"""

from __future__ import annotations

import enum
import functools
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
from .oracles import OracleConfig, StochasticOracle, is_finite, is_int, require_numbers
from .problems import Problem

# Runs abort once the merit penalty parameter falls to this fraction of
# tau_init (1e-12 at the default 0.1); the update rule cannot recover
# from it and the merit function has degenerated to (nearly) pure
# infeasibility. Relative, so scaling c, J and tau_init together moves
# the floor with them.
TAU_COLLAPSE_RTOL = 1e-11

# Slack for the model-reduction inequality, which holds exactly in real
# arithmetic by construction of the tau update; relative to the larger
# of its two sides (and at least 1), so it covers their rounding at any
# objective scale.
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

    The acceptance test's noise allowance is not among them: it is the
    oracle's own eps_f_noise (scaled by 2*tau), as in the paper.
    """

    tau_init: float = 0.1
    sigma: float = 0.1
    eps_tau: float = 1e-2
    theta: float = 1e-4
    gamma: float = 0.5
    alpha_max: float = 1.0
    alpha0: float = 1.0
    max_iters: int = 1000
    tol_infeas: float = 1e-6
    tol_kkt: float = 1e-4

    def __post_init__(self):
        require_numbers(self, "tau_init", "sigma", "eps_tau", "theta", "gamma", "alpha_max",
                        "alpha0", "tol_infeas", "tol_kkt")
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
        if not is_int(self.max_iters) or self.max_iters < 0:
            raise ValueError("max_iters must be a non-negative integer")
        if not self.tol_infeas >= 0.0:
            raise ValueError("tol_infeas must be >= 0")
        if not self.tol_kkt >= 0.0:
            raise ValueError("tol_kkt must be >= 0")


class KktSolution(NamedTuple):
    """Direction d, multipliers y, and the linearized infeasibility ||J d + c||_inf."""

    d: np.ndarray
    y: np.ndarray
    lin_feas: float


class KktSystem:
    """[[I, J^T], [J, 0]] for n variables and m constraints, its LU factors and right-hand sides.

    The matrix and the two right-hand sides (-grad f, 0) and (-gbar, -c)
    are allocated once, with views of their blocks: J and J^T in the
    matrix, and the top (-g) and bottom (-c) parts of the right-hand
    sides. update() writes a new J and c through those views and factors
    once; multipliers() and step() then write -g through them and solve
    against those factors for any number of gradients.
    """

    def __init__(self, n: int, m: int):
        self._n = n
        a = self._a = np.zeros((n + m, n + m))
        a[:n, :n] = np.eye(n)
        self._jac = a[n:, :n]
        self._jac_t = a[:n, n:]
        self._mult_rhs = np.zeros(n + m)
        self._mult_top = self._mult_rhs[:n]
        self._step_rhs = np.zeros(n + m)
        self._step_top = self._step_rhs[:n]
        self._neg_c = self._step_rhs[n:]
        self._factors: Optional[LuFactors] = None

    def update(self, jac: np.ndarray, c: np.ndarray, jac_max: float) -> None:
        """Write J and c, then factor; raises SingularMatrixError if J is (near-)rank deficient.

        jac_max is ||J||_max. The matrix's other entries are 1 and 0, so
        its ||.||_max, the scale of the pivot floor, is max(1, ||J||_max).
        """
        self._jac_t[...] = jac.T
        self._jac[...] = jac
        np.negative(c, out=self._neg_c)
        self._factors = lu_factor(self._a, max(1.0, jac_max))

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
        np.negative(g, out=self._mult_top)
        z = self._factors.solve(self._mult_rhs)
        n = self._n
        return z[n:], max_abs(z[:n])

    def step(self, g: np.ndarray) -> KktSolution:
        """Direction d and multipliers y from [[I, J^T], [J, 0]] (d, y) = -(g, c)."""
        np.negative(g, out=self._step_top)
        z = self._factors.solve(self._step_rhs)
        n = self._n
        d = z[:n]
        return KktSolution(d, z[n:], max_abs(self._jac.dot(d) - self._neg_c))


def solve_kkt(jac: np.ndarray, g: np.ndarray, c: np.ndarray) -> KktSolution:
    """One KktSystem.step for the (m, n) Jacobian J, gradient g and constraint values c.

    Raises SingularMatrixError if J is (near-)rank deficient.
    """
    g = np.asarray(g, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    jac = as_matrix(jac, (c.size, g.size), "J")
    kkt = KktSystem(g.size, c.size)
    kkt.update(jac, c, max_abs(jac))
    return kkt.step(g)


def model_reduction(tau_bar: float, gd: float, c_l1: float) -> float:
    """Predicted merit decrease -tau * g'd + ||c||_1 of a step, given gd = g'd."""
    return -tau_bar * gd + c_l1


def tau_trial(cy: float, c_l1: float, sigma: float) -> float:
    """Largest penalty parameter keeping the model reduction adequate.

    For a KKT direction the rule's denominator g'd + d'd (model Hessian
    H = I) equals cy = c'y. Returns math.inf when c'y <= 0, in which
    case any positive parameter is adequate, else (1 - sigma) ||c||_1 / c'y.
    Since c'y <= ||c||_1 ||y||_inf, a finite value is at least
    (1 - sigma) / ||y||_inf.
    """
    if cy <= 0.0:
        return math.inf
    return (1.0 - sigma) * c_l1 / cy


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
    """Noise-relaxed sufficient decrease on the sampled merit (non-strict).

    A NaN or +inf phi_trial fails it, so such a trial point is rejected.
    """
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
    kkt.update(jac, np.zeros(jac.shape[0]), max_abs(jac))
    return kkt.multipliers(np.asarray(g, dtype=np.float64))


# A run log's first rows hold this many iterations, or the run's budget
# if that is smaller, so a run on the default budget fills them exactly.
RUN_LOG_CAPACITY = 1024

# A run log row's fields, in order, each with its type: n float64 for a
# vector, else float64 or int64.
_ROW_FIELDS = (
    ("k", "i8"), ("x", "vector"), ("d", "vector"), ("g_bar", "vector"),
    ("alpha", "f8"), ("tau_bar", "f8"), ("delta_l", "f8"), ("phi_bar_current", "f8"),
    ("phi_bar_trial", "f8"), ("f_bar_current", "f8"), ("f_bar_trial", "f8"), ("accepted", "i8"),
    ("infeas_inf", "f8"), ("kkt_inf", "f8"), ("zeroth_calls", "i8"), ("first_calls", "i8"),
    ("true_iter", "i8"),
)


@functools.cache
def run_log_dtype(n: int) -> np.dtype:
    """The np.record dtype of a run log's rows for n variables, built once per n."""
    return np.dtype((np.record, [(name, "f8", (n,)) if kind == "vector" else (name, kind)
                                 for name, kind in _ROW_FIELDS]))


@dataclass
class RunRecord:
    """Outcome of one solve: status, per-iteration log, final state.

    iterations is the run's log: a read-only array of dtype
    run_log_dtype(n) with row k for iteration k, recorded at its start
    point x. Its fields are k; x, d and g_bar as (n,) float64; alpha,
    tau_bar, delta_l, the four merit and objective samples, infeas_inf
    and kkt_inf as float64; and accepted, the cumulative oracle call
    counts after the iteration and true_iter (see classify_iteration)
    as int64, so an iteration costs 8 * (14 + 3n) bytes.
    iterations["kkt_inf"] is a column, and a row answers attribute reads.

    The call counts are the oracle's totals, so they include the samples
    of an iteration that ended the run before it was logged: its gradient
    sample alone, since every exit inside an iteration precedes its two
    value samples.
    """

    status: RunStatus
    iterations: np.ndarray
    final_x: np.ndarray
    wall_time: float
    final_infeas_inf: Optional[float] = None
    final_kkt_inf: Optional[float] = None
    failure_reason: Optional[str] = None
    zeroth_calls: int = 0
    first_calls: int = 0


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
    2 * eps_f, with eps_f the oracle's eps_f_noise, which the acceptance
    test also allows.
    """
    grad_ok = grad_err <= max(eps_g, alpha * math.sqrt(max(delta_l, 0.0)))
    return grad_ok and value_err <= 2.0 * eps_f


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
        iterations. Breakdowns end the run with status
        LINEAR_ALGEBRA_FAILURE and a failure_reason instead of raising:
        a non-finite f, c, J or grad f at the current iterate, a
        rank-deficient J there, a non-finite gradient sample, an
        inaccurate KKT solve, a step whose d'd or c'y is not finite, or
        merit-parameter collapse (tau_bar at or below TAU_COLLAPSE_RTOL *
        tau_init). A non-finite trial point is a rejected step, not a
        failure. Exceptions raised by the problem's own evaluators
        propagate.
    """
    t_start = time.perf_counter()
    # The run's KKT workspace (see the module docstring).
    kkt = KktSystem(problem.n, problem.m)

    oracle = StochasticOracle(problem.n, oracle_cfg)
    eps_f, eps_g = oracle_cfg.eps_f_noise, oracle_cfg.eps_g_noise
    sigma, eps_tau, theta = params.sigma, params.eps_tau, params.theta
    gamma, alpha_max, max_iters = params.gamma, params.alpha_max, params.max_iters
    tol_infeas, tol_kkt = params.tol_infeas, params.tol_kkt

    x = problem.x0.copy()
    alpha = params.alpha0
    tau_bar = params.tau_init
    tau_floor = TAU_COLLAPSE_RTOL * tau_bar
    logs = np.empty(min(max_iters, RUN_LOG_CAPACITY), run_log_dtype(problem.n))
    # A breakdown sets only reason, which makes the run a LINEAR_ALGEBRA_FAILURE.
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
            c_max = max_abs(c_vec)
            jac_max = max_abs(jac)
            if not (
                math.isfinite(c_max)
                and math.isfinite(jac_max)
                and math.isfinite(max_abs(g_exact))
                and math.isfinite(f_exact)
            ):
                reason = "non-finite problem evaluation at the current iterate"
                break
            infeas_inf = c_max
            try:
                kkt.update(jac, c_vec, jac_max)
            except SingularMatrixError:
                reason = "constraint Jacobian is rank deficient"
                break
            _, kkt_inf = kkt.multipliers(g_exact)
            moved = False
            if infeas_inf <= tol_infeas and kkt_inf <= tol_kkt:
                status = RunStatus.CONVERGED
                break

        if k >= max_iters:
            status = RunStatus.BUDGET_EXHAUSTED
            break

        # Noisy gradient, KKT direction.
        g_bar = oracle.noisy_grad(g_exact)
        g_max = max_abs(g_bar)
        if not math.isfinite(g_max):
            reason = "non-finite noisy gradient"
            break
        d, y, lin_feas = kkt.step(g_bar)
        # The solve's rounding scales with its right-hand side (g_bar, c),
        # and J d's own with ||J||_max ||d||_1, a bound on each |(J d)_i|.
        # That term is taken only where the first bound fails, and only
        # when finite, so an overflowed solve keeps its reason. Negated,
        # so that a NaN fails the test.
        if not (lin_feas <= LINEARIZED_FEASIBILITY_RTOL * (1.0 + max(infeas_inf, g_max))):
            jd_bound = jac_max * float(np.add.reduce(np.abs(d)))
            if not (math.isfinite(jd_bound)
                    and lin_feas <= LINEARIZED_FEASIBILITY_RTOL * (1.0 + jd_bound)):
                reason = f"inaccurate KKT solve: ||J d + c||_inf = {lin_feas:g}"
                break

        # Merit parameter update and predicted reduction, from the step's
        # two products (g'd = c'y - d'd; see the module docstring). A
        # finite d or y can still square to inf, and tau and delta_l
        # would then compare inf with inf.
        dd = float(d.dot(d))
        cy = float(c_vec.dot(y))
        if not (math.isfinite(dd) and math.isfinite(cy)):
            reason = f"step too large: d'd = {dd:g}, c'y = {cy:g}"
            break
        tau_bar = update_tau(tau_bar, tau_trial(cy, c_l1, sigma), eps_tau)
        if tau_bar <= tau_floor:
            reason = f"merit parameter collapsed to {tau_bar:g}"
            break
        delta_l = model_reduction(tau_bar, cy - dd, c_l1)
        bound = tau_bar * dd + sigma * c_l1
        if not (delta_l >= bound - MODEL_REDUCTION_SLACK * max(1.0, abs(delta_l), bound)):
            raise InvariantViolationError(
                f"model reduction {delta_l:g} below guaranteed bound {bound:g} at iteration {k}"
            )

        # Trial point, its exact f and c, and the two fresh merit samples.
        # A NaN or +inf trial merit fails the acceptance test, so such a
        # step is rejected; a -inf one is accepted and ends the run at
        # the new iterate's finiteness check.
        x_plus = x + alpha * d
        f_plus = problem.f(x_plus)
        c_plus = problem.c(x_plus)
        f_bar_current = oracle.noisy_f(f_exact)
        f_bar_trial = oracle.noisy_f(f_plus)
        c_plus_l1 = float(np.add.reduce(np.abs(c_plus)))
        phi_bar_current = tau_bar * f_bar_current + c_l1
        phi_bar_trial = tau_bar * f_bar_trial + c_plus_l1
        accepted = acceptance_test(
            phi_bar_trial, phi_bar_current, alpha, theta, delta_l, tau_bar, eps_f
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
        if k == len(logs):
            logs = np.concatenate((logs, np.empty_like(logs)))
        logs[k] = (k, x, d, g_bar, alpha, tau_bar, delta_l, phi_bar_current, phi_bar_trial,
                   f_bar_current, f_bar_trial, accepted, infeas_inf, kkt_inf,
                   oracle.zeroth_calls, oracle.first_calls, true_iter)

        if accepted:
            x, f_exact, c_vec, c_l1 = x_plus, f_plus, c_plus, c_plus_l1
            moved = True
        alpha = step_size_update(alpha, accepted, gamma, alpha_max)
        k += 1

    if len(logs) > k:
        # A copy, so the spare rows are freed.
        logs = logs[:k].copy()
    logs.flags.writeable = False
    wall = time.perf_counter() - t_start
    return RunRecord(
        status=status if reason is None else RunStatus.LINEAR_ALGEBRA_FAILURE,
        iterations=logs,
        final_x=x.copy(),
        wall_time=wall,
        final_infeas_inf=infeas_inf,
        final_kkt_inf=kkt_inf,
        failure_reason=reason,
        zeroth_calls=oracle.zeroth_calls,
        first_calls=oracle.first_calls,
    )

