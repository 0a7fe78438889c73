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
condition on the sampled merit tau * fbar + ||c||_1. A run starts at
alpha = ALPHA_MAX. Acceptance moves the iterate and grows alpha (capped
at ALPHA_MAX); rejection keeps the iterate, shrinks alpha, and the next
iteration recomputes a direction from fresh samples. A trial point
where f or c is NaN or +inf is a rejected step like any other, so a run
backs off from a boundary past which f is undefined; a run fails only
at the current iterate, its gradient sample, its KKT solve or its merit
parameter. Constraint values and the termination diagnostics
(exact-gradient least-squares KKT residual, infinity-norm infeasibility)
are exact and never consume oracle budget.

Each exact quantity is evaluated once per point. f and c are evaluated
once at each trial point; on acceptance those values become the new
iterate's, so only grad f and J are evaluated there. The oracle samples
add fresh noise to the exact f and grad f the loop holds, and the same
exact values classify the iteration. A step's products are d'd, c'y
and ||c||_1, each computed once and used by the step rule as
scalars. For a direction from the system above, gbar'd + d'd = c'y
(multiply its first block row by d and use J d = -c). So the trial
penalty parameter is (1 - sigma) * ||c||_1 / c'y when c'y > 0 and
infinite otherwise, with c'y exactly 0 wherever c = 0, and gbar'd is
taken as c'y - d'd: tau and delta_l come from the same two scalars, and
the model-reduction bound then holds up to their rounding.

solve keeps the KKT workspace itself and calls LAPACK directly: the
matrix [[I, J^T], [J, 0]] and the right-hand sides (-grad f, 0) and
(-gbar, -c) are allocated once per run, with fixed views of their J,
J^T, -g and -c blocks, through which each new iterate writes J, J^T and
-c and each solve writes -g. Each new iterate is factored once by
dgetrf, and its pivots pass linalg.check_pivots, whose scale is the
matrix's max-norm max(1, ||J||_max), from the ||J||_max the loop takes
anyway to test J for finiteness. Each solve is one dgetrs call against
those factors. The loop runs no residual check of its own: the test
suite checks each solve's residual by wrapping the LAPACK routines that
linalg binds (tests/conftest.py).
The one factorization gives the least-squares multipliers and the KKT
residual (the augmented-system method for linear least squares) and the
step, whose constraint rows give J d + c. solve_kkt and
least_squares_multipliers give the same step and multipliers, bit for
bit, from a freshly assembled matrix. The exact values c, J, grad f and
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
from typing import Optional

import numpy as np

from . import linalg
from .linalg import (
    SingularMatrixError,
    as_matrix,
    check_pivots,
    lu_solve,
    max_abs,
)
from .oracles import OracleConfig, StochasticOracle, is_finite, is_int, require_numbers
from .problems import Problem

# The step rule's constants, fixed inputs of the method: the model
# reduction factor sigma, the merit parameter's cut factor eps_tau, the
# Armijo factor theta and the step-size factor gamma, each in (0, 1), and
# the step-size cap alpha_max in (0, 1]. solve and tau_trial read them
# here.
SIGMA = 0.1
EPS_TAU = 1e-2
THETA = 1e-4
GAMMA = 0.5
ALPHA_MAX = 1.0

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
    """What a run varies: the initial merit parameter, budget and termination thresholds.

    The step rule's constants are module constants (SIGMA, EPS_TAU,
    THETA, GAMMA, ALPHA_MAX), and the acceptance test's noise allowance
    is the oracle's own eps_f_noise (scaled by 2*tau), as in the paper.
    """

    tau_init: float = 0.1
    max_iters: int = 1000
    tol_infeas: float = 1e-6
    tol_kkt: float = 1e-4

    def __post_init__(self):
        require_numbers(self, "tau_init", "tol_infeas", "tol_kkt")
        if not (self.tau_init > 0.0 and is_finite(self.tau_init)):
            raise ValueError("tau_init must be finite and > 0")
        if not is_int(self.max_iters) or self.max_iters < 0:
            raise ValueError("max_iters must be a non-negative integer")
        if not (self.tol_infeas >= 0.0 and is_finite(self.tol_infeas)):
            raise ValueError("tol_infeas must be finite and >= 0")
        if not (self.tol_kkt >= 0.0 and is_finite(self.tol_kkt)):
            raise ValueError("tol_kkt must be finite and >= 0")


def _kkt_matrix(jac: np.ndarray) -> np.ndarray:
    """[[I, J^T], [J, 0]] for the (m, n) Jacobian J, assembled as solve assembles it."""
    m, n = jac.shape
    a = np.zeros((n + m, n + m))
    a[:n, :n] = np.eye(n)
    a[:n, n:] = jac.T
    a[n:, :n] = jac
    return a


def solve_kkt(jac: np.ndarray, g: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Direction d, multipliers y and ||J d + c||_inf from [[I, J^T], [J, 0]] (d, y) = -(g, c).

    The step solve takes, for the (m, n) Jacobian J, gradient g and
    constraint values c. Raises SingularMatrixError if J is (near-)rank
    deficient.
    """
    g, c = np.asarray(g, dtype=np.float64), np.asarray(c, dtype=np.float64)
    jac = as_matrix(jac, (c.size, g.size), "J")
    z = lu_solve(_kkt_matrix(jac), np.concatenate((-g, -c)))
    d = z[:g.size]
    return d, z[g.size:], max_abs(jac.dot(d) + c)


def tau_trial(cy: float, c_l1: float) -> float:
    """Largest penalty parameter keeping the model reduction adequate.

    For a KKT direction the rule's denominator g'd + d'd (model Hessian
    H = I) equals cy = c'y. Returns math.inf when c'y <= 0, in which
    case any positive parameter is adequate, else (1 - SIGMA) ||c||_1 / c'y.
    Since c'y <= ||c||_1 ||y||_inf, a finite value is at least
    (1 - SIGMA) / ||y||_inf.
    """
    if cy <= 0.0:
        return math.inf
    return (1.0 - SIGMA) * c_l1 / cy


def least_squares_multipliers(g: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, float]:
    """Multipliers y minimizing ||g + J^T y||_2, and ||g + J^T y||_inf, as solve takes them.

    J must have full row rank. The right-hand side (-g, 0) gives
    d + J^T y = -g and J d = 0, so y minimizes ||g + J^T y||_2 and
    d = -(g + J^T y) is the residual itself (the augmented-system method
    for linear least squares). Unlike the normal equations J J^T y = -J g
    this forms no product J J^T, so where the singular values of J are at
    least 1 the matrix is conditioned like J, not like J J^T. Singular
    values below 1 still enter squared; Bjorck's scaled form, with
    alpha * I in place of I and alpha near sigma_min(J), would avoid that
    at the price of a factorization separate from the step's.
    """
    g, jac = np.asarray(g, dtype=np.float64), np.asarray(jac, dtype=np.float64)
    z = lu_solve(_kkt_matrix(jac), np.concatenate((-g, np.zeros(jac.shape[0]))))
    return z[g.size:], max_abs(z[:g.size])


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

    The result is not invariant when c, J and tau_init are scaled
    together: delta_l, and so alpha * sqrt(delta_l), scales with them,
    while grad_err does not. That is why the relation between a run and
    its copy with c, J and tau_init scaled by 2^k leaves true_iter out.
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
        Initial merit parameter, iteration budget, termination thresholds.
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
    n = problem.n
    # The run's KKT workspace (see the module docstring): the matrix with
    # views of its J and J^T blocks, and the right-hand sides (-grad f, 0)
    # and (-gbar, -c) with views of their -g and -c parts.
    kkt = _kkt_matrix(np.zeros((problem.m, n)))
    jac_block, jac_t_block = kkt[n:, :n], kkt[:n, n:]
    mult_rhs, step_rhs = np.zeros(len(kkt)), np.zeros(len(kkt))
    mult_top, step_top, neg_c = mult_rhs[:n], step_rhs[:n], step_rhs[n:]

    oracle = StochasticOracle(n, oracle_cfg)
    eps_f, eps_g = oracle_cfg.eps_f_noise, oracle_cfg.eps_g_noise
    max_iters, tol_infeas, tol_kkt = params.max_iters, params.tol_infeas, params.tol_kkt
    # Bound once per run. The helpers are read from this module's globals
    # here, so a patch made before the run (the benchmark's tracer, the
    # tests) is the one the run calls.
    f_at, c_at, jac_at, grad_at = problem.f, problem.c, problem.jacobian, problem.grad_f
    noisy_f, noisy_grad = oracle.noisy_f, oracle.noisy_grad
    norm_max, trial_tau, classify = max_abs, tau_trial, classify_iteration
    isfinite, sqrt, add_reduce, absolute, negative = (
        math.isfinite, math.sqrt, np.add.reduce, np.abs, np.negative)

    x = problem.x0.copy()
    alpha = ALPHA_MAX
    tau_bar = params.tau_init
    tau_floor = TAU_COLLAPSE_RTOL * tau_bar
    logs = np.empty(min(max_iters, RUN_LOG_CAPACITY), run_log_dtype(n))
    # A breakdown sets only reason, which makes the run a LINEAR_ALGEBRA_FAILURE.
    status: Optional[RunStatus] = None
    reason: Optional[str] = None
    # f and c at the current iterate: evaluated here for x0, then carried
    # over from the trial point of each accepted step.
    f_exact = f_at(x)
    c_vec = c_at(x)
    c_l1 = float(add_reduce(absolute(c_vec)))
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
            jac = jac_at(x)
            g_exact = grad_at(x)
            c_max = norm_max(c_vec)
            jac_max = norm_max(jac)
            if not (isfinite(c_max) and isfinite(jac_max) and isfinite(norm_max(g_exact))
                    and isfinite(f_exact)):
                reason = "non-finite problem evaluation at the current iterate"
                break
            infeas_inf = c_max
            # Write J, J^T and -c, factor once, and solve for the
            # multipliers. The matrix's entries other than J's are 1 and 0,
            # so its ||.||_max, the scale of the pivot floor, is
            # max(1, ||J||_max).
            jac_t_block[...] = jac.T
            jac_block[...] = jac
            negative(c_vec, out=neg_c)
            lu, piv, _ = linalg.dgetrf(kkt)
            try:
                check_pivots(lu, max(1.0, jac_max))
            except SingularMatrixError:
                reason = "constraint Jacobian is rank deficient"
                break
            negative(g_exact, out=mult_top)
            kkt_inf = norm_max(linalg.dgetrs(lu, piv, mult_rhs)[0][:n])
            moved = False
            if infeas_inf <= tol_infeas and kkt_inf <= tol_kkt:
                status = RunStatus.CONVERGED
                break

        if k >= max_iters:
            status = RunStatus.BUDGET_EXHAUSTED
            break

        # Noisy gradient, KKT direction (d, y) and ||J d + c||_inf.
        g_bar = noisy_grad(g_exact)
        g_max = norm_max(g_bar)
        if not isfinite(g_max):
            reason = "non-finite noisy gradient"
            break
        negative(g_bar, out=step_top)
        z = linalg.dgetrs(lu, piv, step_rhs)[0]
        d, y = z[:n], z[n:]
        lin_feas = norm_max(jac_block.dot(d) - neg_c)
        # The solve's rounding scales with its right-hand side (g_bar, c),
        # and J d's own with ||J||_max ||d||_1, a bound on each |(J d)_i|.
        # That term is taken only where the first bound fails, and only
        # when finite, so an overflowed solve keeps its reason. Negated,
        # so that a NaN fails the test.
        if not (lin_feas <= LINEARIZED_FEASIBILITY_RTOL * (1.0 + max(infeas_inf, g_max))):
            jd_bound = jac_max * float(add_reduce(absolute(d)))
            if not (isfinite(jd_bound)
                    and lin_feas <= LINEARIZED_FEASIBILITY_RTOL * (1.0 + jd_bound)):
                reason = f"inaccurate KKT solve: ||J d + c||_inf = {lin_feas:g}"
                break

        # Merit parameter update and predicted reduction, from the step's
        # two products (g'd = c'y - d'd; see the module docstring). A
        # finite d or y can still square to inf, and tau and delta_l
        # would then compare inf with inf.
        dd = float(d.dot(d))
        cy = float(c_vec.dot(y))
        if not (isfinite(dd) and isfinite(cy)):
            reason = f"step too large: d'd = {dd:g}, c'y = {cy:g}"
            break
        # tau_bar never increases, and any cut is by a factor of at least
        # (1 - EPS_TAU).
        trial = trial_tau(cy, c_l1)
        if not tau_bar <= trial:
            tau_bar = min((1.0 - EPS_TAU) * tau_bar, trial)
        if tau_bar <= tau_floor:
            reason = f"merit parameter collapsed to {tau_bar!r}"
            break
        delta_l = -tau_bar * (cy - dd) + c_l1
        bound = tau_bar * dd + SIGMA * c_l1
        if not (delta_l >= bound - MODEL_REDUCTION_SLACK * max(1.0, abs(delta_l), bound)):
            raise InvariantViolationError(
                f"model reduction {delta_l:g} below guaranteed bound {bound:g} at iteration {k}"
            )

        # Trial point, its exact f and c, the two fresh merit samples and
        # the noise-relaxed sufficient-decrease test, which is non-strict.
        # A NaN or +inf trial merit fails it, so such a step is rejected;
        # a -inf one is accepted and ends the run at the new iterate's
        # finiteness check.
        x_plus = x + alpha * d
        f_plus = f_at(x_plus)
        c_plus = c_at(x_plus)
        f_bar_current = noisy_f(f_exact)
        f_bar_trial = noisy_f(f_plus)
        c_plus_l1 = float(add_reduce(absolute(c_plus)))
        phi_bar_current = tau_bar * f_bar_current + c_l1
        phi_bar_trial = tau_bar * f_bar_trial + c_plus_l1
        accepted = phi_bar_trial <= phi_bar_current - alpha * THETA * delta_l + 2.0 * tau_bar * eps_f

        g_err = g_bar - g_exact
        true_iter = classify(sqrt(g_err.dot(g_err)),
                             abs(f_bar_current - f_exact) + abs(f_bar_trial - f_plus),
                             alpha, delta_l, eps_g, eps_f)
        if k == len(logs):
            logs = np.concatenate((logs, np.empty_like(logs)))
        logs[k] = (k, x, d, g_bar, alpha, tau_bar, delta_l, phi_bar_current, phi_bar_trial,
                   f_bar_current, f_bar_trial, accepted, infeas_inf, kkt_inf,
                   oracle.zeroth_calls, oracle.first_calls, true_iter)

        if accepted:
            x, f_exact, c_vec, c_l1 = x_plus, f_plus, c_plus, c_plus_l1
            moved = True
            alpha = min(ALPHA_MAX, alpha / GAMMA)
        else:
            alpha = GAMMA * alpha
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

