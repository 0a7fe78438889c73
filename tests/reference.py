"""Hand-rolled reference implementations and helpers shared by the test modules.

Everything here is deliberately naive. The inverse and the CSV doctor
are independent of the library's LAPACK-backed code paths. The reference
solve loop writes out each step rule itself (the merit parameter's trial
value and update, the model reduction, the acceptance test, the step
size and the true-iteration test) and shares only the library's one-shot
KKT solves (sqp.solve_kkt, sqp.least_squares_multipliers) and its
constants, so a fault in one of sqp's rule helpers shows up as a
mismatch against it.
"""

import json
import math
from types import SimpleNamespace

import numpy as np

from stepsqp import sqp
from stepsqp.linalg import SingularMatrixError
from stepsqp.sqp import RunStatus


def gauss_jordan_inverse(a):
    """Explicit inverse by Gauss-Jordan elimination with partial pivoting."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    aug = np.hstack([a.copy(), np.eye(n)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot_row, col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def doctor_run_csv(run_dir, column, row, value):
    """Overwrite one cell of the first run CSV with at least row + 1 rows."""
    for entry in json.loads((run_dir / "summary.json").read_text())["runs"]:
        path = run_dir / entry["csv"]
        lines = path.read_text().splitlines()
        if len(lines) > row + 1:
            header = lines[0].split(",")
            fields = lines[row + 1].split(",")
            fields[header.index(column)] = value
            lines[row + 1] = ",".join(fields)
            path.write_text("\n".join(lines) + "\n")
            return path
    raise AssertionError("no run CSV is long enough")


_FLOAT_COLUMNS = ("alpha", "tau_bar", "delta_l", "phi_bar_current", "phi_bar_trial",
                  "f_bar_current", "f_bar_trial", "infeas_inf", "kkt_inf")
_INT_COLUMNS = ("k", "accepted", "zeroth_calls", "first_calls", "true_iter")


def reference_solve(problem, params, oracle_cfg):
    """sqp.solve restated as a plain loop with fresh allocations.

    Every iterate is evaluated afresh (f, c, J and grad f), its exact
    KKT residual comes from sqp.least_squares_multipliers and each step
    from sqp.solve_kkt. The noise comes from the run's own Philox stream
    in stream order, n normals for the gradient sample and then one for
    each value sample: f + eps_f * z and grad f + (eps_g / sqrt(n)) * z.
    The step rules are written out here, in sqp's operation order, so
    that every column matches to the bit. Returns the run's columns
    (every field of the record's iterations, k included) with its status,
    failure reason, final x, final metrics and oracle call counts.
    """
    key = np.array([oracle_cfg.seed, oracle_cfg.stream_id], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    grad_scale = oracle_cfg.eps_g_noise / np.sqrt(problem.n)
    rows = []
    zeroth = first = 0
    x = problem.x0.copy()
    alpha, tau_bar = sqp.ALPHA_MAX, params.tau_init
    tau_floor = sqp.TAU_COLLAPSE_RTOL * params.tau_init
    status = reason = None
    evaluate = True
    k = 0
    while True:
        if evaluate:
            infeas = kkt = None
            f_x, c, jac, g = problem.f(x), problem.c(x), problem.jacobian(x), problem.grad_f(x)
            if not (np.isfinite(c).all() and np.isfinite(jac).all() and np.isfinite(g).all()
                    and math.isfinite(f_x)):
                status = RunStatus.LINEAR_ALGEBRA_FAILURE
                reason = "non-finite problem evaluation at the current iterate"
                break
            infeas = float(np.max(np.abs(c)))
            try:
                _, kkt = sqp.least_squares_multipliers(g, jac)
            except SingularMatrixError:
                status = RunStatus.LINEAR_ALGEBRA_FAILURE
                reason = "constraint Jacobian is rank deficient"
                break
            evaluate = False
            if infeas <= params.tol_infeas and kkt <= params.tol_kkt:
                status = RunStatus.CONVERGED
                break
        if k >= params.max_iters:
            status = RunStatus.BUDGET_EXHAUSTED
            break

        first += 1
        g_bar = g + grad_scale * rng.standard_normal(problem.n)
        g_max = float(np.max(np.abs(g_bar)))
        if not math.isfinite(g_max):
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = "non-finite noisy gradient"
            break
        d, y, lin_feas = sqp.solve_kkt(jac, g_bar, c)
        if not lin_feas <= sqp.LINEARIZED_FEASIBILITY_RTOL * (1.0 + max(infeas, g_max)):
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = f"inaccurate KKT solve: ||J d + c||_inf = {lin_feas:g}"
            break
        c_l1 = float(np.abs(c).sum())
        dd = float(np.dot(d, d))
        cy = float(np.dot(c, y))
        if not (math.isfinite(dd) and math.isfinite(cy)):
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = f"step too large: d'd = {dd:g}, c'y = {cy:g}"
            break
        # The largest tau whose model reduction dominates
        # tau * d'd + sigma * ||c||_1, with g'd + d'd = c'y for a KKT step;
        # a cut lands at min((1 - eps_tau) * tau, trial).
        trial = (1.0 - sqp.SIGMA) * c_l1 / cy if cy > 0.0 else math.inf
        if tau_bar > trial:
            tau_bar = min((1.0 - sqp.EPS_TAU) * tau_bar, trial)
        if tau_bar <= tau_floor:
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = f"merit parameter collapsed to {tau_bar!r}"
            break
        delta_l = -tau_bar * (cy - dd) + c_l1

        x_plus = x + alpha * d
        f_plus, c_plus = problem.f(x_plus), problem.c(x_plus)
        zeroth += 2
        f_bar_current = f_x + oracle_cfg.eps_f_noise * rng.standard_normal()
        f_bar_trial = f_plus + oracle_cfg.eps_f_noise * rng.standard_normal()
        phi_bar_current = tau_bar * f_bar_current + c_l1
        phi_bar_trial = tau_bar * f_bar_trial + float(np.abs(c_plus).sum())
        # The noise-relaxed Armijo test, non-strict.
        accepted = phi_bar_trial <= (phi_bar_current - alpha * sqp.THETA * delta_l
                                     + 2.0 * tau_bar * oracle_cfg.eps_f_noise)
        # True: the gradient sample within max(eps_g, alpha * sqrt(delta_l))
        # and the two value samples' errors within 2 * eps_f together.
        g_err = g_bar - g
        grad_err = math.sqrt(np.dot(g_err, g_err))
        value_err = abs(f_bar_current - f_x) + abs(f_bar_trial - f_plus)
        true_iter = (grad_err <= max(oracle_cfg.eps_g_noise,
                                     alpha * math.sqrt(max(delta_l, 0.0)))
                     and value_err <= 2.0 * oracle_cfg.eps_f_noise)
        rows.append(dict(
            k=k, x=x, d=d, g_bar=g_bar, alpha=alpha, tau_bar=tau_bar, delta_l=delta_l,
            phi_bar_current=phi_bar_current, phi_bar_trial=phi_bar_trial,
            f_bar_current=f_bar_current, f_bar_trial=f_bar_trial, accepted=accepted,
            infeas_inf=infeas, kkt_inf=kkt, zeroth_calls=zeroth, first_calls=first,
            true_iter=true_iter,
        ))
        if accepted:
            x = x_plus
            evaluate = True
        # Grow alpha by 1/gamma up to alpha_max on acceptance, else shrink it by gamma.
        alpha = min(sqp.ALPHA_MAX, alpha / sqp.GAMMA) if accepted else sqp.GAMMA * alpha
        k += 1

    columns = {
        name: np.array([row[name] for row in rows], dtype=np.float64).reshape(-1, problem.n)
        for name in ("x", "d", "g_bar")
    }
    columns.update({name: np.array([row[name] for row in rows], dtype=np.float64)
                    for name in _FLOAT_COLUMNS})
    columns.update({name: np.array([row[name] for row in rows], dtype=np.int64)
                    for name in _INT_COLUMNS})
    return SimpleNamespace(
        columns=columns, status=status, failure_reason=reason, final_x=x,
        final_infeas_inf=infeas, final_kkt_inf=kkt, zeroth_calls=zeroth, first_calls=first,
    )


def assert_matches_reference(problem, params, cfg):
    """solve and reference_solve agree bit for bit on every column and outcome."""
    record = sqp.solve(problem, params, cfg)
    ref = reference_solve(problem, params, cfg)
    assert sorted(ref.columns) == sorted(record.iterations.dtype.names)
    for name, expected in ref.columns.items():
        got = record.iterations[name]
        assert got.dtype == expected.dtype and got.shape == expected.shape, (
            f"{name}: {got.dtype} {got.shape}, reference {expected.dtype} {expected.shape}")
        # A view as uint64 tells -0.0 from 0.0 and keeps NaNs equal.
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64), name)
    np.testing.assert_array_equal(record.final_x.view(np.uint64), ref.final_x.view(np.uint64))
    # repr is exact for floats, and tells -0.0 from 0.0.
    outcome = ("status", "failure_reason", "final_infeas_inf", "final_kkt_inf", "zeroth_calls",
               "first_calls")
    assert repr([getattr(record, name) for name in outcome]) == repr(
        [getattr(ref, name) for name in outcome]
    )
    return record
