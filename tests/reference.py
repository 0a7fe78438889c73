"""Hand-rolled reference implementations and helpers shared by the test modules.

Everything here is deliberately naive. The inverse and the CSV doctor
are independent of the library's LAPACK-backed code paths; the reference
solve loop shares the library's single-step helpers and one-shot KKT
solves but none of its run-level machinery.
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
    The step logic is the same sqp helpers. Returns the run's columns
    (every field of the record's iterations, k included) with its status,
    failure reason, final x, final metrics and oracle call counts.
    """
    key = np.array([oracle_cfg.seed, oracle_cfg.stream_id], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    grad_scale = oracle_cfg.eps_g_noise / np.sqrt(problem.n)
    rows = []
    zeroth = first = 0
    x = problem.x0.copy()
    alpha, tau_bar = params.alpha0, params.tau_init
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
        tau_bar = sqp.update_tau(tau_bar, sqp.tau_trial(cy, c_l1, params.sigma), params.eps_tau)
        if tau_bar <= tau_floor:
            status = RunStatus.LINEAR_ALGEBRA_FAILURE
            reason = f"merit parameter collapsed to {tau_bar:g}"
            break
        delta_l = sqp.model_reduction(tau_bar, cy - dd, c_l1)

        x_plus = x + alpha * d
        f_plus, c_plus = problem.f(x_plus), problem.c(x_plus)
        zeroth += 2
        f_bar_current = f_x + oracle_cfg.eps_f_noise * rng.standard_normal()
        f_bar_trial = f_plus + oracle_cfg.eps_f_noise * rng.standard_normal()
        phi_bar_current = tau_bar * f_bar_current + c_l1
        phi_bar_trial = tau_bar * f_bar_trial + float(np.abs(c_plus).sum())
        accepted = sqp.acceptance_test(phi_bar_trial, phi_bar_current, alpha, params.theta,
                                       delta_l, tau_bar, oracle_cfg.eps_f_noise)
        g_err = g_bar - g
        true_iter = sqp.classify_iteration(
            math.sqrt(np.dot(g_err, g_err)),
            abs(f_bar_current - f_x) + abs(f_bar_trial - f_plus),
            alpha, delta_l, oracle_cfg.eps_g_noise, oracle_cfg.eps_f_noise,
        )
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
        alpha = sqp.step_size_update(alpha, accepted, params.gamma, params.alpha_max)
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
