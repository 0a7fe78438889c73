"""Acceptance suite: one test per shipping criterion.

Each test prints a single "<tag> PASS/FAIL: <measurements>" line (visible
with pytest -s, or in the captured output on failure) and then asserts,
so `pytest -v` gives one verdict line per criterion. The checks
deliberately recompute expectations from scratch (projections, explicit
matrix inverses, raw sample statistics) instead of reusing library code.
"""

import concurrent.futures
import functools
import json
import math
import multiprocessing
import time

import conftest
import numpy as np
import scipy.linalg.lapack
from reference import gauss_jordan_inverse
from test_readme import readme_default_grid

from stepsqp.bench import ExperimentGrid, build_profile, first_hit, grid_cells, run_cell
from stepsqp.cli import EXIT_OK, _usable_cpus, main
from stepsqp.oracles import OracleConfig, StochasticOracle, derive_stream
from stepsqp.problems import get_problem, problem_names
from stepsqp.sqp import EPS_TAU, SIGMA, THETA, RunStatus, solve, solve_kkt

QUIET = OracleConfig(eps_f_noise=0.0, eps_g_noise=0.0)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_ac1_noise_free_suite_converges_quickly():
    """Every registry problem converges without noise, fast."""
    t0 = time.perf_counter()
    iteration_counts = {}
    for name in problem_names():
        record = solve(get_problem(name), oracle_cfg=QUIET)
        assert record.status == RunStatus.CONVERGED, f"{name}: {record.status}"
        assert record.final_infeas_inf <= 1e-6
        assert record.final_kkt_inf <= 1e-4
        iteration_counts[name] = len(record.iterations)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0 and max(iteration_counts.values()) <= 1000
    _report(
        "AC1",
        ok,
        f"{len(iteration_counts)} problems converged in {elapsed:.2f}s, "
        f"max iterations {max(iteration_counts.values())}",
    )


def test_ac2_projection_reached_in_one_step():
    """The minimum-norm problem is solved by its first iterate."""
    problem = get_problem("P2")
    record = solve(problem, oracle_cfg=QUIET)
    # Independent expectation: the projection A'(AA')^{-1} b of the origin.
    a_mat = problem.jacobian(problem.x0)
    b_vec = a_mat @ problem.x0 - problem.c(problem.x0)
    expected = a_mat.T @ np.linalg.solve(a_mat @ a_mat.T, b_vec)
    err = float(np.max(np.abs(record.final_x - expected)))
    ok = record.status == RunStatus.CONVERGED and len(record.iterations) == 1 and err <= 1e-8
    _report("AC2", ok, f"1-step solve, |x - projection|_inf = {err:.2e}")


def check_ac3_cell(grid, cell):
    """Solve one grid cell as bench does and check its per-iteration guarantees from scratch.

    Returns the run's step count, whether it failed, and its violations.
    The checks read the run log's columns; c and J are evaluated afresh
    at every logged x. Runs in the forked workers of the AC3 pool, so it
    first checks that the suite's residual-checked dgetrs came along.
    """
    assert scipy.linalg.lapack.dgetrs is conftest.checked_dgetrs, \
        "solves are unchecked in this process"
    problem = get_problem(cell.problem)
    record = run_cell(grid, cell)
    logs = record.iterations
    steps = len(logs)
    if record.status == RunStatus.LINEAR_ALGEBRA_FAILURE:
        return steps, True, []
    x, d, alpha, tau = logs["x"], logs["d"], logs["alpha"], logs["tau_bar"]
    delta_l, accepted = logs["delta_l"], logs["accepted"] == 1
    phi_current, phi_trial = logs["phi_bar_current"], logs["phi_bar_trial"]
    # ||c||_1 at each logged x and at the final iterate, and (c) whether
    # each step satisfies the linearized constraints.
    c_l1 = np.empty(steps + 1)
    linearized = np.empty(steps, dtype=bool)
    for j in range(steps):
        c_vec = problem.c(x[j])
        abs_c = np.abs(c_vec)
        c_l1[j] = float(abs_c.sum())
        residual = float(np.abs(problem.jacobian(x[j]) @ d[j] + c_vec).max())
        linearized[j] = residual <= 1e-9 * (1.0 + float(abs_c.max()))
    c_l1[steps] = float(np.abs(problem.c(record.final_x)).sum())
    bound = tau * np.einsum("ij,ij->i", d, d) + SIGMA * c_l1[:-1]
    previous_tau = np.concatenate(([grid.params.tau_init], tau[:-1]))
    calls = np.arange(1, steps + 1)
    moved_to = np.where(accepted[:, None], x + alpha[:, None] * d, x)
    # Each entry is a boolean column, true at the iterations that break it.
    broken = {
        # (a) predicted reduction dominates its guaranteed bound (H = I).
        "model reduction": delta_l < bound - 1e-9,
        # (b) the merit parameter never increases, and cuts are by at
        # least the protected factor.
        "merit parameter": (tau > previous_tau)
        | ((tau != previous_tau) & (tau > (1.0 - EPS_TAU) * previous_tau)),
        # (c), from the loop above.
        "linearized feasibility": ~linearized,
        # (d) exactly two value samples and one gradient sample each.
        "oracle accounting": (logs["zeroth_calls"] != 2 * calls) | (logs["first_calls"] != calls),
        # (f) the merit samples are taken at the logged points: the
        # current one at x, an accepted step's trial one at the point it
        # moved to, whose c the next row (or the final iterate) holds;
        "current merit sample": phi_current != tau * logs["f_bar_current"] + c_l1[:-1],
        "trial merit sample": accepted & (phi_trial != tau * logs["f_bar_trial"] + c_l1[1:]),
        # and the step is accepted exactly when the noise-relaxed Armijo
        # test passes on them.
        "noise-relaxed Armijo decision": accepted != (
            phi_trial <= phi_current - alpha * THETA * delta_l + 2.0 * tau * cell.eps_f
        ),
        # (e) rejected steps keep the iterate, accepted steps move it.
        "iterate update": np.append((x[1:] != moved_to[:-1]).any(axis=1), False),
    }
    violations = [
        f"{cell.problem}/{cell.stream_id} k={k}: {kind}"
        for kind, mask in broken.items()
        for k in np.flatnonzero(mask).tolist()
    ]
    return steps, False, violations


def test_ac3_invariants_hold_across_the_full_grid():
    """Per-iteration guarantees hold for every run of the default grid.

    The cells are spread over one forked worker per usable CPU, which
    inherit this process's modules and settings; serially where fork is
    not available or one CPU is.
    """
    grid = ExperimentGrid()
    task = functools.partial(check_ac3_cell, grid)
    cells = grid_cells(grid)
    workers = _usable_cpus()
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        # Forked workers inherit LAPACK from here, where this module
        # imported it, instead of each loading it.
        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
            results = list(pool.map(task, cells, chunksize=4))
    else:
        results = list(map(task, cells))
    steps = sum(count for count, _, _ in results)
    failures = sum(failed for _, failed, _ in results)
    violations = [found for _, _, cell_violations in results for found in cell_violations]
    # README states the default grid's size and iteration total.
    stated = readme_default_grid()
    ok = not violations and failures == 0 and (len(results), steps) == stated
    _report(
        "AC3",
        ok,
        f"{len(results)} runs, {steps} steps, {failures} failed, "
        f"{len(violations)} invariant violations"
        + (f"; first: {violations[0]}" if violations else "")
        + f"; README states {stated[0]} runs and {stated[1]} iterations",
    )


def test_ac4_noisy_runs_reach_noise_level_stationarity():
    """With gradient noise 1e-1, most replicates reach 10x that level."""
    eps_f, eps_g = 1e-2, 1e-1
    hits = 0
    best_values = []
    for rep in range(5):
        cfg = OracleConfig(
            eps_f_noise=eps_f,
            eps_g_noise=eps_g,
            seed=0,
            stream_id=derive_stream(0, "P2", (eps_f, eps_g), rep),
        )
        record = solve(get_problem("P2"), oracle_cfg=cfg)
        # The start has a zero objective gradient by construction, so its
        # dual residual is trivially zero; exclude it.
        candidates = record.iterations["kkt_inf"][1:].tolist()
        if record.final_kkt_inf is not None:
            candidates.append(record.final_kkt_inf)
        best = min(candidates)
        best_values.append(best)
        hits += best <= 10.0 * eps_g
    ok = hits >= 4
    _report(
        "AC4",
        ok,
        f"{hits}/5 replicates reached KKT residual <= {10.0 * eps_g:g} "
        f"(best values {', '.join(f'{v:.1e}' for v in best_values)})",
    )


def test_ac5_stationarity_decades_cost_bounded_iterations():
    """Successive accuracy decades cost at most 100x the iterations."""
    record = solve(get_problem("P3"), oracle_cfg=QUIET)
    assert record.status == RunStatus.CONVERGED
    logs = record.iterations
    series = [max(kkt, math.sqrt(infeas))
              for kkt, infeas in zip(logs["kkt_inf"].tolist(), logs["infeas_inf"].tolist())]
    series.append(max(record.final_kkt_inf, math.sqrt(record.final_infeas_inf)))
    thresholds = (1e-1, 1e-2, 1e-3)
    hit_times = []
    for level in thresholds:
        hits = [k for k, value in enumerate(series) if value <= level]
        assert hits, f"level {level:g} never reached"
        hit_times.append(hits[0])
    monotone = all(a <= b for a, b in zip(hit_times, hit_times[1:]))
    ratios = [b / max(a, 1) for a, b in zip(hit_times, hit_times[1:])]
    ok = monotone and all(r <= 100.0 for r in ratios)
    _report(
        "AC5",
        ok,
        f"hitting times {hit_times} for levels {list(thresholds)}, "
        f"decade ratios {', '.join(f'{r:.2f}' for r in ratios)}",
    )


def test_ac6_kkt_solver_matches_explicit_inversion():
    """The production solve agrees with a naive Gauss-Jordan inverse."""
    rng = np.random.default_rng(2024)
    worst_diff = 0.0
    worst_residual = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(n, 8 - n) + 1))
        jac = rng.standard_normal((m, n))
        g = rng.standard_normal(n)
        c = rng.standard_normal(m)
        kkt = np.zeros((n + m, n + m))
        kkt[:n, :n] = np.eye(n)
        kkt[:n, n:] = jac.T
        kkt[n:, :n] = jac
        if np.linalg.cond(kkt) > 1e6:
            continue
        rhs = np.concatenate([-g, -c])
        expected = gauss_jordan_inverse(kkt) @ rhs
        d, y, _ = solve_kkt(jac, g, c)
        z = np.concatenate([d, y])
        np.testing.assert_allclose(z, expected, rtol=1e-8, atol=1e-8)
        residual = float(np.max(np.abs(kkt @ z - rhs)))
        assert residual <= 1e-10 * (1.0 + float(np.max(np.abs(rhs))))
        worst_diff = max(worst_diff, float(np.max(np.abs(z - expected))))
        worst_residual = max(worst_residual, residual)
        checked += 1
    _report(
        "AC6",
        checked == 100,
        f"100 systems, worst |difference| {worst_diff:.2e}, "
        f"worst residual {worst_residual:.2e}",
    )


def test_ac7_oracle_noise_statistics():
    """Sampled noise matches its nominal scales at grid levels."""
    eps_f, eps_g = 1e-2, 1e-1
    samples = 100_000
    problem = get_problem("P2")
    x = np.array([0.3, -0.7])
    cfg = OracleConfig(eps_f_noise=eps_f, eps_g_noise=eps_g, seed=99, stream_id=1)
    oracle = StochasticOracle(problem.n, cfg)
    f_exact = problem.f(x)
    g_exact = problem.grad_f(x)

    value_errors = np.array([oracle.noisy_f(f_exact) - f_exact for _ in range(samples)])
    grad_sq_errors = np.array(
        [float(np.sum((oracle.noisy_grad(g_exact) - g_exact) ** 2)) for _ in range(samples)]
    )
    mean_band = 3.0 * eps_f / math.sqrt(samples)
    mean_ok = abs(float(value_errors.mean())) <= mean_band
    var_ok = abs(float(np.mean(value_errors**2)) - eps_f**2) <= 0.05 * eps_f**2
    grad_ok = abs(float(grad_sq_errors.mean()) - eps_g**2) <= 0.05 * eps_g**2
    ok = mean_ok and var_ok and grad_ok
    _report(
        "AC7",
        ok,
        f"{samples} samples: |mean| {abs(float(value_errors.mean())):.2e} "
        f"(band {mean_band:.2e}), E[e_f^2] {float(np.mean(value_errors**2)):.3e} "
        f"vs {eps_f**2:.3e}, E|e_g|^2 {float(grad_sq_errors.mean()):.4f} vs {eps_g**2:.4f}",
    )


def test_ac8_profile_and_budget_conventions():
    """Profile steps, and the convergence test's first hits, match worked examples."""
    # Ratios 1 and 2 on one instance: each curve is one step to rho = 1.
    profile = build_profile({"A": {"i1": 10.0}, "B": {"i1": 20.0}})
    # On i both budgets are 0, so both ratios are 1 (0/0 is 1). On j A
    # spends 0 and B 5: B's positive budget over a best of 0 adds no step,
    # and neither does the instance k that nobody solved.
    zeros = build_profile({"A": {"i": 0.0, "j": 0.0, "k": None},
                           "B": {"i": 0.0, "j": 5.0, "k": None}})
    profile_ok = (
        profile.instances == ("i1",)
        and profile.curves == {"A": [(1.0, 1.0)], "B": [(2.0, 1.0)]}
        and zeros.instances == ("i", "j", "k")
        and zeros.curves == {"A": [(1.0, 2 / 3)], "B": [(1.0, 1 / 3)]}
    )
    # Reaching the best value converges exactly at that point.
    first = first_hit(np.array([5.0, 3.0, 1.0]), 5.0, 1.0)
    # A zero reachable gap converges immediately.
    second = first_hit(np.array([2.0, 2.0]), 2.0, 2.0)
    # A 1 - 1e-3 fraction of the gap is closed by the third point only.
    third = first_hit(np.array([1.0, 0.5, 1e-4]), 1.0, 0.0)
    hits_ok = (first, second, third) == (2, 0, 2)
    ok = profile_ok and hits_ok
    _report("AC8", ok, f"profile ok={profile_ok}, first hits {(first, second, third)}")


def test_ac9_parallel_bench_outputs_are_byte_identical(tmp_path):
    """Worker count never changes any per-run or profile CSV, nor summary.json but its times."""
    cfg = {
        "grid": {
            "problems": ["P1", "hs6", "qp10"],
            "noise_pairs": [[0, 1e-2], [1e-2, 1e-1], [0, 0]],
            "replicates": 2,
        }
    }
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(cfg))
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert main(["bench", "--config", str(cfg_path), "--out", str(serial)]) == EXIT_OK
    assert (
        main(["bench", "--config", str(cfg_path), "--out", str(threaded), "--jobs", "4"])
        == EXIT_OK
    )
    serial_names = sorted(p.name for p in serial.glob("*.csv"))
    threaded_names = sorted(p.name for p in threaded.glob("*.csv"))
    assert serial_names == threaded_names and len(serial_names) >= 15
    mismatched = [
        name
        for name in serial_names
        if (serial / name).read_bytes() != (threaded / name).read_bytes()
    ]

    def summary_without_times(out_dir):
        summary = json.loads((out_dir / "summary.json").read_text())
        del summary["wall_time_s"]
        for entry in summary["runs"]:
            del entry["wall_time_s"]
        return summary

    if summary_without_times(serial) != summary_without_times(threaded):
        mismatched.append("summary.json")
    _report(
        "AC9",
        not mismatched,
        f"{len(serial_names)} CSV files and summary.json (less wall_time_s) compared "
        "across --jobs 1 vs 4" + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
