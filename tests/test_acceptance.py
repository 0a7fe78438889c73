"""Acceptance suite: one test per shipping criterion.

Each test prints a single "<tag> PASS/FAIL: <measurements>" line (visible
with pytest -s, or in the captured output on failure) and then asserts,
so `pytest -v` gives one verdict line per criterion. The checks
deliberately recompute expectations from scratch (projections, explicit
matrix inverses, raw sample statistics) instead of reusing library code.
"""

import json
import math
import time

import numpy as np
from reference import gauss_jordan_inverse

from stepsqp.bench import (
    ExperimentGrid,
    Trajectory,
    build_profile,
    convergence_budget,
    grid_cells,
)
from stepsqp.cli import EXIT_OK, main
from stepsqp.oracles import OracleConfig, StochasticOracle, derive_stream
from stepsqp.problems import get_problem, problem_names
from stepsqp.sqp import RunStatus, SolverParams, solve, solve_kkt

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


def test_ac3_invariants_hold_across_the_full_grid():
    """Per-iteration guarantees hold for every run of the default grid."""
    grid = ExperimentGrid()
    params = grid.params
    violations = []
    runs = 0
    failures = 0
    for cell in grid_cells(grid):
        problem = get_problem(cell.problem)
        cfg = OracleConfig(
            eps_f_noise=cell.eps_f,
            eps_g_noise=cell.eps_g,
            seed=grid.seed,
            stream_id=cell.stream_id,
        )
        record = solve(problem, params, cfg)
        runs += 1
        if record.status == RunStatus.LINEAR_ALGEBRA_FAILURE:
            failures += 1
            continue

        def flag(kind, log):
            violations.append(f"{cell.problem}/{cell.stream_id} k={log.k}: {kind}")

        previous_tau = params.tau_init
        for j, log in enumerate(record.iterations):
            c_vec = problem.c(log.x)
            c_l1 = float(np.sum(np.abs(c_vec)))
            # (a) predicted reduction dominates its guaranteed bound (H = I).
            bound = log.tau_bar * float(log.d @ log.d) + params.sigma * c_l1
            if log.delta_l < bound - 1e-9:
                flag("model reduction", log)
            # (b) the merit parameter never increases, and cuts are by
            # at least the protected factor.
            if log.tau_bar > previous_tau or (
                log.tau_bar != previous_tau
                and log.tau_bar > (1.0 - params.eps_tau) * previous_tau
            ):
                flag("merit parameter", log)
            previous_tau = log.tau_bar
            # (c) the step satisfies the linearized constraints.
            residual = float(np.max(np.abs(problem.jacobian(log.x) @ log.d + c_vec)))
            if residual > 1e-9 * (1.0 + float(np.max(np.abs(c_vec)))):
                flag("linearized feasibility", log)
            # (d) exactly two value samples and one gradient sample each.
            if log.zeroth_calls != 2 * (j + 1) or log.first_calls != j + 1:
                flag("oracle accounting", log)
        # (e) rejected steps keep the iterate, accepted steps move it.
        for prev, nxt in zip(record.iterations, record.iterations[1:]):
            moved_to = prev.x + prev.alpha * prev.d if prev.accepted else prev.x
            if not np.array_equal(nxt.x, moved_to):
                flag("iterate update", prev)
    ok = not violations and failures == 0
    _report(
        "AC3",
        ok,
        f"{runs} runs, {failures} failed, {len(violations)} invariant violations"
        + (f"; first: {violations[0]}" if violations else ""),
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
        candidates = [log.kkt_inf for log in record.iterations if log.k > 0]
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
    series = [max(log.kkt_inf, math.sqrt(log.infeas_inf)) for log in record.iterations]
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
        sol = solve_kkt(jac, g, c)
        z = np.concatenate([sol.d, sol.y])
        np.testing.assert_allclose(z, expected, rtol=1e-8, atol=1e-8)
        assert sol.residual_inf <= 1e-10 * (1.0 + float(np.max(np.abs(rhs))))
        worst_diff = max(worst_diff, float(np.max(np.abs(z - expected))))
        worst_residual = max(worst_residual, sol.residual_inf)
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
    oracle = StochasticOracle(problem, cfg)
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
    """Profile ratios and convergence budgets match worked examples."""
    profile = build_profile({"A": {"i1": 10.0}, "B": {"i1": 20.0}})
    profile_ok = (
        profile.rho("A", 1.0) == 1.0
        and profile.rho("B", 1.0) == 0.0
        and profile.rho("B", 2.0) == 1.0
    )
    # Reaching the best value converges exactly at that point.
    first = convergence_budget(
        Trajectory(np.array([5.0, 3.0, 1.0]), np.array([0.0, 3.0, 6.0])), 5.0, 1.0
    )
    # A zero reachable gap converges immediately.
    second = convergence_budget(Trajectory(np.array([2.0, 2.0]), np.array([0.0, 3.0])), 2.0, 2.0)
    # A fractional target is hit by the third point only.
    third = convergence_budget(
        Trajectory(np.array([1.0, 0.5, 1e-4]), np.array([0.0, 5.0, 9.0])), 1.0, 0.0, eps_pp=1e-3
    )
    budgets_ok = (first, second, third) == (6.0, 0.0, 9.0)
    ok = profile_ok and budgets_ok
    _report("AC8", ok, f"profile steps ok={profile_ok}, budgets {(first, second, third)}")


def test_ac9_parallel_bench_outputs_are_byte_identical(tmp_path):
    """Worker count never changes any per-run or profile CSV."""
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
    _report(
        "AC9",
        not mismatched,
        f"{len(serial_names)} CSV files byte-compared across --jobs 1 vs 4"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
