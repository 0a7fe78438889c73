"""End-to-end tests for the solve loop on registry and custom problems."""

import dataclasses
import gc
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from reference import reference_solve

from stepsqp import sqp
from stepsqp.bench import CSV_COLUMNS, ExperimentGrid, GridCell
from stepsqp.oracles import OracleConfig, derive_stream
from stepsqp.problems import Problem, get_problem, problem_names
from stepsqp.sqp import (
    InvariantViolationError,
    RunStatus,
    SolverParams,
    least_squares_multipliers,
    solve,
    solve_kkt,
    step_size_update,
)

NOISY = OracleConfig(eps_f_noise=1e-1, eps_g_noise=1e-1, seed=5, stream_id=2)
# `stepsqp run P1 --set oracle.eps_g_noise=1e308`: a finite gradient sample
# and step whose d'd overflows.
HUGE_GRADIENT_NOISE = OracleConfig(
    eps_g_noise=1e308, stream_id=derive_stream(0, "P1", (0.0, 1e308), 0)
)


def quiet(**kwargs):
    return OracleConfig(eps_f_noise=0.0, eps_g_noise=0.0, **kwargs)


class TestProjectionProblem:
    """P2 starts at the origin; the first step is the exact projection."""

    def test_single_step_convergence(self):
        record = solve(get_problem("P2"), oracle_cfg=quiet())
        assert record.status == RunStatus.CONVERGED
        assert len(record.iterations) == 1
        log = record.iterations[0]
        np.testing.assert_array_equal(log.x, [0.0, 0.0])
        np.testing.assert_allclose(log.d, [1.0, 1.0], atol=1e-12)
        assert log.alpha == 1.0
        assert log.accepted
        np.testing.assert_allclose(record.final_x, [1.0, 1.0], atol=1e-8)
        assert record.final_infeas_inf <= 1e-6
        assert record.final_kkt_inf <= 1e-4
        assert record.zeroth_calls == 2
        assert record.first_calls == 1
        assert record.wall_time > 0.0


class TestBudgets:
    def test_zero_budget_reports_initial_metrics(self):
        problem = get_problem("P2")
        record = solve(problem, params=SolverParams(max_iters=0), oracle_cfg=quiet())
        assert record.status == RunStatus.BUDGET_EXHAUSTED
        assert len(record.iterations) == 0
        np.testing.assert_array_equal(record.final_x, problem.x0)
        assert record.final_infeas_inf == 2.0
        assert record.final_kkt_inf == 0.0
        assert record.zeroth_calls == 0
        assert record.first_calls == 0

    def test_last_step_landing_on_the_solution_converges(self):
        # The budget's one step reaches P2's solution; the status comes
        # from that final iterate, not from the spent budget.
        record = solve(get_problem("P2"), SolverParams(max_iters=1), OracleConfig())
        assert record.status == RunStatus.CONVERGED
        assert len(record.iterations) == 1
        assert record.final_infeas_inf == 0.0
        assert record.final_kkt_inf == 0.0

    def test_small_budget_counts_calls(self):
        record = solve(get_problem("P1"), params=SolverParams(max_iters=3), oracle_cfg=quiet())
        assert record.status == RunStatus.BUDGET_EXHAUSTED
        assert len(record.iterations) == 3
        assert record.iterations["zeroth_calls"].tolist() == [2, 4, 6]
        assert record.iterations["first_calls"].tolist() == [1, 2, 3]
        assert record.final_infeas_inf is not None
        assert record.final_kkt_inf is not None


@pytest.fixture(scope="module")
def noisy_run():
    params = SolverParams(max_iters=200)
    record = solve(get_problem("P1"), params=params, oracle_cfg=NOISY)
    assert len(record.iterations) >= 20
    # Rejections must occur for the kept-iterate branch to be exercised.
    assert 0 < record.iterations["accepted"].sum() < len(record.iterations)
    return params, record


class TestTrajectoryInvariants:
    """Recurrences that must hold between consecutive iteration logs."""

    def test_iterate_update_rule(self, noisy_run):
        _, record = noisy_run
        logs = record.iterations
        for prev, nxt in zip(logs, logs[1:]):
            if prev.accepted:
                np.testing.assert_array_equal(nxt.x, prev.x + prev.alpha * prev.d)
            else:
                np.testing.assert_array_equal(nxt.x, prev.x)

    def test_step_size_recurrence(self, noisy_run):
        params, record = noisy_run
        logs = record.iterations
        assert logs[0].alpha == params.alpha0
        for prev, nxt in zip(logs, logs[1:]):
            expected = step_size_update(prev.alpha, prev.accepted, params.gamma, params.alpha_max)
            assert nxt.alpha == expected
            assert 0.0 < nxt.alpha <= params.alpha_max

    def test_merit_parameter_rule(self, noisy_run):
        params, record = noisy_run
        logs = record.iterations
        previous = params.tau_init
        for log in logs:
            assert log.tau_bar <= previous
            if log.tau_bar != previous:
                assert log.tau_bar <= (1.0 - params.eps_tau) * previous
            previous = log.tau_bar

    def test_model_reduction_dominates_bound(self, noisy_run):
        params, record = noisy_run
        problem = get_problem("P1")
        for log in record.iterations:
            c_l1 = float(np.sum(np.abs(problem.c(log.x))))
            curvature = float(log.d @ log.d)  # H is the identity here
            bound = log.tau_bar * curvature + params.sigma * c_l1
            assert log.delta_l >= bound - 1e-9

    def test_linearized_feasibility(self, noisy_run):
        _, record = noisy_run
        problem = get_problem("P1")
        for log in record.iterations:
            c_vec = problem.c(log.x)
            residual = np.max(np.abs(problem.jacobian(log.x) @ log.d + c_vec))
            assert residual <= 1e-9 * (1.0 + np.max(np.abs(c_vec)))

    def test_cumulative_counters(self, noisy_run):
        _, record = noisy_run
        for j, log in enumerate(record.iterations):
            assert log.k == j
            assert log.zeroth_calls == 2 * (j + 1)
            assert log.first_calls == j + 1


def _counting(problem):
    """The problem with every evaluator call after its construction tallied by name."""
    counts = Counter()

    def tally(name, fn):
        def counted(x):
            counts[name] += 1
            return fn(x)

        return counted

    wrapped = dataclasses.replace(
        problem,
        eval_f=tally("f", problem.eval_f),
        eval_grad_f=tally("grad_f", problem.eval_grad_f),
        eval_c=tally("c", problem.eval_c),
        eval_jacobian=tally("jacobian", problem.eval_jacobian),
    )
    counts.clear()  # construction evaluates c once, at x0, to size the problem
    return wrapped, counts


class TestExactEvaluationReuse:
    """Exact quantities are evaluated once per distinct iterate."""

    @pytest.mark.parametrize("name", ["P1", "hs6", "hs40"])
    def test_evaluations_per_distinct_iterate(self, name):
        problem, counts = _counting(get_problem(name))
        record = solve(problem, params=SolverParams(max_iters=150), oracle_cfg=NOISY)
        k = len(record.iterations)
        accepted = record.iterations["accepted"].sum()
        assert record.status == RunStatus.BUDGET_EXHAUSTED
        assert 0 < accepted < k
        iterates = 1 + accepted
        # grad f and J once per distinct iterate: the oracle perturbs the
        # exact gradient the loop holds.
        assert counts["grad_f"] == counts["jacobian"] == iterates
        # f and c once at x0 and once per trial point; an accepted trial
        # point's values carry over to the new iterate.
        assert counts["c"] == counts["f"] == 1 + k
        assert record.zeroth_calls == 2 * k
        assert record.first_calls == k

    def test_logged_kkt_residual_comes_from_the_kernel(self):
        problem = get_problem("hs6")
        record = solve(problem, params=SolverParams(max_iters=60), oracle_cfg=NOISY)
        points = [(log.x, log.kkt_inf) for log in record.iterations]
        points.append((record.final_x, record.final_kkt_inf))
        for x, kkt_inf in points:
            assert kkt_inf == least_squares_multipliers(problem.grad_f(x), problem.jacobian(x))[1]

    @pytest.mark.parametrize("name", ["hs40", "sphere30", "P2"])
    def test_logged_steps_match_a_fresh_kkt_solve(self, name):
        # The loop reuses one KKT matrix and right-hand side per run; each
        # step must equal, bit for bit, a solve of a freshly assembled
        # system. hs40 has m = 3, sphere30 n = 30, and P2 a constant J.
        problem = get_problem(name)
        record = solve(problem, params=SolverParams(max_iters=60), oracle_cfg=NOISY)
        assert len(record.iterations) == 60
        for log in record.iterations:
            ref = solve_kkt(problem.jacobian(log.x), log.g_bar, problem.c(log.x))
            np.testing.assert_array_equal(log.d, ref.d)


class TestReproducibility:
    def test_identical_seeds_give_identical_runs(self):
        first = solve(get_problem("hs6"), params=SolverParams(max_iters=50), oracle_cfg=NOISY)
        second = solve(get_problem("hs6"), params=SolverParams(max_iters=50), oracle_cfg=NOISY)
        assert first.status == second.status
        assert len(first.iterations) == len(second.iterations)
        np.testing.assert_array_equal(first.final_x, second.final_x)
        for a, b in zip(first.iterations, second.iterations):
            assert a.accepted == b.accepted
            np.testing.assert_array_equal(a.g_bar, b.g_bar)
            assert a.phi_bar_trial == b.phi_bar_trial

    def test_different_stream_differs(self):
        base = solve(get_problem("hs6"), params=SolverParams(max_iters=50), oracle_cfg=NOISY)
        other_cfg = OracleConfig(eps_f_noise=1e-1, eps_g_noise=1e-1, seed=5, stream_id=3)
        other = solve(get_problem("hs6"), params=SolverParams(max_iters=50), oracle_cfg=other_cfg)
        assert any(
            not np.array_equal(a.g_bar, b.g_bar)
            for a, b in zip(base.iterations, other.iterations)
        )


class TestClassification:
    def test_noise_free_iterations_are_all_true(self):
        record = solve(get_problem("P1"), oracle_cfg=quiet())
        assert record.status == RunStatus.CONVERGED
        assert (record.iterations["true_iter"] == 1).all()

    def test_noisy_runs_contain_false_iterations(self):
        # At gradient noise comparable to the gradient scale some samples
        # must exceed their allowance.
        cfg = OracleConfig(eps_f_noise=1e-1, eps_g_noise=1e-1, seed=11)
        record = solve(get_problem("P1"), params=SolverParams(max_iters=300), oracle_cfg=cfg)
        flags = record.iterations["true_iter"]
        assert flags.dtype == np.int64 and set(flags.tolist()) <= {0, 1}
        assert not flags.all()


def _custom(name, f, grad, c, jac, x0):
    return Problem(name=name, eval_f=f, eval_grad_f=grad, eval_c=c, eval_jacobian=jac, x0=x0)


def _scaled(problem, scale):
    """problem with f and grad f multiplied by scale."""
    return dataclasses.replace(
        problem,
        eval_f=lambda x: scale * problem.eval_f(x),
        eval_grad_f=lambda x: scale * problem.eval_grad_f(x),
    )


class TestFailurePaths:
    def test_rank_deficient_jacobian(self):
        # c(x) = x1^2 has a zero Jacobian row at x1 = 0.
        problem = _custom(
            "flatrow",
            f=lambda x: x[1],
            grad=lambda x: np.array([0.0, 1.0]),
            c=lambda x: np.array([x[0] ** 2]),
            jac=lambda x: np.array([[2.0 * x[0], 0.0]]),
            x0=np.array([0.0, 1.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason == "constraint Jacobian is rank deficient"
        assert len(record.iterations) == 0
        assert record.final_kkt_inf is None
        assert record.zeroth_calls == 2 * len(record.iterations)

    def test_duplicated_constraints_are_rank_deficient(self):
        # With H = I the KKT matrix is singular exactly when J is rank
        # deficient; two copies of one constraint give J = [[1, 0], [1, 0]].
        problem = _custom(
            "twice",
            f=lambda x: x[1],
            grad=lambda x: np.array([0.0, 1.0]),
            c=lambda x: np.array([x[0] - 1.0, x[0] - 1.0]),
            jac=lambda x: np.array([[1.0, 0.0], [1.0, 0.0]]),
            x0=np.array([0.0, 0.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason == "constraint Jacobian is rank deficient"
        assert len(record.iterations) == 0
        assert record.zeroth_calls == 2 * len(record.iterations)

    def test_merit_parameter_collapse(self):
        # f = 1e12 * x1, c = x1 - 1 from the origin: d = (1, 0) and
        # y = -(1e12 + 1), so c'y = g'd + d'd = 1e12 + 1 against
        # ||c||_1 = 1 and the trial penalty parameter 0.9 / (1e12 + 1)
        # falls below the collapse floor 1e-11 * tau_init = 1e-12.
        problem = _custom(
            "steep",
            f=lambda x: 1e12 * x[0],
            grad=lambda x: np.array([1e12, 0.0]),
            c=lambda x: np.array([x[0] - 1.0]),
            jac=lambda x: np.array([[1.0, 0.0]]),
            x0=np.array([0.0, 0.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason == "merit parameter collapsed to 9e-13"
        assert len(record.iterations) == 0
        # The call counts include the gradient sample of the broken iteration.
        assert (record.zeroth_calls, record.first_calls) == (0, 1)
        assert record.zeroth_calls == 2 * len(record.iterations)

    def test_non_finite_objective_at_start(self):
        problem = _custom(
            "nanstart",
            f=lambda x: math.nan,
            grad=lambda x: np.array([1.0, 0.0]),
            c=lambda x: np.array([x[1] - 1.0]),
            jac=lambda x: np.array([[0.0, 1.0]]),
            x0=np.array([1.0, 0.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason == "non-finite problem evaluation at the current iterate"
        assert record.zeroth_calls == 2 * len(record.iterations)

    def test_non_finite_objective_at_trial_point(self):
        # f is only defined for x1 >= 0. The first step lands on x1 = 0,
        # and every later trial point has x1 < 0: a NaN merit sample fails
        # the acceptance test, so those steps are rejected and alpha
        # shrinks until the budget is spent.
        problem = _custom(
            "halfline",
            f=lambda x: x[0] if x[0] >= 0.0 else math.nan,
            grad=lambda x: np.array([1.0, 0.0]),
            c=lambda x: np.array([x[1] - 1.0]),
            jac=lambda x: np.array([[0.0, 1.0]]),
            x0=np.array([1.0, 0.0]),
        )
        record = solve(problem, SolverParams(max_iters=50), quiet())
        assert record.status == RunStatus.BUDGET_EXHAUSTED
        assert len(record.iterations) == 50
        assert all(log.x[0] >= 0.0 for log in record.iterations)
        assert record.final_x[0] >= 0.0
        for log in record.iterations:
            if log.x[0] + log.alpha * log.d[0] < 0.0:
                assert not log.accepted
                assert not log.true_iter
        assert record.iterations[0].accepted
        assert (record.zeroth_calls, record.first_calls) == (100, 50)

    def test_log_barrier_backs_off_the_boundary(self):
        # f = -log x1 + 5 x1 + x2^2 on x1 + x2 = 2. The first trial point
        # (0, 2) has f = +inf and is rejected; half that step lands on the
        # solution (0.5, 1.5), with multiplier -3.
        problem = _custom(
            "barrier",
            f=lambda x: -math.log(x[0]) + 5.0 * x[0] + x[1] ** 2 if x[0] > 0.0 else math.inf,
            grad=lambda x: np.array([-1.0 / x[0] + 5.0, 2.0 * x[1]]),
            c=lambda x: np.array([x[0] + x[1] - 2.0]),
            jac=lambda x: np.array([[1.0, 1.0]]),
            x0=np.array([1.0, 1.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.CONVERGED
        assert record.iterations["accepted"].tolist() == [0, 1]
        assert record.iterations[0].phi_bar_trial == math.inf
        np.testing.assert_allclose(record.final_x, [0.5, 1.5], atol=1e-12)
        assert record.zeroth_calls == 2 * len(record.iterations)

    def test_minus_infinite_objective_is_accepted_then_fails_the_run(self):
        # Past x1 = 0, f drops to -inf: the sampled merit passes the
        # acceptance test, and the new iterate fails the finiteness check.
        problem = _custom(
            "cliff",
            f=lambda x: x[0] if x[0] >= 0.0 else -math.inf,
            grad=lambda x: np.array([1.0, 0.0]),
            c=lambda x: np.array([x[1] - 1.0]),
            jac=lambda x: np.array([[0.0, 1.0]]),
            x0=np.array([1.0, 0.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason == "non-finite problem evaluation at the current iterate"
        assert record.iterations["accepted"].tolist() == [1, 1]
        assert record.final_x[0] < 0.0
        assert record.final_infeas_inf is None
        assert record.final_kkt_inf is None
        assert record.zeroth_calls == 2 * len(record.iterations)

    def test_non_finite_constraint_at_trial_point_rejects_the_step(self):
        problem = _custom(
            "nanwall",
            f=lambda x: x[0],
            grad=lambda x: np.array([1.0, 0.0]),
            c=lambda x: np.array([x[1] - 1.0 if x[0] >= 0.0 else math.nan]),
            jac=lambda x: np.array([[0.0, 1.0]]),
            x0=np.array([1.0, 0.0]),
        )
        record = solve(problem, SolverParams(max_iters=5), quiet())
        assert record.status == RunStatus.BUDGET_EXHAUSTED
        assert record.iterations["accepted"].tolist() == [1, 0, 0, 0, 0]
        assert all(math.isnan(log.phi_bar_trial) for log in record.iterations[1:])
        assert record.final_x[0] == 0.0
        assert record.zeroth_calls == 2 * len(record.iterations)

    def test_nan_linearized_feasibility_fails_the_run(self, monkeypatch):
        step = sqp.KktSystem.step

        def nan_residual(self, g):
            return step(self, g)._replace(lin_feas=math.nan)

        monkeypatch.setattr(sqp.KktSystem, "step", nan_residual)
        record = solve(get_problem("hs6"), oracle_cfg=NOISY)
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason.startswith("inaccurate KKT solve")
        assert len(record.iterations) == 0
        assert (record.zeroth_calls, record.first_calls) == (0, 1)
        assert record.zeroth_calls == 2 * len(record.iterations)

    def test_badly_scaled_objective_keeps_the_model_reduction_bound(self):
        # With f scaled by 1e6 both sides of the bound pass 1e9, where
        # their rounding exceeds an absolute slack of 1e-9.
        record = solve(_scaled(get_problem("P1"), 1e6), SolverParams(max_iters=300), quiet())
        assert record.status == RunStatus.BUDGET_EXHAUSTED
        assert len(record.iterations) == 300
        assert record.zeroth_calls == 2 * len(record.iterations)

    def test_badly_scaled_objective_passes_the_solve_accuracy_check(self):
        # hs48 with f scaled by 1e6: an accurate solve leaves ||J d + c||_inf
        # = 3.7e-9 at the first step, which a bound of 1e-9 (1 + ||c||_inf)
        # alone rejects; the bound also scales with ||gbar||_inf.
        record = solve(_scaled(get_problem("hs48"), 1e6), SolverParams(max_iters=300), quiet())
        assert record.status == RunStatus.BUDGET_EXHAUSTED
        assert len(record.iterations) == 300
        assert record.zeroth_calls == 2 * len(record.iterations)

    def test_no_registry_problem_scaled_by_1e9_fails_the_solve_accuracy_check(self):
        for name in problem_names():
            record = solve(_scaled(get_problem(name), 1e9), SolverParams(max_iters=300), quiet())
            assert not (record.failure_reason or "").startswith("inaccurate KKT solve"), name

    def test_constraints_scaled_by_1e8_pass_the_solve_accuracy_check(self):
        # The log barrier with c and J scaled by 1e8: its first step leaves
        # ||J d + c||_inf = 7.3e-9, the rounding of J d with ||J||_max = 1e8,
        # above 1e-9 (1 + max(||c||_inf, ||gbar||_inf)) = 5e-9 but far below
        # 1e-9 (1 + ||J||_max ||d||_1).
        problem = _custom(
            "barrier",
            f=lambda x: -math.log(x[0]) + 5.0 * x[0] + x[1] ** 2 if x[0] > 0.0 else math.inf,
            grad=lambda x: np.array([-1.0 / x[0] + 5.0, 2.0 * x[1]]),
            c=lambda x: 1e8 * np.array([x[0] + x[1] - 2.0]),
            jac=lambda x: np.array([[1e8, 1e8]]),
            x0=np.array([1.0, 1.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.CONVERGED
        assert record.iterations["accepted"].tolist() == [0, 1]
        np.testing.assert_allclose(record.final_x, [0.5, 1.5], atol=1e-12)

    def test_nan_model_reduction_violates_the_invariant(self, monkeypatch):
        monkeypatch.setattr(sqp, "model_reduction", lambda tau_bar, gd, c_l1: math.nan)
        with pytest.raises(InvariantViolationError, match="model reduction nan"):
            solve(get_problem("hs6"), oracle_cfg=NOISY)


class TestSuiteSmoke:
    @pytest.mark.parametrize("name", ["P1", "hs6", "sphere30"])
    def test_noise_free_convergence(self, name):
        record = solve(get_problem(name), oracle_cfg=quiet())
        assert record.status == RunStatus.CONVERGED
        assert record.final_infeas_inf <= 1e-6
        assert record.final_kkt_inf <= 1e-4


def _noisy_hs40_run(max_iters):
    cfg = OracleConfig(eps_f_noise=1e-1, eps_g_noise=1e-1, seed=0, stream_id=4)
    return solve(get_problem("hs40"), SolverParams(max_iters=max_iters), cfg)


class TestRunLog:
    """A record's iterations are one read-only structured array, a row per iteration."""

    def test_a_finished_record_holds_at_most_twice_its_column_payload(self):
        _noisy_hs40_run(10)  # first-call caches are not the record's
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            record = _noisy_hs40_run(1000)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n, k = get_problem("hs40").n, len(record.iterations)
        assert k == 1000
        # 14 float64 and int64 fields (k among them) and 3 vectors of n floats per iteration.
        assert record.iterations.itemsize == 8 * (14 + 3 * n)
        assert held <= 2 * 8 * (14 + 3 * n) * k

    def test_growing_past_the_first_capacity_keeps_every_row(self):
        short, long = _noisy_hs40_run(1000), _noisy_hs40_run(3000)
        assert len(short.iterations) == 1000
        assert len(long.iterations) > sqp.RUN_LOG_CAPACITY
        for name in ("k", "x", "d", "g_bar", "alpha", "tau_bar", "delta_l", "phi_bar_current",
                     "phi_bar_trial", "f_bar_current", "f_bar_trial", "accepted", "infeas_inf",
                     "kkt_inf", "zeroth_calls", "first_calls", "true_iter"):
            # Bit for bit: a view as uint64 tells -0.0 from 0.0 and keeps NaNs equal.
            first = long.iterations[name][:1000]
            expected = short.iterations[name]
            assert first.dtype == expected.dtype, name
            np.testing.assert_array_equal(first.view(np.uint64), expected.view(np.uint64), name)

    def test_rows_index_like_a_read_only_list(self):
        logs = solve(get_problem("hs6"), SolverParams(max_iters=20), NOISY).iterations
        assert len(logs) == 20
        assert [log.k for log in logs] == list(range(20))
        assert logs[-1].k == 19 and logs[-20].k == 0
        assert logs[3:9:2]["k"].tolist() == [3, 5, 7]
        assert logs[::-1]["k"].tolist() == list(range(19, -1, -1))
        assert len(logs[25:]) == 0
        for index in (20, -21):
            with pytest.raises(IndexError):
                logs[index]
        log = logs[4]
        assert log.dtype.names == logs.dtype.names
        assert type(log.alpha) is np.float64 and type(log.zeroth_calls) is np.int64
        assert type(log.accepted) is np.int64 and type(log.true_iter) is np.int64
        for array in (log.x, log.d, log.g_bar, logs["x"], logs["alpha"]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        np.testing.assert_array_equal(logs["d"][4], log.d)
        assert logs["accepted"].tolist() == [int(row.accepted) for row in logs]

    def test_a_finished_log_takes_no_more_rows(self):
        record = solve(get_problem("hs6"), SolverParams(max_iters=5), NOISY)
        logs = record.iterations
        before = logs.copy()
        for write in (lambda: logs.__setitem__(0, logs[1]),
                      lambda: logs.__setitem__("alpha", 1.0),
                      lambda: setattr(logs[0], "alpha", 1.0)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        assert len(logs) == 5
        np.testing.assert_array_equal(logs.view(np.uint8), before.view(np.uint8))

    def test_rows_give_what_the_run_csv_digest_reads(self):
        # The benchmark hashes a record by getattr(row, name) for every
        # run CSV column, k first, row by row.
        record = solve(get_problem("hs40"), SolverParams(max_iters=30), NOISY)
        logs = record.iterations
        assert not logs.flags.writeable
        assert set(CSV_COLUMNS) <= set(logs.dtype.names)
        np.testing.assert_array_equal(logs["k"], np.arange(30))
        for row in logs:
            for name in CSV_COLUMNS:
                assert getattr(row, name) == logs[name][row.k], name

    def test_the_row_dtype_is_built_once_per_n(self):
        n = get_problem("hs40").n
        assert sqp.run_log_dtype(n) is sqp.run_log_dtype(n)
        record = solve(get_problem("hs40"), SolverParams(max_iters=3), NOISY)
        assert record.iterations.dtype == sqp.run_log_dtype(n)


def _assert_matches_reference(problem, params, cfg):
    """solve and reference_solve agree bit for bit on every column and outcome."""
    record = solve(problem, params, cfg)
    ref = reference_solve(problem, params, cfg)
    assert sorted(ref.columns) == sorted(record.iterations.dtype.names)
    for name, expected in ref.columns.items():
        got = record.iterations[name]
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
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


class TestReferenceLoop:
    """solve gives the bits of a plain restatement of its loop.

    The relations AC3 checks hold for many trajectories; this pins the
    trajectory itself, d, gbar and tau included.
    """

    def test_noiseless_converging_run(self):
        record = _assert_matches_reference(get_problem("hs48"), SolverParams(), quiet())
        assert record.status == RunStatus.CONVERGED and len(record.iterations) > 1

    @pytest.mark.parametrize("name", ["hs40", "sphere30"])
    def test_noisy_budget_exhausted_run(self, name):
        record = _assert_matches_reference(get_problem(name), SolverParams(max_iters=300), NOISY)
        assert record.status == RunStatus.BUDGET_EXHAUSTED

    def test_run_past_the_first_log_capacity(self):
        params = SolverParams(max_iters=sqp.RUN_LOG_CAPACITY + 100)
        record = _assert_matches_reference(get_problem("hs40"), params, NOISY)
        assert len(record.iterations) > sqp.RUN_LOG_CAPACITY

    def test_step_too_large_to_square(self):
        # d is finite, but d'd overflows; tau and delta_l would compare inf
        # with inf, so the run ends before tau is touched.
        with np.errstate(over="ignore"):
            record = _assert_matches_reference(get_problem("P1"), SolverParams(),
                                               HUGE_GRADIENT_NOISE)
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason == "step too large: d'd = inf, c'y = -2.27914e+307"
        assert len(record.iterations) == 0 and record.first_calls == 1

    @pytest.mark.parametrize("name", problem_names())
    def test_registry_runs_at_the_noise_floor(self, name):
        # The step-size guard fires only on products that are not finite.
        cfg = OracleConfig(eps_f_noise=1e-1, eps_g_noise=1e-1, seed=1, stream_id=7)
        record = _assert_matches_reference(get_problem(name), SolverParams(max_iters=150), cfg)
        assert record.status != RunStatus.LINEAR_ALGEBRA_FAILURE

    @pytest.mark.parametrize("slope, tau_init, reason", [
        # tau falls to 0.9 / (1.8e11 + 1) = 5e-12: above the default
        # tau_init's floor 1e-12, at or below this one's 1e-11.
        (1.8e11, 1.0, "merit parameter collapsed to 5e-12"),
        # tau falls to 9e-13, as in test_merit_parameter_collapse: below
        # 1e-12, above this tau_init's 1e-14, so the run converges.
        (1e12, 1e-3, None),
    ])
    def test_collapse_floor_is_relative_to_tau_init(self, slope, tau_init, reason):
        problem = _custom(
            "steep",
            f=lambda x: slope * x[0],
            grad=lambda x: np.array([slope, 0.0]),
            c=lambda x: np.array([x[0] - 1.0]),
            jac=lambda x: np.array([[1.0, 0.0]]),
            x0=np.array([0.0, 0.0]),
        )
        record = _assert_matches_reference(problem, SolverParams(tau_init=tau_init), quiet())
        assert record.failure_reason == reason


def _sign_flipped(problem):
    """problem with c and J negated: the same feasible set and KKT points."""
    return dataclasses.replace(
        problem,
        eval_c=lambda x: -problem.c(x),
        eval_jacobian=lambda x: -problem.jacobian(x),
    )


class TestConstraintSignFlip:
    """Negating c and J leaves every bit of a run unchanged.

    The step d and c'y, ||c||_1 and ||J d + c||_inf are unchanged and y
    only changes sign, so tau, delta_l and every merit sample are the
    same; the LU factors of the KKT matrix pivot on the same magnitudes.
    """

    PAIRS = ((0.0, 0.0), (0.0, 1e-1), (1e-2, 1e-4), (1e-1, 1e-1))
    OUTCOME = ("status", "failure_reason", "final_infeas_inf", "final_kkt_inf", "zeroth_calls",
               "first_calls")

    @pytest.mark.parametrize("name", problem_names())
    def test_runs_are_bit_identical(self, name):
        seed = ExperimentGrid().seed
        problem = get_problem(name)
        flipped = _sign_flipped(problem)
        params = SolverParams(max_iters=300)
        for pair in self.PAIRS:
            cfg = GridCell.at(seed, name, *pair, 0).oracle_config(seed)
            record, other = solve(problem, params, cfg), solve(flipped, params, cfg)
            assert record.iterations.tobytes() == other.iterations.tobytes(), pair
            assert record.final_x.tobytes() == other.final_x.tobytes(), pair
            # repr is exact for floats, and tells -0.0 from 0.0.
            assert repr([getattr(record, o) for o in self.OUTCOME]) == repr(
                [getattr(other, o) for o in self.OUTCOME]
            ), pair
