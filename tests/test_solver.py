"""End-to-end tests for the solve loop on registry and custom problems."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from stepsqp import sqp
from stepsqp.oracles import OracleConfig
from stepsqp.problems import Problem, get_problem
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
        assert record.iterations == []
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
        assert [log.zeroth_calls for log in record.iterations] == [2, 4, 6]
        assert [log.first_calls for log in record.iterations] == [1, 2, 3]
        assert record.final_infeas_inf is not None
        assert record.final_kkt_inf is not None


@pytest.fixture(scope="module")
def noisy_run():
    params = SolverParams(max_iters=200)
    record = solve(get_problem("P1"), params=params, oracle_cfg=NOISY)
    assert len(record.iterations) >= 20
    # Rejections must occur for the kept-iterate branch to be exercised.
    assert any(not log.accepted for log in record.iterations)
    assert any(log.accepted for log in record.iterations)
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
    """The problem with every evaluator call tallied by name."""
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
    return wrapped, counts


class TestExactEvaluationReuse:
    """Exact quantities are evaluated once per distinct iterate."""

    @pytest.mark.parametrize("name", ["P1", "hs6", "hs40"])
    def test_evaluations_per_distinct_iterate(self, name):
        problem, counts = _counting(get_problem(name))
        record = solve(problem, params=SolverParams(max_iters=150), oracle_cfg=NOISY)
        k = len(record.iterations)
        accepted = sum(log.accepted for log in record.iterations)
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
        assert all(log.true_iter is True for log in record.iterations)

    def test_noisy_runs_contain_false_iterations(self):
        # At gradient noise comparable to the gradient scale some samples
        # must exceed their allowance.
        cfg = OracleConfig(eps_f_noise=1e-1, eps_g_noise=1e-1, seed=11)
        record = solve(get_problem("P1"), params=SolverParams(max_iters=300), oracle_cfg=cfg)
        flags = [log.true_iter for log in record.iterations]
        assert all(isinstance(flag, bool) for flag in flags)
        assert not all(flags)


def _custom(name, n, m, f, grad, c, jac, x0):
    return Problem(
        name=name, n=n, m=m, eval_f=f, eval_grad_f=grad, eval_c=c, eval_jacobian=jac, x0=x0
    )


class TestFailurePaths:
    def test_rank_deficient_jacobian(self):
        # c(x) = x1^2 has a zero Jacobian row at x1 = 0.
        problem = _custom(
            "flatrow",
            2,
            1,
            f=lambda x: x[1],
            grad=lambda x: np.array([0.0, 1.0]),
            c=lambda x: np.array([x[0] ** 2]),
            jac=lambda x: np.array([[2.0 * x[0], 0.0]]),
            x0=np.array([0.0, 1.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason == "constraint Jacobian is rank deficient"
        assert record.iterations == []
        assert record.final_kkt_inf is None

    def test_duplicated_constraints_are_rank_deficient(self):
        # With H = I the KKT matrix is singular exactly when J is rank
        # deficient; two copies of one constraint give J = [[1, 0], [1, 0]].
        problem = _custom(
            "twice",
            2,
            2,
            f=lambda x: x[1],
            grad=lambda x: np.array([0.0, 1.0]),
            c=lambda x: np.array([x[0] - 1.0, x[0] - 1.0]),
            jac=lambda x: np.array([[1.0, 0.0], [1.0, 0.0]]),
            x0=np.array([0.0, 0.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason == "constraint Jacobian is rank deficient"
        assert record.iterations == []

    def test_merit_parameter_collapse(self):
        # f = 1e12 * x1, c = x1 - 1 from the origin: d = (1, 0), so
        # g'd + d'd = 1e12 + 1 against ||c||_1 = 1 and the trial penalty
        # parameter 0.9 / (1e12 + 1) falls below the collapse floor.
        problem = _custom(
            "steep",
            2,
            1,
            f=lambda x: 1e12 * x[0],
            grad=lambda x: np.array([1e12, 0.0]),
            c=lambda x: np.array([x[0] - 1.0]),
            jac=lambda x: np.array([[1.0, 0.0]]),
            x0=np.array([0.0, 0.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason == "merit parameter collapsed to 9e-13"
        assert record.iterations == []

    def test_non_finite_objective_at_start(self):
        problem = _custom(
            "nanstart",
            2,
            1,
            f=lambda x: math.nan,
            grad=lambda x: np.array([1.0, 0.0]),
            c=lambda x: np.array([x[1] - 1.0]),
            jac=lambda x: np.array([[0.0, 1.0]]),
            x0=np.array([1.0, 0.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason == "non-finite problem evaluation at the current iterate"

    def test_non_finite_objective_at_trial_point(self):
        # f is only defined for x1 >= 0; the second step crosses zero so
        # one completed iteration is preserved in the record.
        problem = _custom(
            "halfline",
            2,
            1,
            f=lambda x: x[0] if x[0] >= 0.0 else math.nan,
            grad=lambda x: np.array([1.0, 0.0]),
            c=lambda x: np.array([x[1] - 1.0]),
            jac=lambda x: np.array([[0.0, 1.0]]),
            x0=np.array([1.0, 0.0]),
        )
        record = solve(problem, oracle_cfg=quiet())
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason == "non-finite evaluation at the trial point"
        assert len(record.iterations) == 1
        assert record.iterations[0].accepted

    def test_nan_linearized_feasibility_fails_the_run(self, monkeypatch):
        step = sqp.KktSystem.step

        def nan_residual(self, g):
            return step(self, g)._replace(lin_feas=math.nan)

        monkeypatch.setattr(sqp.KktSystem, "step", nan_residual)
        record = solve(get_problem("hs6"), oracle_cfg=NOISY)
        assert record.status == RunStatus.LINEAR_ALGEBRA_FAILURE
        assert record.failure_reason.startswith("inaccurate KKT solve")
        assert record.iterations == []

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
