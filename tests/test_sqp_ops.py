"""Unit tests for the solver's building-block operations.

All expected values below are worked out by hand from the defining
formulas before comparing against the implementation.
"""

import math

import numpy as np
import pytest

from stepsqp.linalg import NotPositiveDefiniteError, SingularMatrixError
from stepsqp.oracles import OracleConfig
from stepsqp.sqp import (
    IterationLog,
    KktSolution,
    SolverParams,
    acceptance_test,
    classify_iteration,
    effective_eps_f,
    kkt_denom_noise_floor,
    least_squares_multipliers,
    model_reduction,
    solve_kkt,
    step_size_update,
    tau_trial,
    update_tau,
)


class TestSolveKkt:
    def test_projection_step(self):
        # H=I, J=[1 1], g=0, c=(-2):
        # row 1: d = -J'y, row 2: Jd = 2, so -2y = 2, y = -1, d = (1, 1).
        sol = solve_kkt(np.eye(2), [[1.0, 1.0]], [0.0, 0.0], [-2.0])
        np.testing.assert_allclose(sol.d, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(sol.y, [-1.0], atol=1e-14)
        assert sol.residual_inf <= 1e-12

    def test_scaled_hessian(self):
        # H=2I, J=[1 0], g=(2,3), c=(4):
        # constraint row gives d1 = -4; 2*d1 + y = -2 gives y = 6;
        # 2*d2 = -3 gives d2 = -1.5.
        sol = solve_kkt(2.0 * np.eye(2), [[1.0, 0.0]], [2.0, 3.0], [4.0])
        np.testing.assert_allclose(sol.d, [-4.0, -1.5], atol=1e-14)
        np.testing.assert_allclose(sol.y, [6.0], atol=1e-14)

    def test_direction_satisfies_linearized_constraints(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            basis = rng.standard_normal((n, n))
            h = basis @ basis.T + np.eye(n)
            jac = rng.standard_normal((m, n))
            g = rng.standard_normal(n)
            c = rng.standard_normal(m)
            sol = solve_kkt(h, jac, g, c)
            np.testing.assert_allclose(jac @ sol.d, -c, atol=1e-9)
            np.testing.assert_allclose(h @ sol.d + jac.T @ sol.y, -g, atol=1e-9)

    def test_zero_jacobian_row_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_kkt(np.eye(2), [[0.0, 0.0]], [1.0, 1.0], [1.0])

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_kkt([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0]], [0.0, 0.0], [0.0])


class TestMeritParameter:
    def test_tau_trial_hand_value(self):
        # g'd = 1, d'd = 1: (1 - 0.1) * 2 / 2 = 0.9.
        value = tau_trial(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 2.0, 0.1)
        assert value == pytest.approx(0.9, abs=1e-15)

    def test_tau_trial_nonpositive_denominator_is_unbounded(self):
        # g'd + d'd = -2 + 1 < 0.
        value = tau_trial(np.array([-2.0, 0.0]), np.array([1.0, 0.0]), 2.0, 0.1)
        assert value == math.inf

    def test_tau_trial_zero_c_with_positive_denominator(self):
        # The genuinely degenerate pairing: zero infeasibility but a
        # clearly positive denominator collapses the trial to 0.
        value = tau_trial(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.0, 0.1)
        assert value == 0.0

    def test_tau_trial_cancellation_noise_reads_as_nonpositive(self):
        # g'd + d'd is +1.1e-16 from pure cancellation while the products
        # have magnitude ~1; the sign decision must not act on that
        # noise, so the trial is unbounded rather than 0.
        g = np.array([np.nextafter(-1.0, 0.0), 0.0])
        d = np.array([1.0, 0.0])
        assert float(g @ d) + float(d @ d) > 0.0
        value = tau_trial(g, d, 0.0, 0.1)
        assert value == math.inf

    def test_tau_trial_exact_zero_denominator(self):
        # g = -d: g'd + d'd = 0 exactly.
        value = tau_trial(np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 1.0, 0.1)
        assert value == math.inf

    def test_tau_trial_extra_floor_absorbs_solve_residue(self):
        # A small positive denominator (1e-11, above the rounding floor
        # 1e-12 * 2) that sits below the caller-supplied solve-error
        # floor is treated as noise, not as a collapse.
        g = np.array([-1.0 + 1e-11])
        d = np.array([1.0])
        assert tau_trial(g, d, 0.0, 0.1) == 0.0
        assert tau_trial(g, d, 0.0, 0.1, extra_noise_floor=1e-10) == math.inf

    def test_tau_trial_extra_floor_leaves_real_denominators_alone(self):
        value = tau_trial(
            np.array([1.0, 1.0]), np.array([1.0, 0.0]), 2.0, 0.1, extra_noise_floor=1e-10
        )
        assert value == pytest.approx(0.9, abs=1e-15)

    def test_kkt_denom_noise_floor_hand_value(self):
        # 4.0 * 1e-14 * (|1| + |-2| + |3|) = 2.4e-13.
        sol = KktSolution(d=np.array([1.0, -2.0]), y=np.array([3.0]), residual_inf=1e-14)
        assert kkt_denom_noise_floor(sol) == pytest.approx(2.4e-13, rel=1e-12)

    def test_kkt_denom_noise_floor_zero_for_exact_solve(self):
        sol = KktSolution(d=np.array([1.0, -2.0]), y=np.array([3.0]), residual_inf=0.0)
        assert kkt_denom_noise_floor(sol) == 0.0

    def test_update_tau_keeps_small_parameter(self):
        assert update_tau(0.1, math.inf, 1e-2) == 0.1
        assert update_tau(0.1, 0.1, 1e-2) == 0.1

    def test_update_tau_cuts_by_at_least_the_factor(self):
        # trial just below tau: lands on (1 - eps_tau) * tau.
        assert update_tau(0.1, 0.0995, 1e-2) == pytest.approx(0.099, abs=1e-15)
        # trial far below: lands on the trial itself.
        assert update_tau(0.1, 0.05, 1e-2) == 0.05
        assert update_tau(0.1, 0.0, 1e-2) == 0.0

    def test_model_reduction_hand_values(self):
        # -0.1 * (-2) + 3 = 3.2 and -0.5 * 4 + 0 = -2.
        assert model_reduction(0.1, np.array([2.0]), np.array([-1.0]), 3.0) == pytest.approx(3.2)
        assert model_reduction(0.5, np.array([2.0]), np.array([2.0]), 0.0) == pytest.approx(-2.0)


class TestAcceptance:
    def test_exact_armijo_cases(self):
        # threshold = 10 - 0.5 * 1e-4 * 2 = 9.9999.
        common = dict(phi_current=10.0, alpha=0.5, theta=1e-4, delta_l=2.0, tau_bar=0.1, eps_f=0.0)
        assert acceptance_test(phi_trial=9.0, **common)
        assert acceptance_test(phi_trial=9.9999, **common)  # non-strict boundary
        assert not acceptance_test(phi_trial=9.99990000001, **common)

    def test_noise_relaxation_admits_small_increases(self):
        # 2 * tau * eps_f = 0.01 on top of the Armijo threshold.
        assert acceptance_test(
            phi_trial=10.005,
            phi_current=10.0,
            alpha=0.5,
            theta=1e-4,
            delta_l=2.0,
            tau_bar=0.1,
            eps_f=0.05,
        )

    def test_step_size_update(self):
        assert step_size_update(0.25, True, 0.5, 1.0) == 0.5
        assert step_size_update(0.25, False, 0.5, 1.0) == 0.125
        assert step_size_update(1.0, True, 0.5, 1.0) == 1.0  # capped
        assert step_size_update(0.75, True, 0.5, 1.0) == 1.0  # cap binds mid-range


class TestMultipliers:
    def test_exact_stationarity(self):
        y, res = least_squares_multipliers(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(y, [-1.0], atol=1e-14)
        assert res <= 1e-14

    def test_orthogonal_residual_survives(self):
        # g = (0, 1) has no component in range(J'): y = 0, residual 1.
        y, res = least_squares_multipliers(np.array([0.0, 1.0]), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(y, [0.0], atol=1e-14)
        assert res == pytest.approx(1.0, abs=1e-14)

    def test_rank_deficient_jacobian_raises(self):
        # Duplicated rows with power-of-two entries: J J^T = [[4,4],[4,4]]
        # factors exactly to a zero pivot, so the failure is deterministic.
        with pytest.raises(NotPositiveDefiniteError):
            least_squares_multipliers(np.ones(2), np.array([[2.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            least_squares_multipliers(np.ones(2), np.zeros((1, 2)))

    def test_matches_lstsq_on_seeded_systems(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, n + 1))
            jac = rng.standard_normal((m, n))
            g = rng.standard_normal(n)
            y, _ = least_squares_multipliers(g, jac)
            y_ref = np.linalg.lstsq(jac.T, -g, rcond=None)[0]
            np.testing.assert_allclose(y, y_ref, atol=1e-9)


class TestSolverParams:
    def test_max_iters_rejects_bool(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolverParams(max_iters=True)


class TestEffectiveEpsF:
    def test_none_couples_to_oracle(self):
        params = SolverParams(eps_f_accept=None)
        cfg = OracleConfig(eps_f_noise=0.3)
        assert effective_eps_f(params, cfg) == 0.3

    def test_explicit_value_decouples(self):
        params = SolverParams(eps_f_accept=0.0)
        cfg = OracleConfig(eps_f_noise=0.3)
        assert effective_eps_f(params, cfg) == 0.0


def _log(**kwargs):
    base = dict(
        k=0,
        x=np.zeros(2),
        d=np.zeros(2),
        g_bar=np.zeros(2),
        alpha=0.5,
        tau_bar=0.1,
        delta_l=4.0,
        phi_bar_current=0.0,
        phi_bar_trial=0.0,
        f_bar_current=1.0,
        f_bar_trial=2.0,
        accepted=True,
        infeas_inf=0.0,
        kkt_inf=0.0,
        zeroth_calls=2,
        first_calls=1,
    )
    base.update(kwargs)
    return IterationLog(**base)


class TestClassifyIteration:
    def _cfg(self, eps_f=0.2, eps_g=0.5):
        return OracleConfig(eps_f_noise=eps_f, eps_g_noise=eps_g)

    def test_within_both_allowances_is_true(self):
        # values off by 0.1 each (sum 0.2 <= 2 * 0.2), gradient off by 0.3 <= 0.5.
        log = _log(f_bar_current=1.1, f_bar_trial=2.1, g_bar=np.array([0.3, 0.0]))
        assert classify_iteration(log, (1.0, 2.0), np.zeros(2), self._cfg(), SolverParams())

    def test_value_noise_beyond_allowance(self):
        # errors 0.3 + 0.3 = 0.6 > 2 * 0.2.
        log = _log(f_bar_current=1.3, f_bar_trial=2.3)
        assert not classify_iteration(log, (1.0, 2.0), np.zeros(2), self._cfg(), SolverParams())

    def test_gradient_bound_uses_step_scaled_term(self):
        # eps_g = 0: bound is alpha * sqrt(delta_l) = 0.5 * 2 = 1.
        log = _log(g_bar=np.array([0.3, 0.0]), f_bar_current=1.0, f_bar_trial=2.0)
        cfg = self._cfg(eps_g=0.0)
        assert classify_iteration(log, (1.0, 2.0), np.zeros(2), cfg, SolverParams())
        # with delta_l = 0.04 the bound drops to 0.1 < 0.3.
        tight = _log(
            g_bar=np.array([0.3, 0.0]), delta_l=0.04, f_bar_current=1.0, f_bar_trial=2.0
        )
        assert not classify_iteration(tight, (1.0, 2.0), np.zeros(2), cfg, SolverParams())
