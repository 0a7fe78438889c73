"""Unit tests for the solver's building-block operations.

All expected values below are worked out by hand from the defining
formulas before comparing against the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stepsqp.linalg import SingularMatrixError
from stepsqp.oracles import OracleConfig
from stepsqp.sqp import (
    DENOM_SIGN_RTOL,
    SolverParams,
    _finite,
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
        sol = solve_kkt([[1.0, 1.0]], [0.0, 0.0], [-2.0])
        np.testing.assert_allclose(sol.d, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(sol.y, [-1.0], atol=1e-14)
        assert sol.residual_inf <= 1e-12

    def test_direction_satisfies_linearized_constraints(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            jac = rng.standard_normal((m, n))
            g = rng.standard_normal(n)
            c = rng.standard_normal(m)
            sol = solve_kkt(jac, g, c)
            np.testing.assert_allclose(jac @ sol.d, -c, atol=1e-9)
            np.testing.assert_allclose(sol.d + jac.T @ sol.y, -g, atol=1e-9)

    def test_zero_jacobian_row_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_kkt([[0.0, 0.0]], [1.0, 1.0], [1.0])


def _trial(g, d, c_l1, sigma, extra_noise_floor=0.0):
    """tau_trial on the products the solve loop forms from g and d."""
    return tau_trial(
        float(g @ d),
        float(d @ d),
        float(np.abs(g) @ np.abs(d)),
        c_l1,
        sigma,
        extra_noise_floor=extra_noise_floor,
    )


class TestMeritParameter:
    def test_tau_trial_hand_value(self):
        # g'd = 1, d'd = 1: (1 - 0.1) * 2 / 2 = 0.9.
        value = _trial(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 2.0, 0.1)
        assert value == pytest.approx(0.9, abs=1e-15)

    def test_tau_trial_nonpositive_denominator_is_unbounded(self):
        # g'd + d'd = -2 + 1 < 0.
        value = _trial(np.array([-2.0, 0.0]), np.array([1.0, 0.0]), 2.0, 0.1)
        assert value == math.inf

    def test_tau_trial_zero_c_with_positive_denominator(self):
        # The genuinely degenerate pairing: zero infeasibility but a
        # clearly positive denominator collapses the trial to 0.
        value = _trial(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.0, 0.1)
        assert value == 0.0

    def test_tau_trial_cancellation_noise_reads_as_nonpositive(self):
        # g'd + d'd is +1.1e-16 from pure cancellation while the products
        # have magnitude ~1; the sign decision must not act on that
        # noise, so the trial is unbounded rather than 0.
        g = np.array([np.nextafter(-1.0, 0.0), 0.0])
        d = np.array([1.0, 0.0])
        assert float(g @ d) + float(d @ d) > 0.0
        value = _trial(g, d, 0.0, 0.1)
        assert value == math.inf

    def test_tau_trial_exact_zero_denominator(self):
        # g = -d: g'd + d'd = 0 exactly.
        value = _trial(np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 1.0, 0.1)
        assert value == math.inf

    def test_tau_trial_extra_floor_absorbs_solve_residue(self):
        # A small positive denominator (1e-11, above the rounding floor
        # 1e-12 * 2) that sits below the caller-supplied solve-error
        # floor is treated as noise, not as a collapse.
        g = np.array([-1.0 + 1e-11])
        d = np.array([1.0])
        assert _trial(g, d, 0.0, 0.1) == 0.0
        assert _trial(g, d, 0.0, 0.1, extra_noise_floor=1e-10) == math.inf

    def test_tau_trial_extra_floor_leaves_real_denominators_alone(self):
        value = _trial(
            np.array([1.0, 1.0]), np.array([1.0, 0.0]), 2.0, 0.1, extra_noise_floor=1e-10
        )
        assert value == pytest.approx(0.9, abs=1e-15)

    def test_kkt_denom_noise_floor_hand_value(self):
        # d = (1, -2), y = (3): 4.0 * 1e-14 * (||d||_1 + ||y||_1) = 4.0 * 1e-14 * 6 = 2.4e-13.
        assert kkt_denom_noise_floor(1e-14, 3.0, 3.0) == pytest.approx(2.4e-13, rel=1e-12)

    def test_kkt_denom_noise_floor_zero_for_exact_solve(self):
        assert kkt_denom_noise_floor(0.0, 3.0, 3.0) == 0.0

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
        # -0.1 * (2 * -1) + 3 = 3.2 and -0.5 * (2 * 2) + 0 = -2.
        assert model_reduction(0.1, -2.0, 3.0) == pytest.approx(3.2)
        assert model_reduction(0.5, 4.0, 0.0) == pytest.approx(-2.0)


# Magnitudes wide enough to exercise the rules, narrow enough that no
# product or quotient below overflows or underflows.
_magnitudes = st.floats(min_value=1e-100, max_value=1e100)
_signed = st.one_of(_magnitudes, _magnitudes.map(lambda v: -v), st.just(0.0))


class TestMeritParameterProperties:
    @given(
        tau_bar=_magnitudes,
        trial=st.one_of(st.just(0.0), _magnitudes, st.just(math.inf)),
        eps_tau=st.floats(min_value=1e-6, max_value=0.999),
    )
    def test_update_tau_never_grows_and_cuts_by_the_factor(self, tau_bar, trial, eps_tau):
        updated = update_tau(tau_bar, trial, eps_tau)
        assert updated <= tau_bar
        if updated < tau_bar:
            assert updated <= (1.0 - eps_tau) * tau_bar

    @given(
        gd=_signed,
        dd=st.one_of(_magnitudes, st.just(0.0)),
        excess=st.one_of(_magnitudes, st.just(0.0)),
        c_l1=_magnitudes,
        growth=st.floats(min_value=1.0, max_value=1e6),
        sigma=st.floats(min_value=1e-3, max_value=0.999),
        extra=st.one_of(st.just(0.0), _magnitudes),
    )
    def test_tau_trial_is_unbounded_exactly_below_the_floor(
        self, gd, dd, excess, c_l1, growth, sigma, extra
    ):
        # |g|'|d| is at least |g'd|; excess is the gap.
        abs_gd = abs(gd) + excess
        denom = gd + dd
        floor = extra + DENOM_SIGN_RTOL * (abs_gd + dd)
        value = tau_trial(gd, dd, abs_gd, c_l1, sigma, extra_noise_floor=extra)
        if denom <= floor:
            assert value == math.inf
            return
        assert 0.0 < value < math.inf
        larger = tau_trial(gd, dd, abs_gd, c_l1 * growth, sigma, extra_noise_floor=extra)
        assert larger >= value


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
        # Duplicated rows with power-of-two entries: [[I, J^T], [J, 0]]
        # factors exactly to a zero pivot, so the failure is deterministic.
        with pytest.raises(SingularMatrixError):
            least_squares_multipliers(np.ones(2), np.array([[2.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(SingularMatrixError):
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


class TestFiniteCheck:
    def test_overflowing_sum_of_finite_entries_is_finite(self):
        big = np.array([1e308, 1e308, -1e308])
        with np.errstate(over="ignore"):
            assert not math.isfinite(np.abs(big).sum())
            assert _finite(big, np.abs(big).sum())
            assert _finite(big, big[:2].sum())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_any_non_finite_entry_is_caught(self, bad):
        a = np.array([[1.0, bad], [2.0, 3.0]])
        assert not _finite(a, a.sum())
        assert not _finite(a, np.abs(a).sum())


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


def _classify(f_bar, f_exact, g_bar, eps_f=0.2, eps_g=0.5, alpha=0.5, delta_l=4.0):
    """classify_iteration on the errors the solve loop forms, gradient exact at 0."""
    grad_err = float(np.linalg.norm(np.asarray(g_bar)))
    value_err = abs(f_bar[0] - f_exact[0]) + abs(f_bar[1] - f_exact[1])
    return classify_iteration(grad_err, value_err, alpha, delta_l, eps_g, eps_f)


class TestClassifyIteration:
    def test_within_both_allowances_is_true(self):
        # values off by 0.1 each (sum 0.2 <= 2 * 0.2), gradient off by 0.3 <= 0.5.
        assert _classify((1.1, 2.1), (1.0, 2.0), [0.3, 0.0])

    def test_value_noise_beyond_allowance(self):
        # errors 0.3 + 0.3 = 0.6 > 2 * 0.2.
        assert not _classify((1.3, 2.3), (1.0, 2.0), [0.0, 0.0])

    def test_gradient_bound_uses_step_scaled_term(self):
        # eps_g = 0: bound is alpha * sqrt(delta_l) = 0.5 * 2 = 1.
        assert _classify((1.0, 2.0), (1.0, 2.0), [0.3, 0.0], eps_g=0.0)
        # with delta_l = 0.04 the bound drops to 0.1 < 0.3.
        assert not _classify((1.0, 2.0), (1.0, 2.0), [0.3, 0.0], eps_g=0.0, delta_l=0.04)

    def test_result_is_a_bool(self):
        assert _classify((1.0, 2.0), (1.0, 2.0), [0.0, 0.0]) is True
        assert _classify((1.0, 9.0), (1.0, 2.0), [0.0, 0.0]) is False
