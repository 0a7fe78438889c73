"""Unit tests for the solver's building-block operations.

All expected values below are worked out by hand from the defining
formulas before comparing against the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsqp.linalg import SingularMatrixError, max_abs
from stepsqp.sqp import (
    SIGMA,
    SolverParams,
    classify_iteration,
    least_squares_multipliers,
    solve_kkt,
    tau_trial,
)


class TestSolveKkt:
    def test_projection_step(self):
        # H=I, J=[1 1], g=0, c=(-2):
        # row 1: d = -J'y, row 2: Jd = 2, so -2y = 2, y = -1, d = (1, 1).
        d, y, _ = solve_kkt([[1.0, 1.0]], [0.0, 0.0], [-2.0])
        np.testing.assert_allclose(d, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(y, [-1.0], atol=1e-14)
        z = np.concatenate([d, y])
        kkt = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        assert np.max(np.abs(kkt @ z - [0.0, 0.0, 2.0])) <= 1e-12

    def test_direction_satisfies_linearized_constraints(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            jac = rng.standard_normal((m, n))
            g = rng.standard_normal(n)
            c = rng.standard_normal(m)
            d, y, _ = solve_kkt(jac, g, c)
            np.testing.assert_allclose(jac @ d, -c, atol=1e-9)
            np.testing.assert_allclose(d + jac.T @ y, -g, atol=1e-9)
            # The identity the merit rule relies on: g'd + d'd = c'y.
            assert c @ y == pytest.approx(g @ d + d @ d, rel=1e-9, abs=1e-9)

    def test_zero_jacobian_row_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_kkt([[0.0, 0.0]], [1.0, 1.0], [1.0])


class TestMeritParameter:
    def test_tau_trial_hand_value(self):
        # c'y = 2, ||c||_1 = 2: (1 - 0.1) * 2 / 2 = 0.9.
        assert tau_trial(2.0, 2.0) == pytest.approx(0.9, abs=1e-15)

    def test_tau_trial_nonpositive_denominator_is_unbounded(self):
        assert tau_trial(-1.0, 2.0) == math.inf

    def test_tau_trial_cancellation_noise_reads_as_nonpositive(self):
        # A feasible point: J = [1 1], g = (0.1, 1.1), c = 0 give
        # d = (0.5, -0.5), y = -0.6. The computed g'd + d'd is +1.1e-16
        # of pure cancellation, while c'y is exactly zero, so the trial
        # is unbounded rather than 0.
        g = np.array([0.1, 1.1])
        c = np.zeros(1)
        d, y, _ = solve_kkt([[1.0, 1.0]], g, c)
        assert float(g @ d) + float(d @ d) > 0.0
        assert float(c @ y) == 0.0
        assert tau_trial(float(c @ y), 0.0) == math.inf

    def test_tau_trial_exact_zero_denominator(self):
        assert tau_trial(0.0, 1.0) == math.inf


# Magnitudes wide enough to exercise the rule, narrow enough that no
# product or quotient below overflows or underflows.
_magnitudes = st.floats(min_value=1e-100, max_value=1e100)
_signed = st.one_of(_magnitudes, _magnitudes.map(lambda v: -v), st.just(0.0))


class TestMeritParameterProperties:
    @settings(max_examples=300, derandomize=True, database=None)
    @given(
        c=st.lists(_signed, min_size=1, max_size=4),
        y=st.lists(_signed, min_size=1, max_size=4),
    )
    def test_tau_trial_is_bounded_below_by_the_multipliers(self, c, y):
        # c'y <= ||c||_1 ||y||_inf, so a finite trial is at least
        # (1 - SIGMA) / ||y||_inf: tau can only collapse through
        # unbounded multipliers.
        size = min(len(c), len(y))
        c, y = np.array(c[:size]), np.array(y[:size])
        cy = float(c @ y)
        value = tau_trial(cy, float(np.sum(np.abs(c))))
        if cy <= 0.0:
            assert value == math.inf
            return
        assert value >= (1.0 - SIGMA) / float(np.max(np.abs(y))) * (1.0 - 1e-12)


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
    """solve's finiteness rule: an array is finite exactly when its max_abs is."""

    def test_overflowing_sum_of_finite_entries_is_finite(self):
        # A sum of these magnitudes overflows; their maximum cannot.
        assert max_abs(np.array([1e308, 1e308, -1e308])) == 1e308

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_any_non_finite_entry_is_caught(self, bad):
        for a in (np.array([[1.0, bad], [2.0, 3.0]]), np.array([math.inf, 1.0, bad])):
            got = max_abs(a)
            if math.isnan(bad):
                assert math.isnan(got)
            else:
                assert got == math.inf


class TestSolverParams:
    def test_max_iters_rejects_bool(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolverParams(max_iters=True)


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
