"""Tests for the KKT kernel KktSystem: one factorization, several right-hand sides.

The step must match the single-shot solve_kkt bit for bit; the
least-squares multipliers read off the augmented system are compared
against numpy.linalg.lstsq on Jacobians with condition numbers up to 1e8.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsqp.linalg import SingularMatrixError, lu_factor, max_abs
from stepsqp.sqp import KktSystem, solve_kkt


class TestKktKernel:
    """One factorization of [[I, J^T], [J, 0]], several right-hand sides."""

    def test_step_matches_solve_kkt_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            jac = rng.standard_normal((m, n))
            c = rng.standard_normal(m)
            kkt = KktSystem(n, m)
            kkt.update(jac, c, max_abs(jac))
            for _ in range(2):
                g = rng.standard_normal(n)
                step = kkt.step(g)
                ref = solve_kkt(jac, g, c)
                np.testing.assert_array_equal(step.d, ref.d)
                np.testing.assert_array_equal(step.y, ref.y)
                assert step.lin_feas == ref.lin_feas
                # lin_feas is the constraint block J d + c of the solve's residual.
                residual = np.concatenate([step.d + jac.T @ step.y + g, jac @ step.d + c])
                assert step.lin_feas <= np.max(np.abs(residual)) + 1e-12
                assert step.lin_feas == pytest.approx(
                    np.max(np.abs(jac @ step.d + c)), abs=1e-12
                )

    def test_multipliers_hand_values(self):
        # One system, updated twice: each update replaces J and c in place.
        kkt = KktSystem(2, 1)
        # J = [1 1], g = (1, 1): y = -1 zeroes the residual.
        kkt.update(np.array([[1.0, 1.0]]), np.array([5.0]), 1.0)
        y, res = kkt.multipliers(np.array([1.0, 1.0]))
        np.testing.assert_allclose(y, [-1.0], atol=1e-14)
        assert res <= 1e-14
        # J = [1 0], g = (0, 1): no component in range(J'), residual 1.
        kkt.update(np.array([[1.0, 0.0]]), np.array([-3.0]), 1.0)
        y, res = kkt.multipliers(np.array([0.0, 1.0]))
        np.testing.assert_allclose(y, [0.0], atol=1e-14)
        assert res == pytest.approx(1.0, abs=1e-14)
        # The step sees the second J and c: J d = 3 and d + J'y = 0 give
        # d = (3, 0), y = -3.
        step = kkt.step(np.zeros(2))
        np.testing.assert_allclose(step.d, [3.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(step.y, [-3.0], atol=1e-14)

    def test_rank_deficient_jacobian_is_singular(self):
        with pytest.raises(SingularMatrixError):
            KktSystem(2, 2).update(np.array([[2.0, 0.0], [2.0, 0.0]]), np.zeros(2), 2.0)
        # A repeated row of a generic J.
        jac = np.random.default_rng(37).standard_normal((3, 6))
        jac[2] = jac[0]
        with pytest.raises(SingularMatrixError, match="pivot"):
            KktSystem(6, 3).update(jac, np.zeros(3), max_abs(jac))

    def test_pivot_scale_is_the_assembled_matrix_max_norm(self):
        # [[I, J^T], [J, 0]] holds J's entries, ones and zeros, so its
        # ||.||_max is max(1, ||J||_max) exactly, whichever side of 1 J's
        # entries lie.
        rng = np.random.default_rng(29)
        for _ in range(500):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m, 31))
            jac = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
            a = np.block([[np.eye(n), jac.T], [jac, np.zeros((m, m))]])
            scale = max(1.0, max_abs(jac))
            assert np.float64(scale).view(np.uint64) == np.float64(max_abs(a)).view(np.uint64)
            # update's factors, or its refusal, are those of the assembled matrix.
            kkt = KktSystem(n, m)
            try:
                expected = lu_factor(a, max_abs(a))
            except SingularMatrixError as exc:
                with pytest.raises(SingularMatrixError, match=re.escape(str(exc))):
                    kkt.update(jac, np.zeros(m), max_abs(jac))
            else:
                kkt.update(jac, np.zeros(m), max_abs(jac))
                np.testing.assert_array_equal(kkt._factors.lu, expected.lu)
                np.testing.assert_array_equal(kkt._factors.piv, expected.piv)

    @pytest.mark.parametrize(
        "jac_max, floor",
        [(1e-20, "1e-14 * ||A||_max = 1e-14"), (1e20, "1e-14 * ||A||_max = 1e+06")],
    )
    def test_badly_scaled_jacobian_is_singular(self, jac_max, floor):
        # Far below 1 the Schur complement -J J^T drowns under the floor;
        # far above it the pivots the identity block leaves do.
        rng = np.random.default_rng(31)
        for m, n in ((1, 2), (2, 5), (3, 30)):
            jac = rng.standard_normal((m, n))
            jac *= jac_max / max_abs(jac)
            with pytest.raises(SingularMatrixError, match=re.escape(floor)):
                KktSystem(n, m).update(jac, np.zeros(m), max_abs(jac))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 10),
        m_frac=st.floats(0.0, 1.0),
        log_cond=st.floats(0.0, 8.0),
        log_sigma_min=st.floats(0.0, 4.0),
        log_g_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_multipliers_agree_with_lstsq(
        self, n, m_frac, log_cond, log_sigma_min, log_g_scale, seed
    ):
        # J = U diag(s) V^T with cond(J) up to 1e8. Its smallest singular
        # value is kept at or above 1, the scale of H = I: there the
        # augmented matrix is conditioned like J itself, so agreement
        # within a modest multiple of cond(J) * eps is the right demand.
        # (Below that scale [[I, J^T], [J, 0]] conditions like cond(J)^2,
        # as the normal equations J J^T do.)
        rng = np.random.default_rng(seed)
        m = 1 + int(m_frac * (min(n, 4) - 1))
        cond = 10.0**log_cond
        sigma_min = 10.0**log_sigma_min
        s = sigma_min * cond ** np.linspace(1.0, 0.0, m)
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        jac = u @ np.diag(s) @ v[:m]
        g = rng.standard_normal(n) * 10.0**log_g_scale

        kkt = KktSystem(n, m)
        kkt.update(jac, np.zeros(m), max_abs(jac))
        y, kkt_inf = kkt.multipliers(g)
        y_ref = np.linalg.lstsq(jac.T, -g, rcond=None)[0]
        kkt_ref = float(np.max(np.abs(g + jac.T @ y_ref)))
        tol = 1e3 * float(np.linalg.cond(jac)) * np.finfo(float).eps
        assert abs(kkt_inf - kkt_ref) <= tol * float(np.max(np.abs(g)))
        # ||y - y_ref|| <= ||J^T (y - y_ref)|| / sigma_min(J).
        assert np.linalg.norm(y - y_ref) <= tol * np.linalg.norm(g) / sigma_min
