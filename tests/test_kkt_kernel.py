"""Tests for the KKT kernel KktSystem: one factorization, several right-hand sides.

The step must match the single-shot solve_kkt bit for bit; the
least-squares multipliers read off the augmented system are compared
against numpy.linalg.lstsq on Jacobians with condition numbers up to 1e8.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsqp.linalg import SingularMatrixError
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
            kkt.update(jac, c)
            for _ in range(2):
                g = rng.standard_normal(n)
                step = kkt.step(g)
                ref = solve_kkt(jac, g, c)
                np.testing.assert_array_equal(step.d, ref.d)
                np.testing.assert_array_equal(step.y, ref.y)
                assert step.residual_inf == ref.residual_inf
                assert step.lin_feas == ref.lin_feas
                # lin_feas is the residual's constraint block, J d + c.
                assert step.lin_feas <= step.residual_inf
                assert step.lin_feas == pytest.approx(
                    np.max(np.abs(jac @ step.d + c)), abs=1e-12
                )

    def test_multipliers_hand_values(self):
        # One system, updated twice: each update replaces J and c in place.
        kkt = KktSystem(2, 1)
        # J = [1 1], g = (1, 1): y = -1 zeroes the residual.
        kkt.update(np.array([[1.0, 1.0]]), np.array([5.0]))
        y, res = kkt.multipliers(np.array([1.0, 1.0]))
        np.testing.assert_allclose(y, [-1.0], atol=1e-14)
        assert res <= 1e-14
        # J = [1 0], g = (0, 1): no component in range(J'), residual 1.
        kkt.update(np.array([[1.0, 0.0]]), np.array([-3.0]))
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
            KktSystem(2, 2).update(np.array([[2.0, 0.0], [2.0, 0.0]]), np.zeros(2))

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
        kkt.update(jac, np.zeros(m))
        y, kkt_inf = kkt.multipliers(g)
        y_ref = np.linalg.lstsq(jac.T, -g, rcond=None)[0]
        kkt_ref = float(np.max(np.abs(g + jac.T @ y_ref)))
        tol = 1e3 * float(np.linalg.cond(jac)) * np.finfo(float).eps
        assert abs(kkt_inf - kkt_ref) <= tol * float(np.max(np.abs(g)))
        # ||y - y_ref|| <= ||J^T (y - y_ref)|| / sigma_min(J).
        assert np.linalg.norm(y - y_ref) <= tol * np.linalg.norm(g) / sigma_min
