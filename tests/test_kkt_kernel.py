"""Tests for the KKT kernel: one factorization per iterate, several right-hand sides.

sqp.solve keeps the matrix [[I, J^T], [J, 0]] itself and calls LAPACK
directly: at each new iterate it factors once (linalg.dgetrf, then the
pivot floor linalg.check_pivots), and each solve against those factors
(linalg.dgetrs) is checked for its residual by the suite's wrapper
around dgetrs (tests/conftest.py). Its solves must match the one-shot
helpers solve_kkt and least_squares_multipliers bit for bit; the
least-squares multipliers are compared against numpy.linalg.lstsq on
Jacobians with condition numbers up to 1e8.
"""

import re
from collections import Counter

import conftest
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsqp import linalg
from stepsqp.linalg import SingularMatrixError, check_pivots, lu_solve, max_abs
from stepsqp.oracles import OracleConfig
from stepsqp.problems import get_problem
from stepsqp.sqp import SolverParams, least_squares_multipliers, solve, solve_kkt

NOISY = OracleConfig(eps_f_noise=1e-1, eps_g_noise=1e-1, seed=5, stream_id=2)


def recorded_lapack_calls(monkeypatch):
    """Wrap linalg's dgetrf and dgetrs, which solve calls; return what they record.

    factors counts the factorizations in its "dgetrf" entry; solves gets
    one (right-hand side, solution) pair per solve, both copied.
    """
    linalg.load_lapack()
    dgetrf, dgetrs = linalg.dgetrf, linalg.dgetrs
    factors, solves = Counter(), []

    def getrf(a):
        factors["dgetrf"] += 1
        return dgetrf(a)

    def getrs(lu, piv, b):
        z, info = dgetrs(lu, piv, b)
        solves.append((b.copy(), z.copy()))
        return z, info

    monkeypatch.setattr(linalg, "dgetrf", getrf)
    monkeypatch.setattr(linalg, "dgetrs", getrs)
    return factors, solves


class TestKktKernel:
    """One factorization of [[I, J^T], [J, 0]], several right-hand sides."""

    def test_step_matches_solve_kkt_bitwise(self, monkeypatch):
        # Every solve of a run equals the one-shot helper's on a freshly
        # assembled system: each step (d, y) solve_kkt's, each iterate's
        # multipliers least_squares_multipliers'. hs40 has m = 3, sphere30
        # n = 30, and P2 a constant J.
        factors, solves = recorded_lapack_calls(monkeypatch)
        for name in ("hs40", "sphere30", "P2"):
            problem = get_problem(name)
            n = problem.n
            factors.clear()
            solves.clear()
            record = solve(problem, SolverParams(max_iters=60), NOISY)
            assert len(record.iterations) == 60
            iterates = [log.x for log in record.iterations if log.accepted]
            # One factorization per iterate, one solve per iterate and per
            # step. (The helpers below factor and solve through the same
            # wrappers.)
            assert factors["dgetrf"] == 1 + len(iterates)
            assert len(solves) == factors["dgetrf"] + len(record.iterations)
            solutions = {b.tobytes(): z for b, z in solves}
            for x in [problem.x0, *iterates]:
                g = problem.grad_f(x)
                y, _ = least_squares_multipliers(g, problem.jacobian(x))
                z = solutions[np.concatenate((-g, np.zeros(problem.m))).tobytes()]
                np.testing.assert_array_equal(z[n:], y)
            for log in record.iterations:
                jac, c = problem.jacobian(log.x), problem.c(log.x)
                d, y, lin_feas = solve_kkt(jac, log.g_bar, c)
                z = solutions[np.concatenate((-log.g_bar, -c)).tobytes()]
                np.testing.assert_array_equal(z[:n], d)
                np.testing.assert_array_equal(z[n:], y)
                np.testing.assert_array_equal(log.d, d)
                # lin_feas is the constraint block J d + c of the solve's residual.
                residual = np.concatenate([d + jac.T @ y + log.g_bar, jac @ d + c])
                assert lin_feas <= np.max(np.abs(residual)) + 1e-12
                assert lin_feas == pytest.approx(np.max(np.abs(jac @ d + c)), abs=1e-12)

    def test_multipliers_hand_values(self):
        # J = [1 1], g = (1, 1): y = -1 zeroes the residual.
        y, res = least_squares_multipliers(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(y, [-1.0], atol=1e-14)
        assert res <= 1e-14
        # J = [1 0], g = (0, 1): no component in range(J'), residual 1.
        y, res = least_squares_multipliers(np.array([0.0, 1.0]), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(y, [0.0], atol=1e-14)
        assert res == pytest.approx(1.0, abs=1e-14)
        # The step for the second J and c = -3: J d = 3 and d + J'y = 0
        # give d = (3, 0), y = -3.
        d, y, lin_feas = solve_kkt(np.array([[1.0, 0.0]]), np.zeros(2), np.array([-3.0]))
        np.testing.assert_allclose(d, [3.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(y, [-3.0], atol=1e-14)
        assert lin_feas <= 1e-14

    def test_rank_deficient_jacobian_is_singular(self):
        with pytest.raises(SingularMatrixError):
            least_squares_multipliers(np.ones(2), np.array([[2.0, 0.0], [2.0, 0.0]]))
        # A repeated row of a generic J.
        jac = np.random.default_rng(37).standard_normal((3, 6))
        jac[2] = jac[0]
        with pytest.raises(SingularMatrixError, match="pivot"):
            solve_kkt(jac, np.ones(6), np.zeros(3))

    def test_pivot_scale_is_the_assembled_matrix_max_norm(self):
        # [[I, J^T], [J, 0]] holds J's entries, ones and zeros, so its
        # ||.||_max is max(1, ||J||_max) exactly, whichever side of 1 J's
        # entries lie. solve floors the pivots with the first, the
        # one-shot helpers with the second.
        rng = np.random.default_rng(29)
        for _ in range(500):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m, 31))
            jac = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
            a = np.block([[np.eye(n), jac.T], [jac, np.zeros((m, m))]])
            scale = max(1.0, max_abs(jac))
            assert np.float64(scale).view(np.uint64) == np.float64(max_abs(a)).view(np.uint64)
            # solve's pivot floor refuses exactly the matrices the helpers'
            # lu_solve refuses, with the same message.
            lu, _, _ = linalg.dgetrf(a)
            try:
                lu_solve(a, np.zeros(n + m))
            except SingularMatrixError as exc:
                with pytest.raises(SingularMatrixError, match=re.escape(str(exc))):
                    check_pivots(lu, scale)
            else:
                check_pivots(lu, scale)

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
                least_squares_multipliers(np.zeros(n), jac)

    @pytest.mark.parametrize("perturbed", [0, 1], ids=["multipliers", "step"])
    def test_solve_checks_the_residual_of_each_lapack_solve(self, monkeypatch, perturbed):
        # A multiplier of dgetrs's solution off by 1e-6 leaves a residual
        # far above the check's bound, and nothing else in solve sees it.
        # The first solve of a run is x0's multipliers, the second its
        # first step. The perturbation is made in the routine the suite's
        # wrapper calls, beneath the check.
        dgetrs = conftest.raw_dgetrs
        calls = []

        def perturbed_getrs(lu, piv, b):
            z, info = dgetrs(lu, piv, b)
            if len(calls) == perturbed:
                z[-1] += 1e-6
            calls.append(1)
            return z, info

        monkeypatch.setattr(conftest, "raw_dgetrs", perturbed_getrs)
        with pytest.raises(AssertionError, match="solve residual"):
            solve(get_problem("hs6"), SolverParams(max_iters=5), NOISY)
        assert len(calls) == perturbed + 1
        # Without the check the same run ends normally.
        monkeypatch.setattr(linalg, "dgetrf", conftest.raw_dgetrf)
        monkeypatch.setattr(linalg, "dgetrs", perturbed_getrs)
        calls.clear()
        assert len(solve(get_problem("hs6"), SolverParams(max_iters=5), NOISY).iterations) == 5

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

        y, kkt_inf = least_squares_multipliers(g, jac)
        y_ref = np.linalg.lstsq(jac.T, -g, rcond=None)[0]
        kkt_ref = float(np.max(np.abs(g + jac.T @ y_ref)))
        tol = 1e3 * float(np.linalg.cond(jac)) * np.finfo(float).eps
        assert abs(kkt_inf - kkt_ref) <= tol * float(np.max(np.abs(g)))
        # ||y - y_ref|| <= ||J^T (y - y_ref)|| / sigma_min(J).
        assert np.linalg.norm(y - y_ref) <= tol * np.linalg.norm(g) / sigma_min
