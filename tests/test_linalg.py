"""Linear-algebra kernel tests.

The solve routines are compared against an independently written
Gauss-Jordan explicit-inverse path on randomized well-conditioned
systems, besides fixed hand-checked cases.
"""

import math

import conftest
import numpy as np
import pytest
from conftest import check_residual
from reference import gauss_jordan_inverse

from stepsqp import linalg
from stepsqp.linalg import (
    NotPositiveDefiniteError,
    SingularMatrixError,
    as_matrix,
    as_vector,
    cholesky_solve,
    lu_solve,
    max_abs,
    require_symmetric,
)


class TestValidation:
    def test_as_vector_coerces_lists(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64
        assert v.shape == (3,)

    def test_as_vector_scalar_becomes_length_one(self):
        assert as_vector(2.5).shape == (1,)

    def test_as_vector_length_enforced(self):
        with pytest.raises(ValueError, match="length 2"):
            as_vector([1.0, 2.0, 3.0], n=2)

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_vector(np.eye(2))

    def test_as_vector_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([np.inf, 0.0])

    def test_as_vector_error_names_the_argument(self):
        with pytest.raises(ValueError, match="x0"):
            as_vector([1.0, np.nan], name="x0")

    def test_as_matrix_shape_enforced(self):
        with pytest.raises(ValueError, match="shape"):
            as_matrix(np.eye(2), shape=(3, 3))
        with pytest.raises(ValueError, match="two-dimensional"):
            as_matrix([1.0, 2.0])

    def test_as_matrix_rejects_non_finite(self):
        bad = np.eye(2)
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(bad)

    def test_max_abs(self):
        assert max_abs(np.array([-3.0, 2.0])) == 3.0
        assert max_abs(np.array([])) == 0.0

    def test_max_abs_is_the_reduction_bit_for_bit(self):
        # max_abs selects an entry by argmax; it must return exactly what
        # np.abs(a).max() returns, signed zeros, infinities and NaNs included.
        rng = np.random.default_rng(3)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7e308])
        for _ in range(500):
            shape = tuple(int(k) for k in rng.integers(1, 8, size=int(rng.integers(1, 3))))
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300)
            flat = a.reshape(-1)
            for i in rng.integers(0, flat.size, size=int(rng.integers(0, 3))):
                flat[i] = rng.choice(specials)
            got, want = max_abs(a), float(np.abs(a).max())
            assert type(got) is float
            assert np.array_equal(got, want, equal_nan=True)
            assert np.signbit(got) == np.signbit(want)

    def test_require_symmetric_accepts_tiny_asymmetry(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-15, 3.0]])
        require_symmetric(a)

    def test_require_symmetric_rejects_clear_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            require_symmetric(np.array([[1.0, 2.0], [0.0, 3.0]]))

    def test_require_symmetric_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            require_symmetric(np.ones((2, 3)))


class TestLuSolve:
    def test_hand_checked_2x2(self):
        # [2 1; 1 3] x = [5, 10]: x = (5*3 - 10)/(2*3 - 1) = 1, y = 3.
        x = lu_solve([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
        np.testing.assert_allclose(x, [1.0, 3.0], atol=1e-14)

    def test_identity_returns_rhs(self):
        b = np.array([1.5, -2.0, 0.25])
        np.testing.assert_array_equal(lu_solve(np.eye(3), b), b)

    def test_zero_rhs_gives_zero(self):
        x = lu_solve([[2.0, 1.0], [1.0, 3.0]], [0.0, 0.0])
        np.testing.assert_array_equal(x, np.zeros(2))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_solve(np.zeros((2, 2)), [1.0, 1.0])

    def test_near_singular_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrixError):
            lu_solve(a, [1.0, 1.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            lu_solve(np.eye(2), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            lu_solve(np.ones((2, 3)), [1.0, 2.0])

    def test_agrees_with_gauss_jordan_on_seeded_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n))
            a += n * np.eye(n)  # keep comfortably nonsingular
            b = rng.standard_normal(n)
            x = lu_solve(a, b)
            x_ref = gauss_jordan_inverse(a) @ b
            np.testing.assert_allclose(x, x_ref, atol=1e-8, rtol=1e-8)


class TestLuFactor:
    """The checks around lu_solve's factorization: check_pivots, and the suite's check_residual."""

    def test_singular_raises_with_pivot_message(self):
        with pytest.raises(SingularMatrixError, match="pivot"):
            lu_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), [1.0, 1.0])
        with pytest.raises(SingularMatrixError, match="identically zero"):
            lu_solve(np.zeros((2, 2)), [1.0, 1.0])

    def test_nan_matrix_fails_the_pivot_floor(self):
        # A NaN pivot or scale must not pass the floor test silently.
        with pytest.raises(SingularMatrixError, match="pivot nan"):
            lu_solve(np.array([[np.nan, 1.0], [1.0, 2.0]]), [1.0, 1.0])

    def test_solve_checks_its_residual(self, monkeypatch):
        # Factors of a different matrix cannot solve this one: the
        # residual check must notice. The wrong factors are made beneath
        # the check, which pairs them with this matrix.
        dgetrf = conftest.raw_dgetrf
        monkeypatch.setattr(conftest, "raw_dgetrf", lambda a: dgetrf(2.0 * a))
        with pytest.raises(AssertionError, match="residual"):
            lu_solve(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([5.0, 10.0]))

    def test_residual_check_fails_a_nan_residual(self):
        with pytest.raises(AssertionError, match="residual nan"):
            check_residual(np.full((2, 2), np.nan), 3.0, np.array([1.0, 3.0]),
                           np.array([5.0, 10.0]))

    def test_residual_check_leaves_an_overflowed_solution_to_the_caller(self):
        # The pivot 1e-13 passes the floor 1e-14, and 1e300 / 1e-13 overflows.
        x = lu_solve(np.diag([1.0, 1e-13]), np.array([1.0, 1e300]))
        assert x[1] == math.inf

    def test_residual_check_uses_the_pivot_scale_it_was_factored_with(self):
        # (1, 3) solves [[2, 1], [1, 3]] x = (5, 10), not twice that
        # matrix: the residual fails the bound at that matrix's ||A||_max
        # and passes it at a scale far above.
        a = 2.0 * np.array([[2.0, 1.0], [1.0, 3.0]])
        b, x = np.array([5.0, 10.0]), np.array([1.0, 3.0])
        with pytest.raises(AssertionError, match="residual"):
            check_residual(a, max_abs(a), x, b)
        check_residual(a, 1e12, x, b)


class TestCheckedLapack:
    """The suite's wrappers around dgetrf and dgetrs (tests/conftest.py)."""

    def test_load_lapack_keeps_the_checked_routines(self):
        # load_lapack imports the names from SciPy, where the wrappers sit.
        linalg.load_lapack()
        assert linalg.dgetrf is conftest.checked_dgetrf
        assert linalg.dgetrs is conftest.checked_dgetrs

    def test_a_solve_on_factors_the_wrapper_did_not_return_fails(self):
        a, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([5.0, 10.0])
        lu, piv, _ = conftest.raw_dgetrf(a)
        with pytest.raises(AssertionError, match="factors checked_dgetrf did not return"):
            linalg.dgetrs(lu, piv, b)
        # Equal values are not the same factors.
        lu, piv, _ = linalg.dgetrf(a)
        with pytest.raises(AssertionError, match="factors checked_dgetrf did not return"):
            linalg.dgetrs(lu.copy(), piv, b)
        np.testing.assert_allclose(linalg.dgetrs(lu, piv, b)[0], [1.0, 3.0])

    def test_each_solve_is_checked_against_the_matrix_its_factors_came_from(self):
        # Solves against the first factors, made before the second, are
        # checked against the first matrix, not the last one factored.
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        first = linalg.dgetrf(a)
        second = linalg.dgetrf(2.0 * a)
        b = np.array([5.0, 10.0])
        np.testing.assert_allclose(linalg.dgetrs(first[0], first[1], b)[0], [1.0, 3.0])
        np.testing.assert_allclose(linalg.dgetrs(second[0], second[1], b)[0], [0.5, 1.5])


class TestCholeskySolve:
    def test_hand_checked_spd(self):
        # [4 2; 2 3] x = [10, 8]: det = 8, x = (30-16)/8, (32-20)/8.
        x = cholesky_solve([[4.0, 2.0], [2.0, 3.0]], [10.0, 8.0])
        np.testing.assert_allclose(x, [1.75, 1.5], atol=1e-14)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_solve([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0])

    def test_semidefinite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])

    def test_zero_matrix_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_solve(np.zeros((2, 2)), [0.0, 0.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_solve([[1.0, 0.5], [0.0, 1.0]], [1.0, 1.0])

    def test_matches_lu_on_seeded_spd_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            basis = rng.standard_normal((n, n))
            a = basis @ basis.T + n * np.eye(n)
            b = rng.standard_normal(n)
            np.testing.assert_allclose(
                cholesky_solve(a, b), lu_solve(a, b), atol=1e-9, rtol=1e-9
            )
