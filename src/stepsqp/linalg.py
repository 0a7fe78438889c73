"""Dense linear-algebra kernel: validated arrays, norms, direct solves.

Everything here operates on float64 numpy arrays sized for desk-scale
problems (a few hundred unknowns at most). LU factorizations are made
by LAPACK ``getrf``, and every one passes the pivot floor of
:func:`check_pivots`, so that near-singular systems fail loudly instead
of returning garbage. :func:`lu_solve` is the one-shot solve: factor,
pivot floor, ``getrs``, residual self-check. The SQP loop calls
``dgetrf``, :func:`check_pivots`, ``dgetrs`` and the residual self-check
itself, on the KKT matrix it keeps.

LAPACK comes from SciPy, whose import costs about as much as the rest of
the package's start-up. It is loaded at the first factorization (or by
:func:`load_lapack`), never at import, so commands that solve nothing
never load SciPy.
"""

from __future__ import annotations

import math

import numpy as np

# Relative floor for pivots / Cholesky diagonal entries.
PIVOT_RTOL = 1e-14
# Allowed relative asymmetry before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-12

# Flipped on by the test suite: every solve with a finite solution then
# verifies its own residual.
_CHECK_RESIDUALS = False


def load_lapack() -> None:
    """Bind ``dgetrf``/``dgetrs`` to SciPy's LAPACK routines; later calls cost one import lookup."""
    global dgetrf, dgetrs
    from scipy.linalg.lapack import dgetrf, dgetrs


# Stand-ins until LAPACK is loaded. load_lapack rebinds both module globals,
# so the call below each reaches the real routine, and so does every later
# factorization and solve, with no extra Python call.
def dgetrf(*args, **kwargs):
    load_lapack()
    return dgetrf(*args, **kwargs)


def dgetrs(*args, **kwargs):
    load_lapack()
    return dgetrs(*args, **kwargs)


class SingularMatrixError(Exception):
    """LU factorization produced a pivot below the relative floor."""


# No package code calls cholesky_solve, which raises this; both stay only
# because the benchmark's tracer (perfbench/workloads.py) patches it.
class NotPositiveDefiniteError(Exception):
    """Cholesky factorization failed or hit a non-positive pivot."""


def _float64_array(a, name: str) -> np.ndarray:
    try:
        return np.asarray(a, dtype=np.float64)
    except (OverflowError, TypeError) as exc:  # an int too large for a float; None; a mapping
        raise ValueError(f"{name} must hold finite numbers: {exc}") from exc


def as_vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-d float64 array, optionally of length n."""
    v = np.atleast_1d(_float64_array(x, name))
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if n is not None and v.size != n:
        raise ValueError(f"{name} must have length {n}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_matrix(a, shape: tuple[int, int] | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float64 array, optionally of a given shape."""
    m = _float64_array(a, name)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {m.shape}")
    if shape is not None and m.shape != tuple(shape):
        raise ValueError(f"{name} must have shape {tuple(shape)}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def max_abs(a) -> float:
    """Largest entry magnitude; 0.0 for empty input, NaN if an entry is NaN.

    Among magnitudes argmax selects the value np.abs(a).max() returns.
    """
    a = np.abs(a)
    return a.item(a.argmax()) if a.size else 0.0


def require_symmetric(a: np.ndarray, name: str = "matrix") -> None:
    """Reject matrices with |A - A^T| beyond 1e-12 * max(1, ||A||_max)."""
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    tol = SYMMETRY_RTOL * max(1.0, max_abs(a))
    if max_abs(a - a.T) > tol:
        raise ValueError(f"{name} is not symmetric to tolerance {tol:g}")


def check_residual(a: np.ndarray, scale: float, x: np.ndarray, b: np.ndarray) -> None:
    """The self-check of a solution x of a x = b: raise AssertionError if ||Ax - b||_max is too large.

    Backward-stable direct solves keep ||Ax - b|| small relative to
    ||A|| ||x||, with scale = ||A||_max; the bound is
    1e-10 * (1 + scale * ||x||_max). A solution that overflowed is left
    to the caller's own checks (solve's ||J d + c||_inf guard ends such a
    run); a NaN residual of a finite one fails. Every solve runs it while
    _CHECK_RESIDUALS is on.
    """
    x_max = max_abs(x)
    if not math.isfinite(x_max):
        return
    res = max_abs(a @ x - b)
    bound = 1e-10 * (1.0 + scale * x_max)
    if not res <= bound:
        raise AssertionError(f"solve residual {res:g} exceeds bound {bound:g}")


def check_pivots(lu: np.ndarray, scale: float) -> None:
    """The pivot floor, applied to the LU factors lu that getrf made of a matrix A.

    scale is ||A||_max, the largest entry magnitude of A. The caller
    passes it: max_abs(a) in general, or a value it knows exactly from
    the matrix's structure without scanning it.

    Raises
    ------
    SingularMatrixError
        If A is zero or any pivot magnitude falls below 1e-14 * scale.
    """
    if scale == 0.0:
        raise SingularMatrixError("matrix is identically zero")
    # getrf reports an exactly zero pivot through its info code; the
    # pivot floor below catches that case along with near-zero pivots.
    pivots = np.abs(lu.diagonal())
    smallest = pivots.item(pivots.argmin())
    if not (smallest >= PIVOT_RTOL * scale):
        raise SingularMatrixError(
            f"pivot {smallest:g} below {PIVOT_RTOL:g} * ||A||_max = {PIVOT_RTOL * scale:g}"
        )


def lu_solve(a, b) -> np.ndarray:
    """Solve A x = b for one right-hand side by LU with partial pivoting.

    A zero right-hand side returns exact zeros. Raises SingularMatrixError
    where check_pivots does, with scale ||A||_max, and runs the residual
    self-check while _CHECK_RESIDUALS is on.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape != (n,):
        raise ValueError(f"right-hand side must have shape ({n},), got {b.shape}")
    scale = max_abs(a)
    lu, piv, _ = dgetrf(a)
    check_pivots(lu, scale)
    x, _ = dgetrs(lu, piv, b)
    if _CHECK_RESIDUALS:
        check_residual(a, scale, x, b)
    return x


def cholesky_solve(a, b) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    Raises NotPositiveDefiniteError if factorization fails or a diagonal
    factor entry is <= 1e-14 * ||A||_max.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    require_symmetric(a)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side must have shape ({n},), got {b.shape}")
    scale = max_abs(a)
    import scipy.linalg  # not at module import; see the module docstring

    try:
        factor = scipy.linalg.cholesky(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    if scale == 0.0 or np.min(np.diagonal(factor)) <= PIVOT_RTOL * scale:
        raise NotPositiveDefiniteError("diagonal factor entry at or below the pivot floor")
    x = scipy.linalg.cho_solve((factor, True), b, check_finite=False)
    if _CHECK_RESIDUALS:
        check_residual(a, scale, x, b)
    return x
