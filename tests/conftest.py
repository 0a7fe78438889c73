"""Shared test configuration.

The session fixture _check_every_lapack_solve checks the residual of
every LAPACK solve the suite makes, with no hook in the package. It
replaces dgetrf and dgetrs in scipy.linalg.lapack, the module from which
sqp.solve and linalg.lu_solve import them when they solve, by wrappers;
the forked workers of a process pool inherit them. checked_dgetrf keeps
a copy of each matrix it factors, and checked_dgetrs runs check_residual
on each solution against the matrix whose factors it was given, paired
by the identity of the factor array. The wrappers call raw_dgetrf and
raw_dgetrs, SciPy's own routines while the fixture is active; a test
that perturbs a solve beneath the check patches those.

The collection hook records how many tests the run collected under
tests/ and perfbench/, and whether that is the whole suite, for the
check of README's test count (tests/test_readme.py).
"""

import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from stepsqp.linalg import max_abs

_DESELECTED = pytest.StashKey[int]()
_COLLECTED = pytest.StashKey[dict]()

# The routines the wrappers call, bound by the session fixture.
raw_dgetrf = raw_dgetrs = None
# id(lu) -> (a weak reference to lu, a copy of the matrix it factors, that
# matrix's ||.||_max), for each factor array checked_dgetrf returned that
# is still alive.
_factored = {}


def check_residual(a: np.ndarray, scale: float, x: np.ndarray, b: np.ndarray) -> None:
    """The check of a solution x of a x = b: raise AssertionError if ||Ax - b||_max is too large.

    Backward-stable direct solves keep ||Ax - b|| small relative to
    ||A|| ||x||, with scale = ||A||_max; the bound is
    1e-10 * (1 + scale * ||x||_max). A solution that overflowed is left
    to the caller's own checks (solve's ||J d + c||_inf guard ends such a
    run); a NaN residual of a finite one fails.
    """
    x_max = max_abs(x)
    if not math.isfinite(x_max):
        return
    res = max_abs(a @ x - b)
    bound = 1e-10 * (1.0 + scale * x_max)
    if not res <= bound:
        raise AssertionError(f"solve residual {res:g} exceeds bound {bound:g}")


def checked_dgetrf(a):
    """raw_dgetrf(a), keeping a copy of a for the solves against its factors."""
    copy = np.array(a, dtype=np.float64)
    lu, piv, info = raw_dgetrf(a)
    key = id(lu)
    _factored[key] = (weakref.ref(lu, lambda _, key=key: _factored.pop(key, None)),
                      copy, max_abs(copy))
    return lu, piv, info


def checked_dgetrs(lu, piv, b):
    """raw_dgetrs(lu, piv, b), with its solution checked against the matrix lu factors.

    Factors that checked_dgetrf did not return fail: their solve could not be checked.
    """
    ref, a, scale = _factored.get(id(lu), (None, None, None))
    if ref is None or ref() is not lu:
        raise AssertionError("dgetrs called with factors checked_dgetrf did not return")
    x, info = raw_dgetrs(lu, piv, b)
    check_residual(a, scale, x, b)
    return x, info


@pytest.fixture(autouse=True, scope="session")
def _check_every_lapack_solve():
    global raw_dgetrf, raw_dgetrs
    from scipy.linalg import lapack

    raw_dgetrf, raw_dgetrs = lapack.dgetrf, lapack.dgetrs
    lapack.dgetrf, lapack.dgetrs = checked_dgetrf, checked_dgetrs
    yield
    lapack.dgetrf, lapack.dgetrs = raw_dgetrf, raw_dgetrs


def pytest_deselected(items):
    if items:
        stash = items[0].config.stash
        stash[_DESELECTED] = stash.get(_DESELECTED, 0) + len(items)


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(session, config, items):
    root = Path(config.rootpath)
    paths = [Path(item.path).relative_to(root) for item in items]
    suite = {path.relative_to(root) for folder in ("tests", "perfbench")
             for path in (root / folder).glob("test_*.py")}
    missing = sorted(map(str, suite - set(paths)))
    deselected = config.stash.get(_DESELECTED, 0)
    reason = (f"left out {len(missing)} test files ({', '.join(missing[:3])}, ...)" if missing
              else f"deselected {deselected} tests" if deselected else None)
    config.stash[_COLLECTED] = {
        "whole": reason is None,
        "whole_reason": reason,
        "total": len(items),
        "tests": sum(path.parts[0] == "tests" for path in paths),
        "perfbench": sum(path.parts[0] == "perfbench" for path in paths),
    }


@pytest.fixture
def collected_suite(request):
    """What this run collected: test counts under tests/ and perfbench/, and whether it is
    the whole suite (every test file, nothing deselected), else why not."""
    return request.config.stash[_COLLECTED]
