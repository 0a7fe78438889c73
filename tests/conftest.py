"""Shared test configuration.

Residual self-checking in the linear-algebra kernel is switched on for
the whole test session, so every solve anywhere in the suite with a
finite solution verifies its own backward error.

The collection hook records how many tests the run collected under
tests/ and perfbench/, and whether that is the whole suite, for the
check of README's test count (tests/test_readme.py).
"""

from pathlib import Path

import pytest

from stepsqp import linalg

_DESELECTED = pytest.StashKey[int]()
_COLLECTED = pytest.StashKey[dict]()


@pytest.fixture(autouse=True, scope="session")
def _check_all_solve_residuals():
    old = linalg._CHECK_RESIDUALS
    linalg._CHECK_RESIDUALS = True
    yield
    linalg._CHECK_RESIDUALS = old


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
