"""Shared test configuration.

Residual self-checking in the linear-algebra kernel is switched on for
the whole test session, so every solve anywhere in the suite with a
finite solution verifies its own backward error.
"""

import pytest

from stepsqp import linalg


@pytest.fixture(autouse=True, scope="session")
def _check_all_solve_residuals():
    old = linalg._CHECK_RESIDUALS
    linalg._CHECK_RESIDUALS = True
    yield
    linalg._CHECK_RESIDUALS = old
