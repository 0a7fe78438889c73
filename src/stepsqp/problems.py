"""Equality-constrained test problems with analytic derivatives.

A small registry of smooth problems of the form

    min f(x)  subject to  c(x) = 0,  f: R^n -> R,  c: R^n -> R^m,  m <= n.

Each entry is a :class:`Problem`: callable evaluators for f, its
gradient, c and its Jacobian, and an infeasible starting point. Building
the registry evaluates each f and c once, at x0, and solves nothing; the
test suite keeps a reference KKT pair for every entry. The hs* entries
restate classic small test problems from the nonlinear programming
literature; the remaining entries are simple constructions (linear
objective on a circle, minimum-norm projection, a convex QP, a weighted
quadratic on a sphere).

Quadratic programs are built by :func:`quadratic_program`, also from
JSON files by :func:`load_qp_json`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .linalg import as_matrix, as_vector, require_symmetric


class UnknownProblemError(ValueError):
    """Requested name is not in the registry."""


@dataclass(frozen=True)
class Problem:
    """One equality-constrained minimization problem.

    Evaluators are deterministic pure functions of x; noise is injected
    elsewhere. Use the ``f``/``grad_f``/``c``/``jacobian`` methods rather
    than the raw callables: they coerce the outputs to float64 and check
    on every call that they have the shapes (n,), (m,) and (m, n).

    The dimensions are not arguments: n is the length of x0, and m is
    the length of c(x0). f and c are evaluated once at construction, and
    an f(x0) that is not a scalar or a c(x0) that is not one-dimensional
    is rejected there.
    """

    name: str
    n: int = field(init=False)
    m: int = field(init=False)
    eval_f: Callable[[np.ndarray], float]
    eval_grad_f: Callable[[np.ndarray], np.ndarray]
    eval_c: Callable[[np.ndarray], np.ndarray]
    eval_jacobian: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray

    def __post_init__(self):
        x0 = as_vector(self.x0, name=f"{self.name}.x0")
        # Only the output forms are checked here, so an overflow in the
        # values is left to the run that evaluates them.
        with np.errstate(all="ignore"):
            f0, c0 = self.eval_f(x0), self.eval_c(x0)
        if np.shape(f0) != ():
            raise ValueError(f"{self.name}: f(x0) must be a scalar, got shape {np.shape(f0)}")
        shape = np.shape(c0)
        if len(shape) != 1:
            raise ValueError(f"{self.name}: c(x0) must be one-dimensional, got shape {shape}")
        n, m = x0.size, shape[0]
        if m < 1 or m > n:
            raise ValueError(f"{self.name}: need 1 <= m <= n, got n={n}, m={m}")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    def f(self, x: np.ndarray) -> float:
        return float(self.eval_f(x))

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.eval_grad_f(x), dtype=np.float64)
        if g.shape != (self.n,):
            raise ValueError(f"{self.name}: gradient shape {g.shape} != ({self.n},)")
        return g

    def c(self, x: np.ndarray) -> np.ndarray:
        c = np.asarray(self.eval_c(x), dtype=np.float64)
        if c.shape != (self.m,):
            raise ValueError(f"{self.name}: constraint shape {c.shape} != ({self.m},)")
        return c

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        jac = np.asarray(self.eval_jacobian(x), dtype=np.float64)
        if jac.shape != (self.m, self.n):
            raise ValueError(f"{self.name}: jacobian shape {jac.shape} != ({self.m}, {self.n})")
        return jac


def quadratic_program(name: str, Q, q, A, b, x0) -> Problem:
    """min 0.5 x'Qx + q'x s.t. Ax = b, with shapes checked and Q symmetric."""
    q_vec = as_vector(q, name="q")
    n = q_vec.size
    q_mat = as_matrix(Q, (n, n), name="Q")
    require_symmetric(q_mat, "Q")
    b_vec = as_vector(b, name="b")
    a_mat = as_matrix(A, (b_vec.size, n), name="A")
    return Problem(
        name=name,
        eval_f=lambda x: 0.5 * float(x @ (q_mat @ x)) + float(q_vec @ x),
        eval_grad_f=lambda x: q_mat @ x + q_vec,
        eval_c=lambda x: a_mat @ x - b_vec,
        eval_jacobian=lambda x: a_mat.copy(),
        x0=as_vector(x0, n, name="x0"),
    )


# ---------------------------------------------------------------------------
# Registry construction. Starting points are deliberately infeasible.


def _p1() -> Problem:
    """Linear objective on a circle: min x1 + x2 s.t. x1^2 + x2^2 = 2."""
    return Problem(
        name="P1",
        eval_f=lambda x: x[0] + x[1],
        eval_grad_f=lambda x: np.array([1.0, 1.0]),
        eval_c=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
        eval_jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        x0=np.array([2.0, 1.0]),
    )


def _p2() -> Problem:
    """Minimum-norm point on a line: min 0.5 ||x||^2 s.t. x1 + x2 = 2."""
    return quadratic_program("P2", np.eye(2), np.zeros(2), [[1.0, 1.0]], [2.0], np.zeros(2))


def _p3() -> Problem:
    """Rosenbrock-valley objective restricted to the circle x1^2 + x2^2 = 2.

    The valley coefficient is 4: the identity-Hessian tangential step then
    contracts fast enough to reach the stationarity tolerance inside the
    default iteration budget, which the classic coefficient 100 cannot do
    (its along-circle curvature at the solution is 901, forcing step sizes
    near 1e-3 and several thousand iterations).
    """

    def grad(x):
        return np.array(
            [
                -2.0 * (1.0 - x[0]) - 16.0 * x[0] * (x[1] - x[0] ** 2),
                8.0 * (x[1] - x[0] ** 2),
            ]
        )

    return Problem(
        name="P3",
        eval_f=lambda x: (1.0 - x[0]) ** 2 + 4.0 * (x[1] - x[0] ** 2) ** 2,
        eval_grad_f=grad,
        eval_c=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
        eval_jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        x0=np.array([0.5, 0.5]),
    )


def _qp10() -> Problem:
    """Convex 10-d QP with 3 linear constraints."""
    n = 10
    q_mat = 4.0 * np.eye(n) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    q_vec = np.array([(-1.0) ** i for i in range(n)])
    a_mat = np.vstack(
        [
            np.ones(n),
            np.array([(-1.0) ** i for i in range(n)]),
            np.arange(n, dtype=np.float64) / 3.0,
        ]
    )
    b_vec = np.array([5.0, 0.0, 10.0])
    return quadratic_program("qp10", q_mat, q_vec, a_mat, b_vec, np.zeros(n))


def _hs6() -> Problem:
    """min (1 - x1)^2 s.t. 10 (x2 - x1^2) = 0."""
    return Problem(
        name="hs6",
        eval_f=lambda x: (1.0 - x[0]) ** 2,
        eval_grad_f=lambda x: np.array([-2.0 * (1.0 - x[0]), 0.0]),
        eval_c=lambda x: np.array([10.0 * (x[1] - x[0] ** 2)]),
        eval_jacobian=lambda x: np.array([[-20.0 * x[0], 10.0]]),
        x0=np.array([-1.2, 1.0]),
    )


def _hs7() -> Problem:
    """min ln(1 + x1^2) - x2 s.t. (1 + x1^2)^2 + x2^2 = 4."""
    return Problem(
        name="hs7",
        eval_f=lambda x: np.log1p(x[0] ** 2) - x[1],
        eval_grad_f=lambda x: np.array([2.0 * x[0] / (1.0 + x[0] ** 2), -1.0]),
        eval_c=lambda x: np.array([(1.0 + x[0] ** 2) ** 2 + x[1] ** 2 - 4.0]),
        eval_jacobian=lambda x: np.array(
            [[4.0 * x[0] * (1.0 + x[0] ** 2), 2.0 * x[1]]]
        ),
        x0=np.array([2.0, 2.0]),
    )


def _hs27() -> Problem:
    """min 0.01 (x1 - 1)^2 + (x2 - x1^2)^2 s.t. x1 + x3^2 + 1 = 0."""

    def grad(x):
        return np.array(
            [
                0.02 * (x[0] - 1.0) - 4.0 * x[0] * (x[1] - x[0] ** 2),
                2.0 * (x[1] - x[0] ** 2),
                0.0,
            ]
        )

    return Problem(
        name="hs27",
        eval_f=lambda x: 0.01 * (x[0] - 1.0) ** 2 + (x[1] - x[0] ** 2) ** 2,
        eval_grad_f=grad,
        eval_c=lambda x: np.array([x[0] + x[2] ** 2 + 1.0]),
        eval_jacobian=lambda x: np.array([[1.0, 0.0, 2.0 * x[2]]]),
        x0=np.array([2.0, 2.0, 2.0]),
    )


def _hs40() -> Problem:
    """min -x1 x2 x3 x4 with three coupled nonlinear equality constraints."""

    def constraints(x):
        return np.array(
            [
                x[0] ** 3 + x[1] ** 2 - 1.0,
                x[0] ** 2 * x[3] - x[2],
                x[3] ** 2 - x[1],
            ]
        )

    def jac(x):
        return np.array(
            [
                [3.0 * x[0] ** 2, 2.0 * x[1], 0.0, 0.0],
                [2.0 * x[0] * x[3], 0.0, -1.0, x[0] ** 2],
                [0.0, -1.0, 0.0, 2.0 * x[3]],
            ]
        )

    def grad(x):
        return np.array(
            [
                -x[1] * x[2] * x[3],
                -x[0] * x[2] * x[3],
                -x[0] * x[1] * x[3],
                -x[0] * x[1] * x[2],
            ]
        )

    return Problem(
        name="hs40",
        eval_f=lambda x: -x[0] * x[1] * x[2] * x[3],
        eval_grad_f=grad,
        eval_c=constraints,
        eval_jacobian=jac,
        x0=np.array([0.8, 0.8, 0.8, 0.8]),
    )


def _hs42() -> Problem:
    """Sum-of-squares distance objective, one linear and one circle constraint."""

    def constraints(x):
        return np.array([x[0] - 2.0, x[2] ** 2 + x[3] ** 2 - 2.0])

    def jac(x):
        return np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 2.0 * x[2], 2.0 * x[3]],
            ]
        )

    return Problem(
        name="hs42",
        eval_f=lambda x: (x[0] - 1.0) ** 2
        + (x[1] - 2.0) ** 2
        + (x[2] - 3.0) ** 2
        + (x[3] - 4.0) ** 2,
        eval_grad_f=lambda x: 2.0
        * np.array([x[0] - 1.0, x[1] - 2.0, x[2] - 3.0, x[3] - 4.0]),
        eval_c=constraints,
        eval_jacobian=jac,
        x0=np.array([1.0, 1.0, 1.0, 1.0]),
    )


def _hs48() -> Problem:
    """Separable quadratic, two linear constraints, solution at all-ones."""

    def grad(x):
        return np.array(
            [
                2.0 * (x[0] - 1.0),
                2.0 * (x[1] - x[2]),
                -2.0 * (x[1] - x[2]),
                2.0 * (x[3] - x[4]),
                -2.0 * (x[3] - x[4]),
            ]
        )

    a_mat = np.array(
        [
            [1.0, 1.0, 1.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, -2.0, -2.0],
        ]
    )
    b_vec = np.array([5.0, -3.0])
    return Problem(
        name="hs48",
        eval_f=lambda x: (x[0] - 1.0) ** 2 + (x[1] - x[2]) ** 2 + (x[3] - x[4]) ** 2,
        eval_grad_f=grad,
        eval_c=lambda x: a_mat @ x - b_vec,
        eval_jacobian=lambda x: a_mat.copy(),
        # The textbook start is feasible; shifted to an infeasible one.
        x0=np.array([3.0, 5.0, -3.0, 2.0, -1.0]),
    )


def _hs51() -> Problem:
    """Separable quadratic, three linear constraints, solution at all-ones."""

    def grad(x):
        return np.array(
            [
                2.0 * (x[0] - x[1]),
                -2.0 * (x[0] - x[1]) + 2.0 * (x[1] + x[2] - 2.0),
                2.0 * (x[1] + x[2] - 2.0),
                2.0 * (x[3] - 1.0),
                2.0 * (x[4] - 1.0),
            ]
        )

    a_mat = np.array(
        [
            [1.0, 3.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0, -2.0],
            [0.0, 1.0, 0.0, 0.0, -1.0],
        ]
    )
    b_vec = np.array([4.0, 0.0, 0.0])
    return Problem(
        name="hs51",
        eval_f=lambda x: (x[0] - x[1]) ** 2
        + (x[1] + x[2] - 2.0) ** 2
        + (x[3] - 1.0) ** 2
        + (x[4] - 1.0) ** 2,
        eval_grad_f=grad,
        eval_c=lambda x: a_mat @ x - b_vec,
        eval_jacobian=lambda x: a_mat.copy(),
        # The textbook start is feasible; shifted to an infeasible one.
        x0=np.array([2.5, 1.0, 2.0, -1.0, 1.0]),
    )


_SPHERE_N = 30
_SPHERE_W = 1.0 + 4.0 * np.arange(_SPHERE_N) / (_SPHERE_N - 1)


def _sphere30() -> Problem:
    """Weighted quadratic on the unit sphere; minimizer is the lightest axis."""
    n = _SPHERE_N
    return Problem(
        name="sphere30",
        eval_f=lambda x: 0.5 * float(_SPHERE_W @ (x * x)),
        eval_grad_f=lambda x: _SPHERE_W * x,
        eval_c=lambda x: np.array([float(x @ x) - 1.0]),
        eval_jacobian=lambda x: (2.0 * x)[np.newaxis, :],
        x0=(1.0 + 0.05 * np.arange(n)) / np.sqrt(n),
    )


_BUILDERS = (
    _p1,
    _p2,
    _p3,
    _qp10,
    _hs6,
    _hs7,
    _hs27,
    _hs40,
    _hs42,
    _hs48,
    _hs51,
    _sphere30,
)

_REGISTRY: dict[str, Problem] = {p.name: p for p in (build() for build in _BUILDERS)}


def problem_names() -> list[str]:
    """Registered problem names, in registration order."""
    return list(_REGISTRY)


def get_problem(name: str) -> Problem:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


# ---------------------------------------------------------------------------
# Quadratic programs from JSON files.

_QP_KEYS = {"name", "Q", "q", "A", "b", "x0"}
# run writes <name>__...csv into --out, so a name must be one plain file-name part.
_QP_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


def read_json(path):
    """The JSON value in a UTF-8 file.

    Raises OSError if the file cannot be read, and a ValueError naming
    the file if it is not UTF-8, not JSON, or nested too deeply to parse.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def _holds_text_or_bool(value) -> bool:
    """Whether a JSON value holds a string or a bool, at any list depth.

    numpy reads "1" as 1.0 and true as 1.0, also inside a list of floats,
    so a dtype check would miss them.
    """
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, (str, bool)):
            return True
    return False


def load_qp_json(path) -> Problem:
    """Load min 0.5 x'Qx + q'x s.t. Ax = b from a JSON file.

    The file must contain exactly the fields name, Q, q, A, b, x0 with
    consistent shapes; Q must be symmetric. Unknown fields are an error,
    and so is a string or a bool in any of the arrays. The name may hold
    only ASCII letters, digits, '_', '-' and '.', and may not start with
    '.', because run names its output files after it.
    """
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be an object")
    unknown = sorted(set(data) - _QP_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown field(s): {', '.join(unknown)}")
    missing = sorted(_QP_KEYS - set(data))
    if missing:
        raise ValueError(f"{path}: missing field(s): {', '.join(missing)}")
    if not isinstance(data["name"], str) or not _QP_NAME.fullmatch(data["name"]):
        raise ValueError(f"{path}: name must be letters, digits, '_', '-' and '.', "
                         "not starting with '.'")
    for key in ("Q", "q", "A", "b", "x0"):
        if _holds_text_or_bool(data[key]):
            raise ValueError(f"{path}: {key} must hold numbers, not strings or booleans")
    return quadratic_program(**data)
