"""Equality-constrained test problems with analytic derivatives.

A small registry of smooth problems of the form

    min f(x)  subject to  c(x) = 0,  f: R^n -> R,  c: R^n -> R^m,  m <= n.

Each entry carries callable evaluators for f, its gradient, c and its
Jacobian, an infeasible starting point, and where available a known
solution plus a reference KKT pair used by the test suite. The hs*
entries restate classic small test problems from the nonlinear
programming literature; the remaining entries are simple constructions
(linear objective on a circle, minimum-norm projection, a convex QP, a
weighted quadratic on a sphere).

Quadratic programs are built by :func:`quadratic_program`, also from
JSON files by :func:`load_qp_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .linalg import (
    as_matrix,
    as_vector,
    cholesky_solve,
    lu_solve,
    max_abs,
    require_symmetric,
)


class UnknownProblemError(ValueError):
    """Requested name is not in the registry."""


@dataclass(frozen=True)
class Problem:
    """One equality-constrained minimization problem.

    Evaluators are deterministic pure functions of x; noise is injected
    elsewhere. Use the ``f``/``grad_f``/``c``/``jacobian`` methods rather
    than the raw callables: they coerce and shape-check the outputs.
    """

    name: str
    n: int
    m: int
    eval_f: Callable[[np.ndarray], float]
    eval_grad_f: Callable[[np.ndarray], np.ndarray]
    eval_c: Callable[[np.ndarray], np.ndarray]
    eval_jacobian: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.m > self.n:
            raise ValueError(f"{self.name}: need 1 <= m <= n, got n={self.n}, m={self.m}")
        object.__setattr__(self, "x0", as_vector(self.x0, self.n, f"{self.name}.x0"))

    def f(self, x: np.ndarray) -> float:
        return float(self.eval_f(x))

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.eval_grad_f(x), dtype=np.float64)
        if g.shape != (self.n,):
            raise ValueError(f"{self.name}: gradient shape {g.shape} != ({self.n},)")
        return g

    def c(self, x: np.ndarray) -> np.ndarray:
        c = np.asarray(self.eval_c(x), dtype=np.float64)
        if c.ndim == 0 and self.m == 1:  # a single constraint as a scalar
            c = c.reshape(1)
        if c.shape != (self.m,):
            raise ValueError(f"{self.name}: constraint shape {c.shape} != ({self.m},)")
        return c

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        jac = np.asarray(self.eval_jacobian(x), dtype=np.float64)
        if jac.ndim < 2 and self.m == 1 and jac.size == self.n:  # a gradient row
            jac = jac.reshape(1, self.n)
        if jac.shape != (self.m, self.n):
            raise ValueError(f"{self.name}: jacobian shape {jac.shape} != ({self.m}, {self.n})")
        return jac


@dataclass(frozen=True)
class SuiteEntry:
    """Registry entry: a problem plus an optional reference KKT pair.

    When present, the reference pair (x_star, y_star) satisfies
    ||c(x_star)||_inf <= 1e-10 and ||grad f + J^T y||_inf <= 1e-8; this is
    verified at construction.
    """

    problem: Problem
    reference_kkt_point: Optional[tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if self.reference_kkt_point is None:
            return
        p = self.problem
        x_star = as_vector(self.reference_kkt_point[0], p.n, f"{p.name}.x_star")
        y_star = as_vector(self.reference_kkt_point[1], p.m, f"{p.name}.y_star")
        object.__setattr__(self, "reference_kkt_point", (x_star, y_star))
        infeas = max_abs(p.c(x_star))
        stat = max_abs(p.grad_f(x_star) + p.jacobian(x_star).T @ y_star)
        if infeas > 1e-10 or stat > 1e-8:
            raise ValueError(
                f"{p.name}: reference KKT point fails bounds "
                f"(infeasibility {infeas:g}, stationarity {stat:g})"
            )


@dataclass(frozen=True)
class GradientCheck:
    """Worst relative derivative errors from a central-difference sweep."""

    max_rel_err_grad: float
    max_rel_err_jac: float


def check_gradients(problem: Problem, x, h: float = 1e-6) -> GradientCheck:
    """Compare analytic derivatives against central differences at x.

    Relative error is |analytic - estimate| / max(1, |analytic|), taken
    entrywise and maximized over the gradient and the Jacobian.
    """
    x = as_vector(x, problem.n)
    grad = problem.grad_f(x)
    jac = problem.jacobian(x)
    fd_grad = np.empty(problem.n)
    fd_jac = np.empty((problem.m, problem.n))
    for j in range(problem.n):
        step = np.zeros(problem.n)
        step[j] = h
        fd_grad[j] = (problem.f(x + step) - problem.f(x - step)) / (2.0 * h)
        fd_jac[:, j] = (problem.c(x + step) - problem.c(x - step)) / (2.0 * h)
    err_grad = np.abs(grad - fd_grad) / np.maximum(1.0, np.abs(grad))
    err_jac = np.abs(jac - fd_jac) / np.maximum(1.0, np.abs(jac))
    return GradientCheck(float(err_grad.max()), float(err_jac.max()))


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
        n=n,
        m=b_vec.size,
        eval_f=lambda x: 0.5 * float(x @ (q_mat @ x)) + float(q_vec @ x),
        eval_grad_f=lambda x: q_mat @ x + q_vec,
        eval_c=lambda x: a_mat @ x - b_vec,
        eval_jacobian=lambda x: a_mat.copy(),
        x0=as_vector(x0, n, name="x0"),
    )


# ---------------------------------------------------------------------------
# Registry construction. Starting points are deliberately infeasible.


def _p1() -> SuiteEntry:
    """Linear objective on a circle: min x1 + x2 s.t. x1^2 + x2^2 = 2."""
    problem = Problem(
        name="P1",
        n=2,
        m=1,
        eval_f=lambda x: x[0] + x[1],
        eval_grad_f=lambda x: np.array([1.0, 1.0]),
        eval_c=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
        eval_jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        x0=np.array([2.0, 1.0]),
    )
    # Stationarity at (-1, -1): 1 + 2*(-1)*y = 0 gives y = 1/2.
    return SuiteEntry(problem, (np.array([-1.0, -1.0]), np.array([0.5])))


_P2_A = np.array([[1.0, 1.0]])
_P2_B = np.array([2.0])


def _p2() -> SuiteEntry:
    """Minimum-norm point on a line: min 0.5 ||x||^2 s.t. x1 + x2 = 2."""
    problem = Problem(
        name="P2",
        n=2,
        m=1,
        eval_f=lambda x: 0.5 * float(x @ x),
        eval_grad_f=lambda x: x.copy(),
        eval_c=lambda x: _P2_A @ x - _P2_B,
        eval_jacobian=lambda x: _P2_A.copy(),
        x0=np.array([0.0, 0.0]),
    )
    return SuiteEntry(problem, (np.array([1.0, 1.0]), np.array([-1.0])))


def _p3() -> SuiteEntry:
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

    problem = Problem(
        name="P3",
        n=2,
        m=1,
        eval_f=lambda x: (1.0 - x[0]) ** 2 + 4.0 * (x[1] - x[0] ** 2) ** 2,
        eval_grad_f=grad,
        eval_c=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
        eval_jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        x0=np.array([0.5, 0.5]),
    )
    # (1, 1) is an unconstrained minimizer lying on the circle, so y = 0.
    return SuiteEntry(problem, (np.array([1.0, 1.0]), np.array([0.0])))


def _qp10() -> SuiteEntry:
    """Convex 10-d QP with 3 linear constraints; solution via its KKT system."""
    n, m = 10, 3
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

    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = q_mat
    kkt[:n, n:] = a_mat.T
    kkt[n:, :n] = a_mat
    sol = lu_solve(kkt, np.concatenate([-q_vec, b_vec]))
    problem = quadratic_program("qp10", q_mat, q_vec, a_mat, b_vec, np.zeros(n))
    return SuiteEntry(problem, (sol[:n], sol[n:]))


def _hs6() -> SuiteEntry:
    """min (1 - x1)^2 s.t. 10 (x2 - x1^2) = 0."""
    problem = Problem(
        name="hs6",
        n=2,
        m=1,
        eval_f=lambda x: (1.0 - x[0]) ** 2,
        eval_grad_f=lambda x: np.array([-2.0 * (1.0 - x[0]), 0.0]),
        eval_c=lambda x: np.array([10.0 * (x[1] - x[0] ** 2)]),
        eval_jacobian=lambda x: np.array([[-20.0 * x[0], 10.0]]),
        x0=np.array([-1.2, 1.0]),
    )
    return SuiteEntry(problem, (np.array([1.0, 1.0]), np.array([0.0])))


def _hs7() -> SuiteEntry:
    """min ln(1 + x1^2) - x2 s.t. (1 + x1^2)^2 + x2^2 = 4."""
    problem = Problem(
        name="hs7",
        n=2,
        m=1,
        eval_f=lambda x: np.log1p(x[0] ** 2) - x[1],
        eval_grad_f=lambda x: np.array([2.0 * x[0] / (1.0 + x[0] ** 2), -1.0]),
        eval_c=lambda x: np.array([(1.0 + x[0] ** 2) ** 2 + x[1] ** 2 - 4.0]),
        eval_jacobian=lambda x: np.array(
            [[4.0 * x[0] * (1.0 + x[0] ** 2), 2.0 * x[1]]]
        ),
        x0=np.array([2.0, 2.0]),
    )
    y_star = 1.0 / (2.0 * np.sqrt(3.0))
    return SuiteEntry(problem, (np.array([0.0, np.sqrt(3.0)]), np.array([y_star])))


def _hs27() -> SuiteEntry:
    """min 0.01 (x1 - 1)^2 + (x2 - x1^2)^2 s.t. x1 + x3^2 + 1 = 0."""

    def grad(x):
        return np.array(
            [
                0.02 * (x[0] - 1.0) - 4.0 * x[0] * (x[1] - x[0] ** 2),
                2.0 * (x[1] - x[0] ** 2),
                0.0,
            ]
        )

    problem = Problem(
        name="hs27",
        n=3,
        m=1,
        eval_f=lambda x: 0.01 * (x[0] - 1.0) ** 2 + (x[1] - x[0] ** 2) ** 2,
        eval_grad_f=grad,
        eval_c=lambda x: np.array([x[0] + x[2] ** 2 + 1.0]),
        eval_jacobian=lambda x: np.array([[1.0, 0.0, 2.0 * x[2]]]),
        x0=np.array([2.0, 2.0, 2.0]),
    )
    return SuiteEntry(problem, (np.array([-1.0, 1.0, 0.0]), np.array([0.04])))


def _hs40() -> SuiteEntry:
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

    x_star = np.array([2.0 ** (-1 / 3), 2.0 ** (-1 / 2), 2.0 ** (-11 / 12), 2.0 ** (-1 / 4)])
    j_star = jac(x_star)
    g_star = grad(x_star)
    y_star = cholesky_solve(j_star @ j_star.T, -(j_star @ g_star))

    problem = Problem(
        name="hs40",
        n=4,
        m=3,
        eval_f=lambda x: -x[0] * x[1] * x[2] * x[3],
        eval_grad_f=grad,
        eval_c=constraints,
        eval_jacobian=jac,
        x0=np.array([0.8, 0.8, 0.8, 0.8]),
    )
    return SuiteEntry(problem, (x_star, y_star))


def _hs42() -> SuiteEntry:
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

    # Solution projects (3, 4) onto the radius-sqrt(2) circle in (x3, x4).
    x_star = np.array([2.0, 2.0, 3.0 * np.sqrt(2.0) / 5.0, 4.0 * np.sqrt(2.0) / 5.0])
    y_star = np.array([-2.0, 5.0 / np.sqrt(2.0) - 1.0])

    problem = Problem(
        name="hs42",
        n=4,
        m=2,
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
    return SuiteEntry(problem, (x_star, y_star))


def _hs48() -> SuiteEntry:
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
    problem = Problem(
        name="hs48",
        n=5,
        m=2,
        eval_f=lambda x: (x[0] - 1.0) ** 2 + (x[1] - x[2]) ** 2 + (x[3] - x[4]) ** 2,
        eval_grad_f=grad,
        eval_c=lambda x: a_mat @ x - b_vec,
        eval_jacobian=lambda x: a_mat.copy(),
        # The textbook start is feasible; shifted to an infeasible one.
        x0=np.array([3.0, 5.0, -3.0, 2.0, -1.0]),
    )
    return SuiteEntry(problem, (np.ones(5), np.zeros(2)))


def _hs51() -> SuiteEntry:
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
    problem = Problem(
        name="hs51",
        n=5,
        m=3,
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
    return SuiteEntry(problem, (np.ones(5), np.zeros(3)))


_SPHERE_N = 30
_SPHERE_W = 1.0 + 4.0 * np.arange(_SPHERE_N) / (_SPHERE_N - 1)


def _sphere30() -> SuiteEntry:
    """Weighted quadratic on the unit sphere; minimizer is the lightest axis."""
    n = _SPHERE_N
    problem = Problem(
        name="sphere30",
        n=n,
        m=1,
        eval_f=lambda x: 0.5 * float(_SPHERE_W @ (x * x)),
        eval_grad_f=lambda x: _SPHERE_W * x,
        eval_c=lambda x: np.array([float(x @ x) - 1.0]),
        eval_jacobian=lambda x: (2.0 * x)[np.newaxis, :],
        x0=(1.0 + 0.05 * np.arange(n)) / np.sqrt(n),
    )
    # grad f + J^T y = w1*e1 + 2*e1*y = 0 at e1 gives y = -w1/2 = -1/2.
    return SuiteEntry(problem, (np.eye(n)[0], np.array([-0.5])))


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

_REGISTRY: dict[str, SuiteEntry] = {}
for _build in _BUILDERS:
    _entry = _build()
    _REGISTRY[_entry.problem.name] = _entry


def problem_names() -> list[str]:
    """Registered problem names, in registration order."""
    return list(_REGISTRY)


def get_entry(name: str) -> SuiteEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


def get_problem(name: str) -> Problem:
    return get_entry(name).problem


# ---------------------------------------------------------------------------
# Quadratic programs from JSON files.

_QP_KEYS = {"name", "Q", "q", "A", "b", "x0"}


def load_qp_json(path) -> Problem:
    """Load min 0.5 x'Qx + q'x s.t. Ax = b from a JSON file.

    The file must contain exactly the fields name, Q, q, A, b, x0 with
    consistent shapes; Q must be symmetric. Unknown fields are an error.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be an object")
    unknown = sorted(set(data) - _QP_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown field(s): {', '.join(unknown)}")
    missing = sorted(_QP_KEYS - set(data))
    if missing:
        raise ValueError(f"{path}: missing field(s): {', '.join(missing)}")
    if not isinstance(data["name"], str) or not data["name"]:
        raise ValueError(f"{path}: name must be a non-empty string")
    return quadratic_program(**data)
