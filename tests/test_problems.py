"""Problem registry, derivative checks, and the QP JSON loader."""

import dataclasses
import json
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from stepsqp.linalg import as_vector, max_abs
from stepsqp.problems import (
    Problem,
    UnknownProblemError,
    get_problem,
    load_qp_json,
    problem_names,
    quadratic_program,
)

EXPECTED_NAMES = [
    "P1",
    "P2",
    "P3",
    "qp10",
    "hs6",
    "hs7",
    "hs27",
    "hs40",
    "hs42",
    "hs48",
    "hs51",
    "sphere30",
]


def ball_points(x0, count, seed):
    """Deterministic points in the closed unit ball around x0."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    points = []
    for _ in range(count):
        direction = rng.standard_normal(x0.size)
        direction /= max(float(np.linalg.norm(direction)), 1e-300)
        points.append(x0 + rng.random() ** (1.0 / x0.size) * direction)
    return points


@dataclass(frozen=True)
class GradientCheck:
    """Worst relative derivative errors from a central-difference sweep."""

    max_rel_err_grad: float
    max_rel_err_jac: float


def check_gradients(problem: Problem, x, h: float = 1e-6) -> GradientCheck:
    """Compare analytic derivatives against central differences at x.

    Relative error is |analytic - estimate| / max(1, |analytic|), taken
    entrywise and maximized over the gradient and the Jacobian. The step
    along e_j is h, or the float spacing at x_j where that is larger, so
    x + h e_j and x - h e_j never round to one point. They are still
    rounded, so each quotient divides by the width w_j = (x + h e_j)_j -
    (x - h e_j)_j they actually span, not by 2h. Each is first granted
    its rounding bound, eps * (|v(x + h e_j)| + |v(x - h e_j)|) / w_j for
    v = f or c_i, so exact derivatives of functions with large values are
    not flagged.
    """
    x = as_vector(x, problem.n)
    grad = problem.grad_f(x)
    jac = problem.jacobian(x)
    steps = np.diag(np.maximum(h, np.spacing(np.abs(x))))
    width = (x + steps).diagonal() - (x - steps).diagonal()
    eps = np.finfo(np.float64).eps
    # Far from the origin a value may overflow; its error is then NaN or
    # inf, which is the result, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        f_pm = np.array([[problem.f(x + step), problem.f(x - step)] for step in steps])
        c_pm = np.array([[problem.c(x + step), problem.c(x - step)] for step in steps])
        err_grad = _excess(grad, (f_pm[:, 0] - f_pm[:, 1]) / width,
                           eps * np.abs(f_pm).sum(axis=1) / width)
        err_jac = _excess(jac, (c_pm[:, 0] - c_pm[:, 1]).T / width,
                          (eps * np.abs(c_pm).sum(axis=1)).T / width)
    return GradientCheck(float(err_grad.max()), float(err_jac.max()))


def _excess(analytic, estimate, rounding):
    """Entrywise relative error of estimate beyond its rounding bound."""
    gap = np.maximum(np.abs(analytic - estimate) - rounding, 0.0)
    return gap / np.maximum(1.0, np.abs(analytic))


def _within(result, tol=1e-6):
    return result.max_rel_err_grad <= tol and result.max_rel_err_jac <= tol


class TestRegistry:
    def test_names_and_order(self):
        assert problem_names() == EXPECTED_NAMES

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownProblemError, match="nope"):
            get_problem("nope")

    def test_dimensions_are_varied_and_bounded(self):
        dims = {(get_problem(n).n, get_problem(n).m) for n in problem_names()}
        assert all(1 <= m <= n <= 50 for n, m in dims)
        assert len({n for n, _ in dims}) >= 4
        assert len({m for _, m in dims}) >= 3

    def test_every_starting_point_is_infeasible(self):
        for name in problem_names():
            p = get_problem(name)
            assert max_abs(p.c(p.x0)) > 1e-6, name

    def test_evaluators_are_deterministic(self):
        for name in problem_names():
            p = get_problem(name)
            x = p.x0 + 0.125
            assert p.f(x) == p.f(x)
            np.testing.assert_array_equal(p.grad_f(x), p.grad_f(x))
            np.testing.assert_array_equal(p.c(x), p.c(x))
            np.testing.assert_array_equal(p.jacobian(x), p.jacobian(x))


class TestGradients:
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_derivatives_match_central_differences(self, name):
        p = get_problem(name)
        for point in [p.x0] + ball_points(p.x0, 10, seed=0):
            result = check_gradients(p, point)
            assert _within(result), (name, point, result)

    def test_p3_at_half_half(self):
        result = check_gradients(get_problem("P3"), np.array([0.5, 0.5]), h=1e-6)
        assert result.max_rel_err_grad <= 1e-6
        assert result.max_rel_err_jac <= 1e-6

    def test_check_gradients_flags_a_wrong_gradient(self):
        p = Problem(
            name="broken",
            eval_f=lambda x: float(x @ x),
            eval_grad_f=lambda x: 3.0 * x,  # should be 2x
            eval_c=lambda x: np.array([x[0] - 1.0]),
            eval_jacobian=lambda x: np.array([[1.0, 0.0]]),
            x0=np.array([1.0, 1.0]),
        )
        assert not _within(check_gradients(p, p.x0))

    def test_check_gradients_passes_exact_derivatives_of_a_large_objective(self):
        # f(x0) = -1e8, so rounding f alone moves a difference quotient by about 1e-2.
        x0 = [-1e4, -1e4]
        p = quadratic_program("bigq", np.eye(2), [1e4, 1e4], [[1.0, -1.0]], [0.0], x0)
        assert check_gradients(p, p.x0).max_rel_err_grad == 0.0

    @pytest.mark.parametrize(
        "x0", [[-1e6, -1e6], [-1e17, -1e17]], ids=["rounded", "below-spacing"]
    )
    def test_check_gradients_divides_by_the_step_it_took(self, x0):
        # At -1e6, x + h e_j and x - h e_j are rounded to points not exactly
        # 2h apart; at -1e17, h = 1e-6 is below the float spacing (16), so
        # both would round to x itself.
        p = quadratic_program("farq", np.eye(2), [0.0, 0.0], [[1.0, -1.0]], [0.0], x0)
        assert check_gradients(p, p.x0).max_rel_err_jac == 0.0

    def test_check_gradients_fails_a_difference_that_overflows(self):
        # f(x0 +- h e_j) overflows to inf, so the gradient's quotient is NaN,
        # which is the result, not a warning.
        x0 = [-1e300, -1e300]
        p = quadratic_program("farq", np.eye(2), [0.0, 0.0], [[1.0, -1.0]], [0.0], x0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = check_gradients(p, p.x0)
        assert np.isnan(result.max_rel_err_grad)
        assert result.max_rel_err_jac == 0.0


def _qp_kkt_pair(problem):
    """A QP's KKT pair from its KKT system, with Q, q, A and b read off its evaluators."""
    n, m, zero = problem.n, problem.m, np.zeros(problem.n)
    q_vec = problem.grad_f(zero)
    q_mat = np.column_stack([problem.grad_f(e) - q_vec for e in np.eye(n)])
    a_mat = problem.jacobian(zero)
    kkt = np.block([[q_mat, a_mat.T], [a_mat, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([-q_vec, -problem.c(zero)]))
    return sol[:n], sol[n:]


def _least_squares_pair(problem, x_star):
    """x_star with the multipliers that best fit grad f + J^T y = 0 there."""
    jac, grad = problem.jacobian(x_star), problem.grad_f(x_star)
    return x_star, np.linalg.lstsq(jac.T, -grad, rcond=None)[0]


# A known solution (x_star, y_star) of every registry problem.
REFERENCE_KKT_PAIRS = {
    # Stationarity at (-1, -1): 1 + 2*(-1)*y = 0 gives y = 1/2.
    "P1": ([-1.0, -1.0], [0.5]),
    "P2": ([1.0, 1.0], [-1.0]),
    # (1, 1) is an unconstrained minimizer lying on the circle, so y = 0.
    "P3": ([1.0, 1.0], [0.0]),
    "qp10": _qp_kkt_pair(get_problem("qp10")),
    "hs6": ([1.0, 1.0], [0.0]),
    "hs7": ([0.0, np.sqrt(3.0)], [1.0 / (2.0 * np.sqrt(3.0))]),
    "hs27": ([-1.0, 1.0, 0.0], [0.04]),
    "hs40": _least_squares_pair(
        get_problem("hs40"),
        np.array([2.0 ** (-1 / 3), 2.0 ** (-1 / 2), 2.0 ** (-11 / 12), 2.0 ** (-1 / 4)]),
    ),
    # The solution projects (3, 4) onto the radius-sqrt(2) circle in (x3, x4).
    "hs42": ([2.0, 2.0, 3.0 * np.sqrt(2.0) / 5.0, 4.0 * np.sqrt(2.0) / 5.0],
             [-2.0, 5.0 / np.sqrt(2.0) - 1.0]),
    "hs48": (np.ones(5), np.zeros(2)),
    "hs51": (np.ones(5), np.zeros(3)),
    # grad f + J^T y = w1*e1 + 2*e1*y = 0 at e1 gives y = -w1/2 = -1/2.
    "sphere30": (np.eye(30)[0], [-0.5]),
}


class TestReferencePoints:
    def test_every_registry_problem_has_a_pair(self):
        assert list(REFERENCE_KKT_PAIRS) == problem_names()

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_reference_kkt_pair_bounds(self, name):
        x_star, y_star = map(np.asarray, REFERENCE_KKT_PAIRS[name])
        p = get_problem(name)
        assert x_star.shape == (p.n,) and y_star.shape == (p.m,)
        assert max_abs(p.c(x_star)) <= 1e-10
        assert max_abs(p.grad_f(x_star) + p.jacobian(x_star).T @ y_star) <= 1e-8

    def test_p2_matches_projection_formula(self):
        # Minimum-norm solution of Ax = b is A'(AA')^{-1} b.
        p = get_problem("P2")
        a = p.jacobian(p.x0)
        b = a @ np.zeros(2) - p.c(np.zeros(2))
        x_star = a.T @ np.linalg.solve(a @ a.T, b)
        np.testing.assert_allclose(x_star, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(REFERENCE_KKT_PAIRS["P2"][0], x_star, atol=1e-14)


class TestProblemValidation:
    def _evals(self):
        return dict(
            eval_f=lambda x: float(x @ x),
            eval_grad_f=lambda x: 2.0 * x,
            eval_c=lambda x: np.array([x[0]]),
            eval_jacobian=lambda x: np.array([[1.0, 0.0]]),
        )

    def test_m_greater_than_n_rejected(self):
        evals = dict(self._evals(), eval_c=lambda x: np.array([x[0], x[0] - 1.0]))
        with pytest.raises(ValueError, match=r"1 <= m <= n, got n=1, m=2"):
            Problem(name="bad", x0=np.array([0.0]), **evals)

    def test_m_zero_rejected(self):
        evals = dict(self._evals(), eval_c=lambda x: np.zeros(0))
        with pytest.raises(ValueError, match=r"1 <= m <= n, got n=2, m=0"):
            Problem(name="bad", x0=np.zeros(2), **evals)

    def test_x0_finite_checked(self):
        with pytest.raises(ValueError, match="non-finite"):
            Problem(name="bad", x0=np.array([0.0, np.nan]), **self._evals())

    def test_replace_recomputes_the_dimensions(self):
        p = Problem(name="one", x0=np.zeros(2), **self._evals())
        q = dataclasses.replace(p, x0=np.zeros(3), eval_c=lambda x: x[:2])
        assert (p.n, p.m) == (2, 1)
        assert (q.n, q.m) == (3, 2)
        assert q.x0.shape == (3,)

    @pytest.mark.parametrize("given", [{"n": 2}, {"m": 1}])
    def test_dimensions_are_not_arguments(self, given):
        with pytest.raises(TypeError, match="unexpected keyword"):
            Problem(name="bad", x0=np.zeros(2), **given, **self._evals())

    def test_wrong_constraint_shape_flagged_at_call(self):
        p = Problem(
            name="bad",
            eval_f=lambda x: 0.0,
            eval_grad_f=lambda x: np.zeros(2),
            # One entry at x0, so m is 1; two entries anywhere else.
            eval_c=lambda x: np.ones(1 if x[0] == 0.0 else 2),
            eval_jacobian=lambda x: np.ones((1, 2)),
            x0=np.zeros(2),
        )
        assert p.m == 1
        with pytest.raises(ValueError, match=r"constraint shape \(2,\) != \(1,\)"):
            p.c(p.x0 + 1.0)

    @pytest.mark.parametrize(("c0", "shape"), [(-1.0, r"\(\)"), ([[-1.0]], r"\(1, 1\)")],
                             ids=["scalar", "2-D"])
    def test_c_at_x0_that_is_not_a_vector_rejected(self, c0, shape):
        evals = dict(self._evals(), eval_c=lambda x: c0)
        with pytest.raises(ValueError, match=rf"c\(x0\) must be one-dimensional, got shape {shape}"):
            Problem(name="bad", x0=np.zeros(2), **evals)

    @pytest.mark.parametrize(("f", "shape"), [(lambda x: np.ones((1, 2)) @ x, r"\(1,\)"),
                                              (lambda x: np.ones((1, 1)), r"\(1, 1\)")],
                             ids=["row product", "2-D"])
    def test_f_at_x0_that_is_not_a_scalar_rejected(self, f, shape):
        evals = dict(self._evals(), eval_f=f)
        with pytest.raises(ValueError, match=rf"^bad: f\(x0\) must be a scalar, got shape {shape}$"):
            Problem(name="bad", x0=np.zeros(2), **evals)

    def test_flat_jacobian_row_flagged_at_call(self):
        p = Problem(
            name="flat",
            eval_f=lambda x: 0.0,
            eval_grad_f=lambda x: np.zeros(3),
            eval_c=lambda x: np.array([float(x.sum()) - 1.0]),
            eval_jacobian=lambda x: np.ones(3),  # a gradient row, not a (1, n) matrix
            x0=np.zeros(3),
        )
        with pytest.raises(ValueError, match=r"jacobian shape \(3,\) != \(1, 3\)"):
            p.jacobian(p.x0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_transposed_jacobian_flagged_at_call(self, m):
        p = Problem(
            name="bad",
            eval_f=lambda x: 0.0,
            eval_grad_f=lambda x: np.zeros(3),
            eval_c=lambda x: np.zeros(m),
            eval_jacobian=lambda x: np.ones((3, m)),  # (n, m), not (m, n)
            x0=np.zeros(3),
        )
        with pytest.raises(ValueError, match="jacobian shape"):
            p.jacobian(p.x0)

    def test_wrong_gradient_shape_flagged_at_call(self):
        p = Problem(
            name="bad",
            eval_f=lambda x: 0.0,
            eval_grad_f=lambda x: np.zeros(3),
            eval_c=lambda x: np.array([1.0]),
            eval_jacobian=lambda x: np.ones((1, 2)),
            x0=np.zeros(2),
        )
        with pytest.raises(ValueError, match="gradient shape"):
            p.grad_f(p.x0)


QP_DOC = {
    "name": "tiny",
    "Q": [[2.0, 0.0], [0.0, 2.0]],
    "q": [0.0, 0.0],
    "A": [[1.0, 1.0]],
    "b": [2.0],
    "x0": [0.0, 0.0],
}


class TestQpJson:
    def _write(self, tmp_path, doc):
        path = tmp_path / "qp.json"
        path.write_text(json.dumps(doc))
        return path

    def test_round_trip(self, tmp_path):
        p = load_qp_json(self._write(tmp_path, QP_DOC))
        assert (p.name, p.n, p.m) == ("tiny", 2, 1)
        x = np.array([1.0, 3.0])
        assert p.f(x) == pytest.approx(10.0)  # x'x with Q = 2I
        np.testing.assert_allclose(p.grad_f(x), [2.0, 6.0])
        np.testing.assert_allclose(p.c(x), [2.0])
        assert _within(check_gradients(p, p.x0))

    def test_unknown_field_rejected(self, tmp_path):
        doc = dict(QP_DOC, extra=1)
        with pytest.raises(ValueError, match="unknown field.*extra"):
            load_qp_json(self._write(tmp_path, doc))

    def test_missing_field_rejected(self, tmp_path):
        doc = {k: v for k, v in QP_DOC.items() if k != "b"}
        with pytest.raises(ValueError, match="missing field.*b"):
            load_qp_json(self._write(tmp_path, doc))

    def test_asymmetric_q_rejected(self, tmp_path):
        doc = dict(QP_DOC, Q=[[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            load_qp_json(self._write(tmp_path, doc))

    def test_shape_mismatch_rejected(self, tmp_path):
        doc = dict(QP_DOC, A=[[1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="A"):
            load_qp_json(self._write(tmp_path, doc))

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "qp.json"
        path.write_text("{ not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_qp_json(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "qp.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            load_qp_json(path)
