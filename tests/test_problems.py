"""Problem registry, derivative checks, and the QP JSON loader."""

import json

import numpy as np
import pytest

from stepsqp.linalg import max_abs
from stepsqp.problems import (
    Problem,
    SuiteEntry,
    UnknownProblemError,
    check_gradients,
    get_entry,
    get_problem,
    load_qp_json,
    problem_names,
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


def _within(result, tol=1e-6):
    return result.max_rel_err_grad <= tol and result.max_rel_err_jac <= tol


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
            n=2,
            m=1,
            eval_f=lambda x: float(x @ x),
            eval_grad_f=lambda x: 3.0 * x,  # should be 2x
            eval_c=lambda x: np.array([x[0] - 1.0]),
            eval_jacobian=lambda x: np.array([[1.0, 0.0]]),
            x0=np.array([1.0, 1.0]),
        )
        assert not _within(check_gradients(p, p.x0))


class TestReferencePoints:
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_reference_kkt_pair_bounds(self, name):
        entry = get_entry(name)
        assert entry.reference_kkt_point is not None
        x_star, y_star = entry.reference_kkt_point
        p = entry.problem
        assert max_abs(p.c(x_star)) <= 1e-10
        assert max_abs(p.grad_f(x_star) + p.jacobian(x_star).T @ y_star) <= 1e-8

    def test_p2_matches_projection_formula(self):
        # Minimum-norm solution of Ax = b is A'(AA')^{-1} b.
        p = get_problem("P2")
        a = p.jacobian(p.x0)
        b = a @ np.zeros(2) - p.c(np.zeros(2))
        x_star = a.T @ np.linalg.solve(a @ a.T, b)
        np.testing.assert_allclose(x_star, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(get_entry("P2").reference_kkt_point[0], x_star, atol=1e-14)

    def test_bad_reference_pair_rejected(self):
        p = get_problem("P1")
        with pytest.raises(ValueError, match="reference KKT point"):
            SuiteEntry(p, (np.array([1.0, 1.0]), np.array([0.5])))


class TestProblemValidation:
    def _evals(self):
        return dict(
            eval_f=lambda x: float(x @ x),
            eval_grad_f=lambda x: 2.0 * x,
            eval_c=lambda x: np.array([x[0]]),
            eval_jacobian=lambda x: np.array([[1.0, 0.0]]),
        )

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(ValueError, match="1 <= m <= n"):
            Problem(name="bad", n=1, m=2, x0=np.array([0.0]), **self._evals())

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError, match="1 <= m <= n"):
            Problem(name="bad", n=2, m=0, x0=np.zeros(2), **self._evals())

    def test_x0_length_checked(self):
        with pytest.raises(ValueError, match="x0"):
            Problem(name="bad", n=2, m=1, x0=np.zeros(3), **self._evals())

    def test_x0_finite_checked(self):
        with pytest.raises(ValueError, match="non-finite"):
            Problem(name="bad", n=2, m=1, x0=np.array([0.0, np.nan]), **self._evals())

    def test_wrong_constraint_shape_flagged_at_call(self):
        p = Problem(
            name="bad",
            n=2,
            m=1,
            eval_f=lambda x: 0.0,
            eval_grad_f=lambda x: np.zeros(2),
            eval_c=lambda x: np.array([1.0, 2.0]),  # m is 1
            eval_jacobian=lambda x: np.ones((1, 2)),
            x0=np.zeros(2),
        )
        with pytest.raises(ValueError, match="constraint shape"):
            p.c(p.x0)

    def test_single_constraint_may_be_scalar_with_a_vector_jacobian(self):
        p = Problem(
            name="flat",
            n=3,
            m=1,
            eval_f=lambda x: 0.0,
            eval_grad_f=lambda x: np.zeros(3),
            eval_c=lambda x: float(x.sum()) - 1.0,
            eval_jacobian=lambda x: np.ones(3),
            x0=np.zeros(3),
        )
        c = p.c(p.x0)
        assert c.shape == (1,) and c[0] == -1.0
        np.testing.assert_array_equal(p.jacobian(p.x0), np.ones((1, 3)))

    @pytest.mark.parametrize("m", [1, 2])
    def test_transposed_jacobian_flagged_at_call(self, m):
        p = Problem(
            name="bad",
            n=3,
            m=m,
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
            n=2,
            m=1,
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
