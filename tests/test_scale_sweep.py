"""Scale sweep: every registry problem with its objective and constraints rescaled.

Each registry problem runs with f and grad f multiplied by s_f in
S_F_SCALES and c and J by s_c in S_C_SCALES, noiseless and at
NOISY_REPLICATES replicates of the noise pair (1e-2 s_f, 1e-1 s_f), with
a budget of MAX_ITERS iterations: 576 solves. Overflow cases ride
along: every registry problem at (0, 1e308) and at (1e308, 0), and a log
barrier, whose f is +inf past a boundary, at every scale pair.

What is asserted holds today: no run raises; a run ends
linear_algebra_failure exactly when it has a failure reason, and that
reason is one README.md lists; at s_f = s_c = 1 no run fails; for s_f = 1
and any s_c in S_C_SCALES, no run ends with an inaccurate KKT solve,
since the ||J d + c||_inf guard also scales with ||J||_max ||d||_1. The
status and reason counts per (s_f, s_c) are printed (pytest -s), so a
change that moves them shows the move, and so is each merit-parameter
collapse with its tau and s_c / s_f.

Not asserted yet, because it does not hold: for s_f = 1 and any s_c in
S_C_SCALES, no run ends with a rank-deficient Jacobian. Scaling c and J
by s_c leaves the step unchanged in exact arithmetic and keeps J's rank,
but the LU kernel's pivot floor does not scale with J, so runs at
s_c = 1e-8 and 1e20 end rank deficient. That assertion belongs with the
kernel change that makes it true.
"""

import dataclasses
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from stepsqp.bench import GridCell
from stepsqp.oracles import OracleConfig
from stepsqp.problems import Problem, get_problem, problem_names
from stepsqp.sqp import RunStatus, SolverParams, solve

S_F_SCALES = (1e-6, 1.0, 1e6, 1e12)
S_C_SCALES = (1e-8, 1.0, 1e8, 1e20)
NOISY_REPLICATES = 2
MAX_ITERS = 300
HUGE_NOISE_PAIRS = ((0.0, 1e308), (1e308, 0.0))

README = Path(__file__).resolve().parents[1] / "README.md"

# f = -log x1 + 5 x1 + x2^2 on x1 + x2 = 2, +inf where x1 <= 0.
BARRIER = Problem(
    name="barrier",
    eval_f=lambda x: -math.log(x[0]) + 5.0 * x[0] + x[1] ** 2 if x[0] > 0.0 else math.inf,
    eval_grad_f=lambda x: np.array([-1.0 / x[0] + 5.0, 2.0 * x[1]]),
    eval_c=lambda x: np.array([x[0] + x[1] - 2.0]),
    eval_jacobian=lambda x: np.array([[1.0, 1.0]]),
    x0=np.array([1.0, 1.0]),
)


def _scaled(problem, s_f, s_c):
    """problem with f and grad f multiplied by s_f, and c and J by s_c."""
    return dataclasses.replace(
        problem,
        eval_f=lambda x: s_f * problem.eval_f(x),
        eval_grad_f=lambda x: s_f * problem.eval_grad_f(x),
        eval_c=lambda x: s_c * problem.eval_c(x),
        eval_jacobian=lambda x: s_c * problem.eval_jacobian(x),
    )


def _noisy(name, pair, replicates):
    """Configs for replicates of pair, on the streams a grid would give them."""
    return [GridCell.at(0, name, *pair, rep).oracle_config(0) for rep in range(replicates)]


def _cases():
    """(scale pair or noise pair, problem, oracle config) for every solve of the sweep."""
    cases = []
    for s_f in S_F_SCALES:
        for s_c in S_C_SCALES:
            pair = (1e-2 * s_f, 1e-1 * s_f)
            for base in [get_problem(name) for name in problem_names()] + [BARRIER]:
                problem = _scaled(base, s_f, s_c)
                cases += [((s_f, s_c), problem, cfg) for cfg in
                          [OracleConfig(), *_noisy(base.name, pair, NOISY_REPLICATES)]]
    for pair in HUGE_NOISE_PAIRS:
        for name in problem_names():
            cases += [(pair, get_problem(name), cfg) for cfg in _noisy(name, pair, 1)]
    return cases


def readme_failure_reasons() -> list[re.Pattern]:
    """The failure reasons README.md lists, "…" standing for any text."""
    text = README.read_text()
    start = text.index("A run ends `linear_algebra_failure` for one of these reasons only:")
    # The bulleted list is the paragraph after that line; each reason opens a parenthesis.
    listed = re.findall(r"\(`([^`]+)`", text[start:].split("\n\n")[1])
    return [re.compile(".+".join(map(re.escape, reason.split("…")))) for reason in listed]


@pytest.fixture(scope="module")
def sweep():
    """(key, problem name, status, failure reason) per solve; a raise is its repr as status."""
    outcomes = []
    for key, problem, cfg in _cases():
        # A gradient sample near 1e308 gives a finite step whose d'd
        # overflows in solve, which then ends the run.
        with np.errstate(over="ignore" if cfg.eps_g_noise == 1e308 else "warn"):
            try:
                record = solve(problem, SolverParams(max_iters=MAX_ITERS), cfg)
                outcome = (record.status, record.failure_reason)
            except Exception as exc:  # a raise is what is checked
                outcome = (repr(exc), None)
        outcomes.append((key, problem.name, *outcome))
    table = {}
    for key, _, status, reason in outcomes:
        kind = reason and re.split(r"[:0-9]", reason)[0].strip()
        table.setdefault(key, Counter())[(getattr(status, "value", status), kind)] += 1
    for key, counts in table.items():
        print(key, dict(sorted(counts.items(), key=str)))
    # tau at each merit-parameter collapse, with s_c / s_f (1 at the
    # overflow pairs, which run unscaled); reported, not asserted.
    for key, name, _, reason in outcomes:
        if (reason or "").startswith("merit parameter collapsed to "):
            s_f, s_c = (1.0, 1.0) if key in HUGE_NOISE_PAIRS else key
            print("collapse", key, name, "tau", reason.rsplit(" ", 1)[1], f"s_c/s_f {s_c / s_f:g}")
    return outcomes


def test_the_sweep_covers_every_case():
    registry = len(problem_names())
    scales = len(S_F_SCALES) * len(S_C_SCALES)
    assert registry == 12
    assert len(_cases()) == (registry + 1) * scales * (1 + NOISY_REPLICATES) + 2 * registry


def test_no_run_raises(sweep):
    raised = [outcome for outcome in sweep if not isinstance(outcome[2], RunStatus)]
    assert raised == []


def test_a_run_fails_exactly_when_it_has_a_reason_that_the_readme_lists(sweep):
    reasons = readme_failure_reasons()
    assert len(reasons) == 6
    for key, name, status, reason in sweep:
        assert (status is RunStatus.LINEAR_ALGEBRA_FAILURE) == (reason is not None), (key, name)
        if reason is not None:
            assert any(pattern.fullmatch(reason) for pattern in reasons), (key, name, reason)


def test_no_run_fails_at_unit_scale(sweep):
    failed = [outcome for outcome in sweep
              if outcome[0] == (1.0, 1.0) and outcome[2] is RunStatus.LINEAR_ALGEBRA_FAILURE]
    assert failed == []


def test_no_unit_objective_run_ends_with_an_inaccurate_solve(sweep):
    unit_objective = {(1.0, s_c) for s_c in S_C_SCALES}
    inaccurate = [outcome for outcome in sweep if outcome[0] in unit_objective
                  and (outcome[3] or "").startswith("inaccurate KKT solve")]
    assert inaccurate == []
