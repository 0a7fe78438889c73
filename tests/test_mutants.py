"""The mutant catalogue: each planted fault is caught by the checks named for it.

A mutant is one exact replacement in one function's source, taken with
inspect.getsource. The text it replaces must occur exactly once, so an
edit that removes or repeats it fails here and the catalogue has to
follow. The mutated function is compiled against a copy of its module's
namespace and patched in where the checks look it up: solve into sqp
and bench, bench.build_profile into bench, where _table_profiles looks it
up, and into test_bench, where the profile property test does, and
bench.write_run_csv into bench, where write_run looks it up.

Each mutant names the checks of KILLERS that must kill it. A check runs
on its own cases, in order, until one fails it:

* AC3's per-iteration check (test_acceptance.check_ac3_cell), on SLICE,
  the first 40 default-grid cells of qp10;
* the bit-for-bit comparison of solve with the reference loop
  (reference.assert_matches_reference), which writes out the step rules
  itself, on SLICE;
* the scale sweep's rule that no run with an unscaled objective ends
  with an inaccurate KKT solve, on the noiseless runs of SWEEP_PROBLEMS
  with c and J scaled by SWEEP_S_C;
* the constraint-permutation relation (test_solver.rotation_failure),
  on every problem with m >= 2 at TestConstraintSignFlip's four pairs;
* the variable-permutation relation (test_solver.permutation_failure),
  on every registry problem, noiseless;
* the constant-shift relation (test_solver.shift_failure), on every
  registry problem at TestConstraintSignFlip's four pairs;
* the performance-profile property test
  (test_bench.TestBuildProfile.test_rho_is_a_monotone_cdf), its body on
  derandomized examples of its strategy;
* the bench-profiles check
  (test_bench.TestRunGrid.test_written_profiles_match_profiles_built_in_memory)
  and the round-trip check (test_bench.TestRunGrid.test_round_trip_through_files),
  their bodies on test_bench.SMALL_GRID solved afresh into a temporary
  directory.

A kill counts only if the same case passes the same check unmutated.
SLICE is qp10's because a strict Armijo test differs from the
non-strict one only where a trial merit equals its bound exactly, which
happens in 6 of the 732 default-grid runs, 4 of them qp10's at
(eps_f, eps_g) = (0, 1e-1). Without the ||J||_max ||d||_1 term of
solve's ||J d + c||_inf guard, each of SWEEP_PROBLEMS ends with an
inaccurate KKT solve after at most 3 iterations at s_c = 1e8.

    python3 -m pytest tests/test_mutants.py -s    # prints the mutant/killer table
"""

import inspect
import tempfile
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import pytest
import test_bench
from hypothesis import given, settings
from reference import assert_matches_reference
from test_acceptance import check_ac3_cell
from test_scale_sweep import MAX_ITERS, _scaled
from test_solver import (
    ROTATION_CASES,
    SHIFT_CASES,
    permutation_failure,
    rotation_failure,
    shift_failure,
)

from stepsqp import bench, sqp
from stepsqp.bench import ExperimentGrid, grid_cells
from stepsqp.oracles import OracleConfig
from stepsqp.problems import get_problem, problem_names
from stepsqp.sqp import SolverParams

GRID = ExperimentGrid()
SLICE = [cell for cell in grid_cells(GRID) if cell.problem == "qp10"][:40]
SWEEP_PROBLEMS = ("qp10", "hs48", "hs51")
SWEEP_S_C = 1e8

# The checks that kill a fault in the step rules or the merit samples.
STEP_RULE_KILLERS = ("AC3", "reference loop")


class Mutant(NamedTuple):
    name: str
    function: str
    old: str
    new: str
    killers: tuple[str, ...]
    module: ModuleType = sqp

    def compile(self):
        source = inspect.getsource(getattr(self.module, self.function))
        count = source.count(self.old)
        assert count == 1, f"{self.name}: {self.old!r} occurs {count} times in {self.function}"
        namespace = dict(vars(self.module))
        exec(compile(source.replace(self.old, self.new), f"<mutant {self.name}>", "exec"),
             namespace)
        return namespace[self.function]


MUTANTS = [
    Mutant("allowance 1·τ·ε_f", "solve",
           "2.0 * tau_bar * eps_f", "1.0 * tau_bar * eps_f", STEP_RULE_KILLERS),
    Mutant("τ may rise", "solve",
           "        if not tau_bar <= trial:\n",
           "        if tau_bar <= trial:\n"
           "            tau_bar = min(trial, tau_bar / (1.0 - EPS_TAU))\n"
           "        else:\n",
           STEP_RULE_KILLERS),
    Mutant("allowance scaled by |φ_current|", "solve",
           "2.0 * tau_bar * eps_f", "2.0 * tau_bar * eps_f * abs(phi_bar_current)",
           ("constant shift",)),
    Mutant("strict Armijo", "solve",
           "phi_bar_trial <= phi_bar_current", "phi_bar_trial < phi_bar_current",
           STEP_RULE_KILLERS),
    Mutant("reused value sample", "solve",
           "tau_bar * f_bar_trial + c_plus_l1", "tau_bar * f_bar_current + c_plus_l1",
           STEP_RULE_KILLERS),
    Mutant("φ_trial·(1 + 1e-15)", "solve",
           "tau_bar * f_bar_trial + c_plus_l1", "(tau_bar * f_bar_trial + c_plus_l1) * (1.0 + 1e-15)",
           STEP_RULE_KILLERS),
    Mutant("‖J‖max‖d‖₁ guard term dropped", "solve",
           "and lin_feas <= LINEARIZED_FEASIBILITY_RTOL * (1.0 + jd_bound)", "and False",
           ("scale sweep",)),
    Mutant("‖c₊‖₁ over all but the last entry", "solve",
           "add_reduce(absolute(c_plus))", "add_reduce(absolute(c_plus[:-1]))",
           ("constraint permutation", "AC3", "reference loop")),
    Mutant("d'd over all but the last entry", "solve",
           "dd = float(d.dot(d))", "dd = float(d[:-1].dot(d[:-1]))", ("variable permutation",)),
    Mutant("profile ratio over the largest budget", "build_profile",
           "best = min(solved.values(), default=None)",
           "best = max(solved.values(), default=None)", ("profile property",), bench),
    Mutant("infeas_inf and kkt_inf values swapped", "write_run_csv",
           "record.iterations[name]",
           'record.iterations[{"infeas_inf": "kkt_inf", "kkt_inf": "infeas_inf"}.get(name, name)]',
           ("bench profiles", "round trip"), bench),
]

# The modules whose globals the checks reach a mutated function through:
# run_cell, which AC3 calls, finds solve as a bench global, and the
# profile property test finds build_profile as a test_bench one.
LOOKED_UP_IN = {"solve": (sqp, bench), "build_profile": (bench, test_bench)}


def ac3_failure(cell):
    """AC3's violations on cell, as a count and the first, or None."""
    _, failed, violations = check_ac3_cell(GRID, cell)
    if failed:
        return "the run failed"
    return f"{len(violations)} violations, first: {violations[0]}" if violations else None


def reference_failure(cell):
    """How solve first differs from the reference loop on cell, or None."""
    try:
        assert_matches_reference(get_problem(cell.problem), GRID.params,
                                 cell.oracle_config(GRID.seed))
    except AssertionError as exc:
        return " ".join(str(exc).replace("Arrays are not equal", "").split())[:64]
    return None


def sweep_failure(name):
    """The inaccurate-solve reason of noiseless name with c and J scaled by SWEEP_S_C, or None."""
    record = sqp.solve(_scaled(get_problem(name), 1.0, SWEEP_S_C),
                       SolverParams(max_iters=MAX_ITERS), OracleConfig())
    reason = record.failure_reason or ""
    return reason if reason.startswith("inaccurate KKT solve") else None


@settings(derandomize=True, database=None)
@given(table=test_bench._BUDGET_TABLES)
def _profile_property(table):
    # The property test's body on its own examples: calling the test itself
    # from a second instance of its class fails Hypothesis's executor check.
    test_bench.TestBuildProfile.test_rho_is_a_monotone_cdf.hypothesis.inner_test(None, table)


def profile_property_failure(_):
    """How the profile property test's body fails on derandomized examples, or None."""
    try:
        _profile_property()
    except Exception as exc:  # any exception fails a test; several arrive as a group
        return f"{type(exc).__name__}: " + " ".join(str(exc).split())[:48]
    return None


def small_grid_failure(test):
    """How test, a TestRunGrid test's body on small_result and a scratch directory, fails on
    SMALL_GRID solved afresh, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            test(None, test_bench.solve_small_grid(Path(tmp, "grid")), Path(tmp))
        except AssertionError as exc:
            return " ".join(str(exc).split())[:48]
    return None


def cell_where(cell):
    return f"{cell.problem} ({cell.eps_f:g}, {cell.eps_g:g}) r{cell.replicate}"


# Each check with the cases it runs on, in order, and how the table prints a case.
KILLERS = {
    "AC3": (SLICE, ac3_failure, cell_where),
    "reference loop": (SLICE, reference_failure, cell_where),
    "scale sweep": (SWEEP_PROBLEMS, sweep_failure, lambda name: f"{name} s_c={SWEEP_S_C:g}"),
    "constraint permutation": (ROTATION_CASES, lambda case: rotation_failure(*case),
                               lambda case: f"{case[0]} ({case[1][0]:g}, {case[1][1]:g})"),
    "variable permutation": (problem_names(), permutation_failure, str),
    "constant shift": (SHIFT_CASES, lambda case: shift_failure(*case),
                       lambda case: f"{case[0]} ({case[1][0]:g}, {case[1][1]:g})"),
    "profile property": (("examples",), profile_property_failure, lambda _: "derandomized"),
    "bench profiles": (("SMALL_GRID",), lambda _: small_grid_failure(
        test_bench.TestRunGrid.test_written_profiles_match_profiles_built_in_memory), str),
    "round trip": (("SMALL_GRID",), lambda _: small_grid_failure(
        lambda self, result, _: test_bench.TestRunGrid.test_round_trip_through_files(
            self, result)), str),
}


@pytest.fixture(scope="module")
def kills():
    """(mutant, killer) -> (the first case the check fails, how), or None."""
    found = {}
    for mutant in MUTANTS:
        mutated = mutant.compile()
        for killer in mutant.killers:
            cases, check, _ = KILLERS[killer]
            with pytest.MonkeyPatch.context() as patch:
                for module in LOOKED_UP_IN.get(mutant.function, (mutant.module,)):
                    patch.setattr(module, mutant.function, mutated)
                kill = next(((case, how) for case in cases if (how := check(case))), None)
            if kill is not None:
                unmutated = check(kill[0])
                assert unmutated is None, f"{killer} fails unmutated: {unmutated}"
            found[mutant.name, killer] = kill
    print(f"\n{'mutant':<40}{'killer':<24}{'case':<26}how")
    for (name, killer), kill in found.items():
        if kill is None:
            print(f"{name:<40}{killer:<24}survived")
            continue
        case, how = kill
        print(f"{name:<40}{killer:<24}{KILLERS[killer][2](case):<26}{how}")
    return found


@pytest.mark.parametrize(("mutant", "killer"),
                         [(mutant.name, killer) for mutant in MUTANTS for killer in mutant.killers])
def test_mutant_is_killed(kills, mutant, killer):
    cases = len(KILLERS[killer][0])
    assert kills[mutant, killer] is not None, f"{mutant} survives {killer} on {cases} cases"


def test_the_slice_has_40_cells():
    assert len(SLICE) == 40
