"""The mutant catalogue: each planted fault is caught by the checks named for it.

A mutant is one exact replacement in one function's source, taken with
inspect.getsource. The text it replaces must occur exactly once, so an
edit that removes or repeats it fails here and the catalogue has to
follow. The mutated function is compiled against a copy of sqp's
namespace and patched in where the checks look it up: a step-rule
helper into sqp, where solve looks it up, and solve itself into sqp and
bench.

Each mutant names the checks of KILLERS that must kill it. A check runs
on its own cases, in order, until one fails it:

* AC3's per-iteration check (test_acceptance.check_ac3_cell), on SLICE,
  the first 40 default-grid cells of qp10;
* the bit-for-bit comparison of solve with the reference loop
  (reference.assert_matches_reference), which writes out the step rules
  itself, on SLICE;
* the scale sweep's rule that no run with an unscaled objective ends
  with an inaccurate KKT solve, on the noiseless runs of SWEEP_PROBLEMS
  with c and J scaled by SWEEP_S_C.

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
from typing import NamedTuple

import pytest
from reference import assert_matches_reference
from test_acceptance import check_ac3_cell
from test_scale_sweep import MAX_ITERS, _scaled

from stepsqp import bench, sqp
from stepsqp.bench import ExperimentGrid, grid_cells
from stepsqp.oracles import OracleConfig
from stepsqp.problems import get_problem
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

    def compile(self):
        source = inspect.getsource(getattr(sqp, self.function))
        count = source.count(self.old)
        assert count == 1, f"{self.name}: {self.old!r} occurs {count} times in {self.function}"
        namespace = dict(vars(sqp))
        exec(compile(source.replace(self.old, self.new), f"<mutant {self.name}>", "exec"),
             namespace)
        return namespace[self.function]


MUTANTS = [
    Mutant("allowance 1·τ·ε_f", "acceptance_test",
           "2.0 * tau_bar * eps_f", "1.0 * tau_bar * eps_f", STEP_RULE_KILLERS),
    Mutant("τ may rise", "update_tau",
           "return tau_bar\n", "return min(trial, tau_bar / (1.0 - EPS_TAU))\n",
           STEP_RULE_KILLERS),
    Mutant("strict Armijo", "acceptance_test",
           "phi_trial <= phi_current", "phi_trial < phi_current", STEP_RULE_KILLERS),
    Mutant("reused value sample", "solve",
           "tau_bar * f_bar_trial + c_plus_l1", "tau_bar * f_bar_current + c_plus_l1",
           STEP_RULE_KILLERS),
    Mutant("φ_trial·(1 + 1e-15)", "solve",
           "tau_bar * f_bar_trial + c_plus_l1", "(tau_bar * f_bar_trial + c_plus_l1) * (1.0 + 1e-15)",
           STEP_RULE_KILLERS),
    Mutant("‖J‖max‖d‖₁ guard term dropped", "solve",
           "and lin_feas <= LINEARIZED_FEASIBILITY_RTOL * (1.0 + jd_bound)", "and False",
           ("scale sweep",)),
]

# The modules whose globals the checks reach a mutated function through:
# run_cell, which AC3 calls, finds solve as a bench global.
LOOKED_UP_IN = {"solve": (sqp, bench)}


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


# Each check with the cases it runs on, in order.
KILLERS = {
    "AC3": (SLICE, ac3_failure),
    "reference loop": (SLICE, reference_failure),
    "scale sweep": (SWEEP_PROBLEMS, sweep_failure),
}


def where(case):
    """A case of KILLERS as the table prints it."""
    if isinstance(case, str):
        return f"{case} s_c={SWEEP_S_C:g}"
    return f"{case.problem} ({case.eps_f:g}, {case.eps_g:g}) r{case.replicate}"


@pytest.fixture(scope="module")
def kills():
    """(mutant, killer) -> (the first case the check fails, how), or None."""
    found = {}
    for mutant in MUTANTS:
        mutated = mutant.compile()
        for killer in mutant.killers:
            cases, check = KILLERS[killer]
            with pytest.MonkeyPatch.context() as patch:
                for module in LOOKED_UP_IN.get(mutant.function, (sqp,)):
                    patch.setattr(module, mutant.function, mutated)
                kill = next(((case, how) for case in cases if (how := check(case))), None)
            if kill is not None:
                unmutated = check(kill[0])
                assert unmutated is None, f"{killer} fails unmutated: {unmutated}"
            found[mutant.name, killer] = kill
    print(f"\n{'mutant':<32}{'killer':<16}{'case':<26}how")
    for (name, killer), kill in found.items():
        if kill is None:
            print(f"{name:<32}{killer:<16}survived")
            continue
        case, how = kill
        print(f"{name:<32}{killer:<16}{where(case):<26}{how}")
    return found


@pytest.mark.parametrize(("mutant", "killer"),
                         [(mutant.name, killer) for mutant in MUTANTS for killer in mutant.killers])
def test_mutant_is_killed(kills, mutant, killer):
    cases = len(KILLERS[killer][0])
    assert kills[mutant, killer] is not None, f"{mutant} survives {killer} on {cases} cases"


def test_the_slice_has_40_cells():
    assert len(SLICE) == 40
