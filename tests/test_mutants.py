"""The mutant catalogue: each planted fault is caught by the checks named for it.

A mutant is one exact replacement in one function's source, taken with
inspect.getsource. The text it replaces must occur exactly once, so an
edit that removes or repeats it fails here and the catalogue has to
follow. The mutated function is compiled against a copy of sqp's
namespace and patched in where the checks look it up: a step-rule
helper into sqp, where solve looks it up, and solve itself into sqp and
bench.

Each mutant must be killed by each check in KILLERS, run on SLICE (the
first 40 default-grid cells of qp10) in order until a cell fails it:

* AC3's per-iteration check (test_acceptance.check_ac3_cell);
* the bit-for-bit comparison of solve with the reference loop
  (reference.assert_matches_reference), which writes out the step rules
  itself.

A kill counts only if the same cell passes the same check unmutated.
The slice is qp10's because a strict Armijo test differs from the
non-strict one only where a trial merit equals its bound exactly, which
happens in 6 of the 732 default-grid runs, 4 of them qp10's at
(eps_f, eps_g) = (0, 1e-1).

    python3 -m pytest tests/test_mutants.py -s    # prints the mutant/killer table
"""

import inspect
from typing import NamedTuple

import pytest
from reference import assert_matches_reference
from test_acceptance import check_ac3_cell

from stepsqp import bench, sqp
from stepsqp.bench import ExperimentGrid, grid_cells
from stepsqp.problems import get_problem

GRID = ExperimentGrid()
SLICE = [cell for cell in grid_cells(GRID) if cell.problem == "qp10"][:40]


class Mutant(NamedTuple):
    name: str
    function: str
    old: str
    new: str

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
           "2.0 * tau_bar * eps_f", "1.0 * tau_bar * eps_f"),
    Mutant("τ may rise", "update_tau",
           "return tau_bar\n", "return min(trial, tau_bar / (1.0 - eps_tau))\n"),
    Mutant("strict Armijo", "acceptance_test",
           "phi_trial <= phi_current", "phi_trial < phi_current"),
    Mutant("reused value sample", "solve",
           "tau_bar * f_bar_trial + c_plus_l1", "tau_bar * f_bar_current + c_plus_l1"),
    Mutant("φ_trial·(1 + 1e-15)", "solve",
           "tau_bar * f_bar_trial + c_plus_l1", "(tau_bar * f_bar_trial + c_plus_l1) * (1.0 + 1e-15)"),
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


KILLERS = {"AC3": ac3_failure, "reference loop": reference_failure}


@pytest.fixture(scope="module")
def kills():
    """(mutant, killer) -> (the first cell of SLICE the check fails, how), or None."""
    found = {}
    for mutant in MUTANTS:
        mutated = mutant.compile()
        for killer, check in KILLERS.items():
            with pytest.MonkeyPatch.context() as patch:
                for module in LOOKED_UP_IN.get(mutant.function, (sqp,)):
                    patch.setattr(module, mutant.function, mutated)
                kill = next(((cell, how) for cell in SLICE if (how := check(cell))), None)
            if kill is not None:
                unmutated = check(kill[0])
                assert unmutated is None, f"{killer} fails unmutated: {unmutated}"
            found[mutant.name, killer] = kill
    print(f"\n{'mutant':<20}{'killer':<16}{'cell':<26}how")
    for (name, killer), kill in found.items():
        if kill is None:
            print(f"{name:<20}{killer:<16}survived")
            continue
        cell, how = kill
        where = f"{cell.problem} ({cell.eps_f:g}, {cell.eps_g:g}) r{cell.replicate}"
        print(f"{name:<20}{killer:<16}{where:<26}{how}")
    return found


@pytest.mark.parametrize("killer", KILLERS)
@pytest.mark.parametrize("mutant", [m.name for m in MUTANTS])
def test_mutant_is_killed(kills, mutant, killer):
    assert kills[mutant, killer] is not None, f"{mutant} survives {killer} on {len(SLICE)} cells"


def test_the_slice_has_40_cells():
    assert len(SLICE) == 40
