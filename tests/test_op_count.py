"""Python opcodes per SQP iteration, held under a ceiling.

A solver iteration on these problems (n <= 30, m <= 3) costs Python and
numpy dispatch, not flops, so the number of bytecode instructions the
interpreter runs per iteration tracks its time. Unlike a timing, the
count is exact and the same on every run of one install. The slice is
perfbench's stall workload cut to 100 iterations: every registry problem
at the two stall noise pairs, on the grid's seed-0 streams, each run
through bench.run_cell. Every Python frame it enters is traced with
sys.settrace and f_trace_opcodes. Work done in C (LAPACK, ufunc loops,
allocation) is not counted, so the ceiling guards interpretive work
only, and does not replace a timed benchmark.

A change that adds opcodes raises OPCODES_PER_ITER_CEILING and says why
in CHANGES.md; one that removes them lowers it. Counts differ between
Python and numpy versions, so the ceiling holds for the versions it was
measured with, and on another install the test skips and says which.

    python3 -m pytest tests/test_op_count.py -s    # prints the per-function table
"""

import sys
from collections import Counter
from importlib.metadata import version
from pathlib import Path

import conftest
import pytest

from stepsqp import bench, linalg
from stepsqp.sqp import SolverParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MEASURED_WITH = {"python": "3.11", "numpy": "2.4.6"}

OPCODES_PER_ITER_CEILING = 768.73
MAX_ITERS = 100


def count_opcodes(func, *args):
    """func(*args) and, per code object, the opcodes it ran and the calls made to it."""
    opcodes, calls = Counter(), Counter()

    def local(frame, event, _):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def enter(frame, event, _):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        result = func(*args)
    finally:
        sys.settrace(previous)
    return result, opcodes, calls


def test_opcodes_per_iteration_stay_under_the_ceiling(monkeypatch):
    installed = {"python": "%d.%d" % sys.version_info[:2], "numpy": version("numpy")}
    if sys.implementation.name != "cpython" or installed != MEASURED_WITH:
        pytest.skip(f"ceiling measured on CPython with {MEASURED_WITH}, this install is "
                    f"{sys.implementation.name} with {installed}")
    # The path a run takes outside this suite, whose conftest wraps both
    # routines in its residual check: SciPy's own.
    monkeypatch.setattr(linalg, "dgetrf", conftest.raw_dgetrf)
    monkeypatch.setattr(linalg, "dgetrs", conftest.raw_dgetrs)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import STALL_PAIRS

    grid = bench.ExperimentGrid(noise_pairs=STALL_PAIRS, replicates=1,
                                params=SolverParams(max_iters=MAX_ITERS), seed=0)
    cells = bench.grid_cells(grid)
    for cell in cells:  # once untraced, so that no first-call work is counted
        bench.run_cell(grid, cell)
    iterations, opcodes, calls = 0, Counter(), Counter()
    for cell in cells:
        record, cell_opcodes, cell_calls = count_opcodes(bench.run_cell, grid, cell)
        iterations += len(record.iterations)
        opcodes += cell_opcodes
        calls += cell_calls

    # One row per function name; a function's lambdas share one.
    by_name = {}
    for code in calls:
        name = f"{Path(code.co_filename).stem}.{code.co_qualname}"
        ops, count = by_name.get(name, (0, 0))
        by_name[name] = (ops + opcodes[code], count + calls[code])
    per_iter = round(sum(opcodes.values()) / iterations, 2)
    print(f"\n{len(cells)} runs, {iterations} iterations, {sum(opcodes.values())} opcodes")
    print(f"{'function':<48}{'opcodes/iter':>14}{'calls/iter':>12}")
    for name, (ops, count) in sorted(by_name.items(), key=lambda item: -item[1][0]):
        print(f"{name:<48}{ops / iterations:>14.2f}{count / iterations:>12.2f}")
    print(f"{'total':<48}{per_iter:>14.2f}{sum(calls.values()) / iterations:>12.2f}"
          f"  (ceiling {OPCODES_PER_ITER_CEILING})")
    assert per_iter <= OPCODES_PER_ITER_CEILING, (
        f"{per_iter} opcodes per iteration, above the ceiling of {OPCODES_PER_ITER_CEILING}")
