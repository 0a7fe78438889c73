"""Every number README.md states in its "bench", "Testing" and "Problem registry" sections.

Each number is one of two kinds:

* a deterministic fact about the package, checked here against the code
  (the default grid's size, the replicate and noise-pair caps, exit
  codes, the registry's n and m, the scale sweep's range, the constant
  shift's K, the constant each QP-form hs entry leaves out of f, the
  constants each acceptance criterion states), except
  the default grid's iteration total, which AC3 checks against the steps
  it counts, and the test count, which is checked against the collected
  suite;
* a measurement, which names the BENCH_*.json that holds it, and is
  checked against that file to the digits README prints.

test_every_number_is_checked fails on a number that is neither, so a
number added to those sections needs a check here.
"""

import ast
import dataclasses
import inspect
import json
import re
import textwrap
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest
import test_op_count
import test_problems
import test_scale_sweep
import test_solver

from stepsqp import cli, sqp
from stepsqp.bench import (
    DEFAULT_NOISE_PAIRS,
    MAX_NOISE_PAIRS,
    MAX_REPLICATES,
    ExperimentGrid,
    grid_cells,
)
from stepsqp.problems import get_problem, problem_names
from stepsqp.sqp import SolverParams

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# A number as README prints it: 12, 484,732, 19.6 or 1e-8, not part of a
# name such as hs40 or BENCH_21.
NUMBER = re.compile(r"(?<![\w.])(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?(?:e[-+]?\d+)?(?![\w])")
CODE = re.compile(r"```.*?```|`[^`\n]*`", re.S)


def section(heading: str) -> str:
    """README's text under heading, up to the next heading of the same or a higher level."""
    text = README.read_text()
    start = text.index(f"\n{heading}\n") + 1
    level = len(heading.split()[0])
    end = re.compile(rf"^#{{1,{level}}} ", re.M).search(text, start + len(heading))
    return text[start:end.start() if end else len(text)]


SECTIONS = {"bench": "### bench", "testing": "## Testing", "registry": "## Problem registry"}


def claim(pattern: str) -> re.Pattern:
    """pattern with each space matching any run of white space, as README wraps its lines."""
    return re.compile(pattern.replace(" ", r"\s+"), re.M)


def value(text: str) -> float:
    return float(text.replace(",", ""))


def readme_match(key: str, pattern: re.Pattern) -> re.Match:
    found = list(pattern.finditer(section(SECTIONS[key])))
    assert len(found) == 1, f"README section {SECTIONS[key]!r} states {pattern.pattern!r} " \
                            f"{len(found)} times, not once"
    return found[0]


DEFAULT_GRID = claim(r"on the default grid \((\S+) runs, (\S+) iterations\)")


def readme_default_grid() -> tuple[int, int]:
    """The run count and iteration total README states for the default grid."""
    runs, iterations = readme_match("bench", DEFAULT_GRID).groups()
    return int(value(runs)), int(value(iterations))


def bench_file(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


def check_measured(printed: tuple[str, str], values: list[float]) -> None:
    """printed is the least and the greatest of values, each rounded half up to the digits
    README prints."""
    for text, measured in zip(printed, (min(values), max(values))):
        digits = Decimal(text)
        assert Decimal(repr(measured)).quantize(digits, ROUND_HALF_UP) == digits, (text, measured)


def check_default_grid_size(runs, iterations):
    # AC3 checks the iteration total against the steps it counts.
    assert value(runs) == len(grid_cells(ExperimentGrid()))


def runs_at(table: dict, jobs: int) -> list[float]:
    """The parent's and the change's runs at --jobs jobs in a BENCH file's default_grid table."""
    return table[f"parent-j{jobs}"] + table[f"change-j{jobs}"]


def check_peak_memory(low, high, name):
    table = bench_file(name)["default_grid"]["peak_rss_mb"]
    assert len(runs_at(table, 1)) == len(runs_at(table, 2)) == 4
    check_measured((low, high), runs_at(table, 1) + runs_at(table, 2))


def check_logged_memory(low, high, name):
    grid = bench_file(name)["default_grid"]
    check_measured((low, high), grid["jobs1"]["parent"]["peak_rss_mb"]
                   + grid["jobs2"]["parent"]["peak_rss_mb"])


def check_wall_times(cpus, low1, high1, low2, high2, name):
    data = bench_file(name)
    assert data["environment"]["nproc"] == int(cpus)
    check_measured((low1, high1), runs_at(data["default_grid"]["wall_time_s"], 1))
    check_measured((low2, high2), runs_at(data["default_grid"]["wall_time_s"], 2))


def check_read_back(low, high, runs, name):
    seconds = [t for run_set in bench_file(name)["read_back"]["sets"]
               for t in run_set["default_grid"]["seconds"]]
    assert len(seconds) == value(runs)
    check_measured((low, high), seconds)


def check_replicate_cap(cap, cells, low, high, name):
    assert value(cap) == MAX_REPLICATES
    assert value(cells) == len(grid_cells(ExperimentGrid(replicates=MAX_REPLICATES)))
    check_measured((low, high), bench_file(name)["grid_cells_at_max_replicates"]["seconds"])


def literals(*functions) -> set:
    """The numbers written in the functions' source, numeric strings such as "4" included."""
    found = set()
    for function in functions:
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(function)))):
            if isinstance(node, ast.Constant) and not isinstance(node.value, bool):
                if isinstance(node.value, (int, float)):
                    found.add(float(node.value))
                elif isinstance(node.value, str) and NUMBER.fullmatch(node.value):
                    found.add(value(node.value))
    return found


def check_reference_bounds(infeasibility, residual):
    assert {value(infeasibility), value(residual)} <= literals(
        test_problems.TestReferencePoints.test_reference_kkt_pair_bounds)


# (section, pattern, check): check takes the pattern's groups and asserts.
FACTS = [
    ("bench", DEFAULT_GRID, check_default_grid_size),
    ("bench", claim(r"peaks at (\S+)–(\S+) MB at `--jobs` 1 and 2 \(four runs each, "
                    r"`(BENCH_\d+\.json)`\)"), check_peak_memory),
    ("bench", claim(r"took (\S+)–(\S+) MB \(`(BENCH_\d+\.json)`\)"), check_logged_memory),
    ("bench", claim(r"On a shared (\d+)-vCPU machine the default grid took (\S+)–(\S+) s at "
                    r"`--jobs 1` and (\S+)–(\S+) s at `--jobs 2` in those runs "
                    r"\(`(BENCH_\d+\.json)`\)"), check_wall_times),
    ("bench", claim(r"\(default (\d+), serial"),
     lambda jobs: value(jobs) == cli.build_parser().parse_args(["bench"]).jobs),
    ("bench", claim(r"`replicates` may be at most (\S+): every cell is listed before the first "
                    r"solve, and at that bound the default grid already has (\S+) cells "
                    r"\((\S+)–(\S+) s to list, `(BENCH_\d+\.json)`\)"), check_replicate_cap),
    ("bench", claim(r"larger count exits (\d+) before"),
     lambda code: value(code) == cli.EXIT_CONFIG_ERROR),
    ("bench", claim(r"at most (\d+) pairs \(the default grid has (\d+)\)"),
     lambda cap, default: (value(cap), value(default)) == (MAX_NOISE_PAIRS,
                                                           len(DEFAULT_NOISE_PAIRS))),
    ("bench", claim(r"Exits (\d+) if any run ends in a solver failure, (\d+) otherwise"),
     lambda failure, ok: (value(failure), value(ok)) == (cli.EXIT_FAILURE, cli.EXIT_OK)),
    ("testing", claim(r"every exit code is (\d+)–(\d+)"),
     lambda low, high: (value(low), value(high)) == (cli.EXIT_OK, cli.EXIT_FAILURE)),
    ("testing", claim(r"with f scaled by (\S+) to (\S+) and c by (\S+) to (\S+),"),
     lambda *scales: [value(s) for s in scales] == [
         min(test_scale_sweep.S_F_SCALES), max(test_scale_sweep.S_F_SCALES),
         min(test_scale_sweep.S_C_SCALES), max(test_scale_sweep.S_C_SCALES)]),
    ("testing", claim(r"plus noise levels of (\S+) and"),
     lambda level: value(level) == max(max(pair) for pair in test_scale_sweep.HUGE_NOISE_PAIRS)),
    ("testing", claim(r"full default grid \((\S+) runs\)"),
     lambda runs: value(runs) == len(grid_cells(ExperimentGrid()))),
    ("registry", claim(r"infeasibility at most (\S+) and stationarity residual at most (\S+), "),
     check_reference_bounds),
    ("testing", claim(r"cut to (\d+) iterations, at most (\S+) opcodes per iteration"),
     lambda iters, ceiling: (value(iters), value(ceiling)) == (
         test_op_count.MAX_ITERS, test_op_count.OPCODES_PER_ITER_CEILING)),
    ("bench", claim(r"that read-back took (\S+)–(\S+) s \((\d+) runs in six sets, "
                    r"`(BENCH_\d+\.json)`\)"), check_read_back),
    ("testing", claim(r"a check that adding (\S+) to f leaves"),
     lambda shift: value(shift) == test_solver.F_SHIFT),
    ("registry", claim(r"hs48's f is the textbook one minus (\d+), and hs51's minus (\d+)"),
     lambda hs48, hs51: [value(hs48), value(hs51)] == [
         test_problems.TEXTBOOK_OBJECTIVES[name][1] for name in ("hs48", "hs51")]),
]

TEST_COUNT = claim(r"(\d+) tests, (\d+) under `tests/` and the benchmark's own (\d+) under "
                   r"`perfbench/`")
REGISTRY_ROW = claim(r"^\| (\w+) +\| (\d+) +\| (\d+) +\|")
ACCEPTANCE_ITEM = re.compile(r"^(\d+)\. (.+?)(?=^\d+\. |\Z)", re.M | re.S)


@pytest.mark.parametrize("key, pattern, check", FACTS, ids=[
    f"{key}-{check.__name__}-{i}" for i, (key, _, check) in enumerate(FACTS)])
def test_fact(key, pattern, check):
    result = check(*readme_match(key, pattern).groups())
    assert result is None or result is True


def test_registry_table_is_the_registry():
    rows = [row.groups() for row in REGISTRY_ROW.finditer(section(SECTIONS["registry"]))]
    registry = [(name, str(get_problem(name).n), str(get_problem(name).m))
                for name in problem_names()]
    assert rows == registry


def _acceptance_items():
    text = section(SECTIONS["testing"])
    return [(int(item.group(1)), item.span(), item.start(2), item.group(2))
            for item in ACCEPTANCE_ITEM.finditer(text, text.index("\n1. "))]


def _numbers(text: str, start: int = 0):
    """(offset, text) of each number in text outside code, its offset shifted by start."""
    masked = CODE.sub(lambda m: " " * len(m.group()), text)
    return [(start + m.start(), m.group()) for m in NUMBER.finditer(masked)]


def _fact_spans(key: str) -> list[range]:
    text = section(SECTIONS[key])
    patterns = [pattern for owner, pattern, _ in FACTS if owner == key]
    patterns += {"testing": [TEST_COUNT], "registry": [REGISTRY_ROW]}.get(key, [])
    return [range(*m.span()) for pattern in patterns for m in pattern.finditer(text)]


def test_acceptance_items_state_their_tests_constants():
    """Each number an acceptance criterion states is a constant of its test.

    "5 percent" is the constant 0.05. A number inside a fact (AC3's run
    count) is checked with the facts.
    """
    import test_acceptance  # which imports this module for README's default grid

    facts = _fact_spans("testing")
    items = _acceptance_items()
    assert [number for number, *_ in items] == list(range(1, 10))
    for number, _, start, text in items:
        code = [f for name, f in vars(test_acceptance).items()
                if callable(f) and f"ac{number}_" in name]
        constants = literals(*code)
        for offset, found in _numbers(text, start):
            if any(offset in span for span in facts):
                continue
            percent = text[offset - start + len(found):].startswith(" percent")
            stated = value(found) / 100 if percent else value(found)
            assert stated in constants, f"AC{number} states {found}, which its test does not"


@pytest.mark.parametrize("key", SECTIONS)
def test_every_number_is_checked(key):
    text = section(SECTIONS[key])
    spans = _fact_spans(key)
    if key == "testing":
        spans += [range(*span) for _, span, _, _ in _acceptance_items()]
    unchecked = [found for offset, found in _numbers(text) if not any(offset in s for s in spans)]
    assert unchecked == []


def test_test_count(collected_suite):
    if not collected_suite["whole"]:
        pytest.skip(f"README's test count is checked on a run of the whole suite; this run "
                    f"{collected_suite['whole_reason']}")
    total, under_tests, under_perfbench = (
        int(n) for n in readme_match("testing", TEST_COUNT).groups())
    assert (total, under_tests, under_perfbench) == (
        collected_suite["total"], collected_suite["tests"], collected_suite["perfbench"])


# A README key or constant name in backticks and the number it is given.
NAMED_NUMBER = re.compile(r"`(\w+)`\s+(\d[\d.e+-]*\d|\d)")


def test_configuration_states_the_solver_keys_and_the_fixed_constants():
    text = section("### Configuration")
    keys = text[text.index("Solver keys and defaults:"):text.index("The step rule's constants")]
    assert [(name, value(number)) for name, number in NAMED_NUMBER.findall(keys)] == [
        (f.name, getattr(SolverParams(), f.name)) for f in dataclasses.fields(SolverParams)]
    fixed = text[text.index("The step rule's constants"):text.index("in `stepsqp.sqp`")]
    assert [(name, value(number)) for name, number in NAMED_NUMBER.findall(fixed)] == [
        (name, getattr(sqp, name)) for name in ("SIGMA", "EPS_TAU", "THETA", "GAMMA", "ALPHA_MAX")]
