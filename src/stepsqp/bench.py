"""Benchmark harness: noise grids, run artifacts, performance profiles.

A grid crosses registered problems with zeroth/first-order noise levels
and replicates (replicates collapse to one when both levels are zero,
since such runs are deterministic). Every run gets an independent RNG
stream derived from (seed, problem, noise pair, replicate), so results
do not depend on execution order or parallelism degree.

Per run, two metric trajectories are tracked:

* infeasibility: ||c(x_k)||_inf
* kkt: max(||c(x_k)||_inf, least-squares dual residual inf-norm)

Budgets-to-convergence use the standard data-profile convergence test

    m(x_0) - m(x_k) >= (1 - 1e-3) * (m(x_0) - m_best)

with m_best the best value reached by any solver configuration on that
instance. The first iterate that passes is priced by its iteration
index. That is also its oracle price: every iteration makes exactly two
function samples and one gradient sample, so the oracle work to reach
iterate j is 3j, and a ratio of work budgets equals the ratio of
iteration budgets. Performance profiles plot the fraction of instances
each configuration solved within a factor tau of the per-instance best
budget.

Every output file is written to a temporary name beside it and then
renamed over its target, so a reader never sees a partly written file.
A run's CSV is written where the run was solved, as soon as it ends, and
summary.json is written last, so a directory without one is an
unfinished grid.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .linalg import load_lapack
from .oracles import OracleConfig, derive_stream, is_finite, is_int
from .problems import get_problem, problem_names, read_json
from .sqp import RunRecord, SolverParams, solve

# The convergence test asks a run to close this fraction of the reachable gap.
CONVERGENCE_FRACTION = 1.0 - 1e-3

# Zeroth-order levels {0, 1e-4, 1e-2, 1e-1} crossed with first-order
# levels {1e-4, 1e-2, 1e-1}, plus the noiseless pair.
DEFAULT_NOISE_PAIRS: tuple[tuple[float, float], ...] = ((0.0, 0.0),) + tuple(
    (ef, eg)
    for ef in (0.0, 1e-4, 1e-2, 1e-1)
    for eg in (1e-4, 1e-2, 1e-1)
)

# grid_cells lists every cell before any solve, and profiles expand a
# deterministic run over every replicate, so an unbounded count fills
# memory before any work is done. 1,000 is far beyond any campaign here
# and keeps the default grid at 144,012 cells (0.55-0.70 s to enumerate
# on a 2-vCPU machine).
MAX_REPLICATES = 1000

# Each noise pair is one solver configuration in the profiles: four more
# profile CSVs and, at MAX_REPLICATES, 1,000 more cells per problem. 100 is
# several times the 13 of the default grid. With it the largest grid has
# 1.2 million cells, which grid_cells lists in about 5 s on a 2-vCPU machine
# (0.45 s per 100,000), where an unbounded list stalls before any error.
MAX_NOISE_PAIRS = 100


def _repeated(values):
    """The first of values that is listed more than once, or None."""
    return next((value for value, count in Counter(values).items() if count > 1), None)


def _default_problems() -> tuple[str, ...]:
    return tuple(problem_names())


@dataclass(frozen=True)
class ExperimentGrid:
    """One benchmark campaign: problems x noise pairs x replicates."""

    problems: tuple[str, ...] = field(default_factory=_default_problems)
    noise_pairs: tuple[tuple[float, float], ...] = DEFAULT_NOISE_PAIRS
    replicates: int = 5
    params: SolverParams = field(default_factory=SolverParams)
    seed: int = 0

    def __post_init__(self):
        problems, pairs = self.problems, self.noise_pairs
        if not isinstance(problems, (list, tuple)) or not all(
            isinstance(p, str) for p in problems
        ):
            raise ValueError("grid.problems must be a list of problem names")
        if not problems:
            raise ValueError("grid needs at least one problem")
        for name in problems:
            get_problem(name)  # raises UnknownProblemError, a ValueError
        if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs
        ):
            raise ValueError("grid.noise_pairs must be a list of [eps_f, eps_g] pairs")
        if not pairs:
            raise ValueError("grid needs at least one noise pair")
        if len(pairs) > MAX_NOISE_PAIRS:
            raise ValueError(f"grid.noise_pairs must hold at most {MAX_NOISE_PAIRS} pairs")
        # OracleConfig owns the seed and noise-level rules.
        OracleConfig(seed=self.seed)
        levels = []
        for i, (ef, eg) in enumerate(pairs):
            try:
                cfg = OracleConfig(eps_f_noise=ef, eps_g_noise=eg)
            except ValueError as exc:
                raise ValueError(f"grid.noise_pairs[{i}]: {exc}") from exc
            levels.append((cfg.eps_f_noise, cfg.eps_g_noise))
        pairs = tuple(levels)
        if (name := _repeated(problems)) is not None:
            raise ValueError(f"grid lists the problem {name} more than once")
        # A pair's label names its run CSVs and profiles, so labels must differ.
        labels = [config_label(*pair) for pair in pairs]
        if (label := _repeated(labels)) is not None:
            first, second, *_ = (pair for pair, other in zip(pairs, labels) if other == label)
            if first == second:
                raise ValueError(f"grid lists the noise pair {first} more than once")
            raise ValueError(f"grid noise pairs {first} and {second} share the label {label}, "
                             "which names their run and profile files")
        if not is_int(self.replicates) or not 1 <= self.replicates <= MAX_REPLICATES:
            raise ValueError(f"replicates must be an integer from 1 to {MAX_REPLICATES}")
        object.__setattr__(self, "problems", tuple(problems))
        object.__setattr__(self, "noise_pairs", pairs)


@dataclass(frozen=True)
class GridCell:
    """One run's coordinates within a grid."""

    problem: str
    eps_f: float
    eps_g: float
    replicate: int
    stream_id: int

    @classmethod
    def at(cls, seed: int, problem: str, eps_f: float, eps_g: float, replicate: int) -> GridCell:
        """The cell at these coordinates in a grid with this seed, on its derived stream."""
        return cls(problem, eps_f, eps_g, replicate,
                   derive_stream(seed, problem, (eps_f, eps_g), replicate))

    def oracle_config(self, seed: int) -> OracleConfig:
        """The oracle configuration of this cell's run in a grid with this seed."""
        return OracleConfig(eps_f_noise=self.eps_f, eps_g_noise=self.eps_g, seed=seed,
                            stream_id=self.stream_id)

    def identity(self) -> dict:
        """The fields of this cell's summary.json run entry that name its run and its CSV."""
        return {
            "problem": self.problem,
            "eps_f_noise": self.eps_f,
            "eps_g_noise": self.eps_g,
            "replicate": self.replicate,
            "stream_id": self.stream_id,
            "csv": run_filename(self.problem, self.eps_f, self.eps_g, self.replicate),
        }


def grid_cells(grid: ExperimentGrid) -> list[GridCell]:
    """Enumerate the grid deterministically (problems, pairs, replicates)."""
    cells = []
    for name in grid.problems:
        for ef, eg in grid.noise_pairs:
            reps = 1 if ef == 0.0 and eg == 0.0 else grid.replicates
            cells.extend(GridCell.at(grid.seed, name, ef, eg, rep) for rep in range(reps))
    return cells


def run_cell(grid: ExperimentGrid, cell: GridCell) -> RunRecord:
    """Execute one grid cell."""
    return solve(get_problem(cell.problem), grid.params, cell.oracle_config(grid.seed))


# ---------------------------------------------------------------------------
# Trajectories and the convergence test.


# The run-CSV columns a trajectory is built from, in this order.
_TRAJECTORY_COLUMNS = ("infeas_inf", "kkt_inf")


def _trajectories(
    columns: np.ndarray,
    final_infeas: Optional[float],
    final_kkt: Optional[float],
) -> dict[str, np.ndarray]:
    """A run's metric values at each of its iterates.

    columns is a (2, K) float64 array whose rows are the
    _TRAJECTORY_COLUMNS; entry j describes iterate x_j, and the final
    metrics (when available) describe the last iterate. The result maps
    "infeasibility" and "kkt" to the metric values at x_0..x_K.

    Raises
    ------
    ValueError
        If a metric value is not finite.
    """
    infeas, residual = columns
    if final_infeas is not None and final_kkt is not None:
        infeas = np.append(infeas, final_infeas)
        residual = np.append(residual, final_kkt)
    if not (np.isfinite(infeas).all() and np.isfinite(residual).all()):
        raise ValueError("metric values must be finite")
    return {"infeasibility": infeas, "kkt": np.maximum(infeas, residual)}


def _record_columns(record: RunRecord) -> np.ndarray:
    """A run's _TRAJECTORY_COLUMNS as a (2, K) float64 array, the values its run CSV holds."""
    return np.array([record.iterations[name] for name in _TRAJECTORY_COLUMNS])


def record_trajectories(record: RunRecord) -> dict[str, np.ndarray]:
    """Metric values of one run, as _trajectories gives them."""
    return _trajectories(_record_columns(record), record.final_infeas_inf, record.final_kkt_inf)


def first_hit(values: np.ndarray, m0: float, m_best: float) -> Optional[int]:
    """Index of the first value that closes CONVERGENCE_FRACTION of the reachable gap.

    The test is m0 - m(x) >= CONVERGENCE_FRACTION * (m0 - m_best). It is
    non-strict, so m0 == m_best converges at the first point. None when
    no value passes (the instance counts as unsolved), as for no values.
    """
    hits = np.flatnonzero(m0 - values >= CONVERGENCE_FRACTION * (m0 - m_best))
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# Performance profiles.


@dataclass(frozen=True)
class PerformanceProfile:
    """Performance ratios and step-curve samples per solver configuration.

    ratios maps (solver, instance) to budget / best-budget-on-instance
    (inf for unsolved); curves maps each solver to sampled step points
    (tau, rho(tau)) at its distinct finite ratios, where rho(tau) is the
    fraction of instances the solver solved within factor tau.
    """

    solvers: tuple[str, ...]
    instances: tuple[str, ...]
    ratios: dict[tuple[str, str], float]
    curves: dict[str, list[tuple[float, float]]]


def build_profile(budgets: dict[str, dict[str, Optional[float]]]) -> PerformanceProfile:
    """Build a performance profile from per-solver per-instance budgets.

    Parameters
    ----------
    budgets : dict
        budgets[solver][instance] is a non-negative iteration count, or None
        for unsolved. There must be at least one solver and one instance,
        and every solver must cover the same instance set; _table_profiles
        builds its tables so.
    """
    solvers = tuple(budgets)
    instances = tuple(budgets[solvers[0]])

    ratios: dict[tuple[str, str], float] = {}
    for inst in instances:
        vals = {s: budgets[s][inst] for s in solvers}
        solved = [v for v in vals.values() if v is not None]
        best = min(solved) if solved else None
        for s, v in vals.items():
            if v is None or best is None:
                ratios[(s, inst)] = math.inf
            elif best == 0.0:
                ratios[(s, inst)] = 1.0 if v == 0.0 else math.inf
            else:
                ratios[(s, inst)] = v / best

    curves: dict[str, list[tuple[float, float]]] = {}
    for s in solvers:
        finite = sorted(ratios[(s, inst)] for inst in instances if math.isfinite(ratios[(s, inst)]))
        points: list[tuple[float, float]] = []
        for i, r in enumerate(finite, start=1):
            rho = i / len(instances)
            if points and points[-1][0] == r:
                points[-1] = (r, rho)
            else:
                points.append((r, rho))
        curves[s] = points
    return PerformanceProfile(solvers, instances, ratios, curves)


def config_label(eps_f: float, eps_g: float) -> str:
    return f"f{format(eps_f, 'g')}__g{format(eps_g, 'g')}"


def run_filename(problem: str, eps_f: float, eps_g: float, replicate: int) -> str:
    return f"{problem}__{config_label(eps_f, eps_g)}__r{replicate}.csv"


# (solver, instance) -> the trajectories of the run that covers it.
_RunTable = dict[tuple[str, str], dict[str, np.ndarray]]


def _run_table(
    replicates: int,
    runs: list[tuple[GridCell, dict[str, np.ndarray]]],
    label_prefix: str = "",
) -> _RunTable:
    """Key each run by its solver configuration and the instances it covers.

    Solver configurations are the noise pairs (optionally prefixed by a
    campaign name); instances are (problem, replicate) pairs. A
    deterministic (0, 0) run stands in for each of its grid's replicates
    of its problem, since replicates of it would be bit-identical.
    """
    table: _RunTable = {}
    for cell, trajs in runs:
        label = label_prefix + config_label(cell.eps_f, cell.eps_g)
        deterministic = cell.eps_f == 0.0 and cell.eps_g == 0.0
        for rep in range(replicates) if deterministic else (cell.replicate,):
            table[(label, f"{cell.problem}__r{rep}")] = trajs
    return table


def _table_profiles(table: _RunTable) -> dict[str, PerformanceProfile]:
    """Profiles per metric, priced in iterations; a missing (solver, instance) is unsolved."""
    labels = list(dict.fromkeys(label for label, _ in table))
    instances = list(dict.fromkeys(instance for _, instance in table))
    profiles: dict[str, PerformanceProfile] = {}
    for metric in ("infeasibility", "kkt"):
        # Start value and best reachable value per instance across all
        # configurations.
        best: dict[str, float] = {}
        start: dict[str, float] = {}
        for (_, instance), trajs in table.items():
            values = trajs[metric]
            if values.size:
                best[instance] = min(best.get(instance, math.inf), float(values.min()))
                start.setdefault(instance, float(values[0]))
        iterations: dict[str, dict[str, Optional[float]]] = {}
        for label in labels:
            iterations[label] = {}
            for instance in instances:
                trajs = table.get((label, instance))
                hit = None
                if trajs is not None and trajs[metric].size:
                    hit = first_hit(trajs[metric], start[instance], best[instance])
                iterations[label][instance] = None if hit is None else float(hit)
        profiles[f"{metric}__iterations"] = build_profile(iterations)
    return profiles


def build_grid_profiles(
    grid: ExperimentGrid,
    cells: list[GridCell],
    records: list[RunRecord],
) -> dict[str, PerformanceProfile]:
    """Profiles per metric for one grid's runs."""
    runs = [(cell, record_trajectories(rec)) for cell, rec in zip(cells, records)]
    return _table_profiles(_run_table(grid.replicates, runs))


# ---------------------------------------------------------------------------
# Grid execution and file outputs.


@dataclass
class GridResult:
    """A grid whose runs are held in memory, for write_grid_outputs."""

    grid: ExperimentGrid
    cells: list[GridCell]
    records: list[RunRecord]
    profiles: dict[str, PerformanceProfile]
    wall_time: float


def _solve_and_write(grid: ExperimentGrid, out_dir: Path, cell: GridCell) -> tuple[dict, np.ndarray]:
    """One grid cell's task: solve it, write its run CSV, and return what the grid keeps.

    That is the cell's summary.json entry and its (2, K) trajectory
    columns. The RunRecord, with its run log, ends here, so no log
    leaves the process that solved the cell.
    """
    record = run_cell(grid, cell)
    return _write_run(out_dir, cell, record), _record_columns(record)


def run_grid(grid: ExperimentGrid, out_dir: "Path | str", jobs: int = 1) -> dict:
    """Run every cell of the grid into out_dir and return the summary.json written there.

    Outputs per grid: one CSV of iteration rows per run (named
    <problem>__f<eps_f>__g<eps_g>__r<replicate>.csv), written as its
    cell finishes; one CSV per profile curve; and, last, a summary.json
    with the grid, statuses, final metrics and timings. A summary.json
    left from an earlier grid is deleted first, so a directory without
    one is an unfinished grid. Files are the same whatever jobs, the
    worker-process count, is.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError("jobs must be a positive integer")
    t_start = time.perf_counter()
    out_dir = _start_grid_dir(out_dir)
    cells = grid_cells(grid)
    task = functools.partial(_solve_and_write, grid, out_dir)
    if jobs == 1:
        done = list(map(task, cells))
    else:
        # Imported here, so that a serial grid never loads it. Forked
        # workers inherit LAPACK from here instead of each loading it.
        import concurrent.futures

        load_lapack()
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(task, cells))
    runs = [entry for entry, _ in done]
    table = _run_table(grid.replicates, [
        (cell, _trajectories(columns, entry["final_infeas_inf"], entry["final_kkt_inf"]))
        for cell, (entry, columns) in zip(cells, done)
    ])
    return _write_summary(out_dir, grid, time.perf_counter() - t_start, runs,
                          _table_profiles(table))


CSV_COLUMNS = (
    "k",
    "alpha",
    "tau_bar",
    "delta_l",
    "accepted",
    "infeas_inf",
    "kkt_inf",
    "zeroth_calls",
    "first_calls",
    "true_iter",
)


def write_atomically(path: Path, text: str) -> None:
    """Write text to path through .<name>.tmp beside it, so path never holds part of text.

    The temporary name matches no *.csv or *.json glob. If the write or
    the rename fails, the temporary file is removed and path keeps what
    it held before.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        # Still there only if the write or the rename failed.
        tmp.unlink(missing_ok=True)


def write_json(path: Path, value) -> None:
    """Write value as indented JSON with sorted keys, atomically."""
    write_atomically(path, json.dumps(value, indent=2, sort_keys=True) + "\n")


def write_run_csv(path: Path, record: RunRecord) -> None:
    """One row per iteration: ints and bools as integers, floats by shortest round-trip repr."""
    # Columns hold bools as 0 and 1, and tolist gives Python ints and floats.
    columns = [map(repr, record.iterations[name].tolist()) for name in CSV_COLUMNS]
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(map(",".join, zip(*columns)))
    write_atomically(path, "\n".join(lines) + "\n")


def write_profile_csv(path: Path, points: list[tuple[float, float]]) -> None:
    lines = ["tau,rho"]
    for tau, rho in points:
        lines.append(f"{repr(float(tau))},{repr(float(rho))}")
    write_atomically(path, "\n".join(lines) + "\n")


def run_summary(cell: GridCell, record: RunRecord) -> dict:
    """One run's summary.json entry; csv names the run CSV beside it."""
    return {
        **cell.identity(),
        "status": record.status.value,
        "iterations": len(record.iterations),
        "zeroth_calls": record.zeroth_calls,
        "first_calls": record.first_calls,
        "final_infeas_inf": record.final_infeas_inf,
        "final_kkt_inf": record.final_kkt_inf,
        "failure_reason": record.failure_reason,
        "wall_time_s": record.wall_time,
    }


def _start_grid_dir(out_dir: "Path | str") -> Path:
    """Create out_dir and delete its summary.json, which is written after every other file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").unlink(missing_ok=True)
    return out_dir


def _write_run(out_dir: Path, cell: GridCell, record: RunRecord) -> dict:
    """Write one run's CSV and return its summary.json entry."""
    entry = run_summary(cell, record)
    write_run_csv(out_dir / entry["csv"], record)
    return entry


def _write_summary(out_dir: Path, grid: ExperimentGrid, wall_time: float, runs: list[dict],
                   profiles: dict[str, PerformanceProfile]) -> dict:
    """Write the profile CSVs, then summary.json, and return the summary."""
    write_profile_files(profiles, out_dir)
    # load_run_trajectories rebuilds the grid from this entry.
    summary = {"grid": asdict(grid), "wall_time_s": wall_time, "runs": runs}
    write_json(out_dir / "summary.json", summary)
    return summary


def write_grid_outputs(result: GridResult, out_dir: Path) -> None:
    """Write a grid solved in memory, file for file as run_grid writes it."""
    out_dir = _start_grid_dir(out_dir)
    runs = [_write_run(out_dir, cell, record) for cell, record in zip(result.cells, result.records)]
    _write_summary(out_dir, result.grid, result.wall_time, runs, result.profiles)


def write_profile_files(profiles: dict[str, PerformanceProfile], out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, profile in profiles.items():
        for solver, points in profile.curves.items():
            write_profile_csv(out_dir / f"profile__{name}__{solver}.csv", points)


# ---------------------------------------------------------------------------
# Rebuilding profiles from previously written run directories.


def _read_run_columns(path: Path) -> np.ndarray:
    """A run CSV's _TRAJECTORY_COLUMNS, found by header name, as a (2, rows) float64 array."""
    text = path.read_text()
    header, _, body = text.partition("\n")
    if not header:
        raise ValueError("has no header")
    if not text.endswith("\n"):
        raise ValueError("ends mid-line")
    names = header.split(",")
    for name in _TRAJECTORY_COLUMNS:
        if name not in names:
            raise ValueError(f"has no {name!r} column")
    if not body.strip():
        # A zero-iteration run; loadtxt would warn that it read no data.
        return np.empty((len(_TRAJECTORY_COLUMNS), 0))
    return np.loadtxt(
        io.StringIO(body),
        delimiter=",",
        comments=None,
        usecols=[names.index(name) for name in _TRAJECTORY_COLUMNS],
        ndmin=2,
        unpack=True,
    )


_JSON_TYPE_NAMES = {type(None): "null", dict: "object", list: "array"}


def _field(obj: dict, key: str, types: tuple, path: Path, owner: str = ""):
    """obj[key] if it is one of types: never a bool, nor, where floats are allowed, an int too
    large for one. owner names obj in messages, "" the top level."""
    if key not in obj:
        raise ValueError(f"{path}: {owner or 'top level'} has no {key!r}")
    value = obj[key]
    name = f"{owner}.{key}" if owner else key
    if isinstance(value, bool) or not isinstance(value, types):
        allowed = " or ".join(_JSON_TYPE_NAMES.get(t, t.__name__) for t in types)
        raise ValueError(f"{path}: {name} must be {allowed}, not {json.dumps(value)}")
    if float in types and is_int(value) and not is_finite(value):
        raise ValueError(f"{path}: {name} is an integer too large for a float")
    return value


def _grid_from_entry(entry: dict, path: Path) -> ExperimentGrid:
    """The ExperimentGrid whose asdict is summary.json's grid entry.

    The entry and its params must hold exactly their dataclass's fields,
    so no missing key is filled with a default.
    """
    params = _field(entry, "params", (dict,), path, "grid")
    for owner, obj, cls in (("grid", entry, ExperimentGrid), ("grid.params", params, SolverParams)):
        names = {f.name for f in fields(cls)}
        if differ := sorted(names ^ obj.keys()):
            what = "has no" if differ[0] in names else "has the unknown key"
            raise ValueError(f"{path}: {owner} {what} {differ[0]!r}")
    try:
        return ExperimentGrid(**{**entry, "params": SolverParams(**params)})
    except ValueError as exc:
        raise ValueError(f"{path}: grid: {exc}") from exc


def load_run_trajectories(
    run_dir: Path,
) -> tuple[ExperimentGrid, list[tuple[GridCell, dict[str, np.ndarray]]]]:
    """Read a grid output directory back into its grid and each cell's trajectories.

    summary.json must be what write_grid_outputs writes: a grid entry
    that rebuilds an ExperimentGrid bench accepts, and runs that are
    that grid's cells in order, each with its cell's identity fields.
    A run CSV is opened by its cell's name, never by a path from the file.

    Raises
    ------
    ValueError
        If summary.json breaks those rules or a run entry's iterations
        or final metrics are missing or of the wrong type, or if a run
        CSV has no header, ends mid-line, lacks a column, holds a value
        that is not a number, or has a row count other than the entry's
        iterations.
    """
    run_dir = Path(run_dir)
    summary_path = run_dir / "summary.json"
    if not summary_path.is_file():
        raise FileNotFoundError(f"{run_dir} has no summary.json; not a grid output directory")
    summary = read_json(summary_path)
    if not isinstance(summary, dict):
        raise ValueError(f"{summary_path}: top level must be an object")
    grid = _grid_from_entry(_field(summary, "grid", (dict,), summary_path), summary_path)
    cells = grid_cells(grid)
    entries = _field(summary, "runs", (list,), summary_path)
    if len(entries) != len(cells):
        raise ValueError(f"{summary_path}: runs has {len(entries)} entries for the grid's "
                         f"{len(cells)} cells")
    runs = []
    for i, (cell, entry) in enumerate(zip(cells, entries)):
        if not isinstance(entry, dict):
            raise ValueError(f"{summary_path}: runs[{i}] must be an object")
        identity = cell.identity()
        for key, value in identity.items():
            # Type-strict: 1 must not pass for 1.0, nor true for 1.
            found = entry.get(key)
            if type(found) is not type(value) or found != value:
                raise ValueError(f"{summary_path}: runs[{i}].{key} must be {json.dumps(value)}, "
                                 f"as for cell {i} of the grid")
        iterations = _field(entry, "iterations", (int,), summary_path, f"runs[{i}]")
        finals = [_field(entry, key, (int, float, type(None)), summary_path, f"runs[{i}]")
                  for key in ("final_infeas_inf", "final_kkt_inf")]
        path = run_dir / identity["csv"]
        try:
            columns = _read_run_columns(path)
            rows = columns.shape[1]
            if rows != iterations:
                raise ValueError(f"has {rows} rows where summary.json records "
                                 f"{iterations} iterations")
            trajs = _trajectories(columns, *finals)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        runs.append((cell, trajs))
    return grid, runs


def profiles_from_directories(run_dirs: list[Path]) -> dict[str, PerformanceProfile]:
    """Rebuild profiles from one or more grid output directories.

    With several directories, solver labels are prefixed by the
    directory name so that separately produced campaigns can be
    compared on their common instances; instances that some directory
    lacks are left out. A deterministic run covers the replicates of
    its own directory only.

    Raises
    ------
    ValueError
        If no directory is given, two directories have the same name, so
        their labels would clash, the directories ran with different
        solver parameters (summary grid.params), or they share no instance.
    """
    if not run_dirs:
        raise ValueError("no run directories given")
    run_dirs = [Path(d) for d in run_dirs]
    prefix_labels = len(run_dirs) > 1
    if (name := _repeated(d.name for d in run_dirs)) is not None:
        clash = ", ".join(str(d) for d in run_dirs if d.name == name)
        raise ValueError(f"run directories {clash} share the name {name!r}")
    loaded = [load_run_trajectories(d) for d in run_dirs]
    params = loaded[0][0].params
    for run_dir, (grid, _) in zip(run_dirs, loaded):
        if differ := [f.name for f in fields(SolverParams)
                      if getattr(grid.params, f.name) != getattr(params, f.name)]:
            raise ValueError(f"run directories {run_dirs[0]} and {run_dir} differ in "
                             f"grid.params (first differing key: {differ[0]})")
    tables = [
        _run_table(grid.replicates, runs, f"{d.name}__" if prefix_labels else "")
        for d, (grid, runs) in zip(run_dirs, loaded)
    ]
    common = set.intersection(*({instance for _, instance in table} for table in tables))
    if not common:
        raise ValueError("the run directories share no instances")
    return _table_profiles(
        {key: trajs for table in tables for key, trajs in table.items() if key[1] in common}
    )
