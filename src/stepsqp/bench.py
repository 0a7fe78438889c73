"""Benchmark harness: noise grids, run artifacts, performance profiles.

A grid crosses registered problems with zeroth/first-order noise levels
and replicates (replicates collapse to one when both levels are zero,
since such runs are deterministic). Every run gets an independent RNG
stream derived from (seed, problem, noise pair, replicate), so results
do not depend on execution order or parallelism degree.

Per run, two metric trajectories are tracked against two cost axes:

* infeasibility: ||c(x_k)||_inf
* kkt: max(||c(x_k)||_inf, least-squares dual residual inf-norm)

against iteration count and against cumulative oracle work (function
plus gradient calls). Budgets-to-convergence use the standard
data-profile convergence test

    m(x_0) - m(x_k) >= (1 - eps_pp) * (m(x_0) - m_best)

with m_best the best value reached by any solver configuration on that
instance, and performance profiles plot the fraction of instances each
configuration solved within a factor tau of the per-instance best
budget.
"""

from __future__ import annotations

import concurrent.futures
import functools
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .linalg import load_lapack
from .oracles import OracleConfig, derive_stream, is_finite, is_int
from .problems import get_entry, get_problem, problem_names
from .sqp import RunRecord, RunStatus, SolverParams, solve

EPS_PP_DEFAULT = 1e-3

# Zeroth-order levels {0, 1e-4, 1e-2, 1e-1} crossed with first-order
# levels {1e-4, 1e-2, 1e-1}, plus the noiseless pair.
DEFAULT_NOISE_PAIRS: tuple[tuple[float, float], ...] = ((0.0, 0.0),) + tuple(
    (ef, eg)
    for ef in (0.0, 1e-4, 1e-2, 1e-1)
    for eg in (1e-4, 1e-2, 1e-1)
)


class EmptyInputError(Exception):
    """Profile construction got no solvers or no instances."""


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
            get_entry(name)  # raises UnknownProblemError, a ValueError
        if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs
        ):
            raise ValueError("grid.noise_pairs must be a list of [eps_f, eps_g] pairs")
        try:
            # Adding 0.0 folds -0.0 into 0.0, so both name the same cell.
            pairs = tuple((float(ef) + 0.0, float(eg) + 0.0) for ef, eg in pairs)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"grid.noise_pairs entries must be numbers: {exc}") from exc
        if not pairs:
            raise ValueError("grid needs at least one noise pair")
        for ef, eg in pairs:
            # OracleConfig owns the noise-level and seed rules.
            OracleConfig(eps_f_noise=ef, eps_g_noise=eg, seed=self.seed)
        for label, values in (("problem", problems), ("noise pair", pairs)):
            for value in values:
                if values.count(value) > 1:
                    raise ValueError(f"grid lists the {label} {value} more than once")
        if not is_int(self.replicates) or self.replicates < 1:
            raise ValueError("replicates must be a positive integer")
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


def grid_cells(grid: ExperimentGrid) -> list[GridCell]:
    """Enumerate the grid deterministically (problems, pairs, replicates)."""
    cells = []
    for name in grid.problems:
        for ef, eg in grid.noise_pairs:
            reps = 1 if ef == 0.0 and eg == 0.0 else grid.replicates
            for rep in range(reps):
                stream = derive_stream(grid.seed, name, (ef, eg), rep)
                cells.append(GridCell(name, ef, eg, rep, stream))
    return cells


def run_cell(grid: ExperimentGrid, cell: GridCell) -> RunRecord:
    """Execute one grid cell."""
    cfg = OracleConfig(
        eps_f_noise=cell.eps_f,
        eps_g_noise=cell.eps_g,
        seed=grid.seed,
        stream_id=cell.stream_id,
    )
    return solve(get_problem(cell.problem), grid.params, cfg)


# ---------------------------------------------------------------------------
# Trajectories and convergence budgets.


class Trajectory(NamedTuple):
    """Metric values at iterates x_0..x_K and the oracle work to reach each."""

    values: np.ndarray
    work: np.ndarray


# The run-CSV columns a trajectory is built from, in this order.
_TRAJECTORY_COLUMNS = ("infeas_inf", "kkt_inf", "zeroth_calls", "first_calls")


def _trajectories(
    columns: np.ndarray,
    final_infeas: Optional[float],
    final_kkt: Optional[float],
) -> dict[str, Trajectory]:
    """Build metric trajectories from per-iteration columns plus final metrics.

    columns is a (4, K) float64 array whose rows are the
    _TRAJECTORY_COLUMNS, with cumulative counters; entry j describes
    iterate x_j, and the final metrics (when available) describe the
    last iterate.

    Raises
    ------
    ValueError
        If a metric value is not finite, a call count is not an integer,
        or the work counts decrease.
    """
    infeas, residual, zeroth, first = columns
    work = np.concatenate(([0.0], zeroth + first))
    if final_infeas is not None and final_kkt is not None:
        infeas = np.append(infeas, final_infeas)
        residual = np.append(residual, final_kkt)
    else:
        work = work[:-1]
    if not (np.isfinite(infeas).all() and np.isfinite(residual).all()):
        raise ValueError("metric values must be finite")
    calls = columns[2:]
    if not (np.isfinite(calls).all() and (np.floor(calls) == calls).all()):
        raise ValueError("call counts must be integers")
    # Work starts at 0, so non-decreasing work is also non-negative.
    if np.any(np.diff(work) < 0):
        raise ValueError("work counts must be non-negative and non-decreasing")
    kkt = np.maximum(infeas, residual)
    return {"infeasibility": Trajectory(infeas, work), "kkt": Trajectory(kkt, work)}


def record_trajectories(record: RunRecord) -> dict[str, Trajectory]:
    """Metric trajectories (values, cumulative work) of one run."""
    logs = record.iterations
    columns = np.array(
        [
            [log.infeas_inf for log in logs],
            [log.kkt_inf for log in logs],
            [log.zeroth_calls for log in logs],
            [log.first_calls for log in logs],
        ],
        dtype=np.float64,
    )
    return _trajectories(columns, record.final_infeas_inf, record.final_kkt_inf)


def convergence_budget(
    trajectory: Trajectory,
    m0: float,
    m_best: float,
    eps_pp: float = EPS_PP_DEFAULT,
) -> Optional[float]:
    """Work needed to close a (1 - eps_pp) fraction of the reachable gap.

    Returns the work count at the first trajectory point with
    m0 - m(x) >= (1 - eps_pp) * (m0 - m_best), or None when the
    trajectory never achieves it (the instance counts as unsolved).
    The comparison is non-strict, so m0 == m_best converges at the
    first point.
    """
    values = np.asarray(trajectory.values, dtype=np.float64)
    work = np.asarray(trajectory.work, dtype=np.float64)
    if values.size == 0:
        return None
    target = (1.0 - eps_pp) * (m0 - m_best)
    hits = np.nonzero(m0 - values >= target)[0]
    if hits.size == 0:
        return None
    return float(work[hits[0]])


# ---------------------------------------------------------------------------
# Performance profiles.


@dataclass(frozen=True)
class PerformanceProfile:
    """Performance ratios and step-curve samples per solver configuration.

    ratios maps (solver, instance) to budget / best-budget-on-instance
    (inf for unsolved); curves maps each solver to sampled step points
    (tau, rho(tau)) at its distinct finite ratios.
    """

    solvers: tuple[str, ...]
    instances: tuple[str, ...]
    ratios: dict[tuple[str, str], float]
    curves: dict[str, list[tuple[float, float]]]

    def rho(self, solver: str, tau: float) -> float:
        """Fraction of instances this solver solved within factor tau."""
        count = sum(1 for inst in self.instances if self.ratios[(solver, inst)] <= tau)
        return count / len(self.instances)


def build_profile(budgets: dict[str, dict[str, Optional[float]]]) -> PerformanceProfile:
    """Build a performance profile from per-solver per-instance budgets.

    Parameters
    ----------
    budgets : dict
        budgets[solver][instance] is a non-negative work count, or None
        for unsolved. Every solver must cover the same instance set.

    Raises
    ------
    EmptyInputError
        If there are no solvers or no instances.
    """
    solvers = tuple(budgets)
    if not solvers:
        raise EmptyInputError("no solver configurations given")
    instances = tuple(budgets[solvers[0]])
    if not instances:
        raise EmptyInputError("no instances given")
    for solver in solvers:
        if tuple(budgets[solver]) != instances:
            raise ValueError(f"solver {solver!r} covers a different instance set")

    ratios: dict[tuple[str, str], float] = {}
    for inst in instances:
        vals = {s: budgets[s][inst] for s in solvers}
        for s, v in vals.items():
            if v is not None and (v < 0 or not math.isfinite(v)):
                raise ValueError(f"budget for ({s!r}, {inst!r}) must be finite >= 0 or None")
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
_RunTable = dict[tuple[str, str], dict[str, Trajectory]]


def _run_table(
    replicates: int,
    runs: list[tuple[GridCell, dict[str, Trajectory]]],
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
    """Profiles per metric and cost axis; a missing (solver, instance) is unsolved."""
    labels = list(dict.fromkeys(label for label, _ in table))
    instances = list(dict.fromkeys(instance for _, instance in table))
    profiles: dict[str, PerformanceProfile] = {}
    for metric in ("infeasibility", "kkt"):
        # Start value and best reachable value per instance across all
        # configurations.
        best: dict[str, float] = {}
        start: dict[str, float] = {}
        for (_, instance), trajs in table.items():
            values = trajs[metric].values
            if values.size:
                best[instance] = min(best.get(instance, math.inf), float(values.min()))
                start.setdefault(instance, float(values[0]))
        for axis in ("iterations", "work"):
            budgets: dict[str, dict[str, Optional[float]]] = {}
            for label in labels:
                row: dict[str, Optional[float]] = {}
                for instance in instances:
                    trajs = table.get((label, instance))
                    if trajs is None or trajs[metric].values.size == 0:
                        row[instance] = None
                        continue
                    traj = trajs[metric]
                    if axis == "iterations":
                        traj = traj._replace(work=np.arange(traj.values.size, dtype=np.float64))
                    row[instance] = convergence_budget(traj, start[instance], best[instance])
                budgets[label] = row
            profiles[f"{metric}__{axis}"] = build_profile(budgets)
    return profiles


def build_grid_profiles(
    grid: ExperimentGrid,
    cells: list[GridCell],
    records: list[RunRecord],
) -> dict[str, PerformanceProfile]:
    """Profiles per metric and cost axis for one grid's runs."""
    runs = [(cell, record_trajectories(rec)) for cell, rec in zip(cells, records)]
    return _table_profiles(_run_table(grid.replicates, runs))


# ---------------------------------------------------------------------------
# Grid execution and file outputs.


@dataclass
class GridResult:
    grid: ExperimentGrid
    cells: list[GridCell]
    records: list[RunRecord]
    profiles: dict[str, PerformanceProfile]
    wall_time: float

    @property
    def failed_cells(self) -> list[GridCell]:
        return [
            cell
            for cell, rec in zip(self.cells, self.records)
            if rec.status is RunStatus.LINEAR_ALGEBRA_FAILURE
        ]


def run_grid(
    grid: ExperimentGrid,
    out_dir: "Path | str | None" = None,
    jobs: int = 1,
) -> GridResult:
    """Run every cell of the grid, optionally writing output files.

    Outputs per grid: one CSV of iteration rows per run (named
    <problem>__f<eps_f>__g<eps_g>__r<replicate>.csv), a summary.json
    with statuses, final metrics and timings, and one CSV per profile
    curve. Outputs are written in deterministic cell order; jobs only
    sets the worker-process count and never affects file contents.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError("jobs must be a positive integer")
    t_start = time.perf_counter()
    cells = grid_cells(grid)
    if jobs == 1:
        records = [run_cell(grid, cell) for cell in cells]
    else:
        # Forked workers inherit LAPACK from here instead of each loading it.
        load_lapack()
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(functools.partial(run_cell, grid), cells))
    profiles = build_grid_profiles(grid, cells, records)
    result = GridResult(grid, cells, records, profiles, time.perf_counter() - t_start)
    if out_dir is not None:
        write_grid_outputs(result, Path(out_dir))
    return result


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


def write_run_csv(path: Path, record: RunRecord) -> None:
    """One row per iteration: ints and bools as integers, floats by shortest round-trip repr."""
    # The row template lists CSV_COLUMNS in order.
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(
        f"{log.k:d},{log.alpha!r},{log.tau_bar!r},{log.delta_l!r},{log.accepted:d},"
        f"{log.infeas_inf!r},{log.kkt_inf!r},{log.zeroth_calls:d},{log.first_calls:d},"
        f"{log.true_iter:d}"
        for log in record.iterations
    )
    path.write_text("\n".join(lines) + "\n")


def write_profile_csv(path: Path, points: list[tuple[float, float]]) -> None:
    lines = ["tau,rho"]
    for tau, rho in points:
        lines.append(f"{repr(float(tau))},{repr(float(rho))}")
    path.write_text("\n".join(lines) + "\n")


def run_summary(cell: GridCell, record: RunRecord) -> dict:
    """One run's summary.json entry; csv names the run CSV beside it."""
    return {
        "problem": cell.problem,
        "eps_f_noise": cell.eps_f,
        "eps_g_noise": cell.eps_g,
        "replicate": cell.replicate,
        "stream_id": cell.stream_id,
        "status": record.status.value,
        "iterations": len(record.iterations),
        "zeroth_calls": record.zeroth_calls,
        "first_calls": record.first_calls,
        "final_infeas_inf": record.final_infeas_inf,
        "final_kkt_inf": record.final_kkt_inf,
        "failure_reason": record.failure_reason,
        "wall_time_s": record.wall_time,
        "csv": run_filename(cell.problem, cell.eps_f, cell.eps_g, cell.replicate),
    }


def write_grid_outputs(result: GridResult, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for cell, record in zip(result.cells, result.records):
        write_run_csv(
            out_dir / run_filename(cell.problem, cell.eps_f, cell.eps_g, cell.replicate),
            record,
        )
    summary = {
        "grid": {
            "problems": list(result.grid.problems),
            "noise_pairs": [list(pair) for pair in result.grid.noise_pairs],
            "replicates": result.grid.replicates,
            "seed": result.grid.seed,
            "params": asdict(result.grid.params),
        },
        "wall_time_s": result.wall_time,
        "runs": [
            run_summary(cell, record)
            for cell, record in zip(result.cells, result.records)
        ],
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_profile_files(result.profiles, out_dir)


def write_profile_files(profiles: dict[str, PerformanceProfile], out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, profile in profiles.items():
        for solver, points in profile.curves.items():
            write_profile_csv(out_dir / f"profile__{name}__{solver}.csv", points)


# ---------------------------------------------------------------------------
# Rebuilding profiles from previously written run directories.


def _read_run_columns(path: Path) -> np.ndarray:
    """A run CSV's _TRAJECTORY_COLUMNS, found by header name, as a (4, rows) float64 array."""
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


# The summary.json run-entry fields load_run_trajectories reads, with
# the JSON types each may take (bools are rejected where ints are allowed).
_ENTRY_FIELDS = {
    "problem": (str,),
    "eps_f_noise": (int, float),
    "eps_g_noise": (int, float),
    "replicate": (int,),
    "stream_id": (int,),
    "iterations": (int,),
    "final_infeas_inf": (int, float, type(None)),
    "final_kkt_inf": (int, float, type(None)),
    "csv": (str,),
}


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


def _check_summary(summary, path: Path) -> None:
    """Reject a summary.json whose grid entry or run entries profiles cannot use."""
    if not isinstance(summary, dict):
        raise ValueError(f"{path}: top level must be an object")
    grid = _field(summary, "grid", (dict,), path)
    replicates = _field(grid, "replicates", (int,), path, "grid")
    if replicates < 1:
        raise ValueError(f"{path}: grid.replicates must be at least 1, not {replicates}")
    _field(grid, "params", (dict,), path, "grid")
    for i, entry in enumerate(_field(summary, "runs", (list,), path)):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: runs[{i}] must be an object")
        for key, types in _ENTRY_FIELDS.items():
            _field(entry, key, types, path, f"runs[{i}]")


def load_run_trajectories(run_dir: Path) -> tuple[dict, list[tuple[GridCell, dict[str, Trajectory]]]]:
    """Read a grid output directory back into (its summary's grid entry, per-run trajectories).

    Raises
    ------
    ValueError
        If summary.json's grid entry, run list or a run entry lacks a
        field or has one of the wrong type (grid.replicates must be an
        integer of at least 1), or a run CSV is damaged: it has no
        header, ends mid-line, lacks a column, holds a value that is
        not a number, or its row count differs from the entry's
        iterations.
    """
    run_dir = Path(run_dir)
    summary_path = run_dir / "summary.json"
    if not summary_path.is_file():
        raise FileNotFoundError(f"{run_dir} has no summary.json; not a grid output directory")
    summary = json.loads(summary_path.read_text())
    _check_summary(summary, summary_path)
    runs = []
    for entry in summary["runs"]:
        path = run_dir / entry["csv"]
        try:
            columns = _read_run_columns(path)
            rows = columns.shape[1]
            if rows != entry["iterations"]:
                raise ValueError(f"has {rows} rows where summary.json records "
                                 f"{entry['iterations']} iterations")
            trajs = _trajectories(columns, entry["final_infeas_inf"], entry["final_kkt_inf"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        cell = GridCell(
            problem=entry["problem"],
            eps_f=float(entry["eps_f_noise"]),
            eps_g=float(entry["eps_g_noise"]),
            replicate=entry["replicate"],
            stream_id=entry["stream_id"],
        )
        runs.append((cell, trajs))
    return summary["grid"], runs


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
        If two directories have the same name, so their labels would clash,
        or ran with different solver parameters (summary grid.params).
    EmptyInputError
        If no directory is given or the directories share no instance.
    """
    if not run_dirs:
        raise EmptyInputError("no run directories given")
    run_dirs = [Path(d) for d in run_dirs]
    prefix_labels = len(run_dirs) > 1
    names = [d.name for d in run_dirs]
    for name in names:
        if names.count(name) > 1:
            clash = ", ".join(str(d) for d in run_dirs if d.name == name)
            raise ValueError(f"run directories {clash} share the name {name!r}")
    loaded = [load_run_trajectories(d) for d in run_dirs]
    params = loaded[0][0]["params"]
    for run_dir, (grid, _) in zip(run_dirs, loaded):
        other = grid["params"]
        # JSON values may be unhashable, so items() views cannot be xor-ed.
        if differ := sorted(key for key in params.keys() | other.keys()
                            if key not in params or key not in other or params[key] != other[key]):
            raise ValueError(f"run directories {run_dirs[0]} and {run_dir} differ in "
                             f"grid.params (first differing key: {differ[0]})")
    tables = [
        _run_table(grid["replicates"], runs, f"{d.name}__" if prefix_labels else "")
        for d, (grid, runs) in zip(run_dirs, loaded)
    ]
    common = set.intersection(*({instance for _, instance in table} for table in tables))
    if not common:
        raise EmptyInputError("the run directories share no instances")
    return _table_profiles(
        {key: trajs for table in tables for key, trajs in table.items() if key[1] in common}
    )
