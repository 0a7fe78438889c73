"""The stepsqp benchmark workloads, their correctness gate and their metrics.

stall     Serial closed loop, one caller: bench.run_cell over every
          registered problem at the noise-floor pairs (1e-2, 1e-1) and
          (1e-1, 1e-1) with default SolverParams. Nearly every run spends
          its 1000-iteration budget at the gradient-noise floor, as most
          iterations of the default grid do, so the per-iteration cost of
          sqp, linalg, oracles and problems is nearly all the time.
converge  Serial closed loop, one caller: bench.run_cell over every problem
          at (0, 0) and (0, 1e-4). Every run reaches the tolerances in a
          few to a few hundred iterations: the time a user waits for one
          solve, where per-run fixed cost and the convergence test weigh
          more than in stall.
campaign  `stepsqp bench` through stepsqp.cli.main in this process, over
          every problem at converging and floor-limited pairs, then
          `stepsqp profile` on its output directory: the user's path
          through the CLI, the grid runner, its output writes and the
          profile rebuild, which does no solving. It runs at the CLI's
          default --jobs 1 (see CAMPAIGN_JOBS).

A pass runs every cell of the workload once (for campaign: one bench
command and one profile command). Passes repeat until the measuring time
is over and at least MIN_SOLVE_SAMPLES runs were timed. After their
first pass, stall and converge write an output directory through
bench.build_grid_profiles and bench.write_grid_outputs, and `stepsqp
profile` rebuilds the profiles from it PROFILE_REPEATS times, spread over
the window.

Every run is checked (see check_record and check_written_runs); a
violation fails the run. Trajectories are hashed per run, and a run of a
cell that differs from the first run of that cell fails too.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from stepsqp import bench, cli, linalg, sqp
from stepsqp.oracles import StochasticOracle
from stepsqp.problems import Problem, get_problem
from stepsqp.sqp import RunRecord, RunStatus, SolverParams

from spans import Tracer, busy_time, layer_stats
from speed import SpeedGauge
from stats import Tally, median_over_passes, tail_percentile

STALL_PAIRS = ((1e-2, 1e-1), (1e-1, 1e-1))
CONVERGE_PAIRS = ((0.0, 0.0), (0.0, 1e-4))
CAMPAIGN_PAIRS = ((0.0, 0.0), (0.0, 1e-2), (1e-2, 1e-2), (1e-1, 1e-1))
# A 300-iteration budget keeps one campaign pass near two seconds, so a
# run holds ten or more bench commands; floor-limited runs still spend
# their whole budget.
CAMPAIGN_MAX_ITERS = 300
# The thread pool at --jobs 2 made campaign's times spread by up to 23%
# over ten seeds (quartile distance over median) on a 2-vCPU machine: two
# GIL-bound threads depend on both cores' load, which the one-thread
# speed gauge does not see. Serial, campaign spreads about as little as
# stall and converge.
CAMPAIGN_JOBS = 1

# Ten runs must lie beyond the reported p90.
MIN_SOLVE_SAMPLES = 100
PROFILE_REPEATS = 9
SETUP_REPEATS = 5

_INT_COLUMNS = frozenset({"k", "accepted", "zeroth_calls", "first_calls", "true_iter"})


def workload_grid(name: str, seed: int) -> bench.ExperimentGrid:
    if name == "stall":
        return bench.ExperimentGrid(noise_pairs=STALL_PAIRS, replicates=1, seed=seed)
    if name == "converge":
        return bench.ExperimentGrid(noise_pairs=CONVERGE_PAIRS, replicates=1, seed=seed)
    if name == "campaign":
        return bench.ExperimentGrid(
            noise_pairs=CAMPAIGN_PAIRS,
            replicates=1,
            params=SolverParams(max_iters=CAMPAIGN_MAX_ITERS),
            seed=seed,
        )
    raise ValueError(f"unknown workload {name!r}")


def campaign_argv(seed: int, jobs: int, out: Path) -> list[str]:
    pairs = json.dumps([list(pair) for pair in CAMPAIGN_PAIRS])
    return [
        "bench", "--seed", str(seed), "--jobs", str(jobs), "--out", str(out),
        "--set", f"grid.noise_pairs={pairs}",
        "--set", "grid.replicates=1",
        "--set", f"solver.max_iters={CAMPAIGN_MAX_ITERS}",
    ]


# ---------------------------------------------------------------------------
# Fingerprint: what the program computed, independent of how fast.


def _canonical(column: str, value) -> str:
    if value is None or value == "":
        return ""
    return str(int(value)) if column in _INT_COLUMNS else repr(float(value))


def _digest_rows(rows) -> bytes:
    """sha256 over rows of the 10 bench.CSV_COLUMNS values, canonically printed."""
    h = hashlib.sha256(",".join(bench.CSV_COLUMNS).encode())
    for row in rows:
        h.update(b"\n" + ",".join(_canonical(c, v) for c, v in zip(bench.CSV_COLUMNS, row)).encode())
    return h.digest()


def record_digest(record: RunRecord) -> bytes:
    return _digest_rows([getattr(log, c) for c in bench.CSV_COLUMNS] for log in record.iterations)


def csv_digest(path: Path) -> tuple[int, bytes]:
    """Row count and digest of a run CSV written by the program."""
    with path.open(newline="") as fh:
        rows = [[row[c] for c in bench.CSV_COLUMNS] for row in csv.DictReader(fh)]
    return len(rows), _digest_rows(rows)


@dataclass
class Fingerprint:
    """Status counts, iteration and oracle totals, and a hash of every trajectory."""

    statuses: Counter = field(default_factory=Counter)
    iterations: int = 0
    zeroth_calls: int = 0
    first_calls: int = 0
    converged_calls: list[int] = field(default_factory=list)
    _sha: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def add(self, status: str, iterations: int, zeroth: int, first: int, digest: bytes) -> None:
        self.statuses[status] += 1
        self.iterations += iterations
        self.zeroth_calls += zeroth
        self.first_calls += first
        if status == RunStatus.CONVERGED.value:
            self.converged_calls.append(zeroth + first)
        self._sha.update(digest)

    def as_dict(self) -> dict:
        return {
            "runs": sum(self.statuses.values()),
            "status_counts": dict(sorted(self.statuses.items())),
            "iterations": self.iterations,
            "zeroth_calls": self.zeroth_calls,
            "first_calls": self.first_calls,
            "sha256": self._sha.hexdigest(),
        }


# ---------------------------------------------------------------------------
# Correctness gate.


def check_accounting(iterations: int, zeroth: int, first: int) -> list[str]:
    problems = []
    if zeroth != 2 * iterations:
        problems.append(f"zeroth_calls {zeroth} != 2 * {iterations} iterations")
    if first != iterations:
        problems.append(f"first_calls {first} != {iterations} iterations")
    return problems


def verify_converged(problem: Problem, params: SolverParams, x: np.ndarray) -> list[str]:
    """Re-check a converged iterate with exact evaluations and lstsq multipliers."""
    c = problem.c(x)
    jac = problem.jacobian(x)
    g = problem.grad_f(x)
    infeas = float(np.max(np.abs(c)))
    y = np.linalg.lstsq(jac.T, -g, rcond=None)[0]
    kkt = float(np.max(np.abs(g + jac.T @ y)))
    problems = []
    if not infeas <= params.tol_infeas:
        problems.append(f"converged but ||c||_inf = {infeas:g} > tol_infeas")
    if not kkt <= params.tol_kkt:
        problems.append(f"converged but KKT residual {kkt:g} > tol_kkt")
    return problems


def check_record(problem: Problem, params: SolverParams, record: RunRecord) -> list[str]:
    problems = []
    if record.status is RunStatus.LINEAR_ALGEBRA_FAILURE:
        problems.append(f"linear_algebra_failure: {record.failure_reason}")
    problems += check_accounting(len(record.iterations), record.zeroth_calls, record.first_calls)
    if record.status is RunStatus.CONVERGED:
        problems += verify_converged(problem, params, record.final_x)
    return problems


def _cell_key(cell: bench.GridCell) -> tuple:
    return (cell.problem, cell.eps_f, cell.eps_g, cell.replicate, cell.stream_id)


def check_written_runs(out: Path, cells, digests, tally: Tally) -> list[dict]:
    """Check a grid output directory against the expected cells and trajectories.

    Each summary.json entry must name its cell, in cell order, must not
    be a linear-algebra failure, and must have exact oracle accounting;
    its iteration count must equal its CSV's rows; its CSV must hash to
    digests[i], or set digests[i] when that is None. Returns the entries.
    """
    runs = json.loads((out / "summary.json").read_text())["runs"]
    if len(runs) != len(cells):
        tally.record("summary.json", [f"{len(runs)} runs for {len(cells)} cells"])
    for i, (cell, entry) in enumerate(zip(cells, runs)):
        problems = []
        entry_cell = bench.GridCell(
            entry["problem"], float(entry["eps_f_noise"]), float(entry["eps_g_noise"]),
            int(entry["replicate"]), int(entry["stream_id"]),
        )
        if _cell_key(entry_cell) != _cell_key(cell):
            problems.append(f"entry {i} is cell {_cell_key(entry_cell)}, expected {_cell_key(cell)}")
        if entry["status"] == RunStatus.LINEAR_ALGEBRA_FAILURE.value:
            problems.append(f"linear_algebra_failure: {entry['failure_reason']}")
        problems += check_accounting(entry["iterations"], entry["zeroth_calls"], entry["first_calls"])
        rows, digest = csv_digest(out / entry["csv"])
        if entry["iterations"] != rows:
            problems.append(f"summary iterations {entry['iterations']} != {rows} CSV rows")
        if digests[i] is None:
            digests[i] = digest
        elif digest != digests[i]:
            problems.append("trajectory differs from the first run of this cell")
        tally.record(f"output {entry['csv']}", problems)
    return runs


def compare_profiles(bench_dir: Path, profile_dir: Path) -> list[str]:
    """Profile CSVs written by bench and rebuilt by profile must be byte-identical."""
    written = {p.name: p for p in bench_dir.glob("profile__*.csv")}
    rebuilt = {p.name: p for p in profile_dir.glob("profile__*.csv")}
    if not written:
        return ["bench wrote no profile CSVs"]
    if set(written) != set(rebuilt):
        return [f"profile CSV sets differ: {sorted(set(written) ^ set(rebuilt))}"]
    return [
        f"{name} differs between bench and profile"
        for name in sorted(written)
        if written[name].read_bytes() != rebuilt[name].read_bytes()
    ]


# ---------------------------------------------------------------------------
# Tracing: spans at each layer's public boundary.


def _solve_counts(args, kwargs, record):
    accepted = sum(1 for log in record.iterations if log.accepted)
    return (len(record.iterations), accepted, record.zeroth_calls + record.first_calls)


def _rows_written(args, kwargs, result):
    return (len(args[1].iterations),)


def make_tracer() -> Tracer:
    """A tracer over the public functions of every stepsqp layer.

    Each name is rebound where its callers look it up: sqp.solve finds
    its kernels as sqp globals (so linalg.max_abs counts the calls made
    from sqp), run_cell finds solve as a bench global.
    """
    tracer = Tracer(run_name="bench.run_cell")
    for attr in ("f", "grad_f", "c", "jacobian"):
        tracer.patch(Problem, attr, f"problems.{attr}")
    for attr in ("noisy_f", "noisy_grad"):
        tracer.patch(StochasticOracle, attr, f"oracles.{attr}")
    tracer.patch(sqp, "lu_solve", "linalg.lu_solve")
    tracer.patch(linalg, "cholesky_solve", "linalg.cholesky_solve")
    tracer.patch(sqp, "max_abs", "linalg.max_abs")
    for attr in ("solve_kkt", "least_squares_multipliers", "tau_trial", "classify_iteration"):
        tracer.patch(sqp, attr, f"sqp.{attr}")
    tracer.patch(bench, "solve", "sqp.solve", extra=_solve_counts)
    for attr in ("grid_cells", "run_cell", "write_grid_outputs", "build_grid_profiles",
                 "load_run_trajectories"):
        tracer.patch(bench, attr, f"bench.{attr}")
    tracer.patch(bench, "write_run_csv", "bench.write_run_csv", extra=_rows_written)
    tracer.patch(cli, "main", "cli.main")
    return tracer


def layer_metrics(tracer: Tracer, traced_wall: float, overhead_frac: float,
                  cpu_util: float, output_bytes: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as name -> (value, unit)."""
    spans = tracer.spans()
    stats = layer_stats(spans)
    totals = tracer.extra_totals()
    iterations, accepted, oracle_calls = totals["sqp.solve"]
    rows = totals.get("bench.write_run_csv", (0,))[0]

    def calls(name):
        return stats[name].calls

    def mean(name, scale, own=False):
        s = stats[name]
        return (s.self_s if own else s.total_s) / s.calls * scale if s.calls else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("problems.f", "problems.grad_f", "problems.c", "problems.jacobian",
                 "linalg.lu_solve", "linalg.cholesky_solve", "linalg.max_abs"):
        out[f"{name}.calls_per_iter"] = (calls(name) / iterations, "calls/iter")
        out[f"{name}.us"] = (mean(name, 1e6), "us")
    for name in ("oracles.noisy_f", "oracles.noisy_grad"):
        out[f"{name}.calls_per_iter"] = (calls(name) / iterations, "calls/iter")
        out[f"{name}.self_us"] = (mean(name, 1e6, own=True), "us")
    for name in ("sqp.solve_kkt", "sqp.least_squares_multipliers"):
        out[f"{name}.self_us"] = (mean(name, 1e6, own=True), "us")
    for name in ("sqp.tau_trial", "sqp.classify_iteration"):
        out[f"{name}.us"] = (mean(name, 1e6), "us")
    out["sqp.solve.self_us_per_iter"] = (stats["sqp.solve"].self_s / iterations * 1e6, "us/iter")
    out["sqp.accept_rate"] = (accepted / iterations, "ratio")
    out["sqp.oracle_calls_per_iter"] = (oracle_calls / iterations, "calls/iter")
    out["bench.grid_cells.ms"] = (mean("bench.grid_cells", 1e3), "ms")
    out["bench.run_cell.ms"] = (mean("bench.run_cell", 1e3), "ms")
    out["bench.cpu_util"] = (cpu_util, "ratio")
    for name in ("bench.write_grid_outputs", "bench.build_grid_profiles",
                 "bench.load_run_trajectories"):
        out[f"{name}.s"] = (mean(name, 1.0), "s")
    out["bench.write_run_csv.us_per_row"] = (
        stats["bench.write_run_csv"].total_s / rows * 1e6 if rows else 0.0, "us/row")
    out["bench.output_bytes"] = (output_bytes, "bytes")
    out["cli.main.self_s"] = (mean("cli.main", 1.0, own=True), "s")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    out["trace.coverage"] = (busy_time(spans.start, spans.end) / traced_wall, "ratio")
    return {name: (float(value), unit) for name, (value, unit) in out.items()}


# ---------------------------------------------------------------------------
# Measurement.


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Call:
    """Start and end (perf_counter) of one timed call into the program."""

    t0: float = 0.0
    t1: float = 0.0

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


@dataclass
class Pass:
    """One untraced pass: its span, per-run times, wall time and iterations."""

    t0: float
    t1: float
    run_times: list[float]
    wall: float
    iterations: int


@dataclass
class Meter:
    """Timings of one workload run.

    gauge is None in a traced run, which reports no end-to-end metrics.
    """

    gauge: "SpeedGauge | None"
    passes: list[Pass] = field(default_factory=list)
    profile_calls: list[Call] = field(default_factory=list)
    setup_calls: list[Call] = field(default_factory=list)
    output_bytes: list[int] = field(default_factory=list)
    traced_wall: float = 0.0  # every program call made with tracing installed
    cpu: float = 0.0
    cpu_wall: float = 0.0
    # Solve phases split by tracing, for the tracing overhead.
    solve_wall: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})
    solve_iters: dict = field(default_factory=lambda: {False: 0, True: 0})

    @contextlib.contextmanager
    def program_call(self, traced: bool = False):
        """Time a call into the program; the gauge may measure right after it."""
        call = Call()
        cpu0 = _cpu_seconds()
        call.t0 = time.perf_counter()
        try:
            yield call
        finally:
            call.t1 = time.perf_counter()
            self.cpu += _cpu_seconds() - cpu0
            self.cpu_wall += call.wall
            if traced:
                self.traced_wall += call.wall
            if self.gauge is not None:
                self.gauge.tick()

    def count_solves(self, traced: bool, wall: float, iterations: int) -> None:
        self.solve_wall[traced] += wall
        self.solve_iters[traced] += iterations

    @property
    def samples(self) -> int:
        return sum(len(p.run_times) for p in self.passes)

    @property
    def overhead_frac(self) -> float:
        """Traced time per iteration over untraced time per iteration, minus one."""
        per_iter = {t: self.solve_wall[t] / self.solve_iters[t] for t in (False, True)}
        return per_iter[True] / per_iter[False] - 1.0

    def timing_metrics(self, scale) -> dict[str, tuple[float, str]]:
        """End-to-end timings, each scaled by scale(t0, t1) of its interval."""

        def nominal(call: Call) -> float:
            return call.wall * scale(call.t0, call.t1)

        factors = [scale(p.t0, p.t1) for p in self.passes]
        runs = [[t * f for t in p.run_times] for p, f in zip(self.passes, factors)]
        return {
            "setup_s": (statistics.median(map(nominal, self.setup_calls)), "s"),
            "iters_per_s": (statistics.median(
                p.iterations / (p.wall * f) for p, f in zip(self.passes, factors)), "iter/s"),
            "solve_p50_ms": (median_over_passes(runs, 0.50) * 1e3, "ms"),
            "solve_p90_ms": (median_over_passes(runs, 0.90) * 1e3, "ms"),
            "wall_s": (statistics.median(p.wall * f for p, f in zip(self.passes, factors)), "s"),
            "profile_s": (statistics.median(map(nominal, self.profile_calls)), "s"),
        }


@dataclass
class Outcome:
    tally: Tally
    fingerprint: Fingerprint
    metrics: dict[str, tuple[float, str]]
    report: dict


def _profile_command(bench_dir: Path, dest: Path, tally: Tally, meter: Meter, traced: bool) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    with meter.program_call(traced) as call, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["profile", str(bench_dir), "--out", str(dest)])
    problems = [] if code == 0 else [f"profile exited {code}"]
    problems += compare_profiles(bench_dir, dest)
    tally.record(f"profile {bench_dir.name}", problems)
    if not traced:
        meter.profile_calls.append(call)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Occasional:
    """Spreads a few samples of a short measurement evenly over the window.

    Short samples taken back to back all land in the same burst of load
    from other processes on the machine; spread out, their median sees
    the same conditions as the passes.
    """

    def __init__(self, count: int, seconds: float, take):
        self.count, self.seconds, self.take = count, seconds, take
        self.done = 0
        self.start = time.perf_counter()

    def between_passes(self) -> None:
        if self.done < self.count and time.perf_counter() - self.start >= (
            self.seconds * self.done / self.count
        ):
            self.take()
            self.done += 1

    def finish(self) -> None:
        while self.done < self.count:
            self.take()
            self.done += 1


def _more_passes(deadline: float, tracer, meter: Meter) -> bool:
    if tracer is None:
        return time.perf_counter() < deadline or meter.samples < MIN_SOLVE_SAMPLES
    return time.perf_counter() < deadline or meter.solve_iters[True] == 0


def run_serial(name: str, seed: int, seconds: float, tracer: "Tracer | None",
               meter: Meter, work: Path, occasional: "list[Occasional]") -> tuple:
    """stall / converge: closed loop of run_cell calls, plus the output phase."""
    grid = workload_grid(name, seed)
    cells = bench.grid_cells(grid)
    problems = {cell.problem: get_problem(cell.problem) for cell in cells}
    tally, fingerprint = Tally(), Fingerprint()
    digests: list = [None] * len(cells)
    first_records: list = [None] * len(cells)
    out, dest = work / "grid", work / "profiles"
    traced_output = tracer is not None

    def profile():
        with tracer.installed() if traced_output else contextlib.nullcontext():
            _profile_command(out, dest, tally, meter, traced_output)

    occasional = occasional + [Occasional(PROFILE_REPEATS, seconds, profile)]
    bench.run_cell(grid, cells[0])  # warm-up: lazy imports and first-call caches
    deadline = time.perf_counter() + seconds
    n_pass = 0
    while _more_passes(deadline, tracer, meter):
        t0 = time.perf_counter()
        times, wall, iters = [], 0.0, 0
        # A traced run measures each cell with and without tracing, in
        # alternating order, for the tracing overhead.
        modes = (False,) if tracer is None else ((False, True) if n_pass % 2 == 0 else (True, False))
        for i, cell in enumerate(cells):
            for traced in modes:
                label = f"pass {n_pass} {cell.problem} f={cell.eps_f:g} g={cell.eps_g:g}"
                with tracer.installed() if traced else contextlib.nullcontext():
                    with meter.program_call(traced) as call:
                        try:
                            record = bench.run_cell(grid, cell)
                        except Exception as exc:  # a raising run fails, the workload goes on
                            record, error = None, exc
                if record is None:
                    tally.record(label, [f"raised {error!r}"])
                    continue
                found = check_record(problems[cell.problem], grid.params, record)
                digest = record_digest(record)
                if digests[i] is None:
                    digests[i] = digest
                    first_records[i] = record
                    fingerprint.add(record.status.value, len(record.iterations),
                                    record.zeroth_calls, record.first_calls, digest)
                elif digest != digests[i]:
                    found.append("trajectory differs from the first run of this cell")
                tally.record(label, found)
                meter.count_solves(traced, call.wall, len(record.iterations))
                if not traced:
                    times.append(call.wall)
                    wall += call.wall
                    iters += len(record.iterations)
        meter.passes.append(Pass(t0, time.perf_counter(), times, wall, iters))
        if n_pass == 0:
            if not _write_first_pass(grid, cells, first_records, digests, out, tracer, tally, meter):
                return tally, fingerprint
            first_records = None  # from here on the benchmark keeps only hashes
        for task in occasional:
            task.between_passes()
        n_pass += 1
    for task in occasional:
        task.finish()
    return tally, fingerprint


def _write_first_pass(grid, cells, records, digests, out, tracer, tally, meter) -> bool:
    """Output phase: profiles and grid files from the first pass's runs."""
    if any(r is None for r in records):
        tally.record("output phase", ["a cell never produced a run; nothing to write"])
        return False
    traced = tracer is not None
    with tracer.installed() if traced else contextlib.nullcontext():
        with meter.program_call(traced):
            out_cells = bench.grid_cells(grid)
            profiles = bench.build_grid_profiles(grid, out_cells, records)
            wall = sum(r.wall_time for r in records)
            bench.write_grid_outputs(bench.GridResult(grid, out_cells, records, profiles, wall), out)
    check_written_runs(out, cells, digests, tally)
    meter.output_bytes.append(_dir_bytes(out))
    return True


def run_campaign(seed: int, seconds: float, tracer: "Tracer | None",
                 meter: Meter, work: Path, occasional: "list[Occasional]") -> tuple:
    """campaign: repeated `stepsqp bench` then `stepsqp profile`, in process."""
    grid = workload_grid("campaign", seed)
    cells = bench.grid_cells(grid)
    problems = {cell.problem: get_problem(cell.problem) for cell in cells}
    tally, fingerprint = Tally(), Fingerprint()
    digests: list = [None] * len(cells)

    bench.run_cell(grid, cells[0])  # warm-up: lazy imports and first-call caches
    deadline = time.perf_counter() + seconds
    n_pass = 0
    while _more_passes(deadline, tracer, meter):
        # A traced run alternates untraced and traced passes, for the overhead.
        traced = tracer is not None and n_pass % 2 == 1
        out, dest = work / f"bench-{n_pass}", work / f"profile-{n_pass}"
        with tracer.installed() if traced else contextlib.nullcontext():
            with meter.program_call(traced) as call, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(campaign_argv(seed, CAMPAIGN_JOBS, out))
        if code != 0:
            tally.record(f"pass {n_pass} bench", [f"bench exited {code}"])
        first = digests[0] is None
        runs = check_written_runs(out, cells, digests, tally)
        iters = sum(int(entry["iterations"]) for entry in runs)
        if first:
            for i, (cell, entry) in enumerate(zip(cells, runs)):
                fingerprint.add(entry["status"], entry["iterations"], entry["zeroth_calls"],
                                entry["first_calls"], digests[i])
                if entry["status"] == RunStatus.CONVERGED.value:
                    # The bench output holds no iterate: solve the cell again
                    # and verify it from outside, and that it is the same run.
                    record = bench.run_cell(grid, cell)
                    found = check_record(problems[cell.problem], grid.params, record)
                    if record_digest(record) != digests[i]:
                        found.append("serial re-run differs from the bench output")
                    tally.record(f"re-verify {entry['csv']}", found)
        meter.count_solves(traced, call.wall, iters)
        meter.output_bytes.append(_dir_bytes(out))
        if not traced:
            run_times = [float(entry["wall_time_s"]) for entry in runs]
            meter.passes.append(Pass(call.t0, call.t1, run_times, call.wall, iters))
        with tracer.installed() if traced else contextlib.nullcontext():
            _profile_command(out, dest, tally, meter, traced)
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(dest, ignore_errors=True)
        for task in occasional:
            task.between_passes()
        n_pass += 1
    for task in occasional:
        task.finish()
    return tally, fingerprint


def setup_probe(grid: bench.ExperimentGrid, src: Path, meter: Meter):
    """A callable that times one fresh interpreter importing stepsqp and enumerating the cells."""
    source = (
        "import stepsqp\n"
        "from stepsqp.bench import ExperimentGrid, grid_cells\n"
        "from stepsqp.sqp import SolverParams\n"
        f"grid_cells(ExperimentGrid(noise_pairs={grid.noise_pairs!r}, "
        f"replicates={grid.replicates}, params=SolverParams(**{asdict(grid.params)!r}), "
        f"seed={grid.seed}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))

    def probe() -> Call:
        # A plain wait: with a timeout, Popen.wait polls in steps of up
        # to 50 ms, which would round every sample up to that grid.
        with meter.program_call() as call:
            status = subprocess.Popen(
                [sys.executable, "-c", source], env=env, stdout=subprocess.DEVNULL
            ).wait()
        if status != 0:
            raise RuntimeError(f"setup probe exited {status}")
        return call

    return probe


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, src: Path) -> Outcome:
    tracer = make_tracer() if trace else None
    meter = Meter(gauge=None if trace else SpeedGauge())
    occasional = []
    if not trace:
        probe = setup_probe(workload_grid(name, seed), src, meter)
        probe()  # warms the file cache and byte-code; not counted
        occasional.append(Occasional(SETUP_REPEATS, seconds,
                                     lambda: meter.setup_calls.append(probe())))
        meter.gauge.measure()
    if name == "campaign":
        tally, fingerprint = run_campaign(seed, seconds, tracer, meter, work, occasional)
    else:
        tally, fingerprint = run_serial(name, seed, seconds, tracer, meter, work, occasional)

    n = fingerprint.as_dict()["runs"]
    converged = fingerprint.statuses[RunStatus.CONVERGED.value]
    calls = fingerprint.converged_calls
    report = {
        "converged_frac": converged / n if n else 0.0,
        "calls_p50": statistics.median(calls) if calls else None,
        "fail_frac": tally.fail_frac,
        "passes": len(meter.passes),
        "solve_samples": meter.samples,
        "solve_tail": tail_percentile(meter.samples),
    }
    try:
        if trace:
            metrics = layer_metrics(
                tracer, meter.traced_wall, meter.overhead_frac,
                meter.cpu / meter.cpu_wall, statistics.median(meter.output_bytes),
            )
        else:
            gauge = meter.gauge
            gauge.measure()
            metrics = meter.timing_metrics(gauge.scale)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            measured = meter.timing_metrics(lambda t0, t1: 1.0)
            report["measured"] = {name: value for name, (value, _) in measured.items()}
            report["gauge_kernel_ms"] = statistics.median(gauge.durations) * 1e3
            report["gauge_samples"] = len(gauge.durations)
    except (ValueError, ZeroDivisionError, KeyError):
        if not tally.failed:
            raise
        metrics = {}  # failed operations left samples missing; the verdict lists them
    return Outcome(tally, fingerprint, metrics, report)
