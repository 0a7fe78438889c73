"""Tests for the benchmark harness: grids, trajectories, first hits, profiles."""

import concurrent.futures
import contextlib
import dataclasses
import gc
import io
import json
import math
import operator
import os
import pickle
import shutil
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import doctor_run_csv

from stepsqp import bench, cli
from stepsqp.bench import (
    CSV_COLUMNS,
    DEFAULT_NOISE_PAIRS,
    MAX_NOISE_PAIRS,
    MAX_REPLICATES,
    _TRAJECTORY_COLUMNS,
    ExperimentGrid,
    GridResult,
    PerformanceProfile,
    _read_run_columns,
    _table_profiles,
    build_grid_profiles,
    build_profile,
    config_label,
    first_hit,
    grid_cells,
    load_run_trajectories,
    profiles_from_directories,
    record_trajectories,
    run_cell,
    run_filename,
    run_grid,
    write_profile_csv,
    write_profile_files,
    write_run_csv,
)
from stepsqp.oracles import derive_stream
from stepsqp.sqp import RunRecord, RunStatus, SolverParams, run_log_dtype

SMALL_GRID = ExperimentGrid(
    problems=("P1", "hs6"),
    noise_pairs=((0.0, 0.0), (1e-2, 1e-1)),
    replicates=2,
    seed=7,
)


def _log_fields(infeas, kkt, zeroth, first):
    """A run-log row's fields but k for one accepted iteration with these metrics and call counts."""
    return dict(
        x=np.zeros(2),
        d=np.zeros(2),
        g_bar=np.zeros(2),
        alpha=1.0,
        tau_bar=0.1,
        delta_l=1.0,
        phi_bar_current=0.0,
        phi_bar_trial=0.0,
        f_bar_current=0.0,
        f_bar_trial=0.0,
        accepted=True,
        infeas_inf=infeas,
        kkt_inf=kkt,
        zeroth_calls=zeroth,
        first_calls=first,
        true_iter=False,
    )


def _finished_log(rows):
    """A read-only run log for n = 2 whose row k holds k and the fields rows[k] gives."""
    logs = np.zeros(len(rows), run_log_dtype(2))
    logs["k"] = np.arange(len(rows))
    for k, fields in enumerate(rows):
        for name, value in fields.items():
            logs[name][k] = value
    logs.flags.writeable = False
    return logs


def _make_record(rows, final_infeas, final_kkt):
    logs = _finished_log([_log_fields(infeas, kkt, 2 * (k + 1), k + 1)
                          for k, (infeas, kkt) in enumerate(rows)])
    return RunRecord(
        status=RunStatus.CONVERGED,
        iterations=logs,
        final_x=np.zeros(2),
        wall_time=0.0,
        final_infeas_inf=final_infeas,
        final_kkt_inf=final_kkt,
    )


def _reference_row(log):
    """One run-log row formatted value by value, as write_run_csv must print it."""
    values = operator.attrgetter(*CSV_COLUMNS)(log)
    return ",".join(str(int(v)) if isinstance(v, np.integer) else repr(float(v)) for v in values)


# 17-digit floats, the smallest subnormal and normal, signed zeros and
# infinities, NaN and the largest float.
EDGE_FLOATS = (
    0.1 + 0.2,
    1 / 3,
    -123456789.01234567,
    5e-324,
    2.2250738585072014e-308,
    -0.0,
    0.0,
    math.inf,
    -math.inf,
    math.nan,
    1.7976931348623157e308,
)


def _edge_record():
    """Every edge float in every float column, with ints past 2**32 and both bools."""
    n = len(EDGE_FLOATS)
    rows = []
    for k in range(n):
        alpha, tau_bar, delta_l, infeas, kkt = (EDGE_FLOATS[(k + j) % n] for j in range(5))
        rows.append({
            **_log_fields(infeas, kkt, 2**40 + 3 * k, 7 * k),
            "alpha": alpha, "tau_bar": tau_bar, "delta_l": delta_l,
            "accepted": k % 2 == 0, "true_iter": k % 3 == 0,
        })
    logs = _finished_log(rows)
    return RunRecord(RunStatus.BUDGET_EXHAUSTED, logs, np.zeros(2), 0.0)


class _ColumnsOnly(np.ndarray):
    """An array that gives fields by name and raises on any read of its rows."""

    def __getitem__(self, index):
        if not isinstance(index, str):
            raise TypeError("a row was read")
        return super().__getitem__(index)

    def __iter__(self):
        raise TypeError("a row was read")


def _logged_columns(record):
    return np.array(
        [[getattr(log, name) for name in _TRAJECTORY_COLUMNS] for log in record.iterations],
        dtype=np.float64,
    ).reshape(-1, len(_TRAJECTORY_COLUMNS)).T


class TestGridEnumeration:
    def test_default_pairs(self):
        assert DEFAULT_NOISE_PAIRS[0] == (0.0, 0.0)
        assert len(DEFAULT_NOISE_PAIRS) == 13
        assert len(set(DEFAULT_NOISE_PAIRS)) == 13

    def test_cell_counts(self):
        grid = ExperimentGrid(problems=("P1",))
        # 12 noisy pairs x 5 replicates plus one deterministic run.
        assert len(grid_cells(grid)) == 61
        grid2 = ExperimentGrid(problems=("P1",), replicates=2)
        assert len(grid_cells(grid2)) == 25
        lone = ExperimentGrid(problems=("P1",), noise_pairs=((0.0, 0.0),))
        assert len(grid_cells(lone)) == 1

    def test_cell_order_and_streams(self):
        cells = grid_cells(SMALL_GRID)
        assert [c.problem for c in cells] == ["P1"] * 3 + ["hs6"] * 3
        assert [(c.eps_f, c.eps_g, c.replicate) for c in cells[:3]] == [
            (0.0, 0.0, 0),
            (1e-2, 1e-1, 0),
            (1e-2, 1e-1, 1),
        ]
        for cell in cells:
            expected = derive_stream(7, cell.problem, (cell.eps_f, cell.eps_g), cell.replicate)
            assert cell.stream_id == expected
        assert len({c.stream_id for c in cells}) == len(cells)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one problem"):
            ExperimentGrid(problems=())
        with pytest.raises(ValueError, match="at least one noise pair"):
            ExperimentGrid(noise_pairs=())
        with pytest.raises(ValueError, match="replicates"):
            ExperimentGrid(replicates=0)
        with pytest.raises(ValueError, match="eps_f_noise"):
            ExperimentGrid(noise_pairs=((-1.0, 0.0),))
        with pytest.raises(ValueError, match="seed"):
            ExperimentGrid(seed=-1)

    def test_repeated_entries_rejected(self):
        with pytest.raises(ValueError, match="problem P2 more than once"):
            ExperimentGrid(problems=["P2", "P2"])
        # Pairs compare after float conversion.
        with pytest.raises(ValueError, match=r"noise pair \(0.0, 0.1\) more than once"):
            ExperimentGrid(noise_pairs=[[0, 0.1], [0.0, 0.1]])
        # Both pairs print as f0__g0.1, so their runs would write the same
        # CSVs and their profiles would merge under one label.
        message = (r"^grid noise pairs \(0\.0, 0\.1\) and \(0\.0, 0\.1000001\) share the "
                   r"label f0__g0\.1, which names their run and profile files$")
        with pytest.raises(ValueError, match=message):
            ExperimentGrid(problems=("P1", "hs6"), noise_pairs=[[0, 0.1], [0, 0.1000001]],
                           replicates=3)

    def test_negative_zero_noise_is_zero(self):
        signed = ExperimentGrid(problems=("P1",), noise_pairs=[[-0.0, 0.1]], replicates=1)
        plain = ExperimentGrid(problems=("P1",), noise_pairs=[[0.0, 0.1]], replicates=1)
        assert grid_cells(signed) == grid_cells(plain)
        (cell,) = grid_cells(signed)
        assert math.copysign(1.0, cell.eps_f) == 1.0
        assert run_filename(cell.problem, cell.eps_f, cell.eps_g, cell.replicate) == (
            "P1__f0__g0.1__r0.csv"
        )

    def test_problems_checked_at_construction(self):
        with pytest.raises(ValueError, match="list of problem names"):
            ExperimentGrid(problems="P1")
        with pytest.raises(ValueError, match="ghost"):
            ExperimentGrid(problems=("P1", "ghost"))

    def test_replicates_rejects_bool(self):
        with pytest.raises(ValueError, match="replicates"):
            ExperimentGrid(replicates=True)

    def test_replicates_bounded_above(self):
        top = ExperimentGrid(replicates=MAX_REPLICATES)
        assert len(grid_cells(top)) == 144_012  # 12 problems x (12 noisy pairs x 1000 + 1)
        for replicates in (MAX_REPLICATES + 1, 10**12):
            with pytest.raises(ValueError, match="replicates must be an integer from 1 to 1000"):
                ExperimentGrid(replicates=replicates)

    def test_noise_pairs_bounded_above(self):
        top = [[0.0, (i + 1) * 1e-6] for i in range(MAX_NOISE_PAIRS)]
        assert len(ExperimentGrid(problems=("P1",), noise_pairs=top).noise_pairs) == 100
        with pytest.raises(ValueError, match="noise_pairs must hold at most 100 pairs"):
            ExperimentGrid(noise_pairs=[*top, [0.0, 1.0]])

    @pytest.mark.parametrize(
        "pair, message",
        [
            ([True, 0.0], r"^grid\.noise_pairs\[1\]: eps_f_noise must be a number$"),
            ([0.0, "1e-2"], r"^grid\.noise_pairs\[1\]: eps_g_noise must be a number$"),
        ],
        ids=["bool", "string"],
    )
    def test_noise_levels_follow_the_oracle_number_rule(self, pair, message):
        with pytest.raises(ValueError, match=message):
            ExperimentGrid(noise_pairs=[[0.0, 0.0], pair])

    def test_run_cell_is_reproducible(self):
        cell = grid_cells(SMALL_GRID)[1]
        first = run_cell(SMALL_GRID, cell)
        second = run_cell(SMALL_GRID, cell)
        np.testing.assert_array_equal(first.final_x, second.final_x)
        assert len(first.iterations) == len(second.iterations)


class TestTrajectories:
    def test_final_metrics_extend_the_trajectory(self):
        record = _make_record([(2.0, 1.0), (1.0, 3.0)], final_infeas=0.5, final_kkt=0.25)
        trajs = record_trajectories(record)
        assert set(trajs) == {"infeasibility", "kkt"}
        np.testing.assert_array_equal(trajs["infeasibility"], [2.0, 1.0, 0.5])
        # The stationarity metric folds infeasibility in through a max.
        np.testing.assert_array_equal(trajs["kkt"], [2.0, 3.0, 0.5])

    def test_missing_final_metrics_drop_the_last_point(self):
        record = _make_record([(2.0, 1.0), (1.0, 3.0)], final_infeas=None, final_kkt=None)
        trajs = record_trajectories(record)
        assert set(trajs) == {"infeasibility", "kkt"}
        np.testing.assert_array_equal(trajs["infeasibility"], [2.0, 1.0])
        np.testing.assert_array_equal(trajs["kkt"], [2.0, 3.0])

    def test_empty_record_with_finals(self):
        record = _make_record([], final_infeas=2.0, final_kkt=0.0)
        trajs = record_trajectories(record)
        assert set(trajs) == {"infeasibility", "kkt"}
        np.testing.assert_array_equal(trajs["infeasibility"], [2.0])
        np.testing.assert_array_equal(trajs["kkt"], [2.0])


def _hand_run(values):
    """A run table entry whose two metrics take the same values."""
    values = np.array(values)
    return {"infeasibility": values, "kkt": values}


class TestConvergenceBudget:
    """first_hit: the index of the first point that passes the convergence test."""

    def test_hits_at_the_first_passing_index(self):
        assert first_hit(np.array([5.0, 3.0, 1.0]), m0=5.0, m_best=1.0) == 2

    def test_zero_gap_converges_immediately(self):
        assert first_hit(np.array([2.0, 2.0]), m0=2.0, m_best=2.0) == 0

    def test_fractional_target(self):
        # 0.5 closes half the gap; 1e-4 closes more than 1 - 1e-3 of it.
        assert first_hit(np.array([1.0, 0.5, 1e-4]), m0=1.0, m_best=0.0) == 2

    def test_non_strict_comparison(self):
        # 1 - 1e-3 of the gap exactly.
        assert first_hit(np.array([1.0, 1e-3]), m0=1.0, m_best=0.0) == 1

    def test_unreached_target_is_none(self):
        assert first_hit(np.array([5.0, 4.0]), m0=5.0, m_best=0.0) is None
        assert first_hit(np.array([]), m0=1.0, m_best=0.0) is None


class TestIterationBudgets:
    """One first hit per (run, metric), priced by its iteration index."""

    # Both start at 8 on both instances, and 0 is the best value reached.
    # On i1, A reaches 0 at iteration 1 and B at iteration 3. On i2, A
    # reaches 0 at iteration 2, and B never does.
    TABLE = {
        ("A", "i1"): _hand_run([8.0, 0.0, 0.0]),
        ("B", "i1"): _hand_run([8.0, 4.0, 2.0, 0.0]),
        ("A", "i2"): _hand_run([8.0, 1.0, 0.0]),
        ("B", "i2"): _hand_run([8.0, 8.0]),
    }

    def test_ratios_and_curves_per_metric(self):
        profiles = _table_profiles(self.TABLE)
        assert set(profiles) == {"infeasibility__iterations", "kkt__iterations"}
        for metric in ("infeasibility", "kkt"):
            # A's ratios are 1 and 1; B's are 3 on i1, and i2 is unsolved.
            assert profiles[f"{metric}__iterations"] == PerformanceProfile(
                ("i1", "i2"), {"A": [(1.0, 1.0)], "B": [(3.0, 0.5)]})

    def test_metrics_hit_at_different_points(self):
        # The kkt metric passes one iteration after infeasibility does, and
        # is priced at that later iteration.
        run = {
            "infeasibility": np.array([4.0, 0.0, 0.0]),
            "kkt": np.array([4.0, 2.0, 0.0]),
        }
        profiles = _table_profiles({("A", "i"): run, ("B", "i"): _hand_run([4.0, 0.0])})
        assert profiles["infeasibility__iterations"].curves == {
            "A": [(1.0, 1.0)], "B": [(1.0, 1.0)]}
        assert profiles["kkt__iterations"].curves == {"A": [(2.0, 1.0)], "B": [(1.0, 1.0)]}


# Budget tables of 1-4 solvers by 1-15 instances: unsolved, zero or positive.
_BUDGET = st.one_of(st.none(), st.just(0.0), st.floats(min_value=1e-3, max_value=1e6))
_BUDGET_TABLES = st.tuples(st.integers(1, 4), st.integers(1, 15)).flatmap(
    lambda shape: st.lists(
        st.lists(_BUDGET, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


def _reference_ratios(budgets, solver):
    """solver's finite performance ratios, computed here from the budgets.

    The ratio is the budget over the instance's best budget, 0/0 counts
    as 1, and an unsolved instance or a positive budget over a best of 0
    has no finite ratio.
    """
    ratios = []
    for inst, budget in budgets[solver].items():
        if budget is None:
            continue
        best = min(row[inst] for row in budgets.values() if row[inst] is not None)
        if best > 0.0:
            ratios.append(budget / best)
        elif budget == 0.0:
            ratios.append(1.0)
    return ratios


class TestBuildProfile:
    def test_two_solver_hand_fixture(self):
        profile = build_profile({"A": {"i1": 10.0}, "B": {"i1": 20.0}})
        assert profile.instances == ("i1",)
        assert profile.curves == {"A": [(1.0, 1.0)], "B": [(2.0, 1.0)]}

    def test_zero_budget_conventions(self):
        # 0/0 is ratio 1, a step at 1.0.
        both_zero = build_profile({"A": {"i": 0.0}, "B": {"i": 0.0}})
        assert both_zero.curves == {"A": [(1.0, 1.0)], "B": [(1.0, 1.0)]}
        # A positive budget over a best of 0 adds no step.
        one_zero = build_profile({"A": {"i": 0.0}, "B": {"i": 5.0}})
        assert one_zero.curves == {"A": [(1.0, 1.0)], "B": []}

    def test_unsolved_instances(self):
        profile = build_profile({"A": {"i": 3.0, "j": None}, "B": {"i": None, "j": None}})
        # A solved one instance of two; B solved none and has no step.
        assert profile == PerformanceProfile(("i", "j"), {"A": [(1.0, 0.5)], "B": []})

    @settings(derandomize=True, database=None)
    @given(table=_BUDGET_TABLES)
    def test_rho_is_a_monotone_cdf(self, table):
        budgets = {
            f"s{i}": {f"i{j}": budget for j, budget in enumerate(row)}
            for i, row in enumerate(table)
        }
        profile = build_profile(budgets)
        instances = [f"i{j}" for j in range(len(table[0]))]
        assert profile.instances == tuple(instances)
        assert list(profile.curves) == list(budgets)
        for solver, curve in profile.curves.items():
            finite = _reference_ratios(budgets, solver)
            taus = [tau for tau, _ in curve]
            rhos = [rho for _, rho in curve]
            # One step per distinct finite ratio, rising strictly in both.
            assert taus == sorted(set(finite))
            assert rhos == sorted(set(rhos))
            assert all(0.0 < rho <= 1.0 for rho in rhos)
            # Each step is the fraction of instances solved within its tau.
            for tau, rho in curve:
                assert rho == sum(r <= tau for r in finite) / len(instances)


class TestNamingAndFiles:
    def test_labels(self):
        assert config_label(0.0, 0.0) == "f0__g0"
        assert config_label(1e-2, 1e-1) == "f0.01__g0.1"
        assert run_filename("P1", 0.0, 1e-1, 2) == "P1__f0__g0.1__r2.csv"
        assert run_filename("P2", 1e-4, 1e-2, 0) == "P2__f0.0001__g0.01__r0.csv"

    def test_run_csv_layout(self, tmp_path):
        record = _make_record([(2.0, 1.0)], final_infeas=0.5, final_kkt=0.25)
        path = tmp_path / "run.csv"
        write_run_csv(path, record)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        fields = lines[1].split(",")
        assert fields[0] == "0"
        assert fields[1] == "1.0"
        assert fields[4] == "1"
        assert fields[-1] == "0"  # true_iter

    def test_empty_run_csv_is_header_only(self, tmp_path):
        record = _make_record([], final_infeas=None, final_kkt=None)
        path = tmp_path / "empty.csv"
        write_run_csv(path, record)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_run_csv_matches_the_reference_formatter(self, tmp_path):
        record = _edge_record()
        path = tmp_path / "run.csv"
        write_run_csv(path, record)
        lines = [",".join(CSV_COLUMNS)] + [_reference_row(log) for log in record.iterations]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_run_csv_round_trip_is_bit_exact(self, tmp_path):
        record = _edge_record()
        path = tmp_path / "run.csv"
        write_run_csv(path, record)
        parsed = _read_run_columns(path)
        logged = _logged_columns(record)
        np.testing.assert_array_equal(parsed.view(np.uint64), logged.view(np.uint64))

    def test_run_csv_and_trajectory_columns_build_no_rows(self, tmp_path):
        record = _edge_record()
        lines = [",".join(CSV_COLUMNS)] + [_reference_row(log) for log in record.iterations]
        # From here on, reading a row of the run log raises.
        record.iterations = record.iterations.view(_ColumnsOnly)
        path = tmp_path / "run.csv"
        write_run_csv(path, record)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        # The edge floats include inf and nan, which no trajectory may hold.
        with pytest.raises(ValueError, match="finite"):
            record_trajectories(record)
        finite = _make_record([(2.0, 1.0), (0.5, 3.0)], final_infeas=0.25, final_kkt=0.125)
        finite.iterations = finite.iterations.view(_ColumnsOnly)
        trajs = record_trajectories(finite)
        assert trajs["infeasibility"].tolist() == [2.0, 0.5, 0.25]
        assert trajs["kkt"].tolist() == [2.0, 3.0, 0.25]
        with pytest.raises(TypeError):
            record.iterations[0]
        with pytest.raises(TypeError):
            iter(record.iterations)

    @pytest.mark.parametrize("write", [
        lambda path: write_run_csv(path, _edge_record()),
        lambda path: write_profile_csv(path, [(1.0, 0.5)]),
    ], ids=["run-csv", "profile-csv"])
    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write(path)
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_profile_csv(self, tmp_path):
        path = tmp_path / "profile.csv"
        write_profile_csv(path, [(1.0, 0.5), (2.5, 1.0)])
        assert path.read_text() == "tau,rho\n1.0,0.5\n2.5,1.0\n"


def solve_small_grid(out):
    """SMALL_GRID written by run_grid into out, and the same grid solved in memory to check by."""
    summary = run_grid(SMALL_GRID, out_dir=out)
    cells = grid_cells(SMALL_GRID)
    records = [run_cell(SMALL_GRID, cell) for cell in cells]
    profiles = build_grid_profiles(SMALL_GRID, cells, records)
    return out, GridResult(SMALL_GRID, cells, records, profiles, summary["wall_time_s"])


@pytest.fixture(scope="module")
def small_result(tmp_path_factory):
    return solve_small_grid(tmp_path_factory.mktemp("grid"))


class TestRunGrid:
    def test_all_cells_ran(self, small_result):
        out, result = small_result
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert len(runs) == 6
        statuses = [entry["status"] for entry in runs]
        assert statuses == [rec.status.value for rec in result.records]
        assert set(statuses) <= {RunStatus.CONVERGED.value, RunStatus.BUDGET_EXHAUSTED.value}

    def test_output_files(self, small_result):
        out, result = small_result
        for cell in result.cells:
            name = run_filename(cell.problem, cell.eps_f, cell.eps_g, cell.replicate)
            assert (out / name).is_file()
        assert (out / "summary.json").is_file()
        expected_keys = {"infeasibility__iterations", "kkt__iterations"}
        assert set(result.profiles) == expected_keys
        for key in expected_keys:
            for solver in result.profiles[key].curves:
                assert (out / f"profile__{key}__{solver}.csv").is_file()

    def test_summary_contents(self, small_result):
        out, result = small_result
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grid"]["problems"] == ["P1", "hs6"]
        assert summary["grid"]["replicates"] == 2
        assert summary["grid"]["seed"] == 7
        assert summary["grid"]["params"]["max_iters"] == 1000
        assert len(summary["runs"]) == 6
        for entry, cell in zip(summary["runs"], result.cells):
            assert entry["problem"] == cell.problem
            assert entry["stream_id"] == cell.stream_id

    def test_returns_the_summary_it_wrote(self, tmp_path):
        summary = run_grid(SMALL_GRID, out_dir=tmp_path)
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "summary.json").read_text() == text

    def test_deterministic_run_spans_replicate_instances(self, small_result):
        _, result = small_result
        profile = result.profiles["kkt__iterations"]
        assert set(profile.curves) == {"f0__g0", "f0.01__g0.1"}
        assert set(profile.instances) == {"P1__r0", "P1__r1", "hs6__r0", "hs6__r1"}
        # The single deterministic run provides a finite budget on every
        # replicate instance of its problem, so its curve reaches 1.
        assert profile.curves["f0__g0"][-1][1] == 1.0

    def test_round_trip_through_files(self, small_result):
        out, result = small_result
        grid, runs = load_run_trajectories(out)
        assert grid == SMALL_GRID
        assert [cell for cell, _ in runs] == result.cells
        for (_, trajs), record in zip(runs, result.records):
            fresh = record_trajectories(record)
            assert set(trajs) == set(fresh)
            for key in fresh:
                np.testing.assert_array_equal(trajs[key], fresh[key])

    def test_run_csv_columns_are_read_by_name(self, small_result, tmp_path):
        out, result = small_result
        copy = tmp_path / "reversed"
        shutil.copytree(out, copy)
        for entry in json.loads((copy / "summary.json").read_text())["runs"]:
            path = copy / entry["csv"]
            rows = [line.split(",") for line in path.read_text().splitlines()]
            path.write_text("".join(",".join(reversed(row)) + "\n" for row in rows))
        assert profiles_from_directories([copy]) == result.profiles

    def test_written_profiles_match_profiles_built_in_memory(self, small_result, tmp_path):
        out, result = small_result
        write_profile_files(result.profiles, tmp_path)
        expected = {p.name: p.read_bytes() for p in tmp_path.glob("profile__*.csv")}
        assert len(expected) == 4
        assert {p.name: p.read_bytes() for p in out.glob("profile__*.csv")} == expected

    def test_profiles_rebuilt_from_files_match(self, small_result):
        out, result = small_result
        assert profiles_from_directories([out]) == result.profiles

    def test_multiple_directories_prefix_labels(self, small_result, tmp_path):
        out, _ = small_result
        other = tmp_path / "again"
        run_grid(SMALL_GRID, out_dir=other)
        profiles = profiles_from_directories([out, other])
        solvers = set(profiles["kkt__iterations"].curves)
        assert solvers == {
            f"{out.name}__f0__g0",
            f"{out.name}__f0.01__g0.1",
            "again__f0__g0",
            "again__f0.01__g0.1",
        }

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        serial = tmp_path / "serial"
        threaded = tmp_path / "threaded"
        run_grid(SMALL_GRID, out_dir=serial, jobs=1)
        run_grid(SMALL_GRID, out_dir=threaded, jobs=4)
        names = sorted(p.name for p in serial.glob("*.csv"))
        assert names == sorted(p.name for p in threaded.glob("*.csv"))
        assert len(names) > 6  # run CSVs plus profile curves
        for name in names:
            assert (serial / name).read_bytes() == (threaded / name).read_bytes()
        assert _summary_without_wall_times(serial) == _summary_without_wall_times(threaded)

    def test_bad_jobs_rejected(self, tmp_path):
        # bool is an int subclass; True must not pass for 1 worker.
        for jobs in (0, True):
            with pytest.raises(ValueError, match="jobs"):
                run_grid(SMALL_GRID, out_dir=tmp_path, jobs=jobs)
            assert list(tmp_path.iterdir()) == []

    def test_a_grid_that_stops_leaves_no_summary(self, tmp_path, monkeypatch):
        # The directory holds another grid's whole output; the new grid
        # overwrites two of its CSVs and then fails on its third cell.
        other = dataclasses.replace(SMALL_GRID, seed=8, params=SolverParams(max_iters=20))
        run_grid(other, out_dir=tmp_path)
        solved = []

        def third_cell_raises(grid, cell):
            if len(solved) == 2:
                raise RuntimeError("cell failed")
            solved.append(cell)
            return run_cell(grid, cell)

        monkeypatch.setattr(bench, "run_cell", third_cell_raises)
        with pytest.raises(RuntimeError, match="cell failed"):
            run_grid(SMALL_GRID, out_dir=tmp_path)
        assert not (tmp_path / "summary.json").exists()
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["profile", str(tmp_path), "--out", str(tmp_path / "p")]) == 1
        assert "has no summary.json" in err.getvalue()

    def test_serial_grid_holds_one_record_at_a_time(self, tmp_path, monkeypatch):
        refs, alive = [], []

        def tracked(grid, cell):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            record = run_cell(grid, cell)
            refs.append(weakref.ref(record))
            return record

        monkeypatch.setattr(bench, "run_cell", tracked)
        run_grid(SMALL_GRID, out_dir=tmp_path, jobs=1)
        assert alive == [[False] * i for i in range(6)]

    def test_workers_return_only_their_summary_entry(self, tmp_path, monkeypatch):
        returned = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                for result in super().map(fn, *iterables, **kwargs):
                    returned.append(result)
                    yield result

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        summary = run_grid(SMALL_GRID, out_dir=tmp_path, jobs=2)
        assert returned == summary["runs"]
        assert max(entry["iterations"] for entry in returned) >= 300
        for entry in returned:
            assert json.loads(json.dumps(entry)) == entry
            data = pickle.dumps(entry)
            # The entry's fields alone, however many iterations the run took.
            assert len(data) <= 512
            assert b"numpy" not in data and b"stepsqp" not in data

    def test_missing_summary_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="summary.json"):
            load_run_trajectories(tmp_path)
        with pytest.raises(ValueError, match="no run directories given"):
            profiles_from_directories([])


def _summary_without_wall_times(out_dir):
    summary = json.loads((out_dir / "summary.json").read_text())
    del summary["wall_time_s"]
    for entry in summary["runs"]:
        del entry["wall_time_s"]
    return summary


class TestBuildGridProfiles:
    def test_single_deterministic_cell(self):
        grid = ExperimentGrid(problems=("P2",), noise_pairs=((0.0, 0.0),), replicates=1)
        cells = grid_cells(grid)
        records = [run_cell(grid, cell) for cell in cells]
        profiles = build_grid_profiles(grid, cells, records)
        for profile in profiles.values():
            assert profile == PerformanceProfile(("P2__r0",), {"f0__g0": [(1.0, 1.0)]})


class TestProfileValidation:
    """Run CSVs read back by profiles_from_directories are checked once per run."""

    @pytest.mark.parametrize(
        "column, row, value, message",
        [
            ("kkt_inf", 1, "nan", "finite"),
            ("infeas_inf", 1, "inf", "finite"),
            ("kkt_inf", 0, "0.5x", "could not convert"),
        ],
    )
    def test_doctored_csv_rejected(self, small_result, tmp_path, column, row, value, message):
        out, _ = small_result
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = doctor_run_csv(copy, column, row, value)
        with pytest.raises(ValueError, match=message) as info:
            profiles_from_directories([copy])
        assert path.name in str(info.value)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda text: "", "has no header"),
            (lambda text: text[: text.index("\n") // 2], "ends mid-line"),
            (
                lambda text: "".join(text.splitlines(keepends=True)[:-200]),
                "rows where summary.json records",
            ),
            (lambda text: text.replace("kkt_inf", "kkt", 1), "has no 'kkt_inf' column"),
        ],
        ids=["zero-bytes", "cut-header", "rows-removed", "missing-column"],
    )
    def test_damaged_csv_rejected(self, small_result, tmp_path, damage, message):
        out, _ = small_result
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        runs = json.loads((copy / "summary.json").read_text())["runs"]
        longest = max(runs, key=lambda entry: entry["iterations"])
        assert longest["iterations"] >= 300
        path = copy / longest["csv"]
        path.write_text(damage(path.read_text()))
        with pytest.raises(ValueError, match=message) as info:
            profiles_from_directories([copy])
        assert str(path) in str(info.value)

    def test_header_only_csv_is_a_zero_iteration_run(self, tmp_path):
        grid = ExperimentGrid(
            problems=("P2",), noise_pairs=((0.0, 0.0),), replicates=1,
            params=SolverParams(max_iters=0),
        )
        run_grid(grid, out_dir=tmp_path)
        (cell,) = grid_cells(grid)
        record = run_cell(grid, cell)
        assert len(record.iterations) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, [(_, trajs)] = load_run_trajectories(tmp_path)
        fresh = record_trajectories(record)
        assert set(trajs) == set(fresh)
        for metric in ("infeasibility", "kkt"):
            np.testing.assert_array_equal(trajs[metric], fresh[metric])


MIXED_GRID = ExperimentGrid(
    problems=("P1", "P2"),
    noise_pairs=((0.0, 0.0), (1e-2, 1e-1)),
    replicates=2,
    params=SolverParams(max_iters=50),
    seed=3,
)


class TestCommonInstances:
    def test_directories_compare_on_their_common_instances(self, tmp_path):
        both = tmp_path / "both"
        only_p1 = tmp_path / "only_p1"
        run_grid(MIXED_GRID, out_dir=both)
        run_grid(dataclasses.replace(MIXED_GRID, problems=("P1",)), out_dir=only_p1)
        for profile in profiles_from_directories([both, only_p1]).values():
            assert profile.instances == ("P1__r0", "P1__r1")
            assert len(profile.curves) == 4
        # Alone, each directory keeps all of its instances.
        alone = profiles_from_directories([both])["kkt__iterations"]
        assert alone.instances == ("P1__r0", "P1__r1", "P2__r0", "P2__r1")

    def test_deterministic_run_covers_its_own_replicates(self, tmp_path):
        two, three = tmp_path / "two", tmp_path / "three"
        run_grid(MIXED_GRID, out_dir=two)
        run_grid(dataclasses.replace(MIXED_GRID, replicates=3), out_dir=three)
        for profile in profiles_from_directories([two, three]).values():
            # The third replicate is not common: the two-replicate
            # directory's (0, 0) run does not stand in for it.
            assert profile.instances == ("P1__r0", "P1__r1", "P2__r0", "P2__r1")
            # Every configuration solves every instance.
            assert all(curve and curve[-1][1] == 1.0 for curve in profile.curves.values())
        # Alone, the three-replicate directory's (0, 0) run covers all three.
        alone = profiles_from_directories([three])["kkt__iterations"]
        assert alone.instances[-1] == "P2__r2"
        assert alone.curves["f0__g0"][-1][1] == 1.0

    def test_disjoint_directories_rejected(self, tmp_path):
        p1, p2 = tmp_path / "p1", tmp_path / "p2"
        run_grid(dataclasses.replace(MIXED_GRID, problems=("P1",)), out_dir=p1)
        run_grid(dataclasses.replace(MIXED_GRID, problems=("P2",)), out_dir=p2)
        with pytest.raises(ValueError, match="share no instances"):
            profiles_from_directories([p1, p2])
