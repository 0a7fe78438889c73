"""Tests for the benchmark harness: grids, trajectories, budgets, profiles."""

import dataclasses
import json
import math
import operator
import shutil
import warnings

import numpy as np
import pytest
from reference import doctor_run_csv

from stepsqp.bench import (
    CSV_COLUMNS,
    DEFAULT_NOISE_PAIRS,
    EmptyInputError,
    ExperimentGrid,
    Trajectory,
    _read_run_columns,
    build_grid_profiles,
    build_profile,
    config_label,
    convergence_budget,
    grid_cells,
    load_run_trajectories,
    profiles_from_directories,
    record_trajectories,
    run_cell,
    run_filename,
    run_grid,
    write_profile_csv,
    write_run_csv,
)
from stepsqp.oracles import derive_stream
from stepsqp.sqp import IterationLog, RunRecord, RunStatus, SolverParams

SMALL_GRID = ExperimentGrid(
    problems=("P1", "hs6"),
    noise_pairs=((0.0, 0.0), (1e-2, 1e-1)),
    replicates=2,
    seed=7,
)


def _make_log(k, infeas, kkt, zeroth, first):
    return IterationLog(
        k=k,
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
    )


def _make_record(rows, final_infeas, final_kkt):
    logs = [
        _make_log(k, infeas, kkt, 2 * (k + 1), k + 1)
        for k, (infeas, kkt) in enumerate(rows)
    ]
    return RunRecord(
        status=RunStatus.CONVERGED,
        iterations=logs,
        final_x=np.zeros(2),
        wall_time=0.0,
        final_infeas_inf=final_infeas,
        final_kkt_inf=final_kkt,
    )


def _reference_row(log):
    """The per-value run-CSV row formatter that write_run_csv's template replaced."""
    values = operator.attrgetter(*CSV_COLUMNS)(log)
    return ",".join(str(int(v)) if isinstance(v, int) else repr(v) for v in values)


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
    logs = []
    for k in range(n):
        alpha, tau_bar, delta_l, infeas, kkt = (EDGE_FLOATS[(k + j) % n] for j in range(5))
        log = _make_log(k, infeas, kkt, 2**40 + 3 * k, 7 * k)
        logs.append(dataclasses.replace(
            log, alpha=alpha, tau_bar=tau_bar, delta_l=delta_l,
            accepted=k % 2 == 0, true_iter=k % 3 == 0,
        ))
    return RunRecord(RunStatus.BUDGET_EXHAUSTED, logs, np.zeros(2), 0.0)


def _logged_columns(record):
    return np.array(
        [(log.infeas_inf, log.kkt_inf, log.zeroth_calls, log.first_calls)
         for log in record.iterations],
        dtype=np.float64,
    ).reshape(-1, 4).T


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
        np.testing.assert_array_equal(trajs["infeasibility"].values, [2.0, 1.0, 0.5])
        np.testing.assert_array_equal(trajs["infeasibility"].work, [0.0, 3.0, 6.0])
        # The stationarity metric folds infeasibility in through a max.
        np.testing.assert_array_equal(trajs["kkt"].values, [2.0, 3.0, 0.5])
        np.testing.assert_array_equal(trajs["kkt"].work, [0.0, 3.0, 6.0])

    def test_missing_final_metrics_drop_the_last_point(self):
        record = _make_record([(2.0, 1.0), (1.0, 3.0)], final_infeas=None, final_kkt=None)
        trajs = record_trajectories(record)
        np.testing.assert_array_equal(trajs["infeasibility"].values, [2.0, 1.0])
        np.testing.assert_array_equal(trajs["infeasibility"].work, [0.0, 3.0])

    def test_empty_record_with_finals(self):
        record = _make_record([], final_infeas=2.0, final_kkt=0.0)
        trajs = record_trajectories(record)
        np.testing.assert_array_equal(trajs["kkt"].values, [2.0])
        np.testing.assert_array_equal(trajs["kkt"].work, [0.0])


class TestConvergenceBudget:
    def test_hits_at_the_recorded_work(self):
        traj = Trajectory(np.array([5.0, 3.0, 1.0]), np.array([0.0, 3.0, 6.0]))
        assert convergence_budget(traj, m0=5.0, m_best=1.0) == 6.0

    def test_zero_gap_converges_immediately(self):
        traj = Trajectory(np.array([2.0, 2.0]), np.array([0.0, 3.0]))
        assert convergence_budget(traj, m0=2.0, m_best=2.0) == 0.0

    def test_fractional_target(self):
        traj = Trajectory(np.array([1.0, 0.5, 1e-4]), np.array([0.0, 5.0, 9.0]))
        assert convergence_budget(traj, m0=1.0, m_best=0.0, eps_pp=1e-3) == 9.0

    def test_non_strict_comparison(self):
        traj = Trajectory(np.array([1.0, 1e-3]), np.array([0.0, 4.0]))
        assert convergence_budget(traj, m0=1.0, m_best=0.0, eps_pp=1e-3) == 4.0

    def test_unreached_target_is_none(self):
        traj = Trajectory(np.array([5.0, 4.0]), np.array([0.0, 3.0]))
        assert convergence_budget(traj, m0=5.0, m_best=0.0) is None
        empty = Trajectory(np.array([]), np.array([]))
        assert convergence_budget(empty, m0=1.0, m_best=0.0) is None

    def test_budget_grows_with_tighter_tolerance(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            size = int(rng.integers(2, 30))
            drops = rng.random(size)
            values = 10.0 - np.cumsum(drops)
            values = np.concatenate([[10.0], values])
            work = np.cumsum(rng.integers(1, 5, size=values.size)).astype(float)
            work -= work[0]
            traj = Trajectory(values, work)
            m_best = float(values.min())
            loose = convergence_budget(traj, 10.0, m_best, eps_pp=1e-1)
            tight = convergence_budget(traj, 10.0, m_best, eps_pp=1e-3)
            assert loose is not None and tight is not None
            assert loose <= tight
            assert loose in work and tight in work


class TestBuildProfile:
    def test_two_solver_hand_fixture(self):
        profile = build_profile({"A": {"i1": 10.0}, "B": {"i1": 20.0}})
        assert profile.ratios[("A", "i1")] == 1.0
        assert profile.ratios[("B", "i1")] == 2.0
        assert profile.rho("A", 1.0) == 1.0
        assert profile.rho("B", 1.0) == 0.0
        assert profile.rho("B", 2.0) == 1.0
        assert profile.curves["A"] == [(1.0, 1.0)]
        assert profile.curves["B"] == [(2.0, 1.0)]

    def test_zero_budget_conventions(self):
        both_zero = build_profile({"A": {"i": 0.0}, "B": {"i": 0.0}})
        assert both_zero.ratios[("A", "i")] == 1.0
        assert both_zero.ratios[("B", "i")] == 1.0
        one_zero = build_profile({"A": {"i": 0.0}, "B": {"i": 5.0}})
        assert one_zero.ratios[("A", "i")] == 1.0
        assert one_zero.ratios[("B", "i")] == math.inf

    def test_unsolved_instances(self):
        profile = build_profile({"A": {"i": 3.0, "j": None}, "B": {"i": None, "j": None}})
        assert profile.ratios[("A", "j")] == math.inf
        assert profile.ratios[("B", "i")] == math.inf
        assert profile.ratios[("B", "j")] == math.inf
        assert profile.rho("A", 100.0) == 0.5
        assert profile.rho("B", 100.0) == 0.0

    def test_empty_inputs(self):
        with pytest.raises(EmptyInputError):
            build_profile({})
        with pytest.raises(EmptyInputError):
            build_profile({"A": {}})

    def test_mismatched_instance_sets(self):
        with pytest.raises(ValueError, match="different instance set"):
            build_profile({"A": {"i": 1.0}, "B": {"j": 1.0}})

    def test_invalid_budgets(self):
        with pytest.raises(ValueError, match="finite"):
            build_profile({"A": {"i": -1.0}})
        with pytest.raises(ValueError, match="finite"):
            build_profile({"A": {"i": math.inf}})

    def test_rho_is_a_monotone_cdf(self):
        rng = np.random.default_rng(9)
        budgets = {
            solver: {
                f"i{j}": None if rng.random() < 0.2 else float(rng.integers(1, 50))
                for j in range(12)
            }
            for solver in ("A", "B", "C")
        }
        profile = build_profile(budgets)
        taus = [1.0, 1.5, 2.0, 4.0, 16.0, 1e6]
        for solver in profile.solvers:
            values = [profile.rho(solver, tau) for tau in taus]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert values == sorted(values)
            # The curve's sampled points agree with rho itself.
            for tau, rho in profile.curves[solver]:
                assert profile.rho(solver, tau) == rho


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

    def test_profile_csv(self, tmp_path):
        path = tmp_path / "profile.csv"
        write_profile_csv(path, [(1.0, 0.5), (2.5, 1.0)])
        assert path.read_text() == "tau,rho\n1.0,0.5\n2.5,1.0\n"


@pytest.fixture(scope="module")
def small_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    result = run_grid(SMALL_GRID, out_dir=out)
    return out, result


class TestRunGrid:
    def test_all_cells_ran(self, small_result):
        _, result = small_result
        assert len(result.records) == 6
        assert result.failed_cells == []
        statuses = {rec.status for rec in result.records}
        assert statuses <= {RunStatus.CONVERGED, RunStatus.BUDGET_EXHAUSTED}

    def test_output_files(self, small_result):
        out, result = small_result
        for cell in result.cells:
            name = run_filename(cell.problem, cell.eps_f, cell.eps_g, cell.replicate)
            assert (out / name).is_file()
        assert (out / "summary.json").is_file()
        expected_keys = {
            "infeasibility__iterations",
            "infeasibility__work",
            "kkt__iterations",
            "kkt__work",
        }
        assert set(result.profiles) == expected_keys
        for key in expected_keys:
            for solver in result.profiles[key].solvers:
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

    def test_deterministic_run_spans_replicate_instances(self, small_result):
        _, result = small_result
        profile = result.profiles["kkt__work"]
        assert set(profile.solvers) == {"f0__g0", "f0.01__g0.1"}
        assert set(profile.instances) == {"P1__r0", "P1__r1", "hs6__r0", "hs6__r1"}
        # The single deterministic run provides a finite budget on every
        # replicate instance of its problem.
        for inst in profile.instances:
            assert math.isfinite(profile.ratios[("f0__g0", inst)])

    def test_round_trip_through_files(self, small_result):
        out, result = small_result
        grid, runs = load_run_trajectories(out)
        assert grid["replicates"] == 2
        assert [cell for cell, _ in runs] == result.cells
        for (_, trajs), record in zip(runs, result.records):
            fresh = record_trajectories(record)
            for metric in ("infeasibility", "kkt"):
                np.testing.assert_array_equal(trajs[metric].values, fresh[metric].values)
                np.testing.assert_array_equal(trajs[metric].work, fresh[metric].work)

    def test_run_csv_columns_are_read_by_name(self, small_result, tmp_path):
        out, result = small_result
        copy = tmp_path / "reversed"
        shutil.copytree(out, copy)
        for entry in json.loads((copy / "summary.json").read_text())["runs"]:
            path = copy / entry["csv"]
            rows = [line.split(",") for line in path.read_text().splitlines()]
            path.write_text("".join(",".join(reversed(row)) + "\n" for row in rows))
        rebuilt = profiles_from_directories([copy])
        for key, profile in result.profiles.items():
            assert rebuilt[key].ratios == profile.ratios
            assert rebuilt[key].curves == profile.curves

    def test_profiles_rebuilt_from_files_match(self, small_result):
        out, result = small_result
        rebuilt = profiles_from_directories([out])
        assert set(rebuilt) == set(result.profiles)
        for key, profile in result.profiles.items():
            assert rebuilt[key].ratios == profile.ratios
            assert rebuilt[key].curves == profile.curves

    def test_multiple_directories_prefix_labels(self, small_result, tmp_path):
        out, _ = small_result
        other = tmp_path / "again"
        run_grid(SMALL_GRID, out_dir=other)
        profiles = profiles_from_directories([out, other])
        solvers = set(profiles["kkt__work"].solvers)
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

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_grid(SMALL_GRID, jobs=0)

    def test_missing_summary_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="summary.json"):
            load_run_trajectories(tmp_path)
        with pytest.raises(EmptyInputError):
            profiles_from_directories([])


class TestBuildGridProfiles:
    def test_single_deterministic_cell(self):
        grid = ExperimentGrid(problems=("P2",), noise_pairs=((0.0, 0.0),), replicates=1)
        cells = grid_cells(grid)
        records = [run_cell(grid, cell) for cell in cells]
        profiles = build_grid_profiles(grid, cells, records)
        for profile in profiles.values():
            assert profile.solvers == ("f0__g0",)
            assert profile.instances == ("P2__r0",)
            assert profile.ratios[("f0__g0", "P2__r0")] == 1.0


class TestProfileValidation:
    """Run CSVs read back by profiles_from_directories are checked once per run."""

    @pytest.mark.parametrize(
        "column, row, value, message",
        [
            ("kkt_inf", 1, "nan", "finite"),
            ("infeas_inf", 1, "inf", "finite"),
            ("zeroth_calls", 2, "0", "non-decreasing"),
            ("zeroth_calls", 0, "-5", "non-negative"),
            ("first_calls", 1, "2.5", "call counts must be integers"),
            ("zeroth_calls", 1, "inf", "call counts must be integers"),
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
        result = run_grid(grid, out_dir=tmp_path)
        (record,) = result.records
        assert record.iterations == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, [(_, trajs)] = load_run_trajectories(tmp_path)
        fresh = record_trajectories(record)
        for metric in ("infeasibility", "kkt"):
            np.testing.assert_array_equal(trajs[metric].values, fresh[metric].values)
            np.testing.assert_array_equal(trajs[metric].work, [0.0])


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
            assert len(profile.solvers) == 4
        # Alone, each directory keeps all of its instances.
        alone = profiles_from_directories([both])["kkt__work"]
        assert alone.instances == ("P1__r0", "P1__r1", "P2__r0", "P2__r1")

    def test_deterministic_run_covers_its_own_replicates(self, tmp_path):
        two, three = tmp_path / "two", tmp_path / "three"
        run_grid(MIXED_GRID, out_dir=two)
        run_grid(dataclasses.replace(MIXED_GRID, replicates=3), out_dir=three)
        for profile in profiles_from_directories([two, three]).values():
            # The third replicate is not common: the two-replicate
            # directory's (0, 0) run does not stand in for it.
            assert profile.instances == ("P1__r0", "P1__r1", "P2__r0", "P2__r1")
            assert all(math.isfinite(r) for r in profile.ratios.values())
        # Alone, the three-replicate directory's (0, 0) run covers all three.
        alone = profiles_from_directories([three])["kkt__work"]
        assert alone.instances[-1] == "P2__r2"
        assert math.isfinite(alone.ratios[("f0__g0", "P2__r2")])

    def test_disjoint_directories_rejected(self, tmp_path):
        p1, p2 = tmp_path / "p1", tmp_path / "p2"
        run_grid(dataclasses.replace(MIXED_GRID, problems=("P1",)), out_dir=p1)
        run_grid(dataclasses.replace(MIXED_GRID, problems=("P2",)), out_dir=p2)
        with pytest.raises(EmptyInputError, match="share no instances"):
            profiles_from_directories([p1, p2])
