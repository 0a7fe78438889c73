"""Tests of the benchmark's own arithmetic and correctness gate.

    python3 -m pytest perfbench -q
"""

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from stats import Tally, median_over_passes, percentile, samples_beyond, tail_percentile  # noqa: E402
from stepsqp import bench  # noqa: E402
from stepsqp.sqp import SolverParams  # noqa: E402


# -- percentiles and the sample-count rule ----------------------------------


@pytest.mark.parametrize(
    "n, label",
    [(0, None), (19, None), (20, "p50"), (99, "p50"), (100, "p90"), (999, "p90"),
     (1000, "p99"), (9999, "p99"), (10000, "p99.9")],
)
def test_tail_percentile_needs_ten_samples_beyond(n, label):
    assert tail_percentile(n) == label


def test_samples_beyond_floors_without_rounding_error():
    assert samples_beyond(100, 0.90) == 10
    assert samples_beyond(105, 0.90) == 10
    assert samples_beyond(99, 0.90) == 9
    assert samples_beyond(1000, 0.99) == 10


def test_percentile_is_an_observed_value_and_rejects_empty():
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 3.0
    assert percentile(list(range(101)), 0.9) == 90.0
    assert percentile(list(range(100)), 0.9) == 90.0  # position 89.1
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_median_holds_when_one_cell_crosses_a_gap():
    # Four cells split evenly around a gap. With one more seed, one fast
    # cell becomes slow: an interpolated median jumps from mid-gap to the
    # slow side; the observed upper median stays a slow cell's time.
    before = [1.0, 1.1, 10.0, 10.2]
    after = [1.0, 9.8, 10.0, 10.2]
    assert np.median(before) == pytest.approx(5.55)
    assert np.median(after) == pytest.approx(9.9)
    assert percentile(before, 0.5) == 10.0
    assert percentile(after, 0.5) == 10.0


def test_median_over_passes_takes_a_typical_run_of_one_cell():
    # The middle cell took 10, 11 and 9 in three passes; pooled, the
    # median would be its fastest run.
    passes = [[1.0, 1.1, 10.0, 12.0], [1.0, 1.1, 11.0, 12.0], [1.0, 1.1, 9.0, 12.0]]
    assert median_over_passes(passes, 0.5) == 10.0
    assert percentile([t for p in passes for t in p], 0.5) == 9.0
    # Ten cells, the slowest at 20: each pass's p90 is that cell's run.
    tens = [[float(c) for c in range(9)] + [20.0 + d] for d in (0.0, 1.0, -1.0, 2.0, 0.5)]
    assert median_over_passes(tens, 0.9) == 20.5
    with pytest.raises(ValueError):
        median_over_passes([[]], 0.5)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # A[0,10] holds B[1,6] and D[7,9]; B holds C[2,3].
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    np.testing.assert_allclose(spans.self_times(start, end, parent), [3.0, 4.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_on_two_threads_once():
    # P[0,10] on one thread; X[1,5] and Y[3,8] on two workers overlap in [3,5].
    start = [0.0, 1.0, 3.0]
    end = [10.0, 5.0, 8.0]
    parent = [-1, 0, 0]
    np.testing.assert_allclose(spans.self_times(start, end, parent), [3.0, 4.0, 5.0])
    assert spans.busy_time(start, end) == pytest.approx(10.0)
    assert spans.busy_time(start[1:], end[1:]) == pytest.approx(7.0)


def test_self_time_clips_children_to_the_parent():
    np.testing.assert_allclose(spans.self_times([0.0, 8.0], [10.0, 12.0], [-1, 0]), [8.0, 4.0])


def test_self_time_keeps_groups_of_different_parents_apart():
    # Two roots, each with one child: the running maximum over the first
    # root's children must not carry into the second root's.
    start = [0.0, 20.0, 1.0, 21.0]
    end = [10.0, 30.0, 9.0, 22.0]
    parent = [-1, -1, 0, 1]
    np.testing.assert_allclose(spans.self_times(start, end, parent), [2.0, 9.0, 8.0, 1.0])


class _Box:
    def outer(self, pool_size):
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            return list(pool.map(lambda i: _inner(i), range(pool_size)))


_barrier = threading.Barrier(2, timeout=10)


def _leaf(i):
    return i


def _inner(i):
    _barrier.wait()  # both workers are inside their spans at once
    return _leaf(i)


this_module = sys.modules[__name__]


def test_tracer_links_worker_spans_to_the_installing_thread():
    tracer = spans.Tracer(run_name="inner")
    tracer.patch(_Box, "outer", "outer")
    tracer.patch(this_module, "_inner", "inner")
    tracer.patch(this_module, "_leaf", "leaf")
    with tracer.installed():
        assert _Box().outer(2) == [0, 1]
    # Leaving the block restores the originals.
    assert not hasattr(_Box.__dict__["outer"], "__wrapped__")
    assert not hasattr(this_module._inner, "__wrapped__")

    s = tracer.spans()
    names = [s.names[i] for i in s.name]
    outer = names.index("outer")
    inner = [i for i, n in enumerate(names) if n == "inner"]
    leaf = [i for i, n in enumerate(names) if n == "leaf"]
    assert len(inner) == 2 and len(leaf) == 2
    assert s.parent[outer] == -1
    assert all(s.parent[i] == outer for i in inner)
    # Each leaf hangs under the inner span of its own thread and shares its run id.
    for i in leaf:
        assert names[s.parent[i]] == "inner"
        assert s.run[i] == s.run[s.parent[i]]
    assert s.run[inner[0]] != s.run[inner[1]]
    # The two inner spans overlap; outer's self time counts that once.
    own = spans.self_times(s.start, s.end, s.parent)
    covered = spans.busy_time(s.start[inner], s.end[inner])
    assert own[outer] == pytest.approx(s.end[outer] - s.start[outer] - covered)
    assert covered < sum(s.end[i] - s.start[i] for i in inner)
    stats = spans.layer_stats(s)
    assert stats["inner"].calls == 2 and stats["leaf"].calls == 2


# -- failure counting --------------------------------------------------------


def test_tally_counts_an_operation_once_however_many_violations():
    tally = Tally()
    tally.record("run a", [])
    tally.record("run b", ["zeroth_calls wrong", "first_calls wrong"])
    tally.record("run c", [])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.fail_frac == pytest.approx(1 / 3)
    assert tally.violations == ["run b: zeroth_calls wrong", "run b: first_calls wrong"]
    assert Tally().fail_frac == 0.0


def _small_grid(seed):
    return bench.ExperimentGrid(
        problems=("hs40", "P1", "P2"), noise_pairs=((1e-2, 1e-2),), replicates=1,
        params=SolverParams(max_iters=30), seed=seed,
    )


def _records(grid):
    return [bench.run_cell(grid, cell) for cell in bench.grid_cells(grid)]


def test_check_record_flags_accounting_and_false_convergence():
    grid = bench.ExperimentGrid(problems=("P2",), noise_pairs=((0.0, 0.0),), seed=1)
    (cell,) = bench.grid_cells(grid)
    record = bench.run_cell(grid, cell)
    problem = bench.get_problem("P2")
    assert record.status.value == "converged"
    assert workloads.check_record(problem, grid.params, record) == []
    moved = dataclasses.replace(record, final_x=record.final_x + 0.1)
    assert any("tol_infeas" in p for p in workloads.check_record(problem, grid.params, moved))
    assert workloads.check_accounting(5, 10, 5) == []
    assert len(workloads.check_accounting(5, 9, 6)) == 2


def test_written_runs_check_catches_a_truncated_csv(tmp_path):
    grid = _small_grid(1)
    cells = bench.grid_cells(grid)
    records = _records(grid)
    result = bench.GridResult(grid, cells, records, bench.build_grid_profiles(grid, cells, records), 0.0)
    bench.write_grid_outputs(result, tmp_path)
    digests = [workloads.record_digest(r) for r in records]

    tally = Tally()
    workloads.check_written_runs(tmp_path, cells, list(digests), tally)
    assert (tally.attempted, tally.failed) == (3, 0)

    path = tmp_path / bench.run_filename(cells[0].problem, cells[0].eps_f, cells[0].eps_g, 0)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    tally = Tally()
    workloads.check_written_runs(tmp_path, cells, list(digests), tally)
    assert tally.failed == 1
    assert any("CSV rows" in v for v in tally.violations)
    assert any("differs" in v for v in tally.violations)


# -- fingerprint -------------------------------------------------------------


def _fingerprint(seed):
    grid = _small_grid(seed)
    fp = workloads.Fingerprint()
    for record in _records(grid):
        fp.add(record.status.value, len(record.iterations), record.zeroth_calls,
               record.first_calls, workloads.record_digest(record))
    return fp.as_dict()


def test_fingerprint_repeats_for_a_seed_and_changes_with_it():
    first, again, other = _fingerprint(1), _fingerprint(1), _fingerprint(2)
    assert first == again
    assert first["sha256"] != other["sha256"]
    assert first["runs"] == 3
    assert first["zeroth_calls"] == 2 * first["iterations"]


def test_record_and_written_csv_digests_agree(tmp_path):
    record = _records(_small_grid(3))[0]
    path = tmp_path / "run.csv"
    bench.write_run_csv(path, record)
    assert workloads.csv_digest(path) == (len(record.iterations), workloads.record_digest(record))


# -- speed gauge ---------------------------------------------------------------


def test_gauge_scale_uses_nearby_kernel_timings():
    from speed import GAUGE_SPAN_S, NOMINAL_KERNEL_S, SpeedGauge

    gauge = SpeedGauge()
    gauge.starts = [float(t) for t in range(0, 61)]
    # The machine runs at half speed from t = 30 on.
    gauge.durations = [NOMINAL_KERNEL_S if t < 30 else 2 * NOMINAL_KERNEL_S for t in range(61)]
    assert gauge.scale(10.0, 12.0) == pytest.approx(1.0)
    assert gauge.scale(45.0, 46.0) == pytest.approx(0.5)
    assert GAUGE_SPAN_S < 15.0
    # Far from any timing, the nearest one on each side decides.
    gauge.starts, gauge.durations = [0.0, 100.0], [NOMINAL_KERNEL_S, 3 * NOMINAL_KERNEL_S]
    assert gauge.scale(50.0, 51.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        SpeedGauge().scale(0.0, 1.0)
