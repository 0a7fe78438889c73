"""The benchmark's correctness gate must accept what bench and profile write.

perfbench/run.py counts an operation as failed when
workloads.check_written_runs or workloads.compare_profiles reports a
problem with a bench directory or its rebuilt profiles. A change to the
run CSVs, summary.json or the profile CSVs that those checks no longer
read the same way fails here instead of in the benchmark.
"""

import contextlib
import io
from pathlib import Path

from stepsqp import bench
from stepsqp.cli import EXIT_OK, main, parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

OVERRIDES = [
    'grid.problems=["P1", "hs6"]',
    "grid.noise_pairs=[[0, 0], [0.01, 0.01]]",
    "grid.replicates=2",
    "solver.max_iters=60",
]


def test_bench_and_profile_outputs_pass_the_benchmark_checks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from stats import Tally

    bench_dir, profile_dir = tmp_path / "bench", tmp_path / "profile"
    sets = [arg for override in OVERRIDES for arg in ("--set", override)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["bench", *sets, "--seed", "4", "--out", str(bench_dir)]) == EXIT_OK
        assert main(["profile", str(bench_dir), "--out", str(profile_dir)]) == EXIT_OK

    _, _, grid = parse_config(None, [*OVERRIDES, "oracle.seed=4"])
    cells = bench.grid_cells(grid)
    # The trajectories solved here must be the ones bench wrote.
    digests = [workloads.record_digest(bench.run_cell(grid, cell)) for cell in cells]
    tally = Tally()
    workloads.check_written_runs(bench_dir, cells, digests, tally)
    assert tally.violations == []
    assert (tally.attempted, tally.failed) == (len(cells), 0)
    assert workloads.compare_profiles(bench_dir, profile_dir) == []
