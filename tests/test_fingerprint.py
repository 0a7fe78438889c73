"""The benchmark workloads' fingerprints, pinned: a speed change must not move a bit.

Each of perfbench's three grids (stall, converge, campaign) is solved at
seed 0 through bench.run_cell, and must give the recorded status counts,
iteration and oracle-call totals and perfbench's fingerprint sha256: the
sha256 over the runs' trajectory digests in cell order, each a sha256
over the run's bench.CSV_COLUMNS rows printed with repr (the digest of
perfbench/workloads.py's record_digest, built here from whole columns).
The CSV columns leave out x, d and gbar, so the bytes of every run's
iterations and final_x are hashed too.

Floating-point results may differ in their last bits between numpy and
SciPy builds, so the values hold for the versions they were recorded
with; on another install the test skips and says which.
"""

import hashlib
from collections import Counter
from importlib.metadata import version
from pathlib import Path

import numpy as np
import pytest

from stepsqp import bench

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

EXPECTED = {
    "stall": {
        "status_counts": {"budget_exhausted": 22, "converged": 2},
        "iterations": 22236,
        "oracle_calls": (44472, 22236),
        "sha256": "8957393e2898ec1c3123dc6141140648b68604ce1969b5f002b1885409b8b40b",
        "iterations_bytes": "4f8e6701df648d605bb65764198eabdaabcb848e520f598e03ae122cbf12dc9c",
        "final_x_bytes": "6570826c41bb8ac42da3063c805669498d4b323250ea400ee5c63eb986e87f47",
    },
    "converge": {
        "status_counts": {"converged": 24},
        "iterations": 2827,
        "oracle_calls": (5654, 2827),
        "sha256": "2c88ce1e0e7b359f4ee349c8d2c177362e506c70dd7d0874dffef4a9e7744685",
        "iterations_bytes": "c3778b75700108a5a47e2761f00e5774cc24c447d84ae5487092b4a92887cadf",
        "final_x_bytes": "0dea66d8ad47ad1eb624b0ddd4c59f90fd42e6fe85fd6ffbf01388a7085786a1",
    },
    "campaign": {
        "status_counts": {"budget_exhausted": 26, "converged": 22},
        "iterations": 9823,
        "oracle_calls": (19646, 9823),
        "sha256": "faefe827e857af7f2571867ad1df1519a5fd5d1af922b4c53f1a44363c4737a8",
        "iterations_bytes": "26ad23082d3f6de19a473adb21494182bf3ada8e41ddcfc014cd1a46f6508bc7",
        "final_x_bytes": "2342eceff4afbaf6abba76bf19d0c458a268f3b4b9c02925d0f3c3af7a6ca773",
    },
}


def trajectory_digest(iterations: np.ndarray) -> bytes:
    """perfbench's per-run digest: the CSV columns' rows, each value printed with repr."""
    h = hashlib.sha256(",".join(bench.CSV_COLUMNS).encode())
    for row in zip(*(iterations[c].tolist() for c in bench.CSV_COLUMNS)):
        h.update(b"\n" + ",".join(map(repr, row)).encode())
    return h.digest()


@pytest.mark.parametrize("workload", EXPECTED)
def test_workload_fingerprint_at_seed_0(monkeypatch, workload):
    installed = {name: version(name) for name in RECORDED_WITH}
    if installed != RECORDED_WITH:
        pytest.skip(f"fingerprints recorded with {RECORDED_WITH}, this install has {installed}")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import workload_grid

    grid = workload_grid(workload, 0)
    statuses = Counter()
    iterations = zeroth = first = 0
    fingerprint, iterations_bytes, final_x_bytes = (hashlib.sha256() for _ in range(3))
    for cell in bench.grid_cells(grid):
        record = bench.run_cell(grid, cell)
        statuses[record.status.value] += 1
        iterations += len(record.iterations)
        zeroth += record.zeroth_calls
        first += record.first_calls
        fingerprint.update(trajectory_digest(record.iterations))
        iterations_bytes.update(record.iterations.tobytes())
        final_x_bytes.update(record.final_x.tobytes())
    expected = EXPECTED[workload]
    assert dict(statuses) == expected["status_counts"]
    assert iterations == expected["iterations"]
    assert (zeroth, first) == expected["oracle_calls"]
    assert fingerprint.hexdigest() == expected["sha256"]
    assert iterations_bytes.hexdigest() == expected["iterations_bytes"]
    assert final_x_bytes.hexdigest() == expected["final_x_bytes"]
