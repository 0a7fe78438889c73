"""The benchmark workloads' fingerprints, pinned to the bit.

A speed change must not move a bit. A change to the problems' arithmetic
may re-record the three hashes only when the status counts, iterations
and oracle calls stay unchanged, and CHANGES.md lists every run that moved.

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
        "sha256": "c68db1b16241d5cef254d4f2a0ccdd75c3d38ca76e6806c4188928cd12e28838",
        "iterations_bytes": "d1b3bbc5a350b66fdf22cfd0b0f8c6b85dd48971ec2c1d6273f961e0660a31ab",
        "final_x_bytes": "30754fcaa0bbc5599a238c108ef2753e2575e869e797649c52b5bc14c71dea64",
    },
    "converge": {
        "status_counts": {"converged": 24},
        "iterations": 2827,
        "oracle_calls": (5654, 2827),
        "sha256": "021cd5d97677fd291fedf1d6762d94e4e9e3c060af01509286c7caa18eb5a3b1",
        "iterations_bytes": "edc385c26be63758ffc2c83b288ef9fefefc9c06ede308e95b82ca861a00c246",
        "final_x_bytes": "38e71ca8201ed8c9f79a08161336f66cca26d622b6d455a30374cf9921a09ff2",
    },
    "campaign": {
        "status_counts": {"budget_exhausted": 26, "converged": 22},
        "iterations": 9823,
        "oracle_calls": (19646, 9823),
        "sha256": "42492f174ef79649475f39d305918de400e5ec718390ac9601e979708d37efc7",
        "iterations_bytes": "32a86d0fc500f4ba5216d076c94b9e526d45b93725f109a5dbc0befd886f922e",
        "final_x_bytes": "f3517794f3ab85f73cffea4141e9000fb5c53304a43e66bc730394261a13c8f5",
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
