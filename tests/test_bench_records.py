"""Every BENCH_*.json at the repository root holds the common record layout.

Each file records one change's benchmark: the shared top-level keys,
and under end_to_end each BENCHMARK.json workload with each of its
end-to-end metrics, measured on the parent and on the change. A side's
runs number the workload's pairs, its quartiles bracket its median, and
its median is the median of its runs to the rounding of the digits the
file prints: half a unit in the median's last digit (BENCH_28's stall
iters_per_s parent median 30876.1 of runs whose median is 30876.05),
plus half a unit in the runs' last digit, since the median was taken
before they were rounded (BENCH_19's stall peak_rss_mb change median
67.039062 is the mean of 67.0234375 and 67.0546875, printed as 67.023438
and 67.054688).
"""

import json
import statistics
from decimal import Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TOP_LEVEL_KEYS = {"claim", "description", "end_to_end", "environment", "fingerprints", "git",
                  "method"}


def half_unit(number: Decimal) -> Decimal:
    """Half a unit in the last digit of number as printed."""
    return Decimal(5).scaleb(number.as_tuple().exponent - 1)


def test_there_are_bench_records():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_record_layout(path):
    # Decimal keeps each number as the file prints it.
    record = json.loads(path.read_text(), parse_float=Decimal)
    assert TOP_LEVEL_KEYS <= record.keys()
    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert sorted(record["end_to_end"]) == sorted(workloads)
    for workload in workloads:
        entry = record["end_to_end"][workload]
        for metric in BENCHMARK["end_to_end"]:
            for side in ("parent", "change"):
                where = f"{workload} {metric['name']} {side}"
                series = entry["metrics"][metric["name"]][side]
                runs = [Decimal(run) for run in series["runs"]]
                assert len(runs) == entry["pairs"], where
                median = Decimal(series["median"])
                assert series["q1"] <= median <= series["q3"], where
                rounding = half_unit(median) + max(map(half_unit, runs))
                assert abs(statistics.median(runs) - median) <= rounding, where
