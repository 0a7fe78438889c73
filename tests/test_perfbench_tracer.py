"""The traced benchmark run must find every name it patches.

perfbench/workloads.py rebinds named functions of the stepsqp modules
to timing wrappers. make_tracer() looks each name up when it schedules
the patch, so a renamed or deleted function fails here instead of in
`python3 perfbench/run.py --trace 1`.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_make_tracer_finds_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    # Scheduling only looks the names up; nothing is rebound yet.
    workloads.make_tracer()
