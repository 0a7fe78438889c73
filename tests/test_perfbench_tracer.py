"""The traced benchmark run must find every name it patches, and see it called.

perfbench/workloads.py rebinds named functions of the stepsqp modules
to timing wrappers. make_tracer() looks each name up when it schedules
the patch, so a renamed or deleted function fails here instead of in
`python3 perfbench/run.py --trace 1`. A function that solve() stops
calling through its module global (inlined, or imported under another
name) would still be found, and its span would read 0; the call counts
below catch that.
"""

from collections import Counter
from pathlib import Path

from stepsqp import sqp
from stepsqp.oracles import OracleConfig
from stepsqp.problems import get_problem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_make_tracer_finds_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    # Scheduling only looks the names up; nothing is rebound yet.
    workloads.make_tracer()


def test_solve_calls_the_traced_step_functions_through_sqp(monkeypatch):
    calls = Counter()

    def counted(name):
        fn = getattr(sqp, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("tau_trial", "classify_iteration", "max_abs"):
        monkeypatch.setattr(sqp, name, counted(name))
    cfg = OracleConfig(eps_f_noise=1e-2, eps_g_noise=1e-1, seed=3)
    record = sqp.solve(get_problem("P1"), sqp.SolverParams(max_iters=50), cfg)
    assert record.status is sqp.RunStatus.BUDGET_EXHAUSTED
    assert calls["tau_trial"] == calls["classify_iteration"] == len(record.iterations) == 50
    # Each iterate the run evaluates (x0 and one per accepted step) takes
    # max_abs of c, J, grad f and the KKT residual; each iteration takes
    # it of its gradient sample and of its step's linearized residual.
    # So inlining any one of them fails here.
    iterates = 1 + record.iterations["accepted"].sum()
    assert calls["max_abs"] >= 4 * iterates + 2 * len(record.iterations)
