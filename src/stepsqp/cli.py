"""Command-line interface.

Subcommands: run (solve one problem), bench (run a noise grid),
profile (rebuild performance profiles from grid outputs), check-grad
(finite-difference derivative checks), list-problems.

Configuration comes from an optional JSON file with flat sections
"solver", "oracle" and "grid", amended by repeatable --set
section.key=value overrides and finally by --seed. Unknown keys
anywhere are a hard error. Exit codes: 0 success / converged, 1
configuration or usage error, 2 budget exhausted (run), 3 failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .bench import (
    ExperimentGrid,
    GridCell,
    profiles_from_directories,
    run_grid,
    run_summary,
    write_json,
    write_profile_files,
    write_run_csv,
)
from .oracles import OracleConfig
from .problems import (
    Problem,
    UnknownProblemError,
    check_gradients,
    get_problem,
    load_qp_json,
    problem_names,
    read_json,
)
from .sqp import RunStatus, SolverParams, solve

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_BUDGET_EXHAUSTED = 2
EXIT_FAILURE = 3

_STATUS_EXIT = {
    RunStatus.CONVERGED: EXIT_OK,
    RunStatus.BUDGET_EXHAUSTED: EXIT_BUDGET_EXHAUSTED,
    RunStatus.LINEAR_ALGEBRA_FAILURE: EXIT_FAILURE,
}


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 1."""


def _fields(cls, *set_by_cli: str) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)} - set(set_by_cli)


# Each section accepts its dataclass's fields, except those the CLI sets.
_SECTIONS = {
    "solver": _fields(SolverParams),
    "oracle": _fields(OracleConfig, "stream_id"),
    "grid": _fields(ExperimentGrid, "params", "seed"),
}


def _parse_override(text: str) -> tuple[str, str, object]:
    key, sep, raw = text.partition("=")
    if not sep:
        raise CliError(f"override {text!r} is not of the form section.key=value")
    section, dot, name = key.partition(".")
    if not dot or section not in _SECTIONS or not name:
        raise CliError(
            f"override key {key!r} must be one of "
            + ", ".join(f"{s}.<key>" for s in _SECTIONS)
        )
    try:
        value = json.loads(raw)
    except (json.JSONDecodeError, RecursionError):  # too deep to parse is not JSON here
        value = raw
    return section, name, value


def parse_config(
    path: "str | Path | None" = None,
    overrides: "list[str] | tuple[str, ...]" = (),
) -> tuple[SolverParams, OracleConfig, ExperimentGrid]:
    """Read solver/oracle/grid settings from JSON plus overrides.

    Missing file sections and keys fall back to defaults; unknown
    sections or keys raise CliError naming the offender.
    """
    data: dict = {}
    if path is not None:
        try:
            data = read_json(path)
        except OSError as exc:
            raise CliError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        if not isinstance(data, dict):
            raise CliError(f"config file {path} must contain a JSON object")
    unknown_sections = sorted(set(data) - set(_SECTIONS))
    if unknown_sections:
        raise CliError(f"unknown config section(s): {', '.join(unknown_sections)}")
    sections: dict[str, dict] = {}
    for name in _SECTIONS:
        value = data.get(name, {})
        if not isinstance(value, dict):
            raise CliError(f"config section {name!r} must be an object")
        sections[name] = dict(value)

    for text in overrides:
        section, key, value = _parse_override(text)
        sections[section][key] = value

    for name, allowed in _SECTIONS.items():
        unknown = sorted(set(sections[name]) - allowed)
        if unknown:
            raise CliError(f"unknown key(s) in section {name!r}: {', '.join(unknown)}")

    try:
        params = SolverParams(**sections["solver"])
        oracle_cfg = OracleConfig(stream_id=0, **sections["oracle"])
        grid = ExperimentGrid(params=params, seed=oracle_cfg.seed, **sections["grid"])
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from exc
    return params, oracle_cfg, grid


class _Parser(argparse.ArgumentParser):
    # Route argparse usage errors through the config-error exit code.
    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    config_flags = _Parser(add_help=False)
    config_flags.add_argument("--config", metavar="PATH", help="JSON config file")
    config_flags.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override a config value, e.g. --set solver.gamma=0.25 (repeatable)",
    )
    config_flags.add_argument(
        "--seed", type=int, default=None, help="RNG seed (overrides oracle.seed)"
    )

    parser = _Parser(
        prog="stepsqp",
        description="Step-search SQP solver and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[config_flags], help="solve one problem")
    p_run.add_argument("problem", help="registry name or path to a QP JSON file")
    p_run.add_argument("--out", metavar="DIR", default="out", help="output directory")
    p_run.set_defaults(handler=_cmd_run)

    p_bench = sub.add_parser("bench", parents=[config_flags], help="run a benchmark grid")
    p_bench.add_argument("--out", metavar="DIR", default="out", help="output directory")
    p_bench.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_bench.set_defaults(handler=_cmd_bench)

    p_prof = sub.add_parser("profile", help="build profiles from bench outputs")
    p_prof.add_argument("run_dirs", nargs="+", metavar="RUN_DIR", help="bench output directories")
    p_prof.add_argument("--out", metavar="DIR", default="profiles", help="output directory")
    p_prof.set_defaults(handler=_cmd_profile)

    p_check = sub.add_parser("check-grad", help="finite-difference derivative checks")
    p_check.add_argument(
        "problem",
        nargs="?",
        default=None,
        help="registry name or QP JSON path (default: every registered problem)",
    )
    p_check.set_defaults(handler=_cmd_check_grad)

    sub.add_parser("list-problems", help="list registered problems").set_defaults(
        handler=_cmd_list_problems
    )
    return parser


def _resolve_problem(identifier: str) -> Problem:
    try:
        return get_problem(identifier)
    except UnknownProblemError:
        pass
    path = Path(identifier)
    if path.suffix == ".json" or path.is_file():
        try:
            return load_qp_json(path)
        except (OSError, ValueError) as exc:
            raise CliError(str(exc)) from exc
    raise CliError(
        f"unknown problem {identifier!r}; see list-problems, or pass a QP JSON file"
    )


def _config(args) -> tuple[SolverParams, OracleConfig, ExperimentGrid]:
    # --seed N is the last oracle.seed=N override.
    seed = [] if args.seed is None else [f"oracle.seed={args.seed}"]
    return parse_config(args.config, [*args.overrides, *seed])


def _out_dir(path: str) -> Path:
    """Create the output directory; run and bench call this first, so a bad --out costs no work."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write to {out_dir}: {exc}") from exc
    return out_dir


def _cmd_run(args) -> int:
    params, oracle_cfg, _ = _config(args)
    problem = _resolve_problem(args.problem)
    out_dir = _out_dir(args.out)
    # Replicate 0 of the grid cell with this seed and noise pair.
    seed = oracle_cfg.seed
    cell = GridCell.at(seed, problem.name, oracle_cfg.eps_f_noise, oracle_cfg.eps_g_noise, 0)
    record = solve(problem, params, cell.oracle_config(seed))

    summary = run_summary(cell, record)
    write_run_csv(out_dir / summary["csv"], record)
    write_json(out_dir / (Path(summary["csv"]).stem + ".json"), summary)
    print(json.dumps(summary, sort_keys=True))
    return _STATUS_EXIT[record.status]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cmd_bench(args) -> int:
    _, _, grid = _config(args)
    if args.jobs < 1:
        raise CliError("--jobs must be a positive integer")
    # More workers than CPUs only adds start-up and contention; outputs
    # are the same at any worker count.
    jobs = min(args.jobs, _usable_cpus())
    if jobs < args.jobs:
        print(f"note: --jobs {args.jobs} lowered to {jobs}, the CPUs this process may use",
              file=sys.stderr)
    summary = run_grid(grid, out_dir=_out_dir(args.out), jobs=jobs)
    by_status = Counter(entry["status"] for entry in summary["runs"])
    print(
        json.dumps(
            {
                "runs": len(summary["runs"]),
                "by_status": by_status,
                "out": str(args.out),
                "wall_time_s": summary["wall_time_s"],
            },
            sort_keys=True,
        )
    )
    return EXIT_FAILURE if by_status[RunStatus.LINEAR_ALGEBRA_FAILURE.value] else EXIT_OK


def _cmd_profile(args) -> int:
    try:
        profiles = profiles_from_directories([Path(d) for d in args.run_dirs])
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot rebuild profiles: {exc}") from exc
    # Only once the inputs load, so that rejected inputs leave no directory.
    out_dir = _out_dir(args.out)
    write_profile_files(profiles, out_dir)
    print(json.dumps({"profiles": sorted(profiles), "out": str(out_dir)}, sort_keys=True))
    return EXIT_OK


def _ball_points(x0: np.ndarray, count: int, seed: int = 0) -> list[np.ndarray]:
    # Deterministic sample of points in the unit ball around x0.
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    points = []
    for _ in range(count):
        direction = rng.standard_normal(x0.size)
        direction /= max(float(np.linalg.norm(direction)), 1e-300)
        radius = rng.random() ** (1.0 / x0.size)
        points.append(x0 + radius * direction)
    return points


def _cmd_check_grad(args) -> int:
    if args.problem is None:
        problems = [get_problem(name) for name in problem_names()]
    else:
        problems = [_resolve_problem(args.problem)]
    tol = 1e-6
    all_ok = True
    for problem in problems:
        points = [problem.x0] + _ball_points(problem.x0, 10)
        checks = [check_gradients(problem, point) for point in points]
        # np.max, unlike max, keeps a NaN error (a difference that overflowed).
        worst = {key: float(np.max([getattr(check, key) for check in checks]))
                 for key in ("max_rel_err_grad", "max_rel_err_jac")}
        ok = all(value <= tol for value in worst.values())
        all_ok = all_ok and ok
        # Strict JSON has no NaN or Infinity: a non-finite error prints as null.
        finite = {key: value if math.isfinite(value) else None for key, value in worst.items()}
        print(json.dumps({"problem": problem.name, **finite, "pass": ok},
                         sort_keys=True, allow_nan=False))
    return EXIT_OK if all_ok else EXIT_FAILURE


def _cmd_list_problems(args) -> int:
    for name in problem_names():
        problem = get_problem(name)
        print(f"{name}\t{problem.n}\t{problem.m}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
