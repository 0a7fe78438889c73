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
import sys
from pathlib import Path

import numpy as np

from .bench import (
    EmptyInputError,
    ExperimentGrid,
    GridCell,
    profiles_from_directories,
    run_grid,
    run_summary,
    write_profile_files,
    write_run_csv,
)
from .oracles import OracleConfig, derive_stream
from .problems import (
    Problem,
    UnknownProblemError,
    check_gradients,
    get_problem,
    load_qp_json,
    problem_names,
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


class ParseError(CliError):
    """Unreadable config file or malformed override."""


class ValidationError(CliError):
    """Structurally valid input with an unknown key or bad value."""


_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverParams)}
_ORACLE_KEYS = {"eps_f_noise", "eps_g_noise", "seed"}
_GRID_KEYS = {"problems", "noise_pairs", "replicates"}
_SECTIONS = ("solver", "oracle", "grid")


def _check_keys(section: str, given: dict, allowed: set) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown key(s) in section {section!r}: {', '.join(unknown)}"
        )


def _parse_override(text: str) -> tuple[str, str, object]:
    key, sep, raw = text.partition("=")
    if not sep:
        raise ParseError(f"override {text!r} is not of the form section.key=value")
    section, dot, name = key.partition(".")
    if not dot or section not in _SECTIONS or not name:
        raise ParseError(
            f"override key {key!r} must be one of "
            + ", ".join(f"{s}.<key>" for s in _SECTIONS)
        )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return section, name, value


def parse_config(
    path: "str | Path | None" = None,
    overrides: "list[str] | tuple[str, ...]" = (),
) -> tuple[SolverParams, OracleConfig, ExperimentGrid]:
    """Read solver/oracle/grid settings from JSON plus overrides.

    Missing file sections and keys fall back to defaults; unknown
    sections or keys raise ValidationError naming the offender.
    """
    data: dict = {}
    if path is not None:
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ParseError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(f"config file {path} must contain a JSON object")
    unknown_sections = sorted(set(data) - set(_SECTIONS))
    if unknown_sections:
        raise ValidationError(f"unknown config section(s): {', '.join(unknown_sections)}")
    sections: dict[str, dict] = {}
    for name in _SECTIONS:
        value = data.get(name, {})
        if not isinstance(value, dict):
            raise ValidationError(f"config section {name!r} must be an object")
        sections[name] = dict(value)

    for text in overrides:
        section, key, value = _parse_override(text)
        sections[section][key] = value

    _check_keys("solver", sections["solver"], _SOLVER_KEYS)
    _check_keys("oracle", sections["oracle"], _ORACLE_KEYS)
    _check_keys("grid", sections["grid"], _GRID_KEYS)

    try:
        params = SolverParams(**sections["solver"])
        oracle_cfg = OracleConfig(stream_id=0, **sections["oracle"])
        grid = ExperimentGrid(params=params, seed=oracle_cfg.seed, **sections["grid"])
    except (ValueError, TypeError) as exc:
        raise ValidationError(str(exc)) from exc
    return params, oracle_cfg, grid


class _Parser(argparse.ArgumentParser):
    # Route argparse usage errors through the config-error exit code.
    def error(self, message):
        raise ParseError(message)


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

    p_bench = sub.add_parser("bench", parents=[config_flags], help="run a benchmark grid")
    p_bench.add_argument("--out", metavar="DIR", default="out", help="output directory")
    p_bench.add_argument("--jobs", type=int, default=1, help="worker threads")

    p_prof = sub.add_parser("profile", help="build profiles from bench outputs")
    p_prof.add_argument("run_dirs", nargs="+", metavar="RUN_DIR", help="bench output directories")
    p_prof.add_argument("--out", metavar="DIR", default="profiles", help="output directory")

    p_check = sub.add_parser("check-grad", help="finite-difference derivative checks")
    p_check.add_argument(
        "problem",
        nargs="?",
        default=None,
        help="registry name or QP JSON path (default: every registered problem)",
    )

    sub.add_parser("list-problems", help="list registered problems")
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
            raise ParseError(str(exc)) from exc
    raise ValidationError(
        f"unknown problem {identifier!r}; see list-problems, or pass a QP JSON file"
    )


def _config(args) -> tuple[SolverParams, OracleConfig, ExperimentGrid]:
    # --seed N is the last oracle.seed=N override.
    seed = [] if args.seed is None else [f"oracle.seed={args.seed}"]
    return parse_config(args.config, [*args.overrides, *seed])


def _cmd_run(args) -> int:
    params, oracle_cfg, _ = _config(args)
    problem = _resolve_problem(args.problem)
    noise = (oracle_cfg.eps_f_noise, oracle_cfg.eps_g_noise)
    stream = derive_stream(oracle_cfg.seed, problem.name, noise, 0)
    cell = GridCell(problem.name, *noise, replicate=0, stream_id=stream)
    record = solve(problem, params, dataclasses.replace(oracle_cfg, stream_id=cell.stream_id))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = run_summary(cell, record)
    write_run_csv(out_dir / summary["csv"], record)
    (out_dir / (Path(summary["csv"]).stem + ".json")).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(summary, sort_keys=True))
    return _STATUS_EXIT[record.status]


def _cmd_bench(args) -> int:
    _, _, grid = _config(args)
    if args.jobs < 1:
        raise ValidationError("--jobs must be a positive integer")
    result = run_grid(grid, out_dir=args.out, jobs=args.jobs)
    by_status: dict[str, int] = {}
    for record in result.records:
        by_status[record.status.value] = by_status.get(record.status.value, 0) + 1
    print(
        json.dumps(
            {
                "runs": len(result.records),
                "by_status": by_status,
                "out": str(args.out),
                "wall_time_s": result.wall_time,
            },
            sort_keys=True,
        )
    )
    return EXIT_FAILURE if result.failed_cells else EXIT_OK


def _cmd_profile(args) -> int:
    try:
        profiles = profiles_from_directories([Path(d) for d in args.run_dirs])
    except (OSError, ValueError, KeyError, EmptyInputError) as exc:
        raise ParseError(f"cannot rebuild profiles: {exc}") from exc
    out_dir = Path(args.out)
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
        worst_grad = 0.0
        worst_jac = 0.0
        for point in [problem.x0] + _ball_points(problem.x0, 10):
            result = check_gradients(problem, point)
            worst_grad = max(worst_grad, result.max_rel_err_grad)
            worst_jac = max(worst_jac, result.max_rel_err_jac)
        ok = worst_grad <= tol and worst_jac <= tol
        all_ok = all_ok and ok
        print(
            json.dumps(
                {
                    "problem": problem.name,
                    "max_rel_err_grad": worst_grad,
                    "max_rel_err_jac": worst_jac,
                    "pass": ok,
                },
                sort_keys=True,
            )
        )
    return EXIT_OK if all_ok else EXIT_FAILURE


def _cmd_list_problems(args) -> int:
    for name in problem_names():
        problem = get_problem(name)
        print(f"{name}\t{problem.n}\t{problem.m}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "check-grad": _cmd_check_grad,
    "list-problems": _cmd_list_problems,
}


def dispatch(args) -> int:
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return dispatch(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
