"""Tests for configuration parsing and the command-line entry point."""

import dataclasses
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import time
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import doctor_run_csv

import stepsqp
from stepsqp import cli
from stepsqp.bench import DEFAULT_NOISE_PAIRS, MAX_NOISE_PAIRS, ExperimentGrid
from stepsqp.cli import (
    EXIT_BUDGET_EXHAUSTED,
    EXIT_CONFIG_ERROR,
    EXIT_FAILURE,
    EXIT_OK,
    CliError,
    main,
    parse_config,
)
from stepsqp.oracles import OracleConfig
from stepsqp.problems import problem_names
from stepsqp.sqp import SolverParams

QP_DOC = {
    "name": "tinyqp",
    "Q": [[2.0, 0.0], [0.0, 2.0]],
    "q": [0.0, 0.0],
    "A": [[1.0, 1.0]],
    "b": [2.0],
    "x0": [0.0, 0.0],
}


# A JSON integer that no float can hold.
HUGE = "1" + "0" * 400

REPLICATES_MESSAGE = "grid: replicates must be an integer from 1 to 1000"


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_defaults(self):
        params, oracle_cfg, grid = parse_config()
        assert params == SolverParams()
        assert params.max_iters == 1000
        assert oracle_cfg.eps_f_noise == 0.0
        assert oracle_cfg.seed == 0
        assert oracle_cfg.stream_id == 0
        assert grid.problems == tuple(problem_names())
        assert grid.noise_pairs == DEFAULT_NOISE_PAIRS
        assert grid.replicates == 5
        assert grid.params == params
        assert grid.seed == 0

    def test_file_sections(self, tmp_path):
        doc = {
            "solver": {"tol_kkt": 0.25, "max_iters": 50},
            "oracle": {"eps_f_noise": 1e-2, "seed": 3},
            "grid": {"problems": ["P1", "P2"], "noise_pairs": [[0, 0.1]], "replicates": 2},
        }
        path = _write_json(tmp_path / "cfg.json", doc)
        params, oracle_cfg, grid = parse_config(path)
        assert params.tol_kkt == 0.25
        assert params.max_iters == 50
        assert oracle_cfg.eps_f_noise == 1e-2
        assert oracle_cfg.seed == 3
        assert grid.seed == 3
        assert grid.problems == ("P1", "P2")
        assert grid.noise_pairs == ((0.0, 0.1),)
        assert grid.replicates == 2

    def test_overrides_beat_the_file(self, tmp_path):
        path = _write_json(tmp_path / "cfg.json", {"solver": {"tol_kkt": 0.25}})
        params, _, grid = parse_config(
            path,
            ["solver.tol_kkt=0.125", 'grid.problems=["P1"]', "grid.replicates=3"],
        )
        assert params.tol_kkt == 0.125
        assert grid.problems == ("P1",)
        assert grid.replicates == 3

    def test_override_without_file(self):
        params, oracle_cfg, _ = parse_config(None, ["oracle.eps_g_noise=0.1"])
        assert oracle_cfg.eps_g_noise == 0.1
        assert params == SolverParams()

    def test_unknown_section(self, tmp_path):
        path = _write_json(tmp_path / "cfg.json", {"sovler": {}})
        with pytest.raises(CliError, match="unknown config section.*sovler"):
            parse_config(path)

    def test_unknown_key_names_the_offender(self, tmp_path):
        path = _write_json(tmp_path / "cfg.json", {"solver": {"gama": 1, "zeta": 2}})
        with pytest.raises(CliError, match="'solver': gama, zeta"):
            parse_config(path)
        with pytest.raises(CliError, match="'oracle': stream_id"):
            parse_config(None, ["oracle.stream_id=4"])

    def test_every_config_dataclass_field_is_a_key(self):
        overrides = [
            f"solver.{f.name}={json.dumps(f.default)}" for f in dataclasses.fields(SolverParams)
        ]
        overrides += [
            "oracle.eps_f_noise=0.01",
            "oracle.eps_g_noise=0.1",
            "oracle.seed=3",
            'grid.problems=["P1"]',
            "grid.noise_pairs=[[0, 0]]",
            "grid.replicates=2",
        ]
        fields = {
            f"{section}.{f.name}"
            for section, cls in (
                ("solver", SolverParams),
                ("oracle", OracleConfig),
                ("grid", ExperimentGrid),
            )
            for f in dataclasses.fields(cls)
        }
        # The CLI sets these itself.
        assert fields - {o.partition("=")[0] for o in overrides} == {
            "oracle.stream_id",
            "grid.params",
            "grid.seed",
        }
        params, oracle_cfg, grid = parse_config(None, overrides)
        assert params == SolverParams()
        assert oracle_cfg == OracleConfig(eps_f_noise=0.01, eps_g_noise=0.1, seed=3)
        assert (grid.problems, grid.noise_pairs, grid.replicates) == (("P1",), ((0.0, 0.0),), 2)
        assert (grid.params, grid.seed) == (params, 3)

    @pytest.mark.parametrize("override", ["grid.seed=1", "grid.params={}", "oracle.stream_id=4"])
    def test_keys_the_cli_sets_are_unknown(self, tmp_path, capsys, override):
        code = main(["run", "P2", "--set", override, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("error: unknown key(s)")
        assert not (tmp_path / "o").exists()

    def test_malformed_overrides(self):
        with pytest.raises(CliError, match="section.key=value"):
            parse_config(None, ["solver.tol_kkt"])
        with pytest.raises(CliError, match="must be one of"):
            parse_config(None, ["tol_kkt=0.5"])
        with pytest.raises(CliError, match="must be one of"):
            parse_config(None, ["engine.tol_kkt=0.5"])

    def test_bad_values_are_validation_errors(self):
        with pytest.raises(CliError, match="tau_init"):
            parse_config(None, ["solver.tau_init=-1"])
        with pytest.raises(CliError, match="replicates"):
            parse_config(None, ["grid.replicates=0"])
        with pytest.raises(CliError, match="problem names"):
            parse_config(None, ["grid.problems=7"])
        with pytest.raises(CliError, match="pairs"):
            parse_config(None, ["grid.noise_pairs=[[1]]"])

    def test_non_numeric_noise_level_is_a_validation_error(self, tmp_path, capsys):
        message = r"^grid\.noise_pairs\[0\]: eps_f_noise must be a number$"
        with pytest.raises(CliError, match=message):
            parse_config(None, ['grid.noise_pairs=[["x", 1]]'])
        code = main(
            ["bench", "--set", 'grid.noise_pairs=[["x",1]]', "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("error: grid.noise_pairs")

    @pytest.mark.parametrize(
        "cls, name",
        [
            (cls, name)
            for cls in (SolverParams, OracleConfig)
            for name, hint in typing.get_type_hints(cls).items()
            if hint in (float, typing.Optional[float])
        ],
    )
    @pytest.mark.parametrize("value", [[0.5], "a", True], ids=["list", "str", "bool"])
    def test_non_number_setting_names_its_field(self, cls, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be a number$"):
            cls(**{name: value})

    def test_bool_replicates_is_a_validation_error(self):
        with pytest.raises(CliError, match="replicates"):
            parse_config(None, ["grid.replicates=true"])

    def test_bad_files(self, tmp_path):
        with pytest.raises(CliError, match="cannot read"):
            parse_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CliError, match="not valid JSON"):
            parse_config(bad)
        toplevel = _write_json(tmp_path / "list.json", [1, 2])
        with pytest.raises(CliError, match="JSON object"):
            parse_config(toplevel)
        badsec = _write_json(tmp_path / "badsec.json", {"solver": 3})
        with pytest.raises(CliError, match="'solver' must be an object"):
            parse_config(badsec)


class TestRunCommand:
    def test_registry_problem(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "P2", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "P2__f0__g0__r0.csv").is_file()
        summary = json.loads((out / "P2__f0__g0__r0.json").read_text())
        assert summary["status"] == "converged"
        assert summary["iterations"] == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed == summary

    def test_summary_is_a_bench_run_entry(self, tmp_path, capsys):
        # run writes the CSV bytes and the summary entry, less its wall
        # time, that bench writes for replicate 0 of the cell.
        noise = ["--set", "oracle.eps_f_noise=0.01", "--set", "oracle.eps_g_noise=0.1",
                 "--seed", "7"]
        main(["run", "P1", *noise, "--out", str(tmp_path / "run")])
        main(["bench", *noise, "--set", 'grid.problems=["P1"]',
              "--set", "grid.noise_pairs=[[0.01, 0.1]]", "--set", "grid.replicates=1",
              "--out", str(tmp_path / "bench")])
        capsys.readouterr()
        entry = json.loads((tmp_path / "bench" / "summary.json").read_text())["runs"][0]
        summary = json.loads((tmp_path / "run" / "P1__f0.01__g0.1__r0.json").read_text())
        assert entry["csv"] == summary["csv"] == "P1__f0.01__g0.1__r0.csv"
        assert (summary["problem"], summary["eps_f_noise"], summary["eps_g_noise"],
                summary["replicate"]) == ("P1", 0.01, 0.1, 0)
        del entry["wall_time_s"], summary["wall_time_s"]
        assert json.dumps(summary, sort_keys=True) == json.dumps(entry, sort_keys=True)
        assert ((tmp_path / "run" / summary["csv"]).read_bytes()
                == (tmp_path / "bench" / entry["csv"]).read_bytes())

    @pytest.mark.parametrize("level", ["-0.0", "0"])
    def test_a_zero_noise_level_names_and_seeds_the_run_as_0_0_does(self, tmp_path, capsys, level):
        outputs = []
        for value in ("0.0", level):
            out = tmp_path / value
            argv = ["run", "P1", "--set", "oracle.eps_f_noise=0.01",
                    "--set", f"oracle.eps_g_noise={value}", "--out", str(out)]
            code = main(argv)
            printed = json.loads(capsys.readouterr().out)
            assert sorted(path.name for path in out.iterdir()) == [
                "P1__f0.01__g0__r0.csv", "P1__f0.01__g0__r0.json"
            ]
            summary = json.loads((out / "P1__f0.01__g0__r0.json").read_text())
            assert summary == printed
            assert summary["stream_id"] == 1533612786248187790
            assert type(summary["eps_g_noise"]) is float
            del summary["wall_time_s"]
            outputs.append((code, json.dumps(summary, sort_keys=True),
                            (out / "P1__f0.01__g0__r0.csv").read_bytes()))
        assert outputs[1] == outputs[0]

    def test_zero_budget_exit_code(self, tmp_path):
        code = main(
            ["run", "P2", "--set", "solver.max_iters=0", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_BUDGET_EXHAUSTED

    def test_budget_spent_on_the_solution_exit_code(self, tmp_path):
        code = main(
            ["run", "P2", "--set", "solver.max_iters=1", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed(self, tmp_path, capsys, seed):
        code = main(["run", "P1", "--seed", seed, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be an integer in [0, 2^64)")
        assert "Traceback" not in err

    def test_unknown_problem(self, tmp_path, capsys):
        code = main(["run", "nosuch", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("error: unknown problem")

    def test_qp_json_problem(self, tmp_path, capsys):
        qp = _write_json(tmp_path / "tiny.json", QP_DOC)
        code = main(["run", qp, "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["problem"] == "tinyqp"
        assert summary["status"] == "converged"

    def test_rank_deficient_qp_fails(self, tmp_path, capsys):
        # Power-of-two duplicated rows make the rank deficiency exact in
        # floating point, so the diagnosis is deterministic.
        doc = dict(QP_DOC, A=[[2.0, 0.0], [2.0, 0.0]], b=[2.0, 2.0])
        qp = _write_json(tmp_path / "rankdef.json", doc)
        code = main(["run", qp, "--out", str(tmp_path / "o")])
        assert code == EXIT_FAILURE
        summary = json.loads(capsys.readouterr().out)
        assert summary["failure_reason"] == "constraint Jacobian is rank deficient"

    def test_a_step_that_squares_to_inf_fails_with_its_reason(self, tmp_path, capsys):
        # A finite gradient sample of about 1e308 gives a finite step whose
        # d'd overflows; the run ends with a status, not a traceback.
        argv = ["run", "P1", "--set", "oracle.eps_g_noise=1e308", "--out", str(tmp_path / "o")]
        with np.errstate(over="ignore"):
            code = main(argv)
        assert code == EXIT_FAILURE
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "linear_algebra_failure"
        assert summary["failure_reason"].startswith("step too large: d'd = inf")

    def test_badly_scaled_qp_passes_the_solve_accuracy_check(self, tmp_path, capsys):
        # hs48 with f scaled by 1e6, restated as a QP: an accurate first
        # solve leaves ||J d + c||_inf = 3.7e-9, which the solve check
        # accepts because its bound scales with ||gbar||_inf too.
        hessian = [[1, 0, 0, 0, 0], [0, 1, -1, 0, 0], [0, -1, 1, 0, 0],
                   [0, 0, 0, 1, -1], [0, 0, 0, -1, 1]]
        doc = {
            "name": "hs48e6",
            "Q": [[2e6 * v for v in row] for row in hessian],
            "q": [-2e6, 0.0, 0.0, 0.0, 0.0],
            "A": [[1.0, 1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, -2.0, -2.0]],
            "b": [5.0, -3.0],
            "x0": [3.0, 5.0, -3.0, 2.0, -1.0],
        }
        qp = _write_json(tmp_path / "hs48e6.json", doc)
        code = main(["run", qp, "--out", str(tmp_path / "o")])
        assert code == EXIT_BUDGET_EXHAUSTED
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "budget_exhausted"
        assert summary["failure_reason"] is None

    def test_invalid_qp_json(self, tmp_path, capsys):
        qp = _write_json(tmp_path / "broken.json", dict(QP_DOC, extra=1))
        code = main(["run", qp, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert "unknown field" in capsys.readouterr().err

    def test_noise_pair_too_large_for_a_float(self, tmp_path, capsys):
        code = main(["run", "P2", "--set", f"grid.noise_pairs=[[{HUGE}, 0]]",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "error: grid.noise_pairs[0]: eps_f_noise must be finite and >= 0\n"
        )

    @pytest.mark.parametrize(
        "key, message",
        [
            ("solver.tau_init", "tau_init must be finite and > 0"),
            ("solver.tol_infeas", "tol_infeas must be finite and >= 0"),
            ("solver.tol_kkt", "tol_kkt must be finite and >= 0"),
            ("oracle.eps_f_noise", "eps_f_noise must be finite and >= 0"),
            ("oracle.eps_g_noise", "eps_g_noise must be finite and >= 0"),
        ],
    )
    def test_setting_too_large_for_a_float_names_its_field(self, tmp_path, capsys, key, message):
        for value in (HUGE, "1e999"):
            code = main(["run", "P2", "--set", f"{key}={value}", "--out", str(tmp_path / "o")])
            assert code == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "o").exists()

    def test_eps_f_accept_is_an_unknown_key(self, tmp_path, capsys):
        # The acceptance test's noise allowance is the oracle's eps_f_noise.
        code = main(["run", "P2", "--set", "solver.eps_f_accept=0", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: unknown key(s) in section 'solver': eps_f_accept\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["sigma", "eps_tau", "theta", "gamma", "alpha_max", "alpha0"])
    def test_step_rule_constants_are_unknown_keys(self, tmp_path, capsys, key):
        # They are sqp's module constants, which no run varies.
        code = main(["run", "P2", "--set", f"solver.{key}=0.5", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"error: unknown key(s) in section 'solver': {key}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["1e-300", "1e-12"])
    def test_tau_init_at_or_below_the_old_absolute_floor_runs(self, tmp_path, capsys, value):
        # The collapse floor is 1e-11 * tau_init (1e-23 at tau_init =
        # 1e-12), so the run does not end at iteration 0 with a collapsed
        # merit parameter.
        code = main(["run", "P2", "--set", f"solver.tau_init={value}",
                     "--set", "solver.max_iters=5", "--out", str(tmp_path / "o")])
        summary = json.loads(capsys.readouterr().out)
        # P2's one-step projection, as at the default tau_init.
        assert (code, summary["status"], summary["iterations"]) == (EXIT_OK, "converged", 1)

    @pytest.mark.parametrize(
        "override, message",
        [("solver.tau_init=[0.5]", "tau_init must be a number"),
         ('oracle.eps_f_noise="a"', "eps_f_noise must be a number")],
    )
    def test_non_number_setting_names_its_field(self, tmp_path, capsys, override, message):
        code = main(["run", "P2", "--set", override, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_set_value_nested_too_deep_is_not_json(self, tmp_path, capsys):
        deep = "[" * 5000 + "]" * 5000
        code = main(["run", "P2", "--set", f"solver.tol_kkt={deep}", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: tol_kkt must be a number\n"

    @pytest.mark.parametrize("name", ["../evil", "a/b"])
    def test_qp_name_must_be_a_plain_file_name(self, tmp_path, capsys, name):
        qp = _write_json(tmp_path / "named.json", dict(QP_DOC, name=name))
        out = tmp_path / "sub" / "out"
        code = main(["run", qp, "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: {qp}: name must be letters, digits, '_', '-' and '.', "
            "not starting with '.'\n"
        )
        assert not (tmp_path / "sub").exists()

    def test_qp_json_number_too_large_for_a_float(self, tmp_path, capsys):
        # json.dumps writes the int digit for digit.
        qp = _write_json(tmp_path / "huge.json", dict(QP_DOC, q=[int(HUGE), 0]))
        code = main(["run", qp, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "error: q must hold finite numbers: int too large to convert to float\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("Q", [[True, 0], [0, 1]]),
            # numpy would read this mixed list as [[2, 0], [0, 2]].
            ("Q", [[2.0, False], [False, 2.0]]),
            ("Q", [[2.0, 0.0], [0.0, "2"]]),
            ("q", ["1", "0"]),
            ("A", [[1.0, True]]),
            ("b", ["2"]),
            ("x0", [0.0, False]),
        ],
        ids=["Q-bools", "Q-mixed-bools", "Q-string", "q-strings", "A-bool", "b-string",
             "x0-bool"],
    )
    def test_qp_json_holds_numbers_only(self, tmp_path, capsys, key, value):
        qp = _write_json(tmp_path / "qbad.json", dict(QP_DOC, **{key: value}))
        code = main(["run", qp, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: {qp}: {key} must hold numbers, not strings or booleans\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_that_cannot_be_created_fails_before_the_solve(
        self, tmp_path, capsys, monkeypatch, out
    ):
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("solve was reached"))
        code = main(["run", "P2", "--out", str(tmp_path / out)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"error: cannot write to {tmp_path / out}: ")

    @pytest.mark.parametrize("blocked", ["P1__f0__g0__r0.csv", "P1__f0__g0__r0.json"])
    def test_a_directory_on_an_output_name_is_a_write_error(self, tmp_path, capsys, blocked):
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        code = main(["run", "P1", "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write to {out}: ")
        assert not list(out.glob(".*.tmp"))

    def test_seed_reproducibility(self, tmp_path):
        noise = ["--set", "oracle.eps_f_noise=0.01", "--set", "oracle.eps_g_noise=0.1"]
        csv_name = "P1__f0.01__g0.1__r0.csv"
        codes = set()
        for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
            codes.add(main(["run", "P1", *noise, "--seed", str(seed), "--out", str(tmp_path / sub)]))
        assert codes <= {EXIT_OK, EXIT_BUDGET_EXHAUSTED}
        same_a = (tmp_path / "a" / csv_name).read_bytes()
        same_b = (tmp_path / "b" / csv_name).read_bytes()
        other = (tmp_path / "c" / csv_name).read_bytes()
        assert same_a == same_b
        assert same_a != other


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_out")
    cfg = {
        "grid": {
            "problems": ["P1", "hs6"],
            "noise_pairs": [[0, 0], [1e-2, 1e-1]],
            "replicates": 2,
        }
    }
    cfg_path = out.parent / "bench_cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["bench", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_OK
    return out


class TestBenchAndProfileCommands:

    def test_bench_outputs(self, bench_dir, capsys):
        assert (bench_dir / "summary.json").is_file()
        summary = json.loads((bench_dir / "summary.json").read_text())
        assert len(summary["runs"]) == 6

    def test_bench_grid_with_overflowing_steps_completes(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["bench", "--set", "grid.noise_pairs=[[0, 1e308]]",
                "--set", 'grid.problems=["P1", "hs6"]', "--set", "grid.replicates=1",
                "--out", str(out)]
        # P1's d'd overflows, and hs6's step overflows inside the solve,
        # which the run reports as an inaccurate KKT solve; the test
        # session's residual self-check leaves that non-finite step alone.
        with np.errstate(over="ignore"):
            code = main(argv)
        assert code == EXIT_FAILURE
        assert json.loads(capsys.readouterr().out)["by_status"] == {"linear_algebra_failure": 2}
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert runs[0]["failure_reason"].startswith("step too large: d'd = inf")
        assert runs[1]["failure_reason"].startswith("inaccurate KKT solve")

    def test_bench_unknown_problem(self, tmp_path, capsys):
        code = main(
            ["bench", "--set", 'grid.problems=["ghost"]', "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG_ERROR
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (['grid.problems=["P2","P2"]', "grid.noise_pairs=[[0,0]]"],
             "problem P2 more than once"),
            (
                ['grid.problems=["P2"]', "grid.noise_pairs=[[0,0.1],[0.0,0.1]]",
                 "grid.replicates=1"],
                "noise pair (0.0, 0.1) more than once",
            ),
            (
                ['grid.problems=["P1","hs6"]', "grid.noise_pairs=[[0,0.1],[0,0.1000001]]",
                 "grid.replicates=3"],
                "grid noise pairs (0.0, 0.1) and (0.0, 0.1000001) share the label f0__g0.1, "
                "which names their run and profile files",
            ),
        ],
    )
    def test_bench_rejects_repeated_grid_entries(self, tmp_path, capsys, overrides, message):
        sets = [arg for override in overrides for arg in ("--set", override)]
        code = main(["bench", *sets, "--jobs", "2", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        # bench creates --out before its first run, so no directory means no run started.
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("[true, 0.01]", "grid.noise_pairs[0]: eps_f_noise must be a number"),
            ('[0, "1e-2"]', "grid.noise_pairs[0]: eps_g_noise must be a number"),
        ],
        ids=["bool", "string"],
    )
    def test_bench_rejects_a_noise_level_that_is_not_a_number(
        self, tmp_path, capsys, monkeypatch, pair, message
    ):
        monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: pytest.fail("grid ran"))
        code = main(["bench", "--set", f"grid.noise_pairs=[{pair}]", "--set",
                     'grid.problems=["P1"]', "--set", "grid.replicates=1",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_bench_rejects_too_many_noise_pairs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: pytest.fail("grid ran"))
        pairs = json.dumps([[0.0, (i + 1) * 1e-6] for i in range(MAX_NOISE_PAIRS + 1)])
        code = main(["bench", "--set", f"grid.noise_pairs={pairs}", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: grid.noise_pairs must hold at most 100 pairs\n"

    def test_bench_rejects_huge_replicates_within_a_second(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: pytest.fail("grid ran"))
        start = time.perf_counter()
        code = main(["bench", "--set", "grid.replicates=1000000000000", "--out",
                     str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: replicates must be an integer from 1 to 1000\n"
        assert not (tmp_path / "o").exists()

    def test_bench_bad_jobs(self, tmp_path, capsys):
        code = main(["bench", "--jobs", "0", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR

    def test_bench_out_that_cannot_be_created_fails_before_the_grid(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "file"
        out.write_text("")
        monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: pytest.fail("grid ran"))
        code = main(["bench", "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"error: cannot write to {out}: ")

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "blocked", ["P1__f0__g0__r0.csv", "profile__kkt__iterations__f0__g0.csv", "summary.json"]
    )
    def test_a_directory_on_an_output_name_is_a_write_error(
        self, tmp_path, capsys, monkeypatch, blocked, jobs
    ):
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: jobs)
        grid = ["--set", 'grid.problems=["P1"]', "--set", "grid.noise_pairs=[[0, 0]]",
                "--set", "grid.replicates=1"]
        code = main(["bench", *grid, "--jobs", str(jobs), "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write to {out}: ")
        assert not list(out.glob(".*.tmp"))

    @pytest.mark.parametrize("asked, cpus, expected", [(8, 2, 2), (2, 2, 2), (1, 4, 1)])
    def test_bench_jobs_capped_at_usable_cpus(
        self, tmp_path, capsys, monkeypatch, asked, cpus, expected
    ):
        # Stubbed run_grid: no grid runs and no worker process starts.
        seen = []

        def fake_run_grid(grid, out_dir, jobs):
            seen.append(jobs)
            return {"runs": [], "wall_time_s": 0.0}

        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "run_grid", fake_run_grid)
        code = main(["bench", "--jobs", str(asked), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert seen == [expected]
        err = capsys.readouterr().err
        if expected < asked:
            assert err == f"note: --jobs {asked} lowered to {expected}, the CPUs this process may use\n"
        else:
            assert err == ""

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert cli._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert cli._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1

    def test_profile_from_bench_dir(self, bench_dir, tmp_path, capsys):
        out = tmp_path / "profiles"
        code = main(["profile", str(bench_dir), "--out", str(out)])
        assert code == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed["profiles"] == ["infeasibility__iterations", "kkt__iterations"]
        written = list(out.glob("profile__*.csv"))
        assert len(written) == 4  # 2 profile keys x 2 noise configurations

    def test_bench_dir_holds_only_its_outputs(self, bench_dir):
        runs = json.loads((bench_dir / "summary.json").read_text())["runs"]
        profiles = {
            f"profile__{metric}__iterations__{label}.csv"
            for metric in ("infeasibility", "kkt")
            for label in ("f0__g0", "f0.01__g0.1")
        }
        expected = {entry["csv"] for entry in runs} | {"summary.json"} | profiles
        assert {p.name for p in bench_dir.iterdir()} == expected

    def test_profile_ignores_work_profiles_of_an_older_bench_dir(self, bench_dir, tmp_path):
        # Bench directories written before profiles had one cost axis also
        # hold a profile__<metric>__work__<label>.csv per iteration profile,
        # byte for byte the same.
        old = tmp_path / "old"
        shutil.copytree(bench_dir, old)
        iteration_files = sorted(old.glob("profile__*__iterations__*.csv"))
        for path in iteration_files:
            shutil.copyfile(path, path.with_name(path.name.replace("__iterations__", "__work__")))
        out = tmp_path / "p"
        assert main(["profile", str(old), "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [p.name for p in iteration_files]
        for path in iteration_files:
            assert (out / path.name).read_bytes() == path.read_bytes()

    def test_profile_rejects_same_named_directories(
        self, bench_dir, tmp_path, capsys, monkeypatch
    ):
        first, second = tmp_path / "a" / "out", tmp_path / "b" / "out"
        shutil.copytree(bench_dir, first)
        shutil.copytree(bench_dir, second)
        monkeypatch.chdir(first)
        # Two directories of one name, and "." beside the path it stands for.
        for dirs in ([str(first), str(second)], [".", str(first)]):
            code = main(["profile", *dirs, "--out", str(tmp_path / "p")])
            assert code == EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert f"run directories {', '.join(dirs)} share the name 'out'" in err
            assert not (tmp_path / "p").exists()

    def test_profile_labels_dot_with_the_working_directory_name(
        self, bench_dir, tmp_path, capsys, monkeypatch
    ):
        shutil.copytree(bench_dir, tmp_path / "a")
        shutil.copytree(bench_dir, tmp_path / "b")
        monkeypatch.chdir(tmp_path / "a")
        assert main(["profile", ".", "../b", "--out", str(tmp_path / "p")]) == EXIT_OK
        names = {path.name for path in (tmp_path / "p").iterdir()}
        assert {"profile__kkt__iterations__a__f0__g0.csv",
                "profile__kkt__iterations__b__f0__g0.csv"} <= names
        assert not any("____" in name for name in names)

    @pytest.mark.parametrize(
        "column, row, value, message",
        [
            ("kkt_inf", 1, "nan", "metric values must be finite"),
        ],
    )
    def test_profile_rejects_a_doctored_run_csv(
        self, bench_dir, tmp_path, capsys, column, row, value, message
    ):
        copy = tmp_path / "copy"
        shutil.copytree(bench_dir, copy)
        doctor_run_csv(copy, column, row, value)
        code = main(["profile", str(copy), "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err

    def test_profile_rejects_a_run_csv_cut_mid_line(self, bench_dir, tmp_path, capsys):
        # A bench killed while writing leaves the last row's tail missing.
        copy = tmp_path / "copy"
        shutil.copytree(bench_dir, copy)
        path = copy / json.loads((copy / "summary.json").read_text())["runs"][0]["csv"]
        text = path.read_text()
        last = text.rindex("\n", 0, len(text) - 1) + 1
        path.write_text(text[:last] + ",".join(text[last:].split(",")[:3]))
        code = main(["profile", str(copy), "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot rebuild profiles: {path}: ends mid-line\n"
        )

    def test_profile_rejects_a_summary_entry_without_a_csv(self, bench_dir, tmp_path, capsys):
        copy = tmp_path / "copy"
        shutil.copytree(bench_dir, copy)
        summary_path = copy / "summary.json"
        summary = json.loads(summary_path.read_text())
        name = summary["runs"][1]["csv"]
        summary["runs"][1]["csv"] = None
        summary_path.write_text(json.dumps(summary))
        code = main(["profile", str(copy), "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot rebuild profiles: {summary_path}: "
            f'runs[1].csv must be "{name}", as for cell 1 of the grid\n'
        )

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda s: s.update(grid=None), "grid must be object, not null"),
            (lambda s: s["grid"].update(replicates=None), REPLICATES_MESSAGE),
            (lambda s: s["grid"].update(replicates=True), REPLICATES_MESSAGE),
            (lambda s: s["grid"].update(replicates=0), REPLICATES_MESSAGE),
            (lambda s: s["grid"].update(params=None), "grid.params must be object, not null"),
            (lambda s: s["grid"].pop("params"), "grid has no 'params'"),
            (lambda s: s.update(runs={}), "runs must be array, not {}"),
            (lambda s: s["grid"]["problems"].append("ghost"),
             "grid: unknown problem 'ghost'; available: " + ", ".join(problem_names())),
            (lambda s: s["grid"].pop("seed"), "grid has no 'seed'"),
            (lambda s: s["grid"]["params"].update(bogus=1),
             "grid.params has the unknown key 'bogus'"),
            (lambda s: s["grid"].update(step=1), "grid has the unknown key 'step'"),
            (lambda s: s["grid"]["params"].pop("max_iters"), "grid.params has no 'max_iters'"),
            (lambda s: (s["grid"]["problems"].append("ghost"), s["grid"].pop("seed"),
                        s["grid"]["params"].update(bogus=1)),
             "grid has no 'seed'"),
        ],
        ids=["grid", "replicates-null", "replicates-bool", "replicates-zero", "params-null",
             "params-missing", "runs", "problem-unknown", "seed-missing", "params-unknown-key",
             "grid-unknown-key", "params-key-missing", "problem-seed-and-params-key"],
    )
    def test_profile_rejects_a_damaged_grid_entry(
        self, bench_dir, tmp_path, capsys, damage, message
    ):
        copy = tmp_path / "copy"
        shutil.copytree(bench_dir, copy)
        summary_path = copy / "summary.json"
        summary = json.loads(summary_path.read_text())
        damage(summary)
        summary_path.write_text(json.dumps(summary))
        code = main(["profile", str(copy), "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot rebuild profiles: {summary_path}: {message}\n"
        )
        assert not (tmp_path / "p").exists()

    def test_profile_compares_unhashable_params(self, bench_dir, tmp_path, capsys):
        # SolverParams rejects an unhashable value before any comparison.
        copy = tmp_path / "copy"
        shutil.copytree(bench_dir, copy)
        summary_path = copy / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary["grid"]["params"]["tol_kkt"] = [0.5]
        summary_path.write_text(json.dumps(summary))
        code = main(["profile", str(bench_dir), str(copy), "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot rebuild profiles: {summary_path}: grid: tol_kkt must be a number\n"
        )

    def test_profile_rejects_huge_replicates_within_a_second(self, bench_dir, tmp_path, capsys):
        copy = tmp_path / "copy"
        shutil.copytree(bench_dir, copy)
        summary_path = copy / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary["grid"]["replicates"] = 10**12
        summary_path.write_text(json.dumps(summary))
        start = time.perf_counter()
        code = main(["profile", str(copy), "--out", str(tmp_path / "p")])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot rebuild profiles: {summary_path}: {REPLICATES_MESSAGE}\n"
        )
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            # The other campaign's run of the same name would be mixed in.
            (lambda runs: runs[0].update(csv="../other/" + runs[0]["csv"]),
             'runs[0].csv must be "P1__f0__g0__r0.csv", as for cell 0 of the grid'),
            (lambda runs: runs[2].update(stream_id=runs[2]["stream_id"] ^ 1),
             "runs[2].stream_id must be {stream}, as for cell 2 of the grid"),
            (lambda runs: runs[1].update(eps_g_noise=0.01),
             "runs[1].eps_g_noise must be 0.1, as for cell 1 of the grid"),
            (lambda runs: runs[1].update(replicate=True),
             "runs[1].replicate must be 0, as for cell 1 of the grid"),
            (lambda runs: runs.reverse(), 'runs[0].problem must be "P1", as for cell 0 of the grid'),
            (lambda runs: runs[3].pop("problem"),
             'runs[3].problem must be "hs6", as for cell 3 of the grid'),
            (lambda runs: runs.__delitem__(slice(2, None)),
             "runs has 2 entries for the grid's 6 cells"),
        ],
        ids=["csv-elsewhere", "stream-id", "noise-level", "bool-replicate", "order", "no-problem",
             "runs-cut"],
    )
    def test_profile_rejects_runs_that_are_not_the_grids_cells(
        self, bench_dir, tmp_path, capsys, damage, message
    ):
        copy, other = tmp_path / "copy", tmp_path / "other"
        shutil.copytree(bench_dir, copy)
        shutil.copytree(bench_dir, other)
        summary_path = copy / "summary.json"
        summary = json.loads(summary_path.read_text())
        stream = summary["runs"][2]["stream_id"]
        damage(summary["runs"])
        summary_path.write_text(json.dumps(summary))
        code = main(["profile", str(copy), "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot rebuild profiles: {summary_path}: {message.format(stream=stream)}\n"
        )
        assert not (tmp_path / "p").exists()

    def test_profile_without_common_instances(self, bench_dir, tmp_path, capsys):
        other = tmp_path / "other"
        code = main(
            ["bench", "--set", 'grid.problems=["P2"]', "--set", "grid.noise_pairs=[[0,0]]",
             "--out", str(other)]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        code = main(["profile", str(bench_dir), str(other), "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert "share no instances" in capsys.readouterr().err

    def test_profile_rejects_directories_with_different_params(self, tmp_path, capsys):
        dirs = []
        for max_iters in (20, 30):
            out = tmp_path / f"iters{max_iters}"
            code = main(
                ["bench", "--set", 'grid.problems=["P2"]', "--set", "grid.noise_pairs=[[0,0]]",
                 "--set", f"solver.max_iters={max_iters}", "--out", str(out)]
            )
            assert code == EXIT_OK
            dirs.append(str(out))
        capsys.readouterr()
        code = main(["profile", *dirs, "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert "first differing key: max_iters" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_profile_missing_directory(self, tmp_path, capsys):
        code = main(["profile", str(tmp_path / "nowhere"), "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert "cannot rebuild profiles" in capsys.readouterr().err

    def test_profile_out_that_cannot_be_created(self, bench_dir, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        code = main(["profile", str(bench_dir), "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"error: cannot write to {out}: ")

    def test_profile_directory_on_an_output_name_is_a_write_error(
        self, bench_dir, tmp_path, capsys
    ):
        out = tmp_path / "p"
        (out / "profile__kkt__iterations__f0__g0.csv").mkdir(parents=True)
        code = main(["profile", str(bench_dir), "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write to {out}: ")
        assert not list(out.glob(".*.tmp"))

    @pytest.mark.parametrize(
        "pair, message",
        [
            ([True, 0.1], "grid.noise_pairs[1]: eps_f_noise must be a number"),
            ([0.01, "1e-1"], "grid.noise_pairs[1]: eps_g_noise must be a number"),
        ],
        ids=["bool", "string"],
    )
    def test_profile_rejects_a_grid_noise_level_that_is_not_a_number(
        self, bench_dir, tmp_path, capsys, pair, message
    ):
        copy = tmp_path / "copy"
        shutil.copytree(bench_dir, copy)
        summary_path = copy / "summary.json"
        summary = json.loads(summary_path.read_text())
        assert summary["grid"]["noise_pairs"][1] == [0.01, 0.1]
        summary["grid"]["noise_pairs"][1] = pair
        summary_path.write_text(json.dumps(summary))
        code = main(["profile", str(copy), "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot rebuild profiles: {summary_path}: grid: {message}\n"
        )
        assert not (tmp_path / "p").exists()

    def test_profile_rejects_a_grid_whose_noise_pairs_share_a_label(
        self, bench_dir, tmp_path, capsys
    ):
        # As an older bench could write it: a third pair whose runs would
        # have overwritten the second's CSVs.
        copy = tmp_path / "copy"
        shutil.copytree(bench_dir, copy)
        summary_path = copy / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary["grid"]["noise_pairs"].append([0.01, 0.1000001])
        summary_path.write_text(json.dumps(summary))
        code = main(["profile", str(copy), "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot rebuild profiles: {summary_path}: grid: grid noise pairs "
            "(0.01, 0.1) and (0.01, 0.1000001) share the label f0.01__g0.1, "
            "which names their run and profile files\n"
        )
        assert not (tmp_path / "p").exists()

    def test_profile_rejects_a_huge_noise_pair_list_within_a_second(
        self, bench_dir, tmp_path, capsys
    ):
        copy = tmp_path / "copy"
        shutil.copytree(bench_dir, copy)
        summary_path = copy / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary["grid"]["noise_pairs"] = [[0.0, (i + 1) * 1e-9] for i in range(10**5)]
        summary_path.write_text(json.dumps(summary))
        start = time.perf_counter()
        code = main(["profile", str(copy), "--out", str(tmp_path / "p")])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot rebuild profiles: {summary_path}: "
            f"grid: grid.noise_pairs must hold at most {MAX_NOISE_PAIRS} pairs\n"
        )
        assert not (tmp_path / "p").exists()

    def test_profile_rejects_a_noise_level_too_large_for_a_float(
        self, bench_dir, tmp_path, capsys
    ):
        copy = tmp_path / "copy"
        shutil.copytree(bench_dir, copy)
        summary_path = copy / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary["runs"][0]["eps_f_noise"] = int(HUGE)
        summary_path.write_text(json.dumps(summary))
        code = main(["profile", str(copy), "--out", str(tmp_path / "p")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot rebuild profiles: {summary_path}: "
            "runs[0].eps_f_noise must be 0.0, as for cell 0 of the grid\n"
        )


# Each of these ended in a traceback, or in an error that did not name the file.
_UNREADABLE_JSON = {
    "nested": ("[" * 100_000 + "]" * 100_000).encode(),
    "not-utf8": b'{"name": "\xe9"}',
    "not-json": b"{'runs': []}",
}


@pytest.mark.parametrize(
    "reader, content",
    [("config", "nested"), ("config", "not-utf8"), ("qp", "nested"), ("qp", "not-utf8"),
     ("summary", "nested"), ("summary", "not-utf8"), ("summary", "not-json")],
)
def test_unreadable_json_file_is_an_error_naming_it(tmp_path, capsys, reader, content):
    if reader == "summary":
        path = tmp_path / "bench" / "summary.json"
        path.parent.mkdir()
        argv = ["profile", str(path.parent), "--out", str(tmp_path / "o")]
    else:
        path = tmp_path / "in.json"
        argv = ["run", *(["P1", "--config", str(path)] if reader == "config" else [str(path)]),
                "--out", str(tmp_path / "o")]
    path.write_bytes(_UNREADABLE_JSON[content])
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{path}: not valid JSON (" in err
    assert not (tmp_path / "o").exists()


class TestOtherCommands:
    def test_check_grad_is_an_unknown_command(self, capsys):
        assert main(["check-grad"]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "invalid choice: 'check-grad'" in err

    def test_list_problems(self, capsys):
        code = main(["list-problems"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(problem_names())
        assert lines[0] == "P1\t2\t1"
        for line in lines:
            name, n, m = line.split("\t")
            assert int(n) >= int(m) >= 1

    def test_usage_errors_exit_one(self, capsys):
        assert main(["no-such-command"]) == EXIT_CONFIG_ERROR
        assert main([]) == EXIT_CONFIG_ERROR
        assert main(["run"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("error:") == 3


# --set fuzzing: keys from every config section plus unknown ones, values
# any JSON (and raw text that is no JSON), and texts that are no override.
_JSON_SCALARS = st.one_of(
    st.sampled_from([int(HUGE), -int(HUGE), 1e308, -1e308, math.nan, math.inf, -math.inf,
                     0, -0.0, 1, 0.5, 2**64]),
    st.booleans(),
    st.none(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
)
_JSON_VALUES = st.one_of(
    st.recursive(
        _JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=2),
        max_leaves=6,
    ),
    # Lists of pairs, the shape grid.noise_pairs takes.
    st.lists(st.lists(_JSON_SCALARS, min_size=2, max_size=2), min_size=1, max_size=2),
)
_SET_KEYS = sorted(
    f"{section}.{key}" for section, keys in cli._SECTIONS.items() for key in keys
) + ["solver.nope", "oracle.stream_id", "grid.seed", "grid.params", "engine.tol_kkt", "solver."]
_OVERRIDES = st.one_of(
    st.builds(lambda key, value: f"{key}={json.dumps(value)}",
              st.sampled_from(_SET_KEYS), _JSON_VALUES),
    st.builds(lambda key, raw: f"{key}={raw}", st.sampled_from(_SET_KEYS), st.text(max_size=6)),
    st.sampled_from(["solver.tol_kkt", "tol_kkt=0.5", "=1", ".tol_kkt=1", "solver=0.5"]),
    st.text(max_size=12),
)


def _no_grid(grid, out_dir, jobs):
    return {"runs": [], "wall_time_s": 0.0}


# bench runs with run_grid stubbed, so only its configuration path is
# fuzzed. The exit code is what is checked, so overflow warnings from
# extreme noise levels do not matter here.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(override=_OVERRIDES)
def test_any_set_override_exits_with_a_code(tmp_path_factory, override):
    out = tmp_path_factory.getbasetemp() / "set_fuzz"
    codes = (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_BUDGET_EXHAUSTED, EXIT_FAILURE)
    argv = ["run", "P2", "--out", str(out), "--set", override, "--set", "solver.max_iters=5"]
    assert main(argv) in codes
    with mock.patch.object(cli, "run_grid", _no_grid):
        assert main(["bench", "--out", str(out), "--set", override]) in codes


def _modules_loaded_after(statements: str, *modules: str) -> list[bool]:
    """In a fresh interpreter, run statements and report which modules are loaded."""
    src = Path(stepsqp.__file__).resolve().parents[1]
    script = f"import json, sys\n{statements}\nprint(json.dumps([m in sys.modules for m in {modules!r}]))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


# SciPy's import costs about as much as the rest of start-up; only a
# factorization needs it (for LAPACK).
@pytest.mark.parametrize(
    "statements",
    [
        "import stepsqp.cli",
        "from stepsqp.cli import main\ntry:\n    main(['--help'])\nexcept SystemExit:\n    pass",
        "from stepsqp.cli import main\nmain(['list-problems'])\nmain(['nope'])",
        "from stepsqp.cli import main\nassert main(['profile', {dir!r}, '--out', {out!r}]) == 0",
    ],
    ids=["import", "help", "no-solve-commands", "profile"],
)
def test_commands_that_solve_nothing_leave_scipy_unloaded(bench_dir, tmp_path, statements):
    statements = statements.format(dir=str(bench_dir), out=str(tmp_path / "p"))
    assert _modules_loaded_after(statements, "scipy") == [False]


def test_a_run_loads_lapack_at_its_first_factorization(tmp_path):
    statements = (
        "from stepsqp import linalg\nfrom stepsqp.cli import main\n"
        "before = 'scipy' in sys.modules\n"
        f"main(['run', 'P1', '--out', {str(tmp_path)!r}])\n"
        "assert not before and type(linalg.dgetrf).__name__ == 'fortran'"
    )
    assert _modules_loaded_after(statements, "scipy.linalg") == [True]


def test_bench_loads_lapack_before_its_worker_pool(tmp_path):
    # Forked workers inherit the parent's modules. A thread pool stands in
    # for the process pool, so no worker process starts.
    statements = (
        "import concurrent.futures\n"
        "from stepsqp.bench import ExperimentGrid, run_grid\n"
        "at_pool = []\n"
        "class Pool(concurrent.futures.ThreadPoolExecutor):\n"
        "    def __init__(self, max_workers):\n"
        "        at_pool.append('scipy.linalg' in sys.modules)\n"
        "        super().__init__(max_workers)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        "run_grid(ExperimentGrid(problems=('P2',), noise_pairs=((0.0, 0.0),), replicates=2), "
        f"out_dir={str(tmp_path)!r}, jobs=2)\n"
        "assert at_pool == [True]"
    )
    assert _modules_loaded_after(statements, "scipy.linalg") == [True]


def test_importing_bench_leaves_its_worker_pool_unloaded():
    # Only a grid run at --jobs 2 or more needs concurrent.futures, which
    # loads logging too.
    assert _modules_loaded_after("import stepsqp.bench", "concurrent.futures", "logging") == [
        False, False
    ]


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # bench reaches its process pool through concurrent.futures, which
    # loads it on first use; loading it eagerly slows every start-up.
    src = Path(stepsqp.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, stepsqp.cli; print('multiprocessing' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    src = Path(stepsqp.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", block],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines()[0] == "converged"


def test_importing_oracles_loads_no_other_stepsqp_module():
    # The oracles are a noise source for a problem in n variables.
    others = [f"stepsqp.{module.name}" for module in pkgutil.iter_modules(stepsqp.__path__)
              if module.name != "oracles"]
    assert others
    assert _modules_loaded_after("import stepsqp.oracles", *others) == [False] * len(others)


def test_importing_the_registry_solves_nothing():
    # The reference KKT pairs are test data (tests/test_problems.py).
    statements = (
        "import numpy.linalg\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('a linear solve at import')\n"
        "numpy.linalg.solve = numpy.linalg.lstsq = refuse\n"
        "import stepsqp.problems\n"
        "assert len(stepsqp.problems.problem_names()) == 12"
    )
    assert _modules_loaded_after(statements, "stepsqp.problems") == [True]
