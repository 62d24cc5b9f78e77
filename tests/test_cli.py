"""Command line interface: argument handling, CSV schemas, exit codes."""

from __future__ import annotations

import configparser
import csv
import dataclasses
import io
import math
import os
import pathlib
import subprocess
import sys

import pytest

from rrcusum import cli
from rrcusum.cli import ARL_CSV_HEADER, CSV_SCHEMA_VERSION, STUDY_CSV_HEADER, main
from rrcusum.montecarlo import StudyRow

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestSchemas:
    def test_study_header_is_frozen(self):
        assert STUDY_CSV_HEADER == [
            "study",
            "K",
            "m",
            "rho",
            "gamma",
            "s",
            "num_correlated_pairs",
            "mean_delay",
            "stderr",
            "truncations",
            "lower_bound",
            "upper_bound_prop4",
            "upper_bound_remark2",
        ]

    def test_arl_header_is_frozen(self):
        assert ARL_CSV_HEADER == [
            "K",
            "m",
            "gamma",
            "threshold",
            "cap",
            "replications",
            "arl",
            "stderr",
            "truncations",
        ]

    def test_study_header_names_every_row_field(self):
        # study rows are written with dataclasses.astuple, in field order
        assert len(STUDY_CSV_HEADER) == len(dataclasses.fields(StudyRow))

    def test_schema_version(self):
        assert CSV_SCHEMA_VERSION == 2

    def test_float_formatting(self):
        assert cli._fmt(100.0) == "100"
        assert cli._fmt(0.7) == "0.7"
        assert cli._fmt(12.3456789) == "12.3457"
        assert cli._fmt(True) == "true"
        assert cli._fmt(7) == "7"


def stub_rows():
    return [
        StudyRow(
            study="1",
            K=10,
            m=2,
            rho=0.7,
            gamma=100.0,
            s=2,
            num_correlated_pairs=1,
            mean_delay=12.3456789,
            stderr=0.12345,
            truncations=0,
            lower_bound=13.678495396350622,
            upper_bound=20.0,
            upper_bound_coarse=25.5,
        ),
        StudyRow(
            study="1",
            K=10,
            m=2,
            rho=0.7,
            gamma=100.0,
            s=3,
            num_correlated_pairs=3,
            mean_delay=11.25,
            stderr=0.1,
            truncations=2,
            lower_bound=13.678495396350622,
            upper_bound=math.inf,
            upper_bound_coarse=math.inf,
        ),
    ]


EXPECTED_STUDY_CSV = (
    "study,K,m,rho,gamma,s,num_correlated_pairs,mean_delay,stderr,truncations,"
    "lower_bound,upper_bound_prop4,upper_bound_remark2\n"
    "1,10,2,0.7,100,2,1,12.3457,0.12345,0,13.6785,20,25.5\n"
    "1,10,2,0.7,100,3,3,11.25,0.1,2,13.6785,inf,inf\n"
)


class TestStudyCommand:
    def test_csv_bytes_are_stable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_study", lambda *a, **k: stub_rows())
        out = tmp_path / "rows.csv"
        assert main(["study", "1", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == EXPECTED_STUDY_CSV

    def test_stdout_when_no_out_flag(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_study", lambda *a, **k: stub_rows())
        assert main(["study", "1"]) == 0
        assert capsys.readouterr().out == EXPECTED_STUDY_CSV

    def test_forwards_run_options(self, monkeypatch, capsys):
        called = {}

        def fake(study, replications=None, seed=0, nu=0, **kw):
            called.update(study=study, replications=replications, seed=seed, nu=nu)
            return stub_rows()

        monkeypatch.setattr(cli, "run_study", fake)
        assert main(["study", "2", "--reps", "50", "--seed", "4", "--nu", "3"]) == 0
        assert called == {"study": 2, "replications": 50, "seed": 4, "nu": 3}
        assert capsys.readouterr().out == EXPECTED_STUDY_CSV

    def test_simulate_has_no_study_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--study", "2"])
        assert exc.value.code == 2

    def test_rejects_unknown_study_number(self, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            main(["study", "9"])


class TestBoundsCommand:
    def test_mean_change_report(self, capsys):
        code = main(["bounds", "mean-change", "--reps", "10000", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimality = asymptotically_optimal" in out
        assert "unit.9.info_number = 0.5" in out
        assert "unit.10.info_number = 0.5" in out
        assert "lower_bound_restricted = false" in out

    @pytest.mark.slow
    def test_corr_pairs_lower_bound_value(self, capsys):
        code = main(
            ["bounds", "corr-pairs", "--s", "10", "--gamma", "1e5", "--reps", "10000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "lower_bound = 34.1962" in out
        assert "are_bound = 1" in out

    @pytest.mark.slow
    def test_degenerate_first_order_bound_exits_0(self, capsys):
        # at m = 3 a unit holding one affected source has a negative
        # post-change drift, so every upper bound is infinite
        code = main(["bounds", "corr-pairs", "--m", "3", "--s", "4", "--reps", "10000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "upper_bound_first_order = inf" in out
        assert "are_bound = inf" in out
        assert "upper_bound_total = inf" in out
        assert "degenerate = upper bound degenerate" in out

    def test_bad_rho_exits_2(self, capsys):
        code = main(["bounds", "corr-pairs", "--rho", "1.2", "--reps", "10000"])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    def test_negative_rho_exits_2(self, capsys):
        # rho = -0.7 leaves a unit of three block members without a post-change law
        code = main(["bounds", "corr-pairs", "--m", "3", "--s", "4", "--rho", "-0.7", "--reps", "10000"])
        assert code == 2
        assert "error: rho must lie in (0, 1), got -0.7" in capsys.readouterr().err

    def test_missing_preset_exits_2(self, capsys):
        code = main(["bounds", "--reps", "10000"])
        assert code == 2
        assert "preset is required" in capsys.readouterr().err


class TestSimulateCommand:
    def test_delay_csv(self, tmp_path):
        out = tmp_path / "delay.csv"
        code = main(
            [
                "simulate",
                "corr-pairs",
                "--K",
                "5",
                "--gamma",
                "8",
                "--reps",
                "200",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["preset"] == "corr-pairs"
        assert row["K"] == "5"
        assert row["m"] == "2"
        assert float(row["mean_delay"]) > 0.0
        assert int(row["replications"]) == 200

    def test_high_stderr_is_warned_once(self, capsys):
        args = ["simulate", "corr-pairs", "--K", "5", "--gamma", "8", "--reps", "10"]
        with pytest.warns(UserWarning, match="exceeds 5%") as record:
            code = main(args)
        assert code == 0
        assert len(record) == 1
        assert "exceeds 5%" not in capsys.readouterr().err

    def test_delay_output_is_deterministic(self, tmp_path):
        args = [
            "simulate",
            "corr-pairs",
            "--K",
            "5",
            "--gamma",
            "8",
            "--reps",
            "150",
            "--seed",
            "3",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("extra", [[], ["--arl"]])
    def test_mean_change_on_one_source(self, extra, capsys):
        # the run spec carries no study checks, so K = 1 is a valid preset;
        # --arl builds no hypothesis, so it takes no block size
        block = [] if extra else ["--s", "1"]
        code = main(["simulate", "mean-change", "--K", "1", *block, "--reps", "200", *extra])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        assert rows[0]["K"] == "1"
        assert rows[0]["m"] == "1"

    def test_negative_rho_arl_exits_2(self, capsys):
        # the run length builds no hypothesis, so the model checks rho itself
        code = main(["simulate", "corr-pairs", "--arl", "--rho", "-0.3", "--gamma", "20", "--reps", "100"])
        assert code == 2
        assert "error: rho must lie in (0, 1), got -0.3" in capsys.readouterr().err

    def test_arl_cap_beyond_int64_exits_2(self, capsys):
        # --arl runs at cap 100 * gamma, here 1e19 steps
        code = main(["simulate", "corr-pairs", "--arl", "--gamma", "1e17", "--reps", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: cap must lie in [1, 2^63 - 1], got 10000000000000000000" in captured.err

    def test_corr_pairs_block_of_one_exits_2(self, capsys):
        code = main(["simulate", "corr-pairs", "--s", "1", "--reps", "200"])
        assert code == 2
        assert "block size s must lie in [2, K]" in capsys.readouterr().err

    def test_arl_csv(self, tmp_path):
        out = tmp_path / "arl.csv"
        code = main(
            [
                "simulate",
                "corr-pairs",
                "--arl",
                "--K",
                "4",
                "--gamma",
                "10",
                "--reps",
                "100",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            row = next(reader)
        assert header == ARL_CSV_HEADER
        record = dict(zip(header, row))
        assert record["K"] == "4"
        assert record["m"] == "2"
        # every excursion's step budget is 100 * gamma
        assert record["cap"] == "1000"
        assert float(record["arl"]) > 0.0


class TestValidateCommand:
    def test_healthy_scenario_exits_0(self, capsys):
        code = main(["validate", "corr-pairs", "--K", "5", "--reps", "10000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: ok" in out

    def test_degenerate_scenario_exits_1(self, capsys):
        # at m = 3 the mixture llr of the units holding the correlated pair
        # {4,5} drifts down after the change (about -0.05, 6 standard errors)
        code = main(["validate", "corr-pairs", "--K", "5", "--m", "3", "--reps", "10000"])
        out = capsys.readouterr().out
        assert code == 1
        assert "post-drift -0.05" in out
        assert "overall: FAIL" in out


class TestReplicationMinimum:
    @pytest.mark.parametrize(
        "argv, minimum",
        [
            (["bounds", "mean-change", "--reps", "9999"], 10000),
            (["bounds", "corr-pairs", "--reps", "100"], 10000),
            (["validate", "corr-pairs", "--K", "5", "--reps", "9999"], 10000),
        ],
        ids=["bounds-9999", "bounds-100", "validate-9999"],
    )
    def test_below_minimum_exits_2_naming_it(self, argv, minimum, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--reps of at least {minimum}, got {argv[-1]}" in captured.err

    def test_below_minimum_from_a_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[scenario]\npreset = corr-pairs\n[run]\nreps = 500\n")
        assert main(["bounds", "--config", str(path)]) == 2
        assert "--reps of at least 10000, got 500" in capsys.readouterr().err

    def test_validate_runs_at_the_minimum(self, capsys):
        assert main(["validate", "corr-pairs", "--K", "5", "--reps", "10000"]) == 0
        assert "overall: ok" in capsys.readouterr().out


class TestConfigFiles:
    def test_dump_config_is_valid_ini(self, capsys):
        code = main(["bounds", "corr-pairs", "--K", "6", "--gamma", "50", "--dump-config"])
        assert code == 0
        text = capsys.readouterr().out
        parser = configparser.ConfigParser()
        parser.read_file(io.StringIO(text))
        assert parser["scenario"]["preset"] == "corr-pairs"
        assert parser["scenario"]["k"] == "6"
        assert parser["run"]["gamma"] == "50"

    @pytest.mark.parametrize(
        "command, flags",
        [
            (["bounds"], ["--gamma", "50"]),
            (["validate"], ["--reps", "20000"]),
            (["simulate", "--arl"], ["--gamma", "50", "--reps", "700"]),
        ],
        ids=["bounds", "validate", "simulate-arl"],
    )
    def test_dump_load_round_trip(self, command, flags, tmp_path, capsys):
        code = main([*command, "corr-pairs", "--K", "6", "--s", "3", *flags, "--dump-config"])
        assert code == 0
        first = capsys.readouterr().out
        path = tmp_path / "run.ini"
        path.write_text(first, encoding="utf-8")
        code = main([*command, "--config", str(path), "--dump-config"])
        assert code == 0
        second = capsys.readouterr().out
        assert second == first

    def test_flags_override_config(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[scenario]\npreset = corr-pairs\nK = 6\n", encoding="utf-8")
        code = main(["bounds", "--config", str(path), "--K", "8", "--dump-config"])
        assert code == 0
        parser = configparser.ConfigParser()
        parser.read_file(io.StringIO(capsys.readouterr().out))
        assert parser["scenario"]["k"] == "8"

    def test_study_dump_load_round_trip(self, tmp_path, capsys):
        code = main(["study", "2", "--reps", "30", "--seed", "9", "--nu", "2", "--dump-config"])
        assert code == 0
        first = capsys.readouterr().out
        assert "reps = 30" in first
        path = tmp_path / "study.ini"
        path.write_text(first, encoding="utf-8")
        code = main(["study", "2", "--config", str(path), "--dump-config"])
        assert code == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "command, run",
        [
            (["bounds", "corr-pairs"], "gamma = 100\nseed = 0\n"),
            (["simulate", "corr-pairs"], "gamma = 100\nseed = 0\nnu = 0\n"),
            (["simulate", "corr-pairs", "--arl"], "gamma = 100\nseed = 0\nnu = 0\n"),
            (["validate", "corr-pairs"], "seed = 0\n"),
        ],
        ids=["bounds", "simulate", "simulate-arl", "validate"],
    )
    def test_default_dump_text(self, command, run, capsys):
        assert main([*command, "--dump-config"]) == 0
        scenario = "preset = corr-pairs\nK = 10\nm = 2\nrho = 0.7\ns = 2\nmu = 1\n"
        assert capsys.readouterr().out == f"[scenario]\n{scenario}\n[run]\n{run}\n"

    def test_default_study_dump_text(self, capsys):
        assert main(["study", "1", "--dump-config"]) == 0
        assert capsys.readouterr().out == "[scenario]\n\n[run]\nseed = 0\nnu = 0\n\n"

    @pytest.mark.parametrize(
        "command", [["simulate", "corr-pairs"], ["study", "1"]], ids=["simulate", "study"]
    )
    def test_dump_config_writes_to_out(self, command, tmp_path, capsys):
        assert main([*command, "--dump-config"]) == 0
        printed = capsys.readouterr().out
        path = tmp_path / "cfg.ini"
        assert main([*command, "--dump-config", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text(encoding="utf-8") == printed

    @pytest.mark.parametrize(
        "command, run",
        [
            (["bounds", "corr-pairs"], "gamma = 50\nseed = 0\n"),
            (["simulate", "corr-pairs"], "gamma = 50\nseed = 0\nnu = 3\n"),
            (["study", "1"], "seed = 0\nnu = 3\n"),
            (["validate", "corr-pairs"], "seed = 0\n"),
        ],
        ids=["bounds", "simulate", "study", "validate"],
    )
    def test_shared_config_loads_for_every_subcommand(self, command, run, tmp_path, capsys):
        # each subcommand takes the keys it reads and leaves the others
        path = tmp_path / "shared.ini"
        path.write_text("[run]\nnu = 3\ngamma = 50\n", encoding="utf-8")
        assert main([*command, "--config", str(path), "--dump-config"]) == 0
        assert capsys.readouterr().out.endswith(f"[run]\n{run}\n")

    def test_key_in_wrong_section_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[scenario]\ngamma = 50\n", encoding="utf-8")
        code = main(["bounds", "corr-pairs", "--config", str(path), "--dump-config"])
        assert code == 2
        assert "unknown key 'gamma' in [scenario]" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["threads", "cap", "constant"])
    def test_removed_run_key_exits_2(self, key, tmp_path, capsys):
        # a worker count, an excursion cap and an additive constant of the
        # bound are options of no subcommand
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\n{key} = 2\n", encoding="utf-8")
        code = main(["simulate", "corr-pairs", "--config", str(path), "--reps", "50"])
        assert code == 2
        assert f"unknown key '{key}' in [run]" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nbogus = 1\n", encoding="utf-8")
        code = main(["bounds", "corr-pairs", "--config", str(path), "--dump-config"])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_bad_value_type_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[run]\ngamma = abc\n", encoding="utf-8")
        code = main(["bounds", "corr-pairs", "--config", str(path), "--dump-config"])
        assert code == 2
        assert "not a valid float" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, capsys):
        code = main(["bounds", "corr-pairs", "--config", "/nonexistent.ini"])
        assert code == 2


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "corr-pairs", "--nu", "3"],
            ["bounds", "corr-pairs", "--threads", "2"],
            ["bounds", "corr-pairs", "--constant", "1"],
            ["validate", "corr-pairs", "--gamma", "50"],
            ["validate", "corr-pairs", "--nu", "3"],
            ["validate", "corr-pairs", "--threads", "2"],
            ["simulate", "corr-pairs", "--threads", "2"],
            ["simulate", "corr-pairs", "--cap", "100"],
            ["simulate", "corr-pairs", "--arl", "--cap", "100"],
            ["study", "1", "--threads", "2"],
        ],
        ids=[
            "bounds-nu",
            "bounds-threads",
            "bounds-constant",
            "validate-gamma",
            "validate-nu",
            "validate-threads",
            "simulate-threads",
            "simulate-cap",
            "simulate-arl-cap",
            "study-threads",
        ],
    )
    def test_option_the_subcommand_does_not_read_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {argv[-2]}" in err
        # the usage shown is the subcommand's, which lists the options it takes
        assert err.startswith(f"usage: rrcusum {argv[0]} ")
        assert f"rrcusum {argv[0]}: error: " in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "signed-pairs", "--m", "7"], "--m 7 is not read by signed-pairs, which reads only --K --rho"),
            (["simulate", "corr-pairs", "--arl", "--s", "9"], "--s 9 is not read by corr-pairs --arl"),
            (["simulate", "mean-change", "--arl", "--s", "1"], "--s 1 is not read by mean-change --arl"),
            (["bounds", "corr-pairs", "--mu", "2"], "--mu 2 is not read by corr-pairs"),
            (["validate", "mean-change", "--m", "1", "--rho", "0.5"], "--m 1, --rho 0.5 are not read by mean-change"),
        ],
        ids=["signed-pairs-m", "arl-s", "mean-change-arl-s", "bounds-mu", "validate-two"],
    )
    def test_preset_parameter_the_run_does_not_read_exits_2(self, argv, message, capsys):
        assert main([*argv, "--reps", "10000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "corr-pairs"],
            ["simulate", "corr-pairs"],
            ["simulate", "corr-pairs", "--arl"],
            ["study", "1"],
            ["validate", "corr-pairs"],
        ],
        ids=["bounds", "simulate", "simulate-arl", "study", "validate"],
    )
    def test_negative_seed_exits_2_naming_it(self, argv, capsys):
        assert main([*argv, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be nonnegative, got -1\n"

    def test_negative_seed_from_a_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = -3\n", encoding="utf-8")
        assert main(["study", "1", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: --seed must be nonnegative, got -3\n"

    def test_preset_parameter_from_a_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[scenario]\npreset = signed-pairs\nm = 7\n", encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--reps", "50"]) == 2
        assert "--m 7 is not read by signed-pairs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["simulate", "signed-pairs"], ["simulate", "mean-change", "--arl"]], ids=["delay", "arl"]
    )
    def test_a_dumped_configuration_runs(self, command, tmp_path, capsys):
        # a dump lists every scenario key at its default, read or not, and
        # runs as the flags it came from
        flags = [*command, "--reps", "50", "--gamma", "8"]
        assert main([*flags, "--dump-config"]) == 0
        path = tmp_path / "run.ini"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(flags) == 0
        direct = capsys.readouterr().out
        arl = [f for f in command if f == "--arl"]
        assert main([command[0], *arl, "--config", str(path)]) == 0
        assert capsys.readouterr().out == direct

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "corr-pairs", "--arl", "--nu", "3"], "--nu 3"),
        ],
        ids=["arl-nu"],
    )
    def test_simulate_option_of_the_other_mode_exits_2(self, argv, flag, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} ")

    @pytest.mark.parametrize("gamma", ["inf", "1e400", "nan"])
    @pytest.mark.parametrize(
        "command",
        [
            ["bounds", "corr-pairs", "--reps", "10000"],
            ["simulate", "corr-pairs", "--s", "4", "--reps", "10"],
            ["simulate", "corr-pairs", "--arl", "--reps", "10"],
        ],
        ids=["bounds", "simulate", "simulate-arl"],
    )
    def test_non_finite_gamma_exits_2(self, command, gamma, capsys):
        # 1e400 reads as inf; an infinite threshold would never alarm
        assert main([*command, "--gamma", gamma]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: gamma must be finite and exceed 1")

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["bounds", "nope"])


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["simulate", "corr-pairs", "--K", "4", "--gamma", "8", "--reps", "50"], ["simulate", "corr-pairs", "--dump-config"]],
    ids=["run", "dump-config"],
)
def test_closed_stdout_is_not_a_configuration_error(argv, buffered):
    # the reader is gone before the run writes anything, so the first write or
    # flush of stdout meets a broken pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rrcusum.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1, proc.stderr
    assert "error:" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
