import argparse
import csv
import inspect
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.cli import (
    COMMANDS,
    OPTIONS,
    READS,
    ConfigError,
    RunConfig,
    _echo_config,
    build_parser,
    main,
    parse_complex,
    parse_complex_list,
    parse_float_list,
    run,
)


def run_cli(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def read_report(tmp_path, prefix):
    return json.loads((tmp_path / f"{prefix}.report.json").read_text(encoding="utf-8"))


finite = st.floats(allow_nan=False, allow_infinity=False)
garbage = st.text(alphabet="xyz?#@!&()", min_size=1, max_size=8)


def a_plus_bi(re, im):
    """re and im in the a+bi syntax, each written as its repr."""
    return f"{re!r}{'' if repr(im).startswith('-') else '+'}{im!r}i"


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("0.3") == 0.3
        assert parse_complex("-0.4i") == -0.4j
        assert parse_complex("0.5+0.2i") == 0.5 + 0.2j
        assert parse_complex("−0.4i") == -0.4j  # unicode minus
        with pytest.raises(ConfigError):
            parse_complex("zebra")

    @given(finite, finite)
    @settings(max_examples=200, deadline=None)
    def test_complex_round_trip(self, re, im):
        text = a_plus_bi(re, im)
        assert parse_complex(text) == complex(re, im)
        assert parse_complex(text.replace("-", "\u2212")) == complex(re, im)

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_complex_list_round_trip(self, pairs):
        text = ",".join(a_plus_bi(re, im) for re, im in pairs)
        want = tuple(complex(re, im) for re, im in pairs)
        assert parse_complex_list(text) == want
        assert parse_complex_list(text.replace("-", "\u2212")) == want

    @given(st.lists(finite, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_float_list_round_trip(self, values):
        text = ",".join(repr(v) for v in values)
        assert parse_float_list(text) == tuple(values)
        assert parse_float_list(text.replace("-", "\u2212")) == tuple(values)

    @given(finite, garbage)
    @settings(max_examples=100, deadline=None)
    def test_garbage_is_config_error(self, value, junk):
        for text in (junk, repr(value) + junk):
            for parse in (parse_complex, parse_complex_list, parse_float_list):
                with pytest.raises(ConfigError):
                    parse(text)

    def test_unknown_flag_is_config_error(self, tmp_path, monkeypatch):
        code = run_cli(["classify", "--bogus", "1"], tmp_path, monkeypatch)
        assert code == 1

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            RunConfig(command="frobnicate")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_defaults_live_in_run_config(self, command):
        assert vars(build_parser().parse_args([command])) == {"command": command}

    @pytest.mark.parametrize("argv, key, value", [
        (["chain", "--lambda", "-1e-1"], "lam", [-0.1, 0.0]),
        (["chain", "--lambda", "-0.4i"], "lam", [0.0, -0.4]),
        (["semicont", "--zeros", "-0.5,0.3i", "--N", "32", "--trials", "3"], "zeros", [[-0.5, 0.0], [0.0, 0.3]]),
        (["stability", "--weight", "bergman", "--p-roots", "-0.3,0.4", "--N", "100"], "p_roots",
         [[-0.3, 0.0], [0.4, 0.0]]),
    ])
    def test_value_may_begin_with_a_minus_sign(self, tmp_path, monkeypatch, argv, key, value):
        assert run_cli(argv + ["--output", "neg"], tmp_path, monkeypatch) == 0
        assert read_report(tmp_path, "neg")["inputs"][key] == value

    def test_missing_value_is_still_an_error(self, tmp_path, monkeypatch, capsys):
        assert run_cli(["chain", "--lambda", "--m", "2"], tmp_path, monkeypatch) == 1
        assert "--lambda: expected one argument" in capsys.readouterr().err

    def test_every_option_is_read_by_its_runner(self):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        unread = []
        for command, sub in subparsers.choices.items():
            dests = {a.dest for a in sub._actions if a.option_strings and a.dest not in ("help", "output")}
            # the report echoes exactly the options, defaults filled in, and not the output prefix
            assert set(_echo_config(RunConfig(command=command).resolved())) == {"command"} | dests
            runner, _, _ = COMMANDS[command]
            source = inspect.getsource(runner)
            unread += [(command, dest) for dest in sorted(dests) if f"config.{dest}" not in source]
        assert unread == []

    def test_readme_option_table_is_reads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("| command | options |\n| --- | --- |\n")[1].split("\n\n")[0]
        key_of = {flag: key for key, (flag, _) in OPTIONS.items()}
        rows = {}
        for line in table.splitlines():
            command, *flags = re.findall(r"`([^`]+)`", line)
            rows[command] = tuple(key_of[flag] for flag in flags)
        assert rows == READS

    @pytest.mark.parametrize("argv", [
        ["classify", "--seed", "1"],
        ["classify", "--rank-tol", "1e-6"],
        ["radii", "--seed", "1"],
        ["radii", "--rank-tol", "1e-6"],
        ["chain", "--seed", "1"],
        ["chain", "--rank-tol", "1e-6"],
        ["stability", "--rank-tol", "0.5"],
        ["beurling-index", "--weight", "bergman"],
        ["beurling-check", "--N", "5"],
        ["beurling-check", "--rank-tol", "1e-6"],
        ["semicont", "--p-roots", "0.3"],  # its zero set has one name, --zeros
        ["semicont", "--invariance-tol", "1e-3"],  # the thresholds of the verdicts are constants
        ["beurling-index", "--min-sep", "0.02"],
        ["beurling-check", "--trend-tol", "0.05"],
    ])
    def test_option_its_command_does_not_read_exits_one(self, tmp_path, monkeypatch, capsys, argv):
        assert run_cli(argv + ["--output", "unread"], tmp_path, monkeypatch) == 1
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not (tmp_path / "unread.report.json").exists()


class TestCommands:
    def test_classify_quasianalytic(self, tmp_path, monkeypatch):
        code = run_cli(
            ["classify", "--weight", "quasianalytic_sqrt", "--N", "4096", "--output", "qa"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        rep = read_report(tmp_path, "qa")
        assert rep["verdict"] == "diverges"
        assert rep["schema"] == "shiftlab-report-v1"
        assert rep["metrics"]["shields_hypotheses_met"] is True
        assert (tmp_path / "qa.steps.csv").exists()

    def test_classify_embeds_resolved_config(self, tmp_path, monkeypatch):
        run_cli(["classify", "--weight", "bergman", "--output", "b"], tmp_path, monkeypatch)
        rep = read_report(tmp_path, "b")
        assert rep["inputs"]["N"] == 4096  # default resolved and echoed
        assert "seed" not in rep["inputs"]  # classify reads no seed

    @pytest.mark.parametrize("command", COMMANDS)
    def test_env_seed_ignored_without_seed_option(self, tmp_path, monkeypatch, command):
        # a report is a function of its settings: neither the output prefix nor the environment shows
        assert run_cli([command, "--output", "first"], tmp_path, monkeypatch) == 0
        monkeypatch.setenv("SHIFTLAB_SEED", "99")
        assert run_cli([command, "--output", "second"], tmp_path, monkeypatch) == 0
        assert (tmp_path / "first.report.json").read_bytes() == (tmp_path / "second.report.json").read_bytes()

    def test_radii(self, tmp_path, monkeypatch):
        code = run_cli(["radii", "--weight", "bergman", "--N", "256", "--output", "r"], tmp_path, monkeypatch)
        assert code == 0
        rep = read_report(tmp_path, "r")
        assert rep["metrics"]["window_len"] == 16
        assert abs(rep["metrics"]["r0"] - 0.9152684058442967) < 1e-12

    def test_chain_gamma_field(self, tmp_path, monkeypatch):
        code = run_cli(
            ["chain", "--weight", "bergman", "--lambda", "0.5", "--m", "2", "--N", "200", "--output", "c"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        rep = read_report(tmp_path, "c")
        gamma2 = rep["per_step"][1]["coords_head"][2]
        assert gamma2[0] == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert gamma2[1] == 0.0

    @pytest.mark.parametrize("lam", [40, 30])
    def test_chain_overflow_exits_one(self, tmp_path, monkeypatch, capsys, lam):
        # unweighted at N = 200: lam 40 overflows the vector, lam 30 its norm
        monkeypatch.chdir(tmp_path)
        assert run(RunConfig(command="chain", lam=lam, output="ov")) == 1
        err = capsys.readouterr().err
        assert f"lam=({lam}+0j)" in err and "N=200" in err
        assert not (tmp_path / "ov.report.json").exists()

    def test_stability_pass_and_determinism(self, tmp_path, monkeypatch):
        argv = ["stability", "--weight", "bergman", "--N", "100",
                "--eps", "1e-1,1e-2,1e-3", "--seed", "5", "--output", "s1"]
        assert run_cli(argv, tmp_path, monkeypatch) == 0
        argv2 = argv[:-1] + ["s2"]
        assert run_cli(argv2, tmp_path, monkeypatch) == 0
        b1 = (tmp_path / "s1.report.json").read_bytes()
        b2 = (tmp_path / "s2.report.json").read_bytes()
        assert b1 == b2

    def test_semicont_default_zeros_are_the_stated_ones(self, tmp_path, monkeypatch):
        assert run_cli(["semicont", "--output", "default"], tmp_path, monkeypatch) == 0
        assert run_cli(["semicont", "--zeros", "0.3,-0.4", "--output", "stated"], tmp_path, monkeypatch) == 0
        assert (tmp_path / "default.report.json").read_bytes() == (tmp_path / "stated.report.json").read_bytes()

    def test_semicont_small(self, tmp_path, monkeypatch):
        code = run_cli(
            ["semicont", "--N", "64", "--eps", "1e-3,1e-4,1e-5", "--trials", "5", "--output", "sc"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        rep = read_report(tmp_path, "sc")
        assert rep["metrics"]["violations"] == 0

    def test_semicont_vacuous_assertions_fail(self, tmp_path, monkeypatch):
        # at eps 0.5 no jittered step is invariant within 1e-3, so every trial is skipped
        code = run_cli(
            ["semicont", "--N", "64", "--eps", "0.5", "--trials", "4", "--output", "scf"],
            tmp_path, monkeypatch,
        )
        assert code == 2
        assert read_report(tmp_path, "scf")["verdict"] == "fail"

    def test_beurling_index_explicit_zeros(self, tmp_path, monkeypatch):
        code = run_cli(
            ["beurling-index", "--zeros", "0.3,−0.4i,0.5", "--N", "128", "--output", "bi"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        rep = read_report(tmp_path, "bi")
        assert [s["index"] for s in rep["per_step"]] == [1]

    def test_beurling_index_random_sets(self, tmp_path, monkeypatch):
        code = run_cli(
            ["beurling-index", "--sets", "8", "--N", "96", "--seed", "11", "--output", "bir"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        rep = read_report(tmp_path, "bir")
        assert all(s["index"] == 1 for s in rep["per_step"])

    def test_beurling_index_with_only_an_ill_conditioned_set_fails(self, tmp_path, monkeypatch):
        assert run_cli(["beurling-index", "--zeros", "0.1,0.1000001", "--output", "bic"], tmp_path, monkeypatch) == 2
        rep = read_report(tmp_path, "bic")
        assert rep["verdict"] == "fail" and rep["metrics"]["all_indices_one"] is False
        assert rep["per_step"][0]["ill_conditioned"]

    @pytest.mark.parametrize("zeros, message", [
        ("0.9", "zeros: zero set 0 leaves the 0.8 disc"),
        ("0.1,0.1", "zeros: zero set 0 has a repeated point"),
        ("0.1,0.2,0.3,0.4,0.5,0.6", "zeros: zero set 0 has more than 5 points"),
    ])
    def test_bad_zero_set_names_zeros(self, tmp_path, monkeypatch, capsys, zeros, message):
        assert run_cli(["beurling-index", "--zeros", zeros, "--output", "bz"], tmp_path, monkeypatch) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "bz.report.json").exists()

    def test_rank_tol_does_not_set_the_invariance_tol(self, tmp_path, monkeypatch):
        # the zero-based subspaces are invariant up to a defect of 1.3e-15, above this rank threshold
        assert run_cli(["beurling-index", "--rank-tol", "1e-15", "--output", "rt"], tmp_path, monkeypatch) == 0
        assert all(s["index"] == 1 for s in read_report(tmp_path, "rt")["per_step"])

    def test_loose_rank_tol_does_not_admit_a_non_invariant_base(self, tmp_path, monkeypatch, capsys):
        # the bergman base subspace has defect 1.96e-2; the base check stays at the fixed 1e-8
        argv = ["semicont", "--weight", "bergman", "--trials", "40", "--rank-tol", "0.05", "--output", "lb"]
        assert run_cli(argv, tmp_path, monkeypatch) == 1
        assert "defect 1.960e-02 > tol 1.000e-08" in capsys.readouterr().err
        assert not (tmp_path / "lb.report.json").exists()

    @pytest.mark.parametrize("roots, message", [
        ("0.95", "p_roots: root (0.95+0j) outside 0.9 * r_point = 0.9"),
        ("0.1,0.1,0.1,0.1", "p_roots: multiplicity of root (0.1+0j) exceeds 3"),
    ], ids=["outside-the-disc", "multiplicity"])
    def test_stability_root_errors_name_p_roots(self, tmp_path, monkeypatch, capsys, roots, message):
        assert run_cli(["stability", "--p-roots", roots, "--output", "pr"], tmp_path, monkeypatch) == 1
        assert f"[shiftlab] error: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "pr.report.json").exists()

    def test_window_floor_names_p_roots_and_N(self, tmp_path, monkeypatch, capsys):
        # the floor is the multiplicity of a root plus 2; m is not a stability option
        assert run_cli(["stability", "--N", "2", "--output", "tiny"], tmp_path, monkeypatch) == 1
        assert capsys.readouterr().err == (
            "[shiftlab] error: p_roots: root (0.3+0j) of multiplicity 1 needs N >= 3, got N=2\n")
        assert not (tmp_path / "tiny.report.json").exists()

    def test_more_roots_than_the_window_fail_every_step(self, tmp_path, monkeypatch, capsys):
        # four chain vectors in C^3: a dependent reference, like the near-double root
        argv = ["stability", "--N", "3", "--p-roots", "0.1,0.2,0.3,0.4", "--output", "wide"]
        assert run_cli(argv, tmp_path, monkeypatch) == 2
        doc = json.loads((tmp_path / "wide.report.json").read_text(encoding="utf-8"))
        assert doc["metrics"]["failures"] == 5
        assert all(s["distance"] is None and s["error"].startswith("basis vector 3 is dependent")
                   for s in doc["per_step"])

    def test_beurling_check_with_weight_file(self, tmp_path, monkeypatch):
        wfile = tmp_path / "w.txt"
        wfile.write_text("\n".join(str(float((n + 1) ** 3)) for n in range(300)), encoding="utf-8")
        code = run_cli(
            ["beurling-check", "--weight", str(wfile), "--degree", "16", "--batch", "50", "--output", "bc"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        rep = read_report(tmp_path, "bc")
        assert rep["verdict"] == "pass"
        assert rep["metrics"]["algebra_constant"] > 0

    @pytest.mark.parametrize("command", ["classify", "radii", "chain", "stability", "semicont", "beurling-check"])
    def test_short_weight_file_names_weight(self, tmp_path, monkeypatch, capsys, command):
        (tmp_path / "w.txt").write_text("1.0\n2.0\n3.0\n", encoding="utf-8")
        argv = [command, "--weight", "w.txt", "--output", "sw"] + (["--trials", "2"] if command == "semicont" else [])
        assert run_cli(argv, tmp_path, monkeypatch) == 1
        assert re.search(r"error: weight: index \d+ beyond explicit data \(max_index_hint=2\)", capsys.readouterr().err)
        assert not (tmp_path / "sw.report.json").exists()

    def test_weight_below_one_names_weight(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "w.txt").write_text("1.0\n2.0\n0.5\n4.0\n", encoding="utf-8")
        assert run_cli(["radii", "--weight", "w.txt", "--output", "wb"], tmp_path, monkeypatch) == 1
        assert "error: weight: omega(2) = 0.5 violates omega >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["bergman", "quasianalytic_sqrt"])
    def test_beurling_check_passes_on_every_survey_seed(self, weight):
        # perfbench's survey workload expects a pass here at whatever seed it runs
        runner, _, _ = COMMANDS["beurling-check"]
        configs = [RunConfig("beurling-check", weight=weight, seed=seed, batch=batch).resolved()
                   for batch in (20, 200) for seed in range(50)]
        failed = [(c.seed, c.batch) for c in configs if runner(c).verdict != "pass"]
        assert failed == []

    def test_bad_weight_exits_one(self, tmp_path, monkeypatch):
        assert run_cli(["classify", "--weight", "nonexistent"], tmp_path, monkeypatch) == 1

    def test_directory_is_not_a_weight_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "wdir").mkdir()
        assert run_cli(["radii", "--weight", "wdir", "--output", "d"], tmp_path, monkeypatch) == 1
        assert "config error: --weight 'wdir' is neither a preset" in capsys.readouterr().err
        assert not (tmp_path / "d.report.json").exists()

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_weight_file_exits_one(self, tmp_path, monkeypatch, capsys, text):
        # long enough for the default radii window, so only the bad value can fail it
        values = [str(float(n + 1)) for n in range(300)]
        values[7] = text
        (tmp_path / "w.txt").write_text("\n".join(values), encoding="utf-8")
        assert run_cli(["radii", "--weight", "w.txt", "--output", "nfw"], tmp_path, monkeypatch) == 1
        assert f"error: weight: omega(7) = {text} is not finite" in capsys.readouterr().err
        assert not (tmp_path / "nfw.report.json").exists()

    def test_bad_eps_exits_one(self, tmp_path, monkeypatch):
        code = run_cli(
            ["stability", "--eps", "1e-3,1e-2", "--N", "80", "--output", "x"],
            tmp_path, monkeypatch,
        )
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["stability", "--eps", "1e-3,1e-2"], "eps: epsilon schedule must be strictly decreasing"),
        (["semicont", "--eps", "0.1,-1", "--trials", "2"], "eps: epsilon schedule entries must be positive"),
    ])
    def test_bad_eps_names_eps(self, tmp_path, monkeypatch, capsys, argv, message):
        assert run_cli(argv + ["--output", "be"], tmp_path, monkeypatch) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "be.report.json").exists()

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_semicont_without_trials_exits_one(self, tmp_path, monkeypatch, capsys, trials):
        code = run_cli(["semicont", "--N", "32", "--trials", trials, "--output", "t0"], tmp_path, monkeypatch)
        assert code == 1
        assert "trials" in capsys.readouterr().err
        assert not (tmp_path / "t0.report.json").exists()

    @pytest.mark.parametrize("argv, key", [
        (["beurling-index", "--sets", "0"], "n_sets"),
        (["beurling-check", "--batch", "0"], "batch"),
        (["beurling-check", "--degree", "0"], "degree"),
        (["beurling-check", "--degree", "-3"], "degree"),
    ])
    def test_non_positive_count_exits_one(self, tmp_path, monkeypatch, capsys, argv, key):
        code = run_cli(argv + ["--output", "np"], tmp_path, monkeypatch)
        assert code == 1
        assert f"{key} must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "np.report.json").exists()

    @pytest.mark.parametrize("argv, key", [
        (["chain", "--lambda", "nan"], "lam"),
        (["stability", "--p-roots", "nan,0.3"], "p_roots"),
        (["stability", "--eps", "1e-1,inf"], "eps"),
        (["semicont", "--zeros", "0.2,nan"], "zeros"),
        # the id keeps the name this case had beside three cases of removed options
        pytest.param(["semicont", "--rank-tol", "nan"], "rank_tol", id="argv7-rank_tol"),
    ])
    def test_non_finite_input_exits_one(self, tmp_path, monkeypatch, capsys, argv, key):
        code = run_cli(argv + ["--output", "nf"], tmp_path, monkeypatch)
        assert code == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "nf.report.json").exists()

    @pytest.mark.parametrize("argv, key", [
        (["stability", "--eps", ","], "eps"),
        (["semicont", "--eps", ",", "--trials", "3"], "eps"),
        (["stability", "--p-roots", ","], "p_roots"),
        # the ids keep the names these cases had beside a semicont --p-roots case
        pytest.param(["semicont", "--zeros", ",", "--trials", "3"], "zeros", id="argv4-zeros"),
        pytest.param(["beurling-index", "--zeros", ","], "zeros", id="argv5-zeros"),
    ])
    def test_empty_list_exits_one(self, tmp_path, monkeypatch, capsys, argv, key):
        code = run_cli(argv + ["--output", "empty"], tmp_path, monkeypatch)
        assert code == 1
        assert f"config error: {key} must list at least one value" in capsys.readouterr().err
        assert not (tmp_path / "empty.report.json").exists()

    @pytest.mark.parametrize("argv, count", [
        (["semicont", "--N", "2"], 2),
        (["semicont", "--zeros", "0.1,0.2,0.3", "--N", "3"], 3),
        (["beurling-index", "--N", "1"], 5),
        (["beurling-index", "--zeros", "0.1,-0.2", "--N", "2"], 2),
    ])
    def test_window_smaller_than_the_zero_set_names_N(self, tmp_path, monkeypatch, capsys, argv, count):
        def unreachable(*args, **kwargs):
            raise AssertionError("a subspace was built before the check")

        monkeypatch.setattr("shiftlab.cli.vanishing_subspace", unreachable)
        monkeypatch.setattr("shiftlab.stability.vanishing_subspace", unreachable)
        code = run_cli(argv + ["--output", "small"], tmp_path, monkeypatch)
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: N must exceed the number of zeros" in err and f"({count})" in err
        assert not (tmp_path / "small.report.json").exists()

    @pytest.mark.parametrize("argv, key", [
        (["semicont", "--zeros", "1.5"], "zeros"),
        (["semicont", "--zeros", "0.3,1.0"], "zeros"),  # the unweighted r_point is exactly 1
        (["semicont", "--weight", "bergman", "--zeros", "0.99i"], "zeros"),
    ])
    def test_zero_outside_the_point_spectrum_disc_exits_one(self, tmp_path, monkeypatch, capsys, argv, key):
        def unreachable(*args, **kwargs):
            raise AssertionError("a subspace was built before the check")

        monkeypatch.setattr("shiftlab.cli.vanishing_subspace", unreachable)
        code = run_cli(argv + ["--trials", "2", "--output", "far"], tmp_path, monkeypatch)
        assert code == 1
        assert f"config error: {key} must lie inside |z| < r_point" in capsys.readouterr().err
        assert not (tmp_path / "far.report.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["semicont", "--rank-tol", "0"], "rank_tol must lie in (0, 1)"),
        (["semicont", "--rank-tol", "1"], "rank_tol must lie in (0, 1)"),
        (["beurling-index", "--rank-tol=-1e-8"], "rank_tol must lie in (0, 1)"),
        (["beurling-index", "--rank-tol", "2.5"], "rank_tol must lie in (0, 1)"),
        # the id keeps the name this case had beside four cases of removed options
        pytest.param(["stability", "--seed", "-1"], "seed must be non-negative", id="argv7-seed must be non-negative"),
    ])
    def test_meaningless_tolerance_exits_one(self, tmp_path, monkeypatch, capsys, argv, message):
        code = run_cli(argv + ["--output", "tol"], tmp_path, monkeypatch)
        assert code == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "tol.report.json").exists()

    def test_tolerance_check_in_resolved(self):
        with pytest.raises(ConfigError, match="rank_tol"):
            RunConfig(command="semicont", rank_tol=0.0).resolved()
        assert RunConfig(command="semicont", rank_tol=0.5).resolved().rank_tol == 0.5

    def test_run_callable_directly(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(RunConfig(command="radii", weight="unweighted", N=128, output="direct"))
        assert code == 0
        assert (tmp_path / "direct.report.json").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_at_its_defaults_writes_one_stderr_line(tmp_path, monkeypatch, capsys, command):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli([command, "--output", "d"], tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert err.count("\n") == 1 and err.startswith(f"[shiftlab] {command}: verdict=")
    per_step = json.loads((tmp_path / "d.report.json").read_text(encoding="utf-8"))["per_step"]
    assert (tmp_path / "d.steps.csv").exists() == bool(per_step)
    if per_step:  # the CSV agrees with the JSON, cell by cell
        with open(tmp_path / "d.steps.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == len(per_step)
        for row, step in zip(rows, per_step):
            assert set(step) <= set(header) and len(row) == len(header)
            for key, cell in zip(header, row):
                assert same_value(parse_cell(cell, step.get(key)), step.get(key)), (key, cell)


def parse_cell(cell, value):
    """A CSV cell read back: empty is None, a string column as is, a+bi as [re, im], else JSON."""
    if cell == "":
        return None
    if isinstance(value, str):
        return cell
    try:
        return json.loads(cell)
    except ValueError:
        z = parse_complex(cell)
        return [z.real, z.imag]


def same_value(a, b):
    """Equal as report values: NaN matches NaN, and floats match bit for bit."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))
    return type(a) is type(b) and a == b


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        files = {}
        for argv in (["stability", "--N", "100"], ["beurling-index", "--sets", "5"]):
            workdir = tmp_path / f"{threads}-{argv[0]}"
            workdir.mkdir()
            subprocess.run([sys.executable, "-m", "shiftlab.cli", *argv, "--output", "r"],
                           cwd=workdir, env=env, check=True, capture_output=True, timeout=120)
            for name in ("r.report.json", "r.steps.csv"):
                files[argv[0], name] = (workdir / name).read_bytes()
        outputs.append(files)
    assert outputs[0] == outputs[1]
