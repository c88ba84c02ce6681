import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.cli import (
    _RUNNERS,
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

    def test_every_option_is_read_by_its_runner(self, monkeypatch):
        monkeypatch.delenv("SHIFTLAB_SEED", raising=False)
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        unread = []
        for command, sub in subparsers.choices.items():
            dests = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
            # the report echoes exactly the options, defaults filled in
            assert set(_echo_config(RunConfig(command=command).resolved())) == {"command", "output"} | dests
            source = inspect.getsource(_RUNNERS[command])
            for action in sub._actions:
                if action.option_strings and action.dest not in ("help", "output"):
                    if f"config.{action.dest}" not in source:
                        unread.append((command, action.option_strings[0]))
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

    @pytest.mark.parametrize("command", ["classify", "radii", "chain"])
    def test_env_seed_ignored_without_seed_option(self, tmp_path, monkeypatch, command):
        monkeypatch.delenv("SHIFTLAB_SEED", raising=False)
        assert run_cli([command, "--output", "unset"], tmp_path, monkeypatch) == 0
        want = (tmp_path / "unset.report.json").read_bytes()
        for value in ("abc", "-3", "9"):
            monkeypatch.setenv("SHIFTLAB_SEED", value)
            assert run_cli([command, "--output", "unset"], tmp_path, monkeypatch) == 0
            assert (tmp_path / "unset.report.json").read_bytes() == want

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
        # identical except for the echoed output prefix
        assert b1.replace(b'"s1"', b'"sX"') == b2.replace(b'"s2"', b'"sX"')

    def test_env_seed_override(self, tmp_path, monkeypatch, capsys):
        argv = ["stability", "--weight", "bergman", "--N", "80",
                "--eps", "1e-2,1e-3", "--seed", "5", "--output", "e1"]
        run_cli(argv, tmp_path, monkeypatch)
        monkeypatch.setenv("SHIFTLAB_SEED", "99")
        run_cli(argv[:-1] + ["e2"], tmp_path, monkeypatch)
        rep1 = read_report(tmp_path, "e1")
        rep2 = read_report(tmp_path, "e2")
        assert rep1["inputs"]["seed"] == 5
        assert rep2["inputs"]["seed"] == 99
        assert rep1["per_step"] != rep2["per_step"]
        monkeypatch.setenv("SHIFTLAB_SEED", "-3")
        capsys.readouterr()
        assert run_cli(argv[:-1] + ["e3"], tmp_path, monkeypatch) == 1
        assert "config error: SHIFTLAB_SEED must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "e3.report.json").exists()

    def test_semicont_small(self, tmp_path, monkeypatch):
        code = run_cli(
            ["semicont", "--N", "64", "--eps", "1e-3,1e-4,1e-5", "--trials", "5", "--output", "sc"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        rep = read_report(tmp_path, "sc")
        assert rep["metrics"]["violations"] == 0

    def test_semicont_vacuous_assertions_fail(self, tmp_path, monkeypatch):
        # an unreachable invariance tolerance leaves every trial skipped
        code = run_cli(
            ["semicont", "--N", "64", "--eps", "1e-3", "--trials", "4",
             "--invariance-tol", "1e-18", "--output", "scf"],
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

    def test_unreachable_min_sep_exits_one(self, tmp_path, monkeypatch, capsys):
        start = time.perf_counter()
        code = run_cli(["beurling-index", "--min-sep", "1", "--output", "ms"], tmp_path, monkeypatch)
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert "min_sep" in capsys.readouterr().err
        assert not (tmp_path / "ms.report.json").exists()

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
        assert f"line 7 is not finite: '{text}'" in capsys.readouterr().err
        assert not (tmp_path / "nfw.report.json").exists()

    def test_bad_eps_exits_one(self, tmp_path, monkeypatch):
        code = run_cli(
            ["stability", "--eps", "1e-3,1e-2", "--N", "80", "--output", "x"],
            tmp_path, monkeypatch,
        )
        assert code == 1

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
        (["semicont", "--invariance-tol", "nan"], "invariance_tol"),
        (["beurling-index", "--min-sep", "nan"], "min_sep"),
        (["beurling-check", "--trend-tol", "inf"], "trend_tol"),
        (["semicont", "--rank-tol", "nan"], "rank_tol"),
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
        (["semicont", "--p-roots", ","], "p_roots"),
        (["semicont", "--zeros", ",", "--trials", "3"], "zeros"),
        (["beurling-index", "--zeros", ","], "zeros"),
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

    @pytest.mark.parametrize("argv, message", [
        (["semicont", "--rank-tol", "0"], "rank_tol must lie in (0, 1)"),
        (["semicont", "--rank-tol", "1"], "rank_tol must lie in (0, 1)"),
        (["beurling-index", "--rank-tol=-1e-8"], "rank_tol must lie in (0, 1)"),
        (["beurling-index", "--rank-tol", "2.5"], "rank_tol must lie in (0, 1)"),
        (["semicont", "--invariance-tol", "0"], "invariance_tol must be positive"),
        (["semicont", "--invariance-tol=-1e-3"], "invariance_tol must be positive"),
        (["semicont", "--invariance-tol", "-1e-3"], "invariance_tol must be positive"),
        (["stability", "--seed", "-1"], "seed must be non-negative"),
        (["beurling-index", "--min-sep", "-1"], "min_sep must be positive"),
    ])
    def test_meaningless_tolerance_exits_one(self, tmp_path, monkeypatch, capsys, argv, message):
        code = run_cli(argv + ["--output", "tol"], tmp_path, monkeypatch)
        assert code == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "tol.report.json").exists()

    def test_tolerance_check_in_resolved(self):
        with pytest.raises(ConfigError, match="rank_tol"):
            RunConfig(command="semicont", rank_tol=0.0).resolved()
        with pytest.raises(ConfigError, match="invariance_tol"):
            RunConfig(command="semicont", invariance_tol=0.0).resolved()
        assert RunConfig(command="semicont", rank_tol=0.5, invariance_tol=1e-300).resolved().rank_tol == 0.5

    def test_run_callable_directly(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(RunConfig(command="radii", weight="unweighted", N=128, output="direct"))
        assert code == 0
        assert (tmp_path / "direct.report.json").exists()


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "SHIFTLAB_SEED"}
        env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
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
