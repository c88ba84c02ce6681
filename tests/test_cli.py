import json
import math

import pytest

from shiftlab.cli import ConfigError, RunConfig, main, parse_complex, run


def run_cli(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def read_report(tmp_path, prefix):
    return json.loads((tmp_path / f"{prefix}.report.json").read_text(encoding="utf-8"))


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("0.3") == 0.3
        assert parse_complex("-0.4i") == -0.4j
        assert parse_complex("0.5+0.2i") == 0.5 + 0.2j
        assert parse_complex("−0.4i") == -0.4j  # unicode minus
        with pytest.raises(ConfigError):
            parse_complex("zebra")

    def test_unknown_flag_is_config_error(self, tmp_path, monkeypatch):
        code = run_cli(["classify", "--bogus", "1"], tmp_path, monkeypatch)
        assert code == 1

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            RunConfig(command="frobnicate")


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
        assert rep["inputs"]["seed"] == 42

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

    def test_env_seed_override(self, tmp_path, monkeypatch):
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
        (["chain", "--lambda", "nan"], "lam"),
        (["stability", "--p-roots", "nan,0.3"], "p_roots"),
        (["stability", "--eps", "1e-1,inf"], "eps"),
        (["semicont", "--zeros", "0.2,nan"], "zeros"),
        (["semicont", "--invariance-tol", "nan"], "invariance_tol"),
        (["beurling-index", "--min-sep", "nan"], "min_sep"),
        (["beurling-check", "--trend-tol", "inf"], "trend_tol"),
        (["radii", "--rank-tol", "nan"], "rank_tol"),
    ])
    def test_non_finite_input_exits_one(self, tmp_path, monkeypatch, capsys, argv, key):
        code = run_cli(argv + ["--output", "nf"], tmp_path, monkeypatch)
        assert code == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "nf.report.json").exists()

    def test_run_callable_directly(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(RunConfig(command="radii", weight="unweighted", N=128, output="direct"))
        assert code == 0
        assert (tmp_path / "direct.report.json").exists()
