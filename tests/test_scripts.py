"""The two sweep scripts run end to end at tiny sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, reports", [
    ("run_stability_sweep", ["--seeds", "1", "--N", "60", "--trials", "2"],
     ["stability-seed000", "semicontinuity"]),
    ("run_weight_survey", ["--N", "256"], ["unweighted", "bergman", "quasianalytic_sqrt"]),
])
def test_script_runs(tmp_path, name, argv, reports):
    assert load_script(name).main(["--out", str(tmp_path)] + argv) == 0
    for prefix in reports:
        assert (tmp_path / f"{prefix}.report.json").exists()
