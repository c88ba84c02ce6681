import csv
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.cli import parse_complex
from shiftlab.report import SCHEMA_VERSION, ExperimentReport, _csv_cell


def report(per_step=(), **metrics):
    return ExperimentReport(experiment="e", per_step=list(per_step), fitted_slope=None,
                            verdict="pass", metrics=metrics)


def with_metrics(text: str) -> bytes:
    """The bytes of report() whose metrics object is `text`."""
    return (f'{{"experiment":"e","fitted_slope":null,"inputs":{{}},"metrics":{text},"per_step":[],'
            f'"schema":"{SCHEMA_VERSION}","verdict":"pass"}}\n').encode("utf-8")


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_keys_sorted_no_spaces_and_one_trailing_newline():
    data = ExperimentReport(experiment="ü", per_step=[{"b": 1, "a": 2}], fitted_slope=0.5,
                            verdict="pass", inputs={"z": "x", "a": [1, 2]}, metrics={"m": None}).to_json_bytes()
    assert data == ('{"experiment":"ü","fitted_slope":0.5,"inputs":{"a":[1,2],"z":"x"},"metrics":{"m":null},'
                    f'"per_step":[{{"a":2,"b":1}}],"schema":"{SCHEMA_VERSION}","verdict":"pass"}}\n').encode("utf-8")


def test_numpy_scalars_and_arrays_are_plain_values():
    data = report(i=np.int64(-3), b=np.bool_(True), f=np.float64(0.1), g=np.float32(0.5),
                  z=np.complex128(1 - 2j), a=np.array([[1, 2], [3, 4]]), c=np.array([1j, 0.5])).to_json_bytes()
    assert data == with_metrics('{"a":[[1,2],[3,4]],"b":true,"c":[[0.0,1.0],[0.5,0.0]],"f":0.1,"g":0.5,'
                                '"i":-3,"z":[1.0,-2.0]}')


def test_non_finite_floats_keep_their_tokens():
    data = report(n=math.nan, p=math.inf, m=-math.inf).to_json_bytes()
    assert data == with_metrics('{"m":-Infinity,"n":NaN,"p":Infinity}')


def test_unknown_object_is_rejected():
    with pytest.raises(TypeError, match="cannot serialize"):
        report(x=object()).to_json_bytes()


@given(st.floats(allow_nan=False))
@example(-0.0)
@example(5e-324)  # the smallest subnormal
@example(1e8)  # an integral float
@settings(max_examples=300, deadline=None)
def test_every_float_reads_back_bit_for_bit(x):
    back = json.loads(report(x=x).to_json_bytes())["metrics"]["x"]
    assert type(back) is float and bits(back) == bits(x)


def test_csv_header_is_the_union_of_step_keys_in_first_seen_order(tmp_path):
    steps = [{"b": 1, "a": 0.25}, {"c": "text, quoted", "a": None}, {"d": [0.5 + 1j, -0.0], "b": True}]
    paths = report(steps).write(tmp_path / "r")
    assert [p.name for p in paths] == ["r.report.json", "r.steps.csv"]
    with open(tmp_path / "r.steps.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["b", "a", "c", "d"],
        ["1", "0.25", "", ""],
        ["", "", "text, quoted", ""],
        ["true", "", "", "[[0.5,1.0],-0.0]"],
    ]


def test_report_without_steps_writes_no_csv(tmp_path):
    paths = report().write(tmp_path / "sub" / "r")
    assert [p.name for p in paths] == ["r.report.json"]
    assert not (tmp_path / "sub" / "r.steps.csv").exists()


def test_report_without_steps_removes_the_csv_of_an_earlier_run(tmp_path):
    report([{"a": 1}]).write(tmp_path / "r")
    paths = report().write(tmp_path / "r")
    assert [p.name for p in paths] == ["r.report.json"]
    assert not (tmp_path / "r.steps.csv").exists()


@pytest.mark.parametrize("z", [0.3 - 0.2j, complex(-0.5), 1j, complex(-0.0, -0.0)], ids=str)
def test_complex_cells_use_the_cli_syntax(z):
    back = parse_complex(_csv_cell(z))
    assert bits(back.real) == bits(z.real) and bits(back.imag) == bits(z.imag)
