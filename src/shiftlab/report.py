"""Structured experiment reports with deterministic serialization.

Reports serialize to canonical JSON through the standard `json` encoder:
keys sorted, no spaces, raw UTF-8 strings, floats in Python's shortest
round-trip form (NaN and Infinity as those tokens), numpy values as
their Python equivalents and complex numbers as [re, im] pairs.
Identical inputs and seeds therefore produce byte-identical files. Step
tables additionally export as CSV for external plotting: a missing value
is an empty cell, a string is written as is, a complex number as a+bi
(the CLI's input syntax) and anything else as the same JSON text.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "shiftlab-report-v1"

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INCONCLUSIVE = "inconclusive"


def _plain(value):
    """The `json` hook: complex -> [re, im], numpy scalars and arrays -> Python values."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r} canonically")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False, default=_plain)


def _json(value) -> str:
    return _ENCODER.encode(value)


@dataclass
class ExperimentReport:
    """Record of one experiment: inputs (echoed by the CLI), per-step metrics, verdict."""

    experiment: str
    per_step: list[dict]
    fitted_slope: float | None
    verdict: str
    inputs: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    schema: str = SCHEMA_VERSION

    def to_json_bytes(self) -> bytes:
        return (_json(vars(self)) + "\n").encode("utf-8")

    def write(self, prefix) -> list[Path]:
        """Write <prefix>.report.json and, when steps exist, <prefix>.steps.csv; remove that CSV otherwise."""
        prefix = Path(prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        report_path = prefix.with_name(prefix.name + ".report.json")
        report_path.write_bytes(self.to_json_bytes())
        written = [report_path]
        csv_path = prefix.with_name(prefix.name + ".steps.csv")
        csv_path.unlink(missing_ok=True)  # so a run without steps leaves no CSV of an earlier run
        if self.per_step:
            columns: list[str] = []
            for step in self.per_step:
                for key in step:
                    if key not in columns:
                        columns.append(key)
            with open(csv_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(columns)
                for step in self.per_step:
                    writer.writerow([_csv_cell(step.get(col)) for col in columns])
            written.append(csv_path)
        return written


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, complex):
        re, im = (_json(part) for part in (value.real, value.imag))
        return f"{re}{'' if im.startswith('-') else '+'}{im}i"
    return _json(value)


def fit_loglog_slope(xs, ys) -> float | None:
    """Least-squares slope of log y against log x; None when degenerate."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or np.any(xs <= 0) or np.any(ys <= 0):
        return None
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
