"""Structured experiment reports with deterministic serialization.

Reports serialize to canonical JSON: keys sorted, floats printed with 17
significant digits, complex numbers as [re, im] pairs. Identical inputs
and seeds therefore produce byte-identical files. Step tables additionally
export as CSV for external plotting.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "shiftlab-report-v1"

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INCONCLUSIVE = "inconclusive"


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _canonical(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return f"[{_format_float(z.real)},{_format_float(z.imag)}]"
    if isinstance(value, str):
        out = io.StringIO()
        out.write('"')
        for ch in value:
            if ch in '"\\':
                out.write("\\" + ch)
            elif ord(ch) < 0x20:
                out.write(f"\\u{ord(ch):04x}")
            else:
                out.write(ch)
        out.write('"')
        return out.getvalue()
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        body = ",".join(f"{_canonical(str(k))}:{_canonical(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r} canonically")


def canonical_json(value) -> bytes:
    return (_canonical(value) + "\n").encode("utf-8")


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
        return canonical_json(vars(self))

    def write(self, prefix) -> list[Path]:
        """Write <prefix>.report.json and, when steps exist, <prefix>.steps.csv."""
        prefix = Path(prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        report_path = prefix.with_name(prefix.name + ".report.json")
        report_path.write_bytes(self.to_json_bytes())
        written = [report_path]
        if self.per_step:
            csv_path = prefix.with_name(prefix.name + ".steps.csv")
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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return f"{_format_float(z.real)}+{_format_float(z.imag)}i"
    return str(value)


def fit_loglog_slope(xs, ys) -> float | None:
    """Least-squares slope of log y against log x; None when degenerate."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or np.any(xs <= 0) or np.any(ys <= 0):
        return None
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
