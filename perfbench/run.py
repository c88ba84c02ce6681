#!/usr/bin/env python3
"""shiftlab benchmark: end-to-end timings per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload semicont --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src. Each
workload is a closed loop with one caller: the next experiment starts when
the previous one returns, until --seconds have passed. Inputs (experiment
seeds, zero sets) are derived from --seed only.

--trace 0 prints the end-to-end metrics: set-up time (median over fresh
interpreters), wall time and CPU time per iteration (medians), steps per
second and peak resident memory. --trace 1 spends half the time untraced
and half traced (see tracer.py) and prints the per-layer metrics, averaged
per iteration; the spans go to .perfbench/trace-<workload>-seed<seed>.jsonl.

Every experiment call is checked against the repo's own acceptance rules;
the last stdout line is one JSON object with "correct", "attempted",
"failed" and "metrics". --smoke shrinks every size for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("semicont", "stability", "survey")
SETUP_REPEATS = 9

END_TO_END = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Span groups whose metric sums several traced functions.
GROUPS = {
    "operators.windows": ("operators.shift_window", "operators.adjoint_window", "operators.adjoint_window_square"),
    "beurling.batches": ("beurling.check_wa_batch", "beurling.check_wc_batch", "beurling.derivative_probe_batch"),
    "stability.experiment": ("stability.norm_stability_run", "stability.semicontinuity_run",
                             "stability.beurling_index_sweep"),
    "report.write": ("report.ExperimentReport.write",),
}
LAYER_NAMES = ("weights", "operators", "subspaces", "stability", "beurling", "report", "cli", "linalg")
SPAN_METRICS = tuple(f"{layer}.{f}" for layer in LAYER_NAMES for f in ("calls", "self_s")) + (
    "subspaces.rel_index.calls", "subspaces.rel_index.self_s",
    "subspaces.rel_index.p50_us", "subspaces.rel_index.p99_us",
    "subspaces.orthonormalize.calls", "subspaces.orthonormalize.self_s",
    "linalg.qr.calls", "linalg.qr.self_s", "linalg.svd.calls", "linalg.svd.self_s",
    "stability.perturb.calls", "stability.perturb.self_s", "stability.perturb.p50_us",
    "subspaces.kernel_of_polynomial.self_s", "subspaces.polynomial_of_window.self_s",
    "subspaces.projection_distance.self_s", "subspaces.krylov_span.self_s",
    "operators.jordan_chain.calls", "operators.jordan_chain.self_s", "operators.jordan_chain.p50_us",
    "operators.chain_continuity_probe.self_s", "operators.windows.self_s",
    "beurling.batches.self_s", "beurling.beurling_norm.calls", "beurling.beurling_norm.self_s",
    "beurling.algebra_constant.self_s",
    "stability.experiment.self_s", "report.write.calls", "report.write.self_s", "cli.run.self_s",
)
FIELD_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}
DERIVED_METRICS = {
    "subspaces.orthonormalize_per_rel_index": "ratio",
    "linalg.svd_per_step": "ratio",
    "stability.asserted_ratio": "ratio",
    "stability.skipped_trials": "count",
    "report.bytes_written": "bytes",
    "trace.overhead_s": "s",
}
PER_LAYER = {**{m: FIELD_UNITS[m.rsplit(".", 1)[1]] for m in SPAN_METRICS}, **DERIVED_METRICS}

# Expected outcomes, taken from the acceptance suite (AC5, AC8) and the CLI defaults.
EXPECTED_CLASSIFY = {"unweighted": "converges", "bergman": "converges", "quasianalytic_sqrt": "diverges"}
SEMICONT_BASE_INDEX = 1


@dataclass(frozen=True)
class Sizes:
    semicont_trials: int = 20
    stability_N: int | None = None  # CLI default (200)
    beurling_batch: int = 200
    zero_sets: int = 50
    probe_steps: int = 64


SMOKE = Sizes(semicont_trials=2, stability_N=60, beurling_batch=20, zero_sets=5, probe_steps=8)


@dataclass
class Call:
    """One experiment call of a workload iteration."""

    tag: str
    invoke: Callable[[str], object]  # takes the output prefix, returns the value checked
    expect: Callable[[object, dict | None], bool]
    writes_report: bool = True


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[perfbench] check failed: {what}", file=sys.stderr)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    units: int
    bytes_written: int
    outcomes: tuple[int, int, int]  # asserted, attempted, skipped


# -- workloads -------------------------------------------------------------------

def _cli_call(tag: str, expect: Callable[[dict], bool], **fields) -> Call:
    from shiftlab import cli

    def invoke(prefix: str) -> int:
        return cli.run(cli.RunConfig(output=prefix, **fields))

    return Call(tag, invoke, lambda rc, doc: rc == 0 and doc is not None and expect(doc))


def _verdict_pass(doc: dict) -> bool:
    return doc["verdict"] == "pass"


def _base_seed(seed: int) -> int:
    import numpy as np

    return int(np.random.default_rng(seed).integers(0, 2**31))


def semicont_calls(seed: int, i: int, sizes: Sizes) -> tuple[list[Call], int]:
    """Index semicontinuity at the CLI defaults (unweighted, N=128), fewer trials."""
    from shiftlab.cli import DEFAULT_SEMICONT_EPS

    def expect(doc):
        m = doc["metrics"]
        return _verdict_pass(doc) and m["violations"] == 0 and m["base_index"] == SEMICONT_BASE_INDEX

    call = _cli_call("semicont", expect, command="semicont", trials=sizes.semicont_trials,
                     seed=_base_seed(seed) + i)
    return [call], sizes.semicont_trials * len(DEFAULT_SEMICONT_EPS)


def stability_calls(seed: int, i: int, sizes: Sizes) -> tuple[list[Call], int]:
    """Norm stability on bergman, one seed per iteration (consecutive seeds)."""
    from shiftlab.cli import DEFAULT_STABILITY_EPS
    from shiftlab.stability import SLOPE_WINDOW

    def expect(doc):
        slope = doc["fitted_slope"]
        return _verdict_pass(doc) and slope is not None and SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]

    call = _cli_call("stability", expect, command="stability", weight="bergman", N=sizes.stability_N,
                     seed=_base_seed(seed) + i)
    return [call], len(DEFAULT_STABILITY_EPS)


def zero_sets(seed: int, i: int, count: int) -> list[list[complex]]:
    """Random zero sets within the CLI's limits: 1-5 points in |z| <= 0.8, 1e-2 apart."""
    import numpy as np

    rng = np.random.default_rng([seed, i])
    sets = []
    for _ in range(count):
        size = int(rng.integers(1, 6))
        points: list[complex] = []
        while len(points) < size:
            z = complex(*rng.uniform(-0.8, 0.8, 2))
            if abs(z) <= 0.8 and all(abs(z - q) >= 1e-2 for q in points):
                points.append(z)
        sets.append(points)
    return sets


def survey_calls(seed: int, i: int, sizes: Sizes) -> tuple[list[Call], int]:
    """The light commands a user runs to explore weights, plus a fresh beurling-index sweep."""
    from shiftlab import cli, operators, stability, weights

    calls = []
    for w in weights.PRESET_KINDS:
        want = EXPECTED_CLASSIFY[w]
        calls.append(_cli_call(f"classify-{w}", lambda doc, want=want: doc["verdict"] == want,
                               command="classify", weight=w))
        calls.append(_cli_call(f"radii-{w}", _verdict_pass, command="radii", weight=w))
        calls.append(_cli_call(f"chain-{w}", _verdict_pass, command="chain", weight=w, lam=0.5, m=3))
    calls.append(_cli_call("chain-boundary", _verdict_pass, command="chain", weight="unweighted", lam=0.999, m=3))
    calls.append(Call(
        "continuity-probe",
        lambda prefix: operators.chain_continuity_probe(
            weights.WeightSequence.preset("bergman"), 2, 0.5, sizes.probe_steps),
        lambda value, doc: math.isfinite(value),
        writes_report=False,
    ))
    for w in ("bergman", "quasianalytic_sqrt"):
        calls.append(_cli_call(f"beurling-check-{w}", _verdict_pass, command="beurling-check", weight=w,
                               batch=sizes.beurling_batch, seed=_base_seed(seed) + i))
    sets = zero_sets(seed, i, sizes.zero_sets)

    def sweep(prefix: str) -> int:
        stability.beurling_index_sweep(sets, cli.DEFAULT_N["beurling-index"]).write(prefix)
        return 0

    calls.append(Call("beurling-index", sweep,
                      lambda rc, doc: doc is not None and _verdict_pass(doc) and doc["metrics"]["all_indices_one"]))
    return calls, sum(c.writes_report for c in calls)


BUILDERS = {"semicont": semicont_calls, "stability": stability_calls, "survey": survey_calls}


# -- measurement -----------------------------------------------------------------

def _outcomes(doc: dict | None) -> tuple[int, int, int]:
    """(asserted, attempted, skipped) units of an experiment driver's report."""
    if doc is None:
        return 0, 0, 0
    steps = doc["per_step"]
    if doc["experiment"] == "index_semicontinuity":
        return (sum(s["n_asserted"] for s in steps), doc["inputs"]["trials"] * len(steps),
                doc["metrics"]["skipped_trials"])
    if doc["experiment"] == "norm_stability":
        return sum(s.get("distance") is not None for s in steps), len(steps), 0
    if doc["experiment"] == "beurling_index_sweep":
        return sum(not s["ill_conditioned"] for s in steps), len(steps), 0
    return 0, 0, 0


def run_iteration(workload: str, seed: int, i: int, sizes: Sizes, workdir: Path, ledger: Ledger) -> Sample:
    calls, units = BUILDERS[workload](seed, i, sizes)
    wall = cpu = 0.0
    written = 0
    outcomes = [0, 0, 0]
    for call in calls:
        prefix = workdir / call.tag
        report = prefix.with_name(prefix.name + ".report.json")
        steps_csv = prefix.with_name(prefix.name + ".steps.csv")
        for stale in (report, steps_csv):
            stale.unlink(missing_ok=True)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value, error = call.invoke(str(prefix)), None
        except Exception:
            value, error = None, traceback.format_exc()
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if error is not None:
            print(error, file=sys.stderr)
            ledger.record(False, f"{workload}[{i}] {call.tag} raised")
            continue
        doc = None
        ok = True
        if call.writes_report and report.exists():
            data = report.read_bytes()
            written += len(data) + (steps_csv.stat().st_size if steps_csv.exists() else 0)
            doc = json.loads(data)
            digest = hashlib.sha256(data).hexdigest()
            key = (i, call.tag)
            ok = ledger.digests.setdefault(key, digest) == digest  # determinism: repeats of a config
            outcomes = [a + b for a, b in zip(outcomes, _outcomes(doc))]
        try:
            ok = ok and bool(call.expect(value, doc))
        except (KeyError, TypeError, ValueError):
            ok = False
        ledger.record(ok, f"{workload}[{i}] {call.tag}")
    return Sample(wall, cpu, units, written, tuple(outcomes))


def measure(workload: str, seed: int, first: int, seconds: float, sizes: Sizes, workdir: Path,
            ledger: Ledger, tracer=None) -> list[Sample]:
    """Closed loop, one caller: iterations back to back until `seconds` have passed."""
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        i = first + len(samples)
        if tracer is not None:
            tracer.request = i
        samples.append(run_iteration(workload, seed, i, sizes, workdir, ledger))
    return samples


SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import shiftlab
from shiftlab.cli import RunConfig
for command in sys.argv[2:]:
    RunConfig(command=command).resolved()
print(time.monotonic())
"""
SETUP_COMMANDS = {
    "semicont": ("semicont",),
    "stability": ("stability",),
    "survey": ("classify", "radii", "chain", "beurling-check", "beurling-index"),
}


def setup_times(workload: str, repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to shiftlab imported and configs resolved.

    CLOCK_MONOTONIC is system-wide on Linux, so the child's ready timestamp
    compares with the parent's spawn timestamp.
    """
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), *SETUP_COMMANDS[workload]],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


# -- environment -----------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


# -- metrics ---------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(samples: list[Sample], setup: list[float]) -> tuple[dict, dict]:
    """Medians (the reported values) and (p25, p50, p75, n) spreads for the summary."""
    spreads = {
        "setup_s": setup,
        "run_s": [s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
    }
    values = {name: statistics.median(v) for name, v in spreads.items()}
    values["steps_per_s"] = sum(s.units for s in samples) / sum(s.wall_s for s in samples)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return values, {name: (*quartiles(v), len(v)) for name, v in spreads.items()}


def per_layer(stats, traced: list[Sample], untraced: list[Sample]) -> dict:
    n = len(traced)
    values = {}
    for metric in SPAN_METRICS:
        group, fld = metric.rsplit(".", 1)
        if group in LAYER_NAMES:
            total = stats.layer(group, fld)
        elif fld in ("p50_us", "p99_us"):
            values[metric] = stats.percentile_us(group, float(fld[1:3]))
            continue
        else:
            total = stats.total(GROUPS.get(group, (group,)), fld)
        values[metric] = total / n
    rel = stats.calls.get("subspaces.rel_index", 0)
    asserted, attempted, skipped = (sum(s.outcomes[k] for s in traced) for k in range(3))
    values["subspaces.orthonormalize_per_rel_index"] = stats.calls.get("subspaces.orthonormalize", 0) / rel if rel else 0.0
    values["linalg.svd_per_step"] = stats.calls.get("linalg.svd", 0) / sum(s.units for s in traced)
    values["stability.asserted_ratio"] = asserted / attempted if attempted else 0.0
    values["stability.skipped_trials"] = skipped / n
    values["report.bytes_written"] = sum(s.bytes_written for s in traced) / n
    values["trace.overhead_s"] = (statistics.median(s.wall_s for s in traced)
                                  - statistics.median(s.wall_s for s in untraced))
    return values


def count_checks(workload: str, stats, traced: list[Sample], sizes: Sizes, ledger: Ledger) -> None:
    """Exact call counts that the traced run must reproduce."""
    steps = sum(s.units for s in traced)
    if workload == "semicont":
        rel = stats.calls.get("subspaces.rel_index", 0)
        want = steps + len(traced)  # trials x eps steps, plus the base index, per experiment
        ledger.record(rel == want, f"rel_index calls {rel} != trials x steps + 1 per experiment ({want})")
        orth = stats.calls.get("subspaces.orthonormalize", 0)
        ledger.record(orth == 2 * rel, f"orthonormalize calls {orth} != 2 x rel_index calls {rel}")
    elif workload == "stability":
        svd = stats.calls.get("linalg.svd", 0)
        ledger.record(svd == 4 * steps, f"svd calls {svd} != 4 per step over {steps} steps")
        side = sizes.stability_N or 200
        shapes = stats.shapes.get("linalg.svd", set())
        ledger.record(shapes == {(side, side)}, f"svd shapes {sorted(shapes)} != {{({side}, {side})}}")


# -- entry point -----------------------------------------------------------------

def _print_summary(workload, seed, seconds, trace, env, ledger, lines):
    print(json.dumps({"environment": env}, sort_keys=True))
    print(f"workload={workload} seed={seed} seconds={seconds} trace={trace} closed loop, 1 caller")
    for line in lines:
        print("  " + line)
    frac = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"  failed_frac = {ledger.failed}/{ledger.attempted} = {frac:.6g} (fraction)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    sizes = SMOKE if args.smoke else Sizes()

    if not (SRC / "shiftlab" / "__init__.py").is_file():
        print(f"[perfbench] no shiftlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shiftlab

    if Path(shiftlab.__file__).resolve().parent != SRC / "shiftlab":
        print(f"[perfbench] imported shiftlab from {shiftlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # The program must receive only the generated configs; this variable would override their seeds.
    os.environ.pop("SHIFTLAB_SEED", None)
    env = environment()

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        setup = setup_times(args.workload, 1 if args.smoke else SETUP_REPEATS) if args.trace == 0 else []
        run_iteration(args.workload, args.seed, 0, sizes, workdir, ledger)  # warm-up; iteration 0 repeats it
        if args.trace == 0:
            samples = measure(args.workload, args.seed, 0, args.seconds, sizes, workdir, ledger)
            values, spreads = end_to_end(samples, setup)
            units = END_TO_END
            lines = [f"{name:12s} p25={q1:.6g} p50={q2:.6g} p75={q3:.6g} n={cnt} {units[name]}"
                     for name, (q1, q2, q3, cnt) in spreads.items()]
            lines += [f"{name:12s} {values[name]:.6g} {units[name]}" for name in ("steps_per_s", "peak_rss_mb")]
        else:
            from tracer import SpanStats, Tracer

            untraced = measure(args.workload, args.seed, 0, args.seconds / 2, sizes, workdir, ledger)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(args.workload, args.seed, len(untraced), args.seconds / 2, sizes, workdir,
                                 ledger, tracer)
            finally:
                tracer.uninstall()
            stats = SpanStats(tracer.spans)
            count_checks(args.workload, stats, traced, sizes, ledger)
            values = per_layer(stats, traced, untraced)
            units = PER_LAYER
            lines = [f"{name:42s} {values[name]:.6g} {units[name]}" for name in PER_LAYER]
            lines.append(f"traced iterations {len(traced)}, untraced {len(untraced)}, spans {len(tracer.spans)}")
            with open(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "environment": env,
                                     "columns": ["id", "parent", "name", "request", "start_s", "end_s", "shape"]}))
                for span in tracer.spans:
                    fh.write("\n" + json.dumps(span))
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _print_summary(args.workload, args.seed, args.seconds, args.trace, env, ledger, lines)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
