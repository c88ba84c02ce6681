"""Batch command-line front door.

Each invocation runs one command, writes <output>.report.json (and a
<output>.steps.csv when the experiment has steps) and prints a one-line
summary to stderr. Exit status: 0 for a completed computation or passing
verdict, 2 when a verdict fails, 1 for configuration or runtime errors.

Complex scalars on the command line use the a+bi syntax with no spaces,
e.g. 0.3, -0.4i, 0.5+0.2i; there and in float lists ASCII or U+2212
minus are both accepted, and a value may begin with a minus sign
(--zeros -0.5,0.3i). Every option's default lives in RunConfig, and READS
names the keys each command reads: its options, its checks and its echoed
inputs. A report's inputs are its command and those keys, nothing else.
"""

from __future__ import annotations

import argparse
import cmath
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import beurling as bl
from . import stability as st
from . import weights as wt
from .operators import jordan_chain, shift_window
from .report import VERDICT_FAIL, VERDICT_PASS, ExperimentReport
from .subspaces import DEFAULT_RANK_TOL, vanishing_subspace

DEFAULT_N = {
    "classify": 4096,
    "radii": 256,
    "chain": 200,
    "stability": 200,
    "semicont": 128,
    "beurling-index": 128,
}
DEFAULT_STABILITY_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
DEFAULT_SEMICONT_EPS = tuple(2.0 ** -n for n in range(1, 15))
DEFAULT_ROOTS = (0.3 + 0j, -0.4 + 0j)  # stability's p roots and semicont's zeros
FINITE_KEYS = ("lam", "p_roots", "zeros", "eps", "rank_tol")


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


def parse_complex(text: str) -> complex:
    raw = text.strip().replace("−", "-").replace(" ", "")
    if raw.endswith("i"):
        raw = raw[:-1] + "j"
    try:
        return complex(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex scalar {text!r} (expected a+bi syntax)") from exc


def parse_complex_list(text: str) -> tuple[complex, ...]:
    return tuple(parse_complex(part) for part in text.split(",") if part.strip())


def parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.replace("−", "-").split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc


# RunConfig key -> (flag, type) of its option; --output is the one option every command takes
OPTIONS = {
    "weight": ("--weight", str),
    "N": ("--N", int),
    "seed": ("--seed", int),
    "rank_tol": ("--rank-tol", float),
    "window_len": ("--window-len", int),
    "lam": ("--lambda", parse_complex),
    "m": ("--m", int),
    "p_roots": ("--p-roots", parse_complex_list),
    "eps": ("--eps", parse_float_list),
    "trials": ("--trials", int),
    "zeros": ("--zeros", parse_complex_list),
    "n_sets": ("--sets", int),
    "degree": ("--degree", int),
    "batch": ("--batch", int),
}

# command -> the RunConfig keys its runner reads: its options, its checks and its echoed inputs
READS = {
    "classify": ("weight", "N"),
    "radii": ("weight", "N", "window_len"),
    "chain": ("weight", "N", "lam", "m"),
    "stability": ("weight", "N", "seed", "p_roots", "eps"),
    "semicont": ("weight", "N", "seed", "rank_tol", "eps", "trials", "zeros"),
    "beurling-index": ("N", "seed", "rank_tol", "zeros", "n_sets"),
    "beurling-check": ("weight", "seed", "degree", "batch"),
}
COMMANDS = tuple(READS)


@dataclass
class RunConfig:
    """Fully resolved run configuration; every knob has a default."""

    command: str
    weight: str = "unweighted"
    N: int | None = None
    lam: complex = 0.5
    m: int = 2
    p_roots: tuple[complex, ...] = DEFAULT_ROOTS
    zeros: tuple[complex, ...] | None = None
    n_sets: int = 50
    eps: tuple[float, ...] | None = None
    seed: int = 42
    trials: int = 200
    rank_tol: float = DEFAULT_RANK_TOL
    degree: int = 32
    batch: int = 200
    window_len: int | None = None
    output: str = "shiftlab-run"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")

    def resolved(self) -> "RunConfig":
        reads = READS[self.command]
        if "N" in reads and self.N is None:
            self.N = DEFAULT_N[self.command]
        if "eps" in reads and self.eps is None:
            self.eps = DEFAULT_SEMICONT_EPS if self.command == "semicont" else DEFAULT_STABILITY_EPS
        if self.command == "semicont" and self.zeros is None:
            self.zeros = DEFAULT_ROOTS
        if "seed" in reads and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for key in ("eps", "p_roots", "zeros"):
            value = getattr(self, key)
            unset = key == "zeros" and value is None  # None: beurling-index draws its zero sets
            if key in reads and not unset and not value:
                raise ConfigError(f"{key} must list at least one value")
        for key in ("trials", "n_sets", "batch", "degree"):
            if key in reads and getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        for key in FINITE_KEYS:
            value = getattr(self, key)
            values = value if isinstance(value, (tuple, list)) else [value]
            if key in reads and not all(v is None or cmath.isfinite(v) for v in values):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if "rank_tol" in reads and not 0.0 < self.rank_tol < 1.0:
            raise ConfigError(f"rank_tol must lie in (0, 1), got {self.rank_tol!r}")
        return self


def _check_window_fits(N: int, zero_count: int) -> None:
    """vanishing_subspace needs a window larger than its zero set."""
    if N <= zero_count:
        raise ConfigError(f"N must exceed the number of zeros ({zero_count}), got N={N}")


def load_weight(spec: str) -> wt.WeightSequence:
    if spec in wt.PRESET_KINDS:
        return wt.WeightSequence.preset(spec)
    path = Path(spec)
    if path.is_file():
        return wt.WeightSequence.from_file(path)
    raise ConfigError(f"--weight {spec!r} is neither a preset {wt.PRESET_KINDS} nor an existing file")


def _echo_config(config: RunConfig) -> dict:
    return {key: getattr(config, key) for key in ("command",) + READS[config.command]}


# -- command implementations -----------------------------------------------------

def _run_classify(config: RunConfig) -> ExperimentReport:
    w = load_weight(config.weight)
    rep = wt.classify(w, config.N)
    return ExperimentReport(
        experiment="classify",
        per_step=[{"N": n, "partial_sum": s} for n, s in rep.quasianalytic_partial_sums],
        fitted_slope=rep.fit_slope,
        metrics={
            "regular": rep.regular,
            "log_convex_tail": rep.log_convex_tail,
            "tail_start": rep.tail_start,
            "omega_s_concave": {str(k): v for k, v in rep.omega_s_concave.items()},
            "increment_ratios": rep.increment_ratios,
            "shields_hypotheses_met": rep.shields_hypotheses_met,
            "alpha_min": rep.alpha_range[0],
            "alpha_max": rep.alpha_range[1],
        },
        verdict=rep.divergence_verdict,
    )


def _run_radii(config: RunConfig) -> ExperimentReport:
    w = load_weight(config.weight)
    est = wt.radius_estimates(w, config.N, window_len=config.window_len)
    return ExperimentReport(
        experiment="radii",
        per_step=[],
        fitted_slope=None,
        metrics={
            "r_point": est.r_point,
            "r_spec": est.r_spec,
            "r0": est.r0,
            "window_len": est.window_len,
        },
        verdict=VERDICT_PASS,
    )


def _run_chain(config: RunConfig) -> ExperimentReport:
    w = load_weight(config.weight)
    chain = jordan_chain(w, config.lam, config.m, config.N)
    head = min(8, config.N)
    per_step = []
    for k, vec in enumerate(chain.vectors, start=1):
        per_step.append({
            "k": k,
            "leading_coord": complex(vec[k - 1]),
            "norm": float(np.linalg.norm(vec)),
            "residual": chain.residuals[k - 1],
            "coords_head": [complex(z) for z in vec[:head]],
        })
    return ExperimentReport(
        experiment="chain",
        per_step=per_step,
        fitted_slope=None,
        metrics={
            "tail_bound": chain.tail_bound,
            "l2_member": chain.l2_member,
            "r_point": chain.r_point,
        },
        verdict=VERDICT_PASS,
    )


def _run_stability(config: RunConfig) -> ExperimentReport:
    w = load_weight(config.weight)
    plan = st.PerturbationPlan(kind="dense_random", epsilon_schedule=config.eps, seed=config.seed)
    return st.norm_stability_run(w, config.p_roots, plan, N=config.N)


def _run_semicont(config: RunConfig) -> ExperimentReport:
    w = load_weight(config.weight)
    _check_window_fits(config.N, len(config.zeros))
    r_point = w.r_point(config.N)  # no closed invariant subspace of T vanishes outside |z| < r_point
    if max(abs(z) for z in config.zeros) >= r_point:
        raise ConfigError(f"zeros must lie inside |z| < r_point = {r_point:.6g}, got {max(config.zeros, key=abs)}")
    T = shift_window(w, config.N)
    M_in = vanishing_subspace(config.zeros, config.N)
    M_out = vanishing_subspace(config.zeros, config.N + 1)
    plan = st.PerturbationPlan(kind="weight_jitter", epsilon_schedule=config.eps, seed=config.seed)
    return st.semicontinuity_run(T, M_in, M_out, plan, config.trials, rank_tol=config.rank_tol)


def _run_beurling_index(config: RunConfig) -> ExperimentReport:
    if config.zeros is not None:
        sets = [list(config.zeros)]
    else:
        sets = st.random_zero_sets(config.n_sets, config.seed)
    _check_window_fits(config.N, max(len(zs) for zs in sets))
    return st.beurling_index_sweep(sets, config.N, rank_tol=config.rank_tol)


TREND_TOL = 0.05  # largest relative move of wa_max or wc_min that passes when the degree doubles


def _run_beurling_check(config: RunConfig) -> ExperimentReport:
    """Batch Beurling-algebra probes at degree d and 2d.

    The verdict passes when wa_growth <= TREND_TOL, wc_shrink <= TREND_TOL
    and every derivative ratio lies in [0.1, 10]; nothing else is read.
    metrics.unbounded_trend (the convolution-kernel sums still growing at
    the last degree) is reported but is not part of the verdict.
    """
    w = load_weight(config.weight)
    per_step = []
    for d in (config.degree, 2 * config.degree):
        wa_max = bl.check_wa_batch(w, d, config.batch, config.seed)
        wc_min = bl.check_wc_batch(w, d, config.batch, config.seed)
        dlo, dhi = bl.derivative_probe_batch(w, d, config.batch, config.seed)
        per_step.append({
            "degree": d,
            "wa_max": wa_max,
            "wc_min": wc_min,
            "derivative_ratio_min": dlo,
            "derivative_ratio_max": dhi,
        })
    const = bl.algebra_constant(w, max(64, 4 * config.degree))
    growth = per_step[1]["wa_max"] / per_step[0]["wa_max"] - 1.0
    shrink = 1.0 - per_step[1]["wc_min"] / per_step[0]["wc_min"]
    ratios_ok = all(0.1 <= s["derivative_ratio_min"] and s["derivative_ratio_max"] <= 10.0 for s in per_step)
    ok = growth <= TREND_TOL and shrink <= TREND_TOL and ratios_ok
    return ExperimentReport(
        experiment="beurling_check",
        per_step=per_step,
        fitted_slope=None,
        metrics={
            "algebra_constant": const.value,
            "algebra_constant_argmax": const.argmax,
            "unbounded_trend": const.unbounded_trend,
            "wa_growth": growth,
            "wc_shrink": shrink,
        },
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )


_RUNNERS = {
    "classify": _run_classify,
    "radii": _run_radii,
    "chain": _run_chain,
    "stability": _run_stability,
    "semicont": _run_semicont,
    "beurling-index": _run_beurling_index,
    "beurling-check": _run_beurling_check,
}


def run(config: RunConfig) -> int:
    """Execute one command, write artifacts, return the exit status."""
    try:
        config = config.resolved()
        report = _RUNNERS[config.command](config)
        report.inputs = _echo_config(config)
        paths = report.write(config.output)
    except ConfigError as exc:
        print(f"[shiftlab] config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"[shiftlab] error: {exc}", file=sys.stderr)
        return 1
    names = ", ".join(str(p) for p in paths)
    print(f"[shiftlab] {config.command}: verdict={report.verdict} ({names})", file=sys.stderr)
    return 2 if report.verdict == VERDICT_FAIL else 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only plain negative decimals (-2, -0.5) as values, so
        # -1e-1, -0.4i or -0.5,0.3i would be taken for options; no option here
        # begins with "-" and a digit, so any such word is a value.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shiftlab", description="Weighted-shift numerical laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, reads in READS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--output", help="output path prefix")
        for key in reads:
            flag, kind = OPTIONS[key]
            p.add_argument(flag, dest=key, type=kind)
    return parser


def main(argv=None) -> None:
    try:
        args = build_parser().parse_args(argv)
        config = RunConfig(**vars(args))
    except ConfigError as exc:
        print(f"[shiftlab] config error: {exc}", file=sys.stderr)
        sys.exit(1)
    sys.exit(run(config))


if __name__ == "__main__":
    main()
