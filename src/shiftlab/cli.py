"""Batch command-line front door.

Each invocation runs one command, writes <output>.report.json (and a
<output>.steps.csv when the experiment has steps) and prints a one-line
summary to stderr. Exit status: 0 for a completed computation or passing
verdict, 2 when a verdict fails, 1 for configuration or runtime errors.

Complex scalars on the command line use the a+bi syntax with no spaces
(ASCII or U+2212 minus both accepted), e.g. 0.3, -0.4i, 0.5+0.2i.
The environment variable SHIFTLAB_SEED overrides any configured seed.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import beurling as bl
from . import stability as st
from . import weights as wt
from .operators import jordan_chain, shift_window
from .report import VERDICT_FAIL, VERDICT_PASS, ExperimentReport
from .subspaces import vanishing_subspace

COMMANDS = ("classify", "radii", "chain", "stability", "semicont", "beurling-index", "beurling-check")

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
FINITE_KEYS = ("lam", "p_roots", "zeros", "eps", "rank_tol", "invariance_tol", "min_sep", "trend_tol")


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
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc


@dataclass
class RunConfig:
    """Fully resolved run configuration; every knob has a default."""

    command: str
    weight: str = "unweighted"
    N: int | None = None
    lam: complex = 0.5
    m: int = 2
    p_roots: tuple[complex, ...] = (0.3 + 0j, -0.4 + 0j)
    zeros: tuple[complex, ...] | None = None
    n_sets: int = 50
    eps: tuple[float, ...] | None = None
    seed: int = 42
    trials: int = 200
    rank_tol: float = 1e-8
    invariance_tol: float = 1e-3
    min_sep: float = 1e-2
    degree: int = 32
    batch: int = 200
    trend_tol: float = 0.05
    window_len: int | None = None
    output: str = "shiftlab-run"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")

    def resolved(self) -> "RunConfig":
        if self.N is None and self.command in DEFAULT_N:
            self.N = DEFAULT_N[self.command]
        if self.eps is None:
            self.eps = DEFAULT_SEMICONT_EPS if self.command == "semicont" else DEFAULT_STABILITY_EPS
        env_seed = os.environ.get("SHIFTLAB_SEED")
        if env_seed is not None:
            try:
                self.seed = int(env_seed)
            except ValueError as exc:
                raise ConfigError(f"SHIFTLAB_SEED must be an integer, got {env_seed!r}") from exc
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        for key in FINITE_KEYS:
            value = getattr(self, key)
            values = value if isinstance(value, (tuple, list)) else [value]
            if not all(v is None or cmath.isfinite(v) for v in values):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        return self


def load_weight(spec: str) -> wt.WeightSequence:
    if spec in wt.PRESET_KINDS:
        return wt.WeightSequence.preset(spec)
    path = Path(spec)
    if path.exists():
        return wt.WeightSequence.from_file(path)
    raise ConfigError(f"--weight {spec!r} is neither a preset {wt.PRESET_KINDS} nor an existing file")


def _echo_config(config: RunConfig) -> dict:
    echo = asdict(config)
    echo["eps"] = list(config.eps) if config.eps is not None else None
    echo["p_roots"] = list(config.p_roots)
    echo["zeros"] = list(config.zeros) if config.zeros is not None else None
    return echo


# -- command implementations -----------------------------------------------------

def _run_classify(config: RunConfig) -> ExperimentReport:
    w = load_weight(config.weight)
    rep = wt.classify(w, config.N)
    return ExperimentReport(
        experiment="classify",
        inputs=_echo_config(config),
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
        inputs=_echo_config(config),
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
        inputs=_echo_config(config),
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
    rep = st.norm_stability_run(w, config.p_roots, plan, N=config.N, rank_tol=config.rank_tol)
    rep.inputs = _echo_config(config)
    return rep


def _run_semicont(config: RunConfig) -> ExperimentReport:
    w = load_weight(config.weight)
    zeros = config.zeros if config.zeros is not None else tuple(config.p_roots)
    T = shift_window(w, config.N)
    M_in = vanishing_subspace(zeros, config.N)
    M_out = vanishing_subspace(zeros, config.N + 1)
    plan = st.PerturbationPlan(kind="weight_jitter", epsilon_schedule=config.eps, seed=config.seed)
    rep = st.semicontinuity_run(
        T, M_in, M_out, plan, config.trials,
        rank_tol=config.rank_tol, invariance_tol=config.invariance_tol,
    )
    rep.inputs = _echo_config(config)
    return rep


def _run_beurling_index(config: RunConfig) -> ExperimentReport:
    if config.zeros is not None:
        sets = [list(config.zeros)]
    else:
        sets = st.random_zero_sets(config.n_sets, config.seed, min_separation=config.min_sep)
    rep = st.beurling_index_sweep(sets, config.N, rank_tol=config.rank_tol)
    rep.inputs = _echo_config(config)
    return rep


def _run_beurling_check(config: RunConfig) -> ExperimentReport:
    w = load_weight(config.weight)
    p = bl.CoefficientSeries.from_roots([1.0])  # z - 1
    per_step = []
    for d in (config.degree, 2 * config.degree):
        wa_max = bl.check_wa_batch(p, w, d, config.batch, config.seed)
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
    ok = growth <= config.trend_tol and shrink <= config.trend_tol and ratios_ok
    return ExperimentReport(
        experiment="beurling_check",
        inputs=_echo_config(config),
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
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shiftlab", description="Weighted-shift numerical laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--weight", default="unweighted", help="preset name or weight file path")
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--output", default="shiftlab-run", help="output path prefix")
        p.add_argument("--rank-tol", type=float, default=1e-8, dest="rank_tol")
        if name == "radii":
            p.add_argument("--window-len", type=int, default=None, dest="window_len")
        if name == "chain":
            p.add_argument("--lambda", dest="lam", type=parse_complex, default=0.5 + 0j)
            p.add_argument("--m", type=int, default=2)
        if name in ("stability", "semicont"):
            p.add_argument("--p-roots", dest="p_roots", type=parse_complex_list, default=(0.3 + 0j, -0.4 + 0j))
            p.add_argument("--eps", type=parse_float_list, default=None)
        if name == "semicont":
            p.add_argument("--trials", type=int, default=200)
            p.add_argument("--zeros", type=parse_complex_list, default=None)
            p.add_argument("--invariance-tol", type=float, default=1e-3, dest="invariance_tol")
        if name == "beurling-index":
            p.add_argument("--zeros", type=parse_complex_list, default=None)
            p.add_argument("--sets", type=int, default=50, dest="n_sets")
            p.add_argument("--min-sep", type=float, default=1e-2, dest="min_sep")
        if name == "beurling-check":
            p.add_argument("--degree", type=int, default=32)
            p.add_argument("--batch", type=int, default=200)
            p.add_argument("--trend-tol", type=float, default=0.05, dest="trend_tol")
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
