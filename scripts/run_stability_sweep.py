#!/usr/bin/env python3
"""Multi-seed stability and semicontinuity sweep.

Reproduces the headline experiments at full scale and writes one report
pair per run into the output directory:

    python scripts/run_stability_sweep.py --out out/stability --seeds 20
"""

import argparse
import sys
from pathlib import Path

from shiftlab.cli import DEFAULT_N, DEFAULT_SEMICONT_EPS, DEFAULT_STABILITY_EPS
from shiftlab.operators import shift_window
from shiftlab.stability import PerturbationPlan, norm_stability_run, semicontinuity_run
from shiftlab.subspaces import vanishing_subspace
from shiftlab.weights import WeightSequence


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/stability", help="output directory")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--N", type=int, default=DEFAULT_N["stability"])
    parser.add_argument("--trials", type=int, default=200)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bergman = WeightSequence.preset("bergman")
    unweighted = WeightSequence.preset("unweighted")

    slopes = []
    for seed in range(args.seeds):
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=DEFAULT_STABILITY_EPS, seed=seed)
        rep = norm_stability_run(bergman, [0.3, -0.4], plan, N=args.N)
        rep.write(out / f"stability-seed{seed:03d}")
        slopes.append(rep.fitted_slope)
        print(f"seed {seed:3d}: verdict={rep.verdict} slope={rep.fitted_slope:.4f} "
              f"final={rep.metrics['final_distance']:.3e}")
    print(f"slopes: min={min(slopes):.4f} max={max(slopes):.4f}")

    N = DEFAULT_N["semicont"]
    T = shift_window(unweighted, N)
    plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=DEFAULT_SEMICONT_EPS, seed=7)
    rep = semicontinuity_run(
        T,
        vanishing_subspace([0.3, -0.4], N),
        vanishing_subspace([0.3, -0.4], N + 1),
        plan,
        args.trials,
    )
    rep.write(out / "semicontinuity")
    print(f"semicontinuity: verdict={rep.verdict} violations={rep.metrics['violations']} "
          f"skip_fraction={rep.metrics['skip_fraction']:.3f}")
    return 0 if rep.verdict == "pass" and all(0.9 <= s <= 1.1 for s in slopes) else 2


if __name__ == "__main__":
    sys.exit(main())
