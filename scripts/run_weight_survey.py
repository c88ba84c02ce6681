#!/usr/bin/env python3
"""Classification and radius survey over the built-in weight presets.

    python scripts/run_weight_survey.py --out out/survey --N 4096
"""

import argparse
import sys
from pathlib import Path

from shiftlab.cli import DEFAULT_N
from shiftlab.report import ExperimentReport
from shiftlab.weights import WeightSequence, classify, radius_estimates


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/survey", help="output directory")
    parser.add_argument("--N", type=int, default=DEFAULT_N["classify"])
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("unweighted", "bergman", "quasianalytic_sqrt"):
        w = WeightSequence.preset(name)
        rep = classify(w, args.N)
        est = radius_estimates(w, min(args.N, 1024))
        record = ExperimentReport(
            experiment="weight_survey",
            inputs={"weight": name, "N": args.N},
            per_step=[{"N": n, "partial_sum": s} for n, s in rep.quasianalytic_partial_sums],
            fitted_slope=rep.fit_slope,
            metrics={
                "divergence_verdict": rep.divergence_verdict,
                "shields_hypotheses_met": rep.shields_hypotheses_met,
                "log_convex_tail": rep.log_convex_tail,
                "omega_s_concave": {str(k): v for k, v in rep.omega_s_concave.items()},
                "r_point": est.r_point,
                "r_spec": est.r_spec,
                "r0": est.r0,
            },
            verdict=rep.divergence_verdict,
        )
        record.write(out / name)
        print(f"{name:20s} verdict={rep.divergence_verdict:12s} bundle={rep.shields_hypotheses_met} "
              f"r_point={est.r_point:.4f} r0={est.r0:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
