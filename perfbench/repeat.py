#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload semicont --seeds 1-10 --seconds 20
    python3 perfbench/repeat.py --workload survey --holdout --seconds 20

For every metric it prints the median of the per-run values, the quartiles
(statistics.quantiles, n=4) and the spread (p75 - p25) / median, which is
what the bounds in BENCHMARK.json are compared against. --record FILE
merges the result into a JSON file (baseline.json keeps the first results).

HOLDOUT_SEED is reserved for checking a later performance claim on inputs
that were not used while the change was written; do not tune on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOLDOUT_SEED = 7919


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    environment = next(json.loads(line)["environment"] for line in lines if line.startswith('{"environment"'))
    return json.loads(lines[-1]), environment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--holdout", action="store_true", help=f"run only the held-out seed {HOLDOUT_SEED}")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="JSON file to merge the summary into")
    args = parser.parse_args(argv)
    seeds = [HOLDOUT_SEED] if args.holdout else parse_seeds(args.seeds)

    runs = []
    for seed in seeds:
        result, environment = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": first["unit"], "median": median, "p25": q1, "p75": q3, "spread": spread,
                         "values": values}
        print(f"{name:42s} median={median:.6g} p25={q1:.6g} p75={q3:.6g} spread={spread:.2%} {first['unit']}")
    all_correct = all(r["correct"] for r in runs)
    print(f"all correct: {all_correct}")

    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        record.setdefault("environment", environment)
        key = f"{args.workload}/trace{args.trace}"
        record.setdefault("results", {})[key] = {
            "seeds": seeds, "seconds": args.seconds, "all_correct": all_correct, "metrics": summary,
        }
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
