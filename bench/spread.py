"""Run one workload on several seeds and summarize each metric.

    python3 bench/spread.py --workload NAME --seeds 1-10 --seconds 30 [--trace 0|1]

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  It also prints the raw
figures the calibrated ones rest on: wall and CPU seconds per round,
the kernel time and its share of the timed phase, and the failed
share.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"median={values[0]:.6g}"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (f"median={statistics.median(values):.6g} q1={q1:.6g} q3={q3:.6g} "
            f"spread={(q3 - q1) / statistics.median(values):.4f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_list)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    metrics: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=BENCH.parent)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        record = json.loads((BENCH / "results" /
                             f"{args.workload}-seed{seed}-trace{args.trace}.json").read_text())
        child = record["child"]
        rounds = child["rounds"]
        raw.setdefault("round_wall_s", []).append(sum(child["round_wall_s"]) / rounds)
        raw.setdefault("round_cpu_s", []).append(sum(child["round_cpu_s"]) / rounds)
        raw.setdefault("kernel_s", []).append(child["kernel_s"])
        raw.setdefault("kernel_share", []).append(child["kernel_share"])
        raw.setdefault("rounds", []).append(rounds)
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              file=sys.stderr)
    for name, values in metrics.items():
        print(f"{args.workload} {name:34s} {summary(values)}")
    for name, values in raw.items():
        print(f"{args.workload} raw.{name:30s} {summary(values)}")
    print(f"{args.workload} failed share and correct per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
