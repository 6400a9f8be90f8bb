"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  It measures set-up time over several
short probe processes, runs the workload in one more process, and prints
one JSON object as the last stdout line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  The full record, with raw
seconds and per-round figures, goes to ``bench/results/``.
Exits 1 without a result if the program cannot be run or a process
does not finish in time.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("sym_tables", "verify_battery", "rational_lambda")
PROBES = 14  # set-up probes; with the measured process, set-up is a median of 15
DEADLINE_S = 170.0
ENV = {"PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def deadline_left(start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def spawn(args: argparse.Namespace, probe: bool) -> subprocess.Popen:
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **ENV}, cwd=ROOT)


def wait_ready(proc: subprocess.Popen, started: float, start: float) -> float:
    """Seconds from spawning ``proc`` until it reports READY."""
    ready, _, _ = select.select([proc.stdout], [], [], deadline_left(start))
    line = proc.stdout.readline() if ready else ""
    if line.strip() != "READY":
        raise BenchError(f"workload process did not get ready (read {line!r})")
    return time.monotonic() - started


def finish(proc: subprocess.Popen, start: float) -> str:
    out, _ = proc.communicate(timeout=deadline_left(start))
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return out


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure(args: argparse.Namespace, start: float) -> tuple[list[float], dict]:
    setups = []
    # the traced run reports no set-up time, so it skips the probes
    for probe in [True] * (0 if args.trace else PROBES) + [False]:
        started = time.monotonic()
        proc = spawn(args, probe)
        try:
            setups.append(wait_ready(proc, started, start))
            out = finish(proc, start)
        finally:
            stop(proc)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no summary")
    return setups, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "degenbern" / "__init__.py").is_file():
        print(f"error: no degenbern sources under {SRC}", file=sys.stderr)
        return 1

    start = time.monotonic()
    try:
        setups, child = measure(args, start)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in child["layers"].items()}
        metrics["scalars.coeff_bits_max"] = {"value": child["coeff_bits_max"], "unit": "bits"}
        metrics["cli.bytes_out"] = {"value": child["bytes_out"], "unit": "bytes"}
        metrics["calib.kernel_s"] = {"value": child["kernel_s"], "unit": "s"}
    else:
        metrics = {
            "time_cal": {"value": child["time_cal"], "unit": "cal"},
            "latency_p50_cal": {"value": child["latency_p50_cal"], "unit": "cal"},
            "latency_tail_cal": {"value": child["latency_tail_cal"], "unit": "cal"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"args": vars(args), "setup_s": setups, "result": result, "child": child}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    for err in child["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if child["correct"] else 1


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_nodes"):
        return "nodes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
