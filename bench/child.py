"""One workload process: set up, then run whole rounds for a fixed time.

Started by ``run.py`` as ``python3 bench/child.py --src SRC --workload W
--seed S --seconds T --trace 0|1 [--probe]``.  It prints ``READY`` once
set-up is done (degenbern imported, inputs generated, warm-up run); a
probe exits there.  Otherwise it runs a closed loop with one client: the
next operation starts only after the previous one has returned.  Before
every operation it runs the calibration kernel, and it checks every
output after the operation's timed span.  The last stdout line is a
JSON summary for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


WINDOW = 10  # kernel runs on each side of an operation that calibrate it


def load_program(src: Path):
    """Import degenbern from this checkout's source tree, and nowhere else."""
    sys.path.insert(0, str(src))
    import degenbern
    import degenbern.cli  # not imported by the package root

    where = Path(degenbern.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"error: degenbern imported from {where}, not from {src}")
    return degenbern


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    lib = load_program(args.src)
    import calib
    import oracle
    import tracing
    from workloads import KEPT_FAILURE, WORKLOADS, CliResult

    workload = WORKLOADS[args.workload](lib, args.seed)
    first_round = workload.round(0)
    for op in workload.warmup():
        out = op.run()
        if op.failed(out):
            raise SystemExit(f"error: warm-up request {op.key} failed")
        op.check(out)
    calib.kernel()
    print("READY", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, lib)

    perf = time.perf_counter
    kernel_s: list[float] = []
    latencies: list[float] = []
    round_cpu: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    failures: dict[str, int] = {}
    bits_max = bytes_out = 0
    start = perf()
    index = 0
    ops = first_round
    while True:
        cpu = 0.0
        for op in ops:
            k0 = perf()
            calibrated = calib.kernel()
            k1 = perf()
            kernel_s.append(k1 - k0)
            if calibrated != calib.EXPECTED:
                raise SystemExit("error: calibration kernel returned a wrong value")
            c0 = time.process_time()
            t0 = perf()
            try:
                out = op.run()
                raised = None
            except Exception as exc:  # counted as a failed operation below
                out, raised = None, exc
            t1 = perf()
            cpu += time.process_time() - c0
            latencies.append(t1 - t0)
            attempted += 1
            if raised is not None or op.failed(out):
                failed += 1
                failures[op.kind] = failures.get(op.kind, 0) + 1
                # any other failure is a wrong output, not a kept fault
                if op.kind != KEPT_FAILURE and len(errors) < 5:
                    why = repr(raised) if raised is not None else "broke the exit-code contract"
                    errors.append(f"{op.kind} {op.key}: {why}")
                continue
            if isinstance(out, CliResult):
                bytes_out += len(out.stdout.encode())
            try:
                bits_max = max(bits_max, op.check(out))
            except oracle.CheckFailed as exc:
                if len(errors) < 5:
                    errors.append(f"{op.kind} {op.key}: {exc}")
        round_cpu.append(cpu)
        index += 1
        # the traced run measures exactly one round so its counts repeat
        if tracer is not None or perf() - start >= args.seconds:
            break
        ops = workload.round(index)
    elapsed = perf() - start

    # each operation is divided by the mean kernel time around it, and each
    # round by the mean kernel time within it: a stall that slows the
    # operations also slows the kernel runs taken at the same time
    local = [statistics.fmean(kernel_s[max(0, i - WINDOW):i + WINDOW + 1])
             for i in range(len(kernel_s))]
    latency_cal = [t / k for t, k in zip(latencies, local)]
    bounds = [(i * len(ops), (i + 1) * len(ops)) for i in range(index)]
    round_wall = [sum(latencies[a:b]) for a, b in bounds]
    round_cal = [w / statistics.fmean(kernel_s[a:b]) for w, (a, b) in zip(round_wall, bounds)]
    ranked = sorted(latency_cal)
    n = len(ranked)
    summary = {
        "rounds": index,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "correct": not errors,
        "errors": errors,
        "time_cal": statistics.median(round_cal),
        "latency_p50_cal": statistics.median(latency_cal),
        # p90, as the mean of the requests ranked p85 to p95: a round has 100
        # operations, so ten lie beyond p90 in each round; the latencies
        # near p90 are sparse, and one point moved 10% between seeds
        "latency_tail_cal": statistics.fmean(ranked[int(0.85 * n):int(0.95 * n)]),
        "latency_samples": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel_s": statistics.median(kernel_s),
        "round_cal": round_cal,
        "kernel_share": sum(kernel_s) / (sum(kernel_s) + sum(round_wall)),
        "round_wall_s": round_wall,
        "round_cpu_s": round_cpu,
        "measured_s": elapsed,
        "coeff_bits_max": bits_max,
        "bytes_out": bytes_out,
    }
    if tracer is not None:
        summary["layers"] = layer_metrics(tracer)
    print(json.dumps(summary), flush=True)
    return 0


def layer_metrics(tracer) -> dict:
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    return {
        "scalars.poly_mul_calls": calls["scalars.poly_mul"],
        "scalars.poly_mul_self_s": self_s["scalars.poly_mul"],
        "scalars.poly_add_calls": calls["scalars.poly_add"],
        "scalars.poly_add_self_s": self_s["scalars.poly_add"],
        "scalars.render_self_s": self_s["scalars.render"],
        "series.mul_calls": calls["series.mul"],
        "series.mul_self_s": self_s["series.mul"],
        "series.reciprocal_calls": calls["series.reciprocal"],
        "series.reciprocal_self_s": self_s["series.reciprocal"],
        "series.pow_self_s": self_s["series.pow"],
        "series.laurent_mul_self_s": self_s["series.laurent_mul"],
        "series.derivative_self_s": self_s["series.derivative"],
        "combinatorics.calls": calls["combinatorics"],
        "combinatorics.self_s": self_s["combinatorics"],
        "combinatorics.bell_partial_calls": counts["combinatorics.bell_partial_calls"],
        "ode_coeffs.triangle_calls": calls["ode_coeffs.triangle"],
        "ode_coeffs.triangle_self_s": self_s["ode_coeffs.triangle"],
        "ode_coeffs.entry_routes_self_s": self_s["ode_coeffs.entry_routes"],
        "bernoulli.series_self_s": self_s["bernoulli.series"],
        "bernoulli.recurrence_self_s": self_s["bernoulli.recurrence"],
        "bernoulli.explicit_self_s": self_s["bernoulli.explicit"],
        "bernoulli.higher_order_self_s": self_s["bernoulli.higher_order"],
        "bernoulli.classical_self_s": self_s["bernoulli.classical"],
        "bernoulli.multinomial_self_s": self_s["bernoulli.multinomial"],
        "bernoulli.multinomial_nodes": counts["bernoulli.multinomial_nodes"],
        "verify.ode_self_s": self_s["verify.ode"],
        "verify.cor34_self_s": self_s["verify.cor34"],
        "verify.eq4x_self_s": self_s["verify.eq4x"],
        "verify.thm41_self_s": self_s["verify.thm41"],
        "verify.cor42_self_s": self_s["verify.cor42"],
        "verify.context_self_s": self_s["verify.context"],
        "verify.routes_self_s": self_s["verify.routes"],
        "verify.reports": counts["verify.reports"],
        "cli.parse_self_s": self_s["cli.parse"],
        "cli.run_self_s": self_s["cli.run"],
        "cli.emit_self_s": self_s["cli.emit"],
    }


if __name__ == "__main__":
    sys.exit(main())
