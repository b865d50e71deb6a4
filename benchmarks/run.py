"""degamma benchmark: one workload, one seed, one process, one thread.

Usage::

    python3 benchmarks/run.py --workload point-eval --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  With ``--trace 0`` the run measures the end-to-end
metrics with tracing off.  With ``--trace 1`` it spends half the time
untraced and half traced, and reports the per-layer metrics plus the tracing
overhead.  Every line but the last is a human-readable report; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch output (oracle cache, span dumps, verify reports) goes
to ``.bench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread, in this process and in the set-up probes it starts.  The
# workloads are a single closed loop; numpy's BLAS would otherwise start a
# thread per core at import, whose start-up the probes' CPU time would count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh interpreters timed per run.  They are spread between segments of the
# timed loop rather than run back to back, so that set-up time samples the
# same phases of the shared host's drifting speed as the steady-state figures.
# An odd count gives a true median.
SETUP_PROBES = 7


def _import_package():
    if not (SRC / "degamma" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no degamma package under {SRC}")
    sys.path.insert(0, str(SRC))
    import degamma
    import degamma.cli

    if Path(degamma.__file__).resolve().parent != SRC / "degamma":
        raise SystemExit(f"benchmark: imported degamma from {degamma.__file__}, not {SRC}")
    return degamma


def setup_seconds(workload: str) -> float:
    """Set-up CPU time of one fresh interpreter, as it measures it itself."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload,
         str(OUT / "setup-verify-report.json")],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def closed_loop(wl, items, seconds: float, tracer=None, probe=None):
    """Whole passes over the inputs until ``seconds`` of passes have gone by.

    Every pass is timed in process CPU time, and its throughput (ops per CPU
    second) goes into ``stats.pass_rates``; CPU time leaves out the time the
    host gives the processor to other tenants.  The host's speed is sampled
    before and after every pass (see ``hostspeed``), and the mean of the two
    goes into ``stats.pass_speed``.  With ``probe`` the passes are cut into
    SETUP_PROBES segments of equal pass time and the probe runs after each,
    outside the passes' timing; each probe's seconds come back scaled to the
    reference speed, and unscaled.  A traced loop also stops once the
    tracer's span budget is spent.
    """
    stats = workloads.PassStats()
    outcomes = [None] * len(items)
    probes = []
    segments = SETUP_PROBES if probe else 1
    clock = time.perf_counter
    spent = 0.0
    speed = hostspeed.sample()
    for k in range(segments):
        target = seconds * (k + 1) / segments
        while True:
            ops = stats.ops
            w0, c0 = clock(), time.process_time()
            wl.run_pass(items, stats, outcomes, tracer)
            c1, w1 = time.process_time(), clock()
            after = hostspeed.sample()
            stats.pass_rates.append((stats.ops - ops) / (c1 - c0))
            stats.pass_speed.append(0.5 * (speed + after))
            speed = after
            spent += w1 - w0
            if spent >= target or (tracer is not None and tracer.full()):
                break
        if probe:
            raw = probe()
            after = hostspeed.sample()
            probes.append((hostspeed.normalise(raw, 0.5 * (speed + after)), raw))
            speed = after
    return stats, outcomes, probes


def scaled(stats) -> dict[str, float]:
    """Medians over passes, scaled to the reference host speed, in the
    metrics' units: ops per second, and op latencies in microseconds."""
    ref = hostspeed.REFERENCE_SPEED
    out = {"ops_per_s": statistics.median(
        rate * ref / h for rate, h in zip(stats.pass_rates, stats.pass_speed))}
    for name, values in (("op_p50_us", stats.pass_p50_s), ("op_p99_us", stats.pass_p99_s)):
        if values:
            out[name] = 1e6 * statistics.median(
                hostspeed.normalise(v, h) for v, h in zip(values, stats.pass_speed))
    return out


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _report(lines: list[str], name: str, value, unit: str) -> None:
    lines.append(f"{name:<44} {value!r} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pkg = _import_package()
    OUT.mkdir(exist_ok=True)

    wl = workloads.make(args.workload, pkg, OUT)
    items = wl.inputs(args.seed)
    refs = None
    if wl.needs_oracle:
        refs = oracle.references([c.ref for c in items], OUT / "oracle",
                                 f"{args.workload}-{args.seed}", SRC)
    check, check_outcomes = wl.check(items, refs)

    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace} "
             f"inputs {len(items)}"]
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    probe = (lambda: setup_seconds(args.workload)) if args.trace == 0 else None
    stats, outcomes, setup = closed_loop(wl, items, seconds, probe=probe)
    changed = sum(
        workloads.fingerprint(a) != workloads.fingerprint(b)
        for a, b in zip(check_outcomes, outcomes)
    )
    if changed:
        check.problems.append(f"{changed} outcomes changed between passes")
    speeds = scaled(stats)
    mismatched = stats.mismatched
    failed_ratio = stats.failed / stats.ops
    for name, value in check.quality.items():
        _report(lines, name, value, "")
    _report(lines, "failed_ratio", failed_ratio, "1")
    _report(lines, "passes", stats.passes, "")
    _report(lines, "latency_samples", stats.latency_samples, "")
    if "op_p99_us" in speeds:
        _report(lines, "op_p99_us", speeds["op_p99_us"], "us")
    # the unscaled figures, for reading beside the scaled metrics
    _report(lines, "host_speed", statistics.median(stats.pass_speed), "1/s")
    _report(lines, "ops_per_s.unscaled", statistics.median(stats.pass_rates), "op/s")
    _report(lines, "op_p50_us.unscaled", 1e6 * statistics.median(stats.pass_p50_s), "us")

    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(s for s, _ in setup),
            "ops_per_s": speeds["ops_per_s"],
            "op_p50_us": speeds["op_p50_us"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = declared_units("end_to_end")
        _report(lines, "setup_s.unscaled", statistics.median(r for _, r in setup), "s")
    else:
        tracer = tracing.Tracer()
        tracer.install(pkg)
        try:
            traced, _, _ = closed_loop(wl, items, seconds, tracer)
        finally:
            tracer.uninstall()
        mismatched += traced.mismatched
        metrics = tracing.layer_metrics(tracer, traced.ops, traced.rows)
        metrics["trace.overhead_ratio"] = speeds["ops_per_s"] / scaled(traced)["ops_per_s"]
        units = declared_units("per_layer")
        tracer.write(OUT / f"spans-{args.workload}.npz")
        _report(lines, "spans", len(tracer.start), "")

    if set(metrics) != set(units):
        raise SystemExit(f"benchmark: measured {sorted(metrics)} but BENCHMARK.json "
                         f"declares {sorted(units)}")
    for name, value in metrics.items():
        _report(lines, name, value, units[name])
    for problem in check.problems:
        lines.append(f"problem: {problem}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not check.problems and mismatched == 0,
        "attempted": stats.ops,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
