"""The qbp benchmark.

    python3 perfbench/run.py --workload decode_sparse --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run it from the repository root; it imports `qbp` from `src/` next to this
directory and from nowhere else.  `--trace 0` measures the end-to-end
metrics; `--trace 1` is a separate traced run that reports per-layer
metrics.  `--workload all` runs every workload, each in a fresh
interpreter, one after the other.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md
for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("build", "decode_sparse", "decode_dense")
# The end-to-end metrics every workload reports (BENCHMARK.json lists them).
E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mib": "MiB"}
P99_MIN_OPS = 1000


def import_qbp():
    """Put this checkout's src/ first on the path and import qbp from there."""
    if not (SRC / "qbp" / "__init__.py").is_file():
        raise SystemExit(f"error: no qbp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qbp
    if Path(qbp.__file__).resolve().parent != (SRC / "qbp").resolve():
        raise SystemExit(f"error: qbp was imported from {qbp.__file__}, not from {SRC}")


def environment():
    commit = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or "none"
    h = hashlib.sha256()
    for path in sorted((SRC / "qbp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} threads=1 processes=1 "
            f"commit={commit} source_sha256={h.hexdigest()[:16]}")


def percentile(values, q):
    """q-th percentile (inclusive method) of a non-empty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def row(name, value, unit, samples=""):
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<40} {shown:>14} {unit:<9} {samples}"


def make_workload(name, seed, sizes, workdir):
    import workloads
    if name == "build":
        return workloads.BuildWorkload(seed, sizes)
    return workloads.DecodeWorkload(name, seed, sizes, workdir)


def untraced_run(wl, seconds, sizes, lines):
    import workloads
    setups = []
    for _ in range(wl.setups):
        started = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - started)
    measured = workloads.measure(wl.pool(), wl.run_op, wl.check, seconds, sizes.min_rounds)
    cross = wl.crosscheck()
    # One factor for the whole run, set-up included.
    scale = measured.scale()
    latencies = measured.scaled_best()
    n = len(latencies)
    metrics = {
        "setup_s": statistics.median(setups) * scale,
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "peak_rss_mib": peak_rss_mib(),
    }
    per_input = f"n={n} inputs, best of {measured.rounds} rounds"
    lines.append(f"timing: {measured.rounds} rounds over {len(wl.pool())} inputs, "
                 f"{len(measured.walls)} ops in {measured.busy:.3f} s measured "
                 f"({len(measured.walls) / measured.busy:.6g} ops/s of wall time); "
                 f"calibration kernel {measured.calib * 1e6:.2f} us, "
                 f"so times are scaled by {scale:.4f} to reference seconds")
    lines.append(row("metric", "value", "unit", "samples"))
    lines.append(row("setup_s", metrics["setup_s"], "s", f"median of n={len(setups)} set-ups"))
    lines.append(row("ops_per_s", metrics["ops_per_s"], "ops/s", per_input))
    lines.append(row("op_p50_ms", metrics["op_p50_ms"], "ms", per_input))
    lines.append(row("op_p90_ms", percentile(latencies, 90) * 1e3, "ms", per_input))
    every = sorted(wall * scale for wall in measured.walls.values())
    if len(every) >= P99_MIN_OPS:
        lines.append(row("op_p99_ms", percentile(every, 99) * 1e3, "ms",
                         f"n={len(every)} timed ops"))
    else:
        lines.append(row("op_p99_ms", "n/a", "ms",
                         f"n={len(every)} < {P99_MIN_OPS}, not reported"))
    lines.append(row("failed_frac", measured.failed / measured.attempted, "fraction",
                     f"n={measured.attempted} attempted"))
    success = wl.summary().get("logical_success")
    if success is not None:
        lines.append(row("logical_success", success[0], "fraction",
                         f"n={success[1]} (the pool)"))
    else:
        lines.append(row("logical_success", "n/a", "fraction", "decode workloads only"))
    lines.append(row("peak_rss_mib", metrics["peak_rss_mib"], "MiB", "getrusage ru_maxrss"))
    return metrics, measured.attempted, measured.failed, measured.notes, cross


def traced_run(wl, name, seed, seconds, sizes, lines):
    import tracing
    import workloads
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        wl.setup()
        tracer.op = None
        traced = workloads.measure(wl.pool(), wl.run_op, wl.check, seconds, sizes.min_rounds,
                                   tracer=tracer)
        tracer.op = "crosscheck"
        cross = wl.crosscheck()
        tracer.op = None
    finally:
        tracer.uninstall()
    plain = workloads.measure(wl.pool(), wl.run_op, wl.check, seconds, sizes.min_rounds)
    metrics = tracing.layer_metrics(tracer, traced.walls, wl.pool_size(), wl.op_scale)
    metrics["decoder.warmup_s"] = (wl.warmup_s, "s")
    metrics["trace.overhead_frac"] = (
        1.0 - sum(plain.scaled_best()) / sum(traced.scaled_best()), "fraction")
    metrics.update(workloads.scaling_report(sizes, seed))
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{name}.jsonl"
    tracer.write(trace_path)
    lines.append(f"traced: {len(traced.walls)} ops in {traced.busy:.3f} s, "
                 f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}; "
                 f"untraced: {len(plain.walls)} ops in {plain.busy:.3f} s")
    lines.append(row("metric", "value", "unit"))
    for key in sorted(metrics):
        lines.append(row(key, float(metrics[key][0]), metrics[key][1]))
    values = {key: value for key, (value, _) in metrics.items()}
    units = {key: unit for key, (_, unit) in metrics.items()}
    attempted = traced.attempted + plain.attempted
    failed = traced.failed + plain.failed
    return values, units, attempted, failed, traced.notes + plain.notes, cross


def execute(name, seed, seconds, trace, sizes):
    """Run one workload in this interpreter; returns (report lines, result)."""
    lines = [f"== qbp benchmark: workload={name} seed={seed} seconds={seconds} trace={trace}",
             f"env {environment()}"]
    workdir = OUT / f"work-{name}-{os.getpid()}"
    wl = make_workload(name, seed, sizes, workdir)
    try:
        if trace:
            values, units, attempted, failed, notes, cross = traced_run(
                wl, name, seed, seconds, sizes, lines)
        else:
            values, attempted, failed, notes, cross = untraced_run(wl, seconds, sizes, lines)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest, count = wl.digest()
    complete = count == wl.pool_size()
    lines.append(f"digest sha256={digest} over the first {count} ops"
                 + ("" if complete else f" (expected {wl.pool_size()})"))
    if name != "build":
        lines.append("crosscheck against harness.run_simulation: "
                     + ("equal" if not cross else f"{len(cross)} trials differ"))
    for note in notes + cross[:5]:
        lines.append(f"FAILED {note}")
    result = {
        "correct": failed == 0 and not cross and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in values},
    }
    return lines, result


def run_all(seed, seconds, trace):
    """Every workload in a fresh interpreter, one at a time."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] if proc.stdout.strip() else []
        try:
            results[name] = json.loads(last[0])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    import_qbp()
    import workloads
    lines, result = execute(args.workload, args.seed, args.seconds, args.trace, workloads.FULL)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
