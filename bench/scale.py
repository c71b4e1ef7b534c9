"""The toric scale ladder: each stage of a complex's life, timed apart.

    python3 bench/scale.py --out BENCH.json

For each L in 16, 32, 64, 128 the script runs `toric_complex(L)` (n = 2L^2
qubits) RUNS = 3 times, in rounds over the sizes, each run in a fresh
interpreter, so that each run's `ru_maxrss` is its own peak.  Each run
times these stages one after the other:

* `build_s`: `toric_complex(L)`
* `dump_s`: `complex_to_json` plus `canonical_dumps`, the bytes
  `qbp construct` writes
* `load_s`: `json.loads` plus `complex_from_json`, as the commands read it
* `extract_s`: `extract_code` on the loaded complex
* `first_decode_s`: the Z syndrome and decode of the first error, which
  build the Z decoder index
* `decode_p50_s`: the median over the 30 later decodes

The errors are i.i.d. Z errors at p = 1/100, drawn from `random.Random`
seeded by L, and decoded at epsilon = 1/30.  For the later
decodes the script also records the initial syndrome weight and the sums
of `DecodeResult`'s counters, each also per syndrome bit, since at fixed p
the syndrome grows with n.  Once its peak RSS is read, a run also counts
the bits and ints each packed structure holds (`sizes.held_sizes`): those
counts are exact, so they are the same in every run.

A rung reports each stage's and RSS reading's median over its runs and
their min-max range; the decode counters and held sizes come from its
first run.  Each stage's log-log exponent in n is the least-squares slope
of the medians over the sizes, and each held structure's is that of its
bits.  The report is written in canonical JSON
(`qbp.jsonio.canonical_dumps`).  Nothing is gated here: wall times and RSS
depend on the host, so they show a trajectory, not a bound; the held
sizes' exponents are bounded by `tests/test_bench_scale.py`.

Only the standard library and `qbp` are used; `qbp` is imported from the
`src` directory next to this script.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from qbp import css, decoder, instances, jsonio, product  # noqa: E402
from qbp.gf2 import F2Vector  # noqa: E402
from sizes import held_sizes  # noqa: E402

P = Fraction(1, 100)
EPSILON = Fraction(1, 30)
DECODES = 30
SIZES = (16, 32, 64, 128)
RUNS = 3
STAGES = ("build_s", "dump_s", "load_s", "extract_s", "first_decode_s", "decode_p50_s")
COUNTERS = ("iterations", "stale_pops", "preprocess_vertices_scanned",
            "preprocess_subsets_tested")


def _rss_mib() -> float:
    """The process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _errors(n: int, length: int, count: int) -> list[F2Vector]:
    """`count` i.i.d. errors at rate P, from one stream per size."""
    rng = random.Random(f"qbp-scale:{length}")
    threshold = float(P)
    return [F2Vector(n, frozenset(q for q in range(n) if rng.random() < threshold))
            for _ in range(count)]


def measure_rung(length: int) -> dict:
    """Every stage of one size, timed apart, in this interpreter."""
    clock = time.perf_counter
    times, rss = {}, {"start": _rss_mib()}

    t0 = clock()
    cpx = instances.toric_complex(length)
    times["build_s"] = clock() - t0
    rss["build"] = _rss_mib()
    counts = {
        "cells": [cpx.v00_size, cpx.v10_size, cpx.v01_size, cpx.v11_size],
        "edges": [len(cpx.edges_v00_v10), len(cpx.edges_v01_v11),
                  len(cpx.edges_v00_v01), len(cpx.edges_v10_v11)],
        "faces": len(cpx.faces),
        "n": cpx.n_qubits,
    }

    t0 = clock()
    text = jsonio.canonical_dumps(product.complex_to_json(cpx))
    times["dump_s"] = clock() - t0
    rss["dump"] = _rss_mib()
    del cpx

    t0 = clock()
    loaded = product.complex_from_json(json.loads(text))
    times["load_s"] = clock() - t0
    rss["load"] = _rss_mib()
    del text

    t0 = clock()
    code = css.extract_code(loaded)     # alive through the decodes, as in `qbp simulate`
    times["extract_s"] = clock() - t0
    rss["extract"] = _rss_mib()

    config = decoder.DecoderConfig(epsilon=EPSILON)
    first, *rest = _errors(loaded.n_qubits, length, DECODES + 1)
    t0 = clock()
    decoder.decode(loaded, decoder.z_syndrome(loaded, first), config)
    times["first_decode_s"] = clock() - t0
    rss["first_decode"] = _rss_mib()

    walls, sums, outcomes = [], dict.fromkeys(COUNTERS, 0), {}
    syndrome_bits = 0
    for error in rest:
        syndrome = decoder.z_syndrome(loaded, error)
        t0 = clock()
        result = decoder.decode(loaded, syndrome, config)
        walls.append(clock() - t0)
        syndrome_bits += result.initial_syndrome_weight
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        for name in COUNTERS:
            sums[name] += getattr(result, name)
    times["decode_p50_s"] = statistics.median(walls)
    rss["decodes"] = peak = _rss_mib()
    held = held_sizes(loaded, code)     # may build more, so after the peak is read
    del code, loaded

    return {
        "L": length,
        **counts,
        "stages_s": times,
        "rss_after_mib": rss,
        "peak_rss_mib": peak,
        "held": held,
        "decodes": {
            "outcomes": outcomes,
            "syndrome_bits": syndrome_bits,
            "sums": sums,
            "per_syndrome_bit": {name: value / syndrome_bits if syndrome_bits else None
                                 for name, value in sums.items()},
        },
    }


def exponent(points: list[tuple[float, float]]) -> float | None:
    """The least-squares slope of log y against log x; None below two
    distinct x or where a y is not positive."""
    if len({x for x, _ in points}) < 2 or any(y <= 0 for _, y in points):
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _rounded(value):
    """Floats to six significant digits, so the report reads as measured."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def _median_range(readings: list[dict]) -> tuple[dict, dict]:
    """Per key of the runs' readings: the median, and the [min, max] range."""
    medians, ranges = {}, {}
    for key in readings[0]:
        values = [reading[key] for reading in readings]
        medians[key] = statistics.median(values)
        ranges[key] = [min(values), max(values)]
    return medians, ranges


def merge_runs(runs: list[dict]) -> dict:
    """One rung from its runs: each stage's and RSS reading's median and
    range; the exact counts, the same in every run, from the first."""
    first = runs[0]
    stages, stage_ranges = _median_range([run["stages_s"] for run in runs])
    rss, rss_ranges = _median_range([run["rss_after_mib"] for run in runs])
    peaks = [run["peak_rss_mib"] for run in runs]
    return {
        **{key: first[key] for key in ("L", "cells", "edges", "faces", "n")},
        "runs": len(runs),
        "stages_s": stages,
        "stages_range_s": stage_ranges,
        "rss_after_mib": rss,
        "rss_after_range_mib": rss_ranges,
        "peak_rss_mib": statistics.median(peaks),
        "peak_rss_range_mib": [min(peaks), max(peaks)],
        "held": first["held"],
        "decodes": first["decodes"],
    }


def report(rungs: list[dict]) -> dict:
    exponents = {stage: exponent([(r["n"], r["stages_s"][stage]) for r in rungs])
                 for stage in STAGES}
    exponents["peak_rss_mib"] = exponent([(r["n"], r["peak_rss_mib"]) for r in rungs])
    held = {name: exponent([(r["n"], r["held"][name]["bits"]) for r in rungs])
            for name in rungs[0]["held"]}
    return _rounded({
        "ladder": "toric_complex(L)",
        "config": {"sizes": [r["L"] for r in rungs], "runs": rungs[0]["runs"],
                   "decodes": DECODES, "p": [P.numerator, P.denominator],
                   "epsilon": [EPSILON.numerator, EPSILON.denominator]},
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "system": platform.system()},
        "rungs": rungs,
        "exponents_in_n": exponents,
        "held_bits_exponents_in_n": held,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="where to write the JSON report")
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rung is not None:
        # One size in this interpreter, its report on stdout.
        print(json.dumps(measure_rung(args.rung)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    runs: dict[int, list[dict]] = {length: [] for length in SIZES}
    for round_ in range(1, RUNS + 1):
        for length in SIZES:
            done = subprocess.run([sys.executable, __file__, "--rung", str(length)],
                                  check=True, capture_output=True, text=True)
            run = json.loads(done.stdout)
            runs[length].append(run)
            stages = "  ".join(f"{stage} {run['stages_s'][stage]:.4g}" for stage in STAGES)
            print(f"run {round_}/{RUNS} L={length} n={run['n']}  {stages}  "
                  f"peak {run['peak_rss_mib']:.1f} MiB", file=sys.stderr)
    rungs = [merge_runs(runs[length]) for length in SIZES]
    Path(args.out).write_text(jsonio.canonical_dumps(report(rungs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
