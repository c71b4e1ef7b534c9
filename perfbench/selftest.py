"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that a deliberately corrupted correction and a complex with one face
altered are counted as failed ops, and that a tiny-size run of every
workload, untraced and traced, prints every metric with its unit and
reports exactly the metrics BENCHMARK.json declares.  Exits 0 when every
part passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run

run.import_qbp()

import workloads  # noqa: E402  (needs the path set up by import_qbp)
from qbp import gf2  # noqa: E402

SEED = 5


def corrupted_correction_is_failed():
    workdir = run.OUT / "selftest-decode"
    wl = workloads.DecodeWorkload("decode_sparse", SEED, workloads.TINY, workdir)
    try:
        wl.setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    trials = [wl.trial(i) for i in range(16)]
    clean = workloads.measure(trials, wl.run_op, wl.check, 0)
    assert clean.attempted == 16 and clean.failed == 0, clean.notes

    def corrupted(trial):
        syndrome, result, trivial = wl.run_op(trial)
        support = result.correction.support ^ {0}
        bad = gf2.F2Vector(result.correction.length, support)
        return syndrome, dataclasses.replace(result, correction=bad), trivial

    # A corrupted successful correction always shows; a corrupted correction
    # of a stalled decode may still leave a nontrivial residual nontrivial.
    successes = sum(1 for r in wl.records if r["outcome"] == "success")
    wl.records.clear()
    wl.problems.clear()
    broken = workloads.measure(trials, corrupted, wl.check, 0)
    assert broken.failed >= successes > 0, (broken.failed, successes, broken.notes)
    return (f"corrupted corrections: {broken.failed}/{broken.attempted} ops counted as failed "
            f"({successes} reported success)")


def altered_face_is_failed():
    inputs = workloads.build_inputs(SEED, workloads.TINY.ladder)
    original = workloads._construct

    def alter(inp):
        cpx = original(inp)
        faces = sorted(cpx.faces)
        z00, z10, z01, z11 = faces[0]
        other = next(f[3] for f in faces if f[3] != z11)
        moved = (cpx.faces - {faces[0]}) | {(z00, z10, z01, other)}
        return dataclasses.replace(cpx, faces=frozenset(moved))

    wl = workloads.BuildWorkload(SEED, workloads.TINY)
    clean = workloads.measure(inputs, workloads.build_op, wl.check, 0)
    assert clean.attempted == len(inputs) and clean.failed == 0, clean.notes
    workloads._construct = alter
    try:
        wl = workloads.BuildWorkload(SEED, workloads.TINY)
        broken = workloads.measure(inputs, workloads.build_op, wl.check, 0)
    finally:
        workloads._construct = original
    assert broken.failed == broken.attempted == len(inputs), (broken.failed, broken.notes)
    return f"altered faces: {broken.failed}/{broken.attempted} ops counted as failed"


def declared_metrics():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def tiny_runs_print_every_metric():
    end_to_end, per_layer = declared_metrics()
    printed_only = {"op_p90_ms": "ms", "op_p99_ms": "ms", "failed_frac": "fraction",
                    "logical_success": "fraction"}
    done = []
    for name in run.WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            lines, result = run.execute(name, SEED, 0.3, trace, workloads.TINY)
            assert result["correct"], lines
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            assert reported == declared, (name, trace, set(reported) ^ set(declared))
            expected = dict(declared, **(printed_only if trace == 0 else {}))
            for metric, unit in expected.items():
                assert any(line.split()[:1] == [metric] and f" {unit} " in f"{line} "
                           for line in lines), (name, trace, metric)
            done.append(f"{name}/trace={trace}")
    return "tiny runs print every metric with its unit: " + ", ".join(done)


def main():
    for part in (corrupted_correction_is_failed, altered_face_is_failed,
                 tiny_runs_print_every_metric):
        print(f"PASS {part()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
