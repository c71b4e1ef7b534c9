"""The scale ladder script (`bench/scale.py`): a smoke test on its smallest
rung, run as the script runs it (one fresh interpreter per run), and the
gate on its held sizes (`bench/sizes.py`): each packed structure's bits
grow at most as n^HELD_EXPONENT_BOUND on a small toric ladder."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qbp import css, instances

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Every held structure is Θ(n²) bits today, at exponents 1.94-2.02 over
# L = 8, 16, 32.  A change that lowers one lowers its bound with it.
HELD_EXPONENT_BOUND = 2.05
HELD_LADDER = (8, 16, 32)


@pytest.fixture(scope="module")
def scale():
    spec = importlib.util.spec_from_file_location("bench_scale", BENCH / "scale.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sizes(scale):
    return sys.modules["sizes"]          # scale.py imports it from its own directory


def test_smallest_rung_writes_a_canonical_report(scale, tmp_path, monkeypatch):
    # Each child interpreter is handed its size, so the ladder is the
    # parent's SIZES and RUNS alone.
    monkeypatch.setattr(scale, "SIZES", (16,))
    monkeypatch.setattr(scale, "RUNS", 2)
    out = tmp_path / "bench.json"
    assert scale.main(["--out", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert report["config"]["sizes"] == [16] and report["config"]["runs"] == 2
    (rung,) = report["rungs"]
    assert (rung["L"], rung["n"], rung["faces"], rung["runs"]) == (16, 512, 1024, 2)
    assert rung["cells"] == [256] * 4 and rung["edges"] == [512] * 4
    assert set(rung["stages_s"]) == set(rung["stages_range_s"]) == set(scale.STAGES)
    assert all(value > 0 for value in rung["stages_s"].values())
    for stage, (low, high) in rung["stages_range_s"].items():
        assert low <= rung["stages_s"][stage] <= high
    low, high = rung["peak_rss_range_mib"]
    assert low <= rung["peak_rss_mib"] <= high
    assert rung["peak_rss_mib"] >= max(rung["rss_after_mib"].values()) > 0
    decodes = rung["decodes"]
    assert sum(decodes["outcomes"].values()) == scale.DECODES
    assert set(decodes["sums"]) == set(scale.COUNTERS)
    assert decodes["syndrome_bits"] > 0
    # Hx has one row per V11 cell, each of weight 4, at most n bits wide.
    assert rung["held"]["hx"]["ints"] == 256
    assert 256 * 4 <= rung["held"]["hx"]["bits"] <= 256 * 512
    # One size fits no slope.
    assert set(report["exponents_in_n"].values()) == {None}
    assert set(report["held_bits_exponents_in_n"]) == set(rung["held"])
    assert set(report["held_bits_exponents_in_n"].values()) == {None}


def test_runs_merge_to_medians_and_ranges(scale):
    def run(seconds, peak):
        return {"L": 4, "cells": [], "edges": [], "faces": 0, "n": 32, "held": {},
                "decodes": {}, "stages_s": {"build_s": seconds},
                "rss_after_mib": {"build": peak - 1}, "peak_rss_mib": peak}
    rung = scale.merge_runs([run(3.0, 20.0), run(1.0, 22.0), run(2.0, 21.0)])
    assert rung["runs"] == 3
    assert (rung["stages_s"], rung["stages_range_s"]) == ({"build_s": 2.0},
                                                          {"build_s": [1.0, 3.0]})
    assert (rung["peak_rss_mib"], rung["peak_rss_range_mib"]) == (21.0, [20.0, 22.0])
    assert rung["rss_after_mib"] == {"build": 20.0}


def test_held_sizes_count_bits_and_ints(sizes):
    assert sizes.count([]) == {"bits": 0, "ints": 0}
    assert sizes.count([0, 1, 0b1000, 255]) == {"bits": 0 + 1 + 4 + 8, "ints": 4}


def test_held_bits_grow_within_their_exponent_bounds(scale, sizes):
    ladder = []
    for length in HELD_LADDER:
        cpx = instances.toric_complex(length)
        ladder.append((cpx.n_qubits, sizes.held_sizes(cpx, css.extract_code(cpx))))
    names = set(ladder[0][1])
    assert names == {"hx", "hz", "z_stabilizers", "z_index_prefixes"} | {
        f"{which}.masks{side}" for which in ("v00_v10", "v01_v11", "v00_v01", "v10_v11")
        for side in (0, 1)}
    for name in sorted(names):
        slope = scale.exponent([(n, held[name]["bits"]) for n, held in ladder])
        assert slope <= HELD_EXPONENT_BOUND, (name, slope)
        # One int per row, pivot row, prefix or vertex: linear in n.
        assert scale.exponent([(n, held[name]["ints"]) for n, held in ladder]) <= 1.01, name


def test_exponent_is_the_log_log_slope(scale):
    points = [(n, 3 * n ** 1.5) for n in (512, 2048, 8192)]
    assert scale.exponent(points) == pytest.approx(1.5)
    assert scale.exponent(points[:1]) is None
    assert scale.exponent(points + [(4, 0.0)]) is None
