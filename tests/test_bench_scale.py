"""Smoke test of the scale ladder script (`bench/scale.py`) on its smallest
rung, run as the script runs it: one fresh interpreter per size."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "scale.py"


@pytest.fixture(scope="module")
def scale():
    spec = importlib.util.spec_from_file_location("bench_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_rung_writes_a_canonical_report(scale, tmp_path, monkeypatch):
    # Each child interpreter is handed its size, so the ladder is the
    # parent's SIZES alone.
    monkeypatch.setattr(scale, "SIZES", (16,))
    out = tmp_path / "bench.json"
    assert scale.main(["--out", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert report["config"]["sizes"] == [16]
    (rung,) = report["rungs"]
    assert (rung["L"], rung["n"], rung["faces"]) == (16, 512, 1024)
    assert rung["cells"] == [256] * 4 and rung["edges"] == [512] * 4
    assert set(rung["stages_s"]) == set(scale.STAGES)
    assert all(value > 0 for value in rung["stages_s"].values())
    assert rung["peak_rss_mib"] >= max(rung["rss_after_mib"].values()) > 0
    decodes = rung["decodes"]
    assert sum(decodes["outcomes"].values()) == scale.DECODES
    assert set(decodes["sums"]) == set(scale.COUNTERS)
    assert decodes["syndrome_bits"] > 0
    # One size fits no slope.
    assert set(report["exponents_in_n"].values()) == {None}


def test_exponent_is_the_log_log_slope(scale):
    points = [(n, 3 * n ** 1.5) for n in (512, 2048, 8192)]
    assert scale.exponent(points) == pytest.approx(1.5)
    assert scale.exponent(points[:1]) is None
    assert scale.exponent(points + [(4, 0.0)]) is None
