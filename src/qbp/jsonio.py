"""Canonical JSON output with provenance, and exact rational encoding.

Result files must be byte-identical across runs with the same inputs and
seed, so everything deterministic is dumped with sorted keys and exact
rationals as numerator/denominator pairs (a decimal rendering rides along
for human readers).  Wall-clock data lives in a separate "timing" field that
consumers exclude from comparisons.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

TOOL_VERSION = "0.1.0"


def fraction_to_json(value: Fraction) -> dict:
    value = Fraction(value)
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": format(float(value), ".12g"),
    }


def parse_rational(text: str) -> Fraction:
    """Accept '1/3', '0.25', or '2' verbatim as exact rationals."""
    return Fraction(text)


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def provenance_block(inputs: dict[str, str | Path], config_echo: dict) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "inputs": {str(name): file_digest(path) for name, path in inputs.items()},
        "config": config_echo,
    }


def write_result(path: str | Path, result: dict, timing: Optional[dict] = None) -> None:
    """Write {"result": ..., "timing": ...}; only "result" is deterministic."""
    payload = {"result": result, "timing": timing or {}}
    Path(path).write_text(canonical_dumps(payload))


def strip_timing(text: str) -> str:
    """Canonical dump of a result file with the timing field removed."""
    payload = json.loads(text)
    payload.pop("timing", None)
    return canonical_dumps(payload)
