"""Canonical JSON output with provenance, exact rational encoding, and
strict integer intake.

Result files must be byte-identical across runs with the same inputs and
seed, so everything deterministic is dumped with sorted keys and exact
rationals as numerator/denominator pairs (a decimal rendering rides along
for human readers).  Wall-clock data lives in a separate "timing" field that
consumers exclude from comparisons.

Loaders read integer fields through `_int_rows` and `_int_value`, which
admit only values whose type is exactly `int`: a float is never truncated,
and neither a bool nor a numeric string stands in for an int.  A declared
size (a graph side, a matrix shape, a vector length) goes through
`_size_value`, which also bounds it by `MAX_DECLARED_SIZE` before anything
is allocated from it.  A loader that refuses a repeated row or index names
the first repeat, found by `_first_repeat`.  They stay private, so a
per-function profile charges their time to the loader that calls them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Hashable, Optional, Sequence

from .errors import InternalInvariantError, ValidationError

TOOL_VERSION = "0.1.0"

# The largest size a file may declare.  A declared size alone, without
# entries to match, makes every command allocate per-cell tables (adjacency
# lists, packed rows as wide as a column index), so it is bounded on load.
MAX_DECLARED_SIZE = 1 << 20


def _int_value(value: Any, what: str) -> int:
    """`value` itself when its type is exactly int, else a ValidationError
    naming `what`."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an int, got {value!r:.40}")
    return value


def _size_value(value: Any, what: str) -> int:
    """`value` as a declared size: an int of at most `MAX_DECLARED_SIZE`,
    else a ValidationError naming `what`."""
    size = _int_value(value, what)
    if size > MAX_DECLARED_SIZE:
        raise ValidationError(
            f"{what} = {size} exceeds the declared-size budget of {MAX_DECLARED_SIZE}")
    return size


def _int_rows(value: Any, what: str, width: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    """`value` as a tuple of int tuples, read in one C-level pass per step.

    Every entry must be exactly an int and, when `width` is given, every row
    must have `width` entries.  A refusal is a ValidationError naming `what`
    and the first offending row or entry; only a refusal scans row by row.
    """
    try:
        rows = tuple(map(tuple, value))
    except TypeError:
        raise ValidationError(f"{what} must be a list of lists") from None
    if width is not None and set(map(len, rows)) - {width}:
        row = next(r for r in rows if len(r) != width)
        raise ValidationError(f"{what} entry {list(row)!r:.60} does not have {width} values")
    if set(map(type, chain.from_iterable(rows))) - {int}:
        v = next(v for v in chain.from_iterable(rows) if type(v) is not int)
        raise ValidationError(f"{what} holds {v!r:.40}, which is not an int")
    return rows


def _first_repeat(items: Sequence[Hashable]) -> int:
    """The index of the first item equal to an earlier one, for a loader's
    refusal message once a set has shown that some item repeats."""
    seen: set[Hashable] = set()
    for i, item in enumerate(items):
        if item in seen:
            return i
        seen.add(item)
    raise InternalInvariantError("no item repeats")


def fraction_to_json(value: Fraction) -> dict:
    value = Fraction(value)
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": format(float(value), ".12g"),
    }


def parse_rational(text: str) -> Fraction:
    """Accept '1/3', '0.25', or '2' verbatim as exact rationals; a zero
    denominator is a ValidationError naming the text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValidationError(f"rational {text!r} has a zero denominator") from None


def canonical_dumps(obj: Any) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)` plus a
    newline, byte for byte.

    With an indent, `json` runs its pure-Python encoder.  This writer walks
    dicts, lists and tuples with str keys and exact str, int, float, bool and
    None leaves itself, and writes a table of equal-width int rows with one
    format call (`_int_table`).  Anything else (non-str keys, values of
    other types or of subclasses, cycles) goes to `json.dumps`, so it is
    written, or refused, exactly as `json.dumps` does.
    """
    out: list[str] = []
    try:
        _write(obj, "\n", out)
    except (TypeError, ValueError, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    out.append("\n")
    return "".join(out)


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(obj: Any, nl: str, out: list[str]) -> None:
    """Append the indented JSON of obj; nl is a newline plus obj's indent.

    Raises TypeError for anything `canonical_dumps` leaves to `json.dumps`;
    cycles reach RecursionError.
    """
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind is int:
        out.append(repr(obj))
    elif kind is float:
        text = repr(obj)
        out.append(_FLOAT_WORDS.get(text, text))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            # encode_basestring refuses a key that is not a str (TypeError).
            out += (sep, encode_basestring(key), ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        if set(map(type, obj)) <= {list, tuple}:
            table = _int_table(obj, nl)
            if table is not None:
                out.append(table)
                return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"{kind.__name__} is left to json.dumps")


def _int_table(rows: Sequence[Sequence[Any]], nl: str) -> Optional[str]:
    """The indented JSON of lists or tuples of one width w >= 1, every entry
    exactly an int, as one %-format call over the flattened ints; None for
    any other list of lists.  %d writes an int as repr does, and the format
    string holds no "%" but its fields, as nl is a newline and spaces."""
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    flat = tuple(chain.from_iterable(rows))
    if set(map(type, flat)) != {int}:
        return None
    inner, deep = nl + "  ", nl + "    "
    row = "[" + deep + ("%d," + deep) * (widths.pop() - 1) + "%d" + inner + "]"
    return ("[" + inner + ("," + inner).join([row] * len(rows)) + nl + "]") % flat


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def provenance_block(digests: dict[str, str], config_echo: dict) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "inputs": dict(digests),
        "config": config_echo,
    }


def write_result(path: str | Path, result: dict, timing: Optional[dict] = None) -> None:
    """Write {"result": ..., "timing": ...}; only "result" is deterministic."""
    payload = {"result": result, "timing": timing or {}}
    Path(path).write_text(canonical_dumps(payload))
