"""Held sizes: the bits and ints each packed structure of a complex holds.

    held_sizes(cpx, code) -> {structure: {"bits": ..., "ints": ...}}

Every large structure of `qbp` is a collection of Python ints, so the sum
of their `bit_length` is an exact, host-independent measure of the memory
it holds, where RSS moves with the allocator and the order of frees.  The
structures counted, each read from its documented attribute (and built if
it is not yet):

* `hx`, `hz`: the rows of the code's two check matrices
* `z_stabilizers`: the reduced rows of the row space of Hz
* `z_index_prefixes`: the Z decoder index's prefix masks, every center's
* `<subgraph>.masks0`, `<subgraph>.masks1`: each of the complex's four
  subgraphs' packed neighborhoods

`bench/scale.py` records them per rung; `tests/test_bench_scale.py` bounds
their exponents in n on a small toric ladder.  Only `qbp` is imported.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from qbp import decoder
from qbp.css import CssCode
from qbp.product import SUBGRAPHS, BalancedProductComplex


def count(ints: Iterable[int]) -> dict[str, int]:
    """{"bits": the summed bit lengths, "ints": how many} of some ints."""
    ints = list(ints)
    return {"bits": sum(map(int.bit_length, ints)), "ints": len(ints)}


def held_sizes(cpx: BalancedProductComplex, code: CssCode) -> dict[str, dict[str, int]]:
    """The bits and ints held by each packed structure of `code` and its
    complex `cpx` (see the module docstring)."""
    out = {
        "hx": count(code.hx.row_masks),
        "hz": count(code.hz.row_masks),
        "z_stabilizers": count(code.z_stabilizers.pivots.values()),
        "z_index_prefixes": count(chain.from_iterable(decoder._index_for(cpx, "z").prefixes)),
    }
    for which in SUBGRAPHS:
        graph = cpx.subgraph(which)
        out[f"{which}.masks0"] = count(graph.masks0)
        out[f"{which}.masks1"] = count(graph.masks1)
    return out
