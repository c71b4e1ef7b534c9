"""Test instance and file builders that no command or bench op uses:
seeded random bipartite graphs, the symmetric groups and the conjugation
action, zero, identity and entry-built GF(2) vectors and matrices, factor
JSON, what a complex file holds, a result file with its timing dropped, and
hypothesis strategies for complex files with every edge class and the faces
in a shuffled order."""

import itertools
import json
import random
from functools import lru_cache
from typing import Iterable, Sequence

from hypothesis import strategies as st

from qbp.errors import ValidationError
from qbp.gf2 import F2Matrix, F2Vector, _check_shape
from qbp.graphs import BipartiteGraph, build_bipartite
from qbp.groups import FiniteGroup, GroupAction, cyclic_group
from qbp.instances import incidence_star_product, left_right_cayley, star_product, toric_complex
from qbp.jsonio import canonical_dumps
from qbp.product import SUBGRAPHS, complex_to_json, hypergraph_product


def random_bipartite(v0: int, v1: int, n_edges: int, rng: random.Random) -> BipartiteGraph:
    """A uniform simple bipartite graph with exactly n_edges edges."""
    if n_edges > v0 * v1:
        raise ValidationError(f"cannot place {n_edges} edges in a {v0}x{v1} grid")
    cells = [(a, b) for a in range(v0) for b in range(v1)]
    return build_bipartite(v0, v1, rng.sample(cells, n_edges))


def random_biregular(v0: int, v1: int, w0: int, rng: random.Random, attempts: int = 200) -> BipartiteGraph:
    """A random (w0, w1)-biregular simple graph; w1 = w0*v0/v1 must be integral.

    Built as a union of w0 random perfect assignments of V0-stubs to V1,
    resampled on duplicate edges.
    """
    if (w0 * v0) % v1 != 0:
        raise ValidationError(f"w0*v0 = {w0 * v0} not divisible by v1 = {v1}")
    w1 = w0 * v0 // v1
    if w0 > v1 or w1 > v0:
        raise ValidationError("degrees exceed opposite side size; no simple graph exists")
    for _ in range(attempts):
        stubs = [x1 for x1 in range(v1) for _ in range(w1)]
        rng.shuffle(stubs)
        left = [x0 for x0 in range(v0) for _ in range(w0)]
        edges = set()
        ok = True
        for x0, x1 in zip(left, stubs):
            if (x0, x1) in edges:
                ok = False
                break
            edges.add((x0, x1))
        if ok:
            return build_bipartite(v0, v1, edges)
    raise ValidationError(
        f"could not sample a simple ({w0},{w1})-biregular graph on {v0}+{v1} "
        f"vertices in {attempts} attempts"
    )


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n letters; elements are permutations in lex order."""
    if not 1 <= n <= 6:
        raise ValidationError("symmetric_group supports 1 <= n <= 6")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # Composition (p . q)(x) = p(q(x)).
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms) for p in perms
    )
    return FiniteGroup.from_table(table, label=f"S{n}")


def conjugation_action(group: FiniteGroup) -> GroupAction:
    """g . x = g x g^{-1}; not free for any group with a non-central element."""
    table = tuple(
        tuple(group.op(group.op(g, x), group.inv[g]) for x in group.elements())
        for g in group.elements()
    )
    return GroupAction.from_table(group, table)


def zero_vector(length: int) -> F2Vector:
    return F2Vector(length, frozenset())


def zero_matrix(rows: int, cols: int) -> F2Matrix:
    return F2Matrix(rows, cols, (0,) * rows)


def identity_matrix(n: int) -> F2Matrix:
    return F2Matrix(n, n, tuple(1 << i for i in range(n)))


def from_entries(rows: int, cols: int, entries: Iterable[tuple[int, int]]) -> F2Matrix:
    """The matrix with a 1 at each (r, c); repeated entries are one entry."""
    _check_shape(rows, cols)
    masks = [0] * rows
    for r, c in entries:
        r, c = int(r), int(c)
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValidationError(f"entry ({r},{c}) outside {rows}x{cols}")
        masks[r] |= 1 << c
    return F2Matrix(rows, cols, tuple(masks))


def from_dense(dense: Sequence[Sequence[int]]) -> F2Matrix:
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    masks = [sum(1 << c for c, v in enumerate(row) if v % 2) for row in dense]
    return F2Matrix(rows, cols, tuple(masks))


def graph_to_json(graph: BipartiteGraph) -> dict:
    return {
        "v0": graph.v0_size,
        "v1": graph.v1_size,
        "edges": sorted([a, b] for a, b in graph.edges),
    }


def group_to_json(group: FiniteGroup) -> dict:
    return {"order": group.order, "mul": [list(r) for r in group.mul], "label": group.label}


def complex_file(cpx) -> dict:
    """What the complex file of `cpx` holds, as `json.loads` reads it back:
    every row a fresh list, so a test may edit it in place.
    `complex_to_json` itself hands out the complex's own tuples."""
    return json.loads(canonical_dumps(complex_to_json(cpx)))


def strip_timing(text: str) -> str:
    """Canonical dump of a result file with the timing field removed."""
    payload = json.loads(text)
    payload.pop("timing", None)
    return canonical_dumps(payload)


# -- shuffled complex files ------------------------------------------------------

SHUFFLED = tuple(f"edges_{which}" for which in SUBGRAPHS) + ("faces",)

# The conftest families, then more star and incidence-star products.
SHUFFLED_FAMILIES = {
    "toric2": lambda: toric_complex(2),
    "toric3": lambda: toric_complex(3),
    "match8": lambda: left_right_cayley(cyclic_group(8), [1], [1]),
    "star12": lambda: star_product(12, 3, 2),
    "incstar13": lambda: incidence_star_product(13, 2),
    "star_product(5, 2, 3)": lambda: star_product(5, 2, 3),
    "star_product(7, 4, 1)": lambda: star_product(7, 4, 1),
    "incidence_star_product(5, 3)": lambda: incidence_star_product(5, 3),
}


@lru_cache(maxsize=None)
def family_file(name):
    return complex_file(SHUFFLED_FAMILIES[name]())


def shuffled(obj, rng):
    """`obj` with each edge class and the faces listed in a random order."""
    out = dict(obj)
    for field in SHUFFLED:
        out[field] = rng.sample(obj[field], len(obj[field]))
    return out


@st.composite
def family_files(draw):
    return shuffled(family_file(draw(st.sampled_from(sorted(SHUFFLED_FAMILIES)))),
                    draw(st.randoms(use_true_random=False)))


@st.composite
def hypergraph_product_files(draw):
    def factor():
        v0, v1 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        n_edges = draw(st.integers(0, v0 * v1))
        return random_bipartite(v0, v1, n_edges, random.Random(draw(st.integers(0, 2**16))))
    obj = complex_file(hypergraph_product(factor(), factor()))
    return shuffled(obj, draw(st.randoms(use_true_random=False)))
