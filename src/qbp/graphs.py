"""Bipartite graphs, biregularity, neighbors, and bipartite Cayley graphs.

A graph is frozen, so its adjacency lists, its packed neighborhoods
(`masks0`, `masks1`: one int per vertex, packed by `gf2.pack` from the
other side's lists) and its regularity verdict are derived once, on first
use, and cached on that object; equal graphs built separately do not share
them.  Both sides' lists come from one builder, `adjacency_lists`, in one
pass over the edges in ascending order, so each list grows in ascending
order and none is sorted per vertex.  A graph sorts its edge set for it by V1 end and then,
stably, by V0 end: two sorts on int keys are faster than one on the
pairs.  The complex loader seeds each subgraph instead
(`seed_adjacency`) from its file's rows of that class, through `sorted`,
which is linear on the ascending rows `complex_to_json` writes.
The V00 map's column view, the decoder index and expansion certification
read the masks and pack none of their own.  Edge invariance is checked on
each call, not cached: a Cayley graph's translation action keeps its edges
by associativity, so only a product of arbitrary factors needs the check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional, Union

from .errors import ValidationError
from .gf2 import pack
from .groups import FiniteGroup, GroupAction
from .jsonio import _int_rows, _size_value

_Violation = Optional[tuple[int, tuple[int, int]]]   # (g, edge), or None
_Adjacency = tuple[tuple[int, ...], ...]              # one sorted list per vertex


@dataclass(frozen=True)
class BipartiteGraph:
    """A simple bipartite graph (V0, V1, E) with E a set of (x0, x1) pairs."""

    v0_size: int
    v1_size: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def adjacency(self) -> tuple[_Adjacency, _Adjacency]:
        """(adj0, adj1), built once by `adjacency_lists` from the edges,
        sorted by V1 end and then, stably, by V0 end; a loaded complex seeds
        it from its file's rows (`seed_adjacency`)."""
        rows = sorted(self.edges, key=itemgetter(1))
        rows.sort(key=itemgetter(0))
        return adjacency_lists(self.v0_size, self.v1_size, rows)

    @property
    def adj0(self) -> _Adjacency:
        """Sorted neighbor lists for V0 vertices."""
        return self.adjacency[0]

    @property
    def adj1(self) -> _Adjacency:
        """Sorted neighbor lists for V1 vertices."""
        return self.adjacency[1]

    @cached_property
    def masks0(self) -> tuple[int, ...]:
        """Packed neighborhoods of V0: bit x1 of masks0[x0] marks edge (x0, x1)."""
        return pack(self.v0_size, self.adj1)

    @cached_property
    def masks1(self) -> tuple[int, ...]:
        """Packed neighborhoods of V1: bit x0 of masks1[x1] marks edge (x0, x1)."""
        return pack(self.v1_size, self.adj0)

    @cached_property
    def regularity_profile(self) -> Union["RegularityProfile", "NonRegularReport"]:
        """The verdict of :func:`regularity`, computed once per graph."""
        widths = []
        for side, adj in ((0, self.adj0), (1, self.adj1)):
            degrees = tuple(map(len, adj))
            if len(set(degrees)) > 1:
                x = next(x for x, d in enumerate(degrees) if d != degrees[0])
                return NonRegularReport(side, x, degrees[x])
            widths.append(degrees[0] if degrees else 0)
        return RegularityProfile(*widths)


def adjacency_lists(v0_size: int, v1_size: int,
                    rows: Iterable[tuple[int, int]]) -> tuple[_Adjacency, _Adjacency]:
    """Both sides' neighbor lists of the edges `rows`, in one pass.

    `rows` must be distinct edges in ascending order with every endpoint in
    range (the caller checks it: a negative endpoint would index from the
    end).  Each V0 list then grows by ascending x1 and each V1 list by
    ascending x0, so every list comes out sorted and none is sorted again.
    """
    out0: list[list[int]] = [[] for _ in range(v0_size)]
    out1: list[list[int]] = [[] for _ in range(v1_size)]
    for x0, x1 in rows:
        out0[x0].append(x1)
        out1[x1].append(x0)
    return tuple(map(tuple, out0)), tuple(map(tuple, out1))


def seed_adjacency(graph: BipartiteGraph, rows: Iterable[tuple[int, int]]) -> None:
    """Store the adjacency of `graph` built from `rows`, its edges listed in
    any order, so the graph never sorts its edge set.

    The caller has checked that `rows` are distinct and in range.  They go
    in through `sorted`, linear on rows that are already ascending.
    """
    graph.__dict__[BipartiteGraph.adjacency.attrname] = adjacency_lists(
        graph.v0_size, graph.v1_size, sorted(rows))


def build_bipartite(v0_size: int, v1_size: int, edges: Iterable[tuple[int, int]]) -> BipartiteGraph:
    """Validated constructor; rejects non-int or out-of-range endpoints and
    duplicates."""
    if v0_size < 0 or v1_size < 0:
        raise ValidationError(f"negative side sizes ({v0_size}, {v1_size})")
    edge_list = _int_rows(edges, "edges", 2)
    for x0, x1 in edge_list:
        if not 0 <= x0 < v0_size:
            raise IndexError(f"edge endpoint {x0} outside V0 of size {v0_size}")
        if not 0 <= x1 < v1_size:
            raise IndexError(f"edge endpoint {x1} outside V1 of size {v1_size}")
    edge_set = frozenset(edge_list)
    if len(edge_set) != len(edge_list):
        dupes = sorted(e for e, k in Counter(edge_list).items() if k > 1)
        raise ValidationError(f"duplicate edges rejected: {dupes}")
    return BipartiteGraph(v0_size, v1_size, edge_set)


@dataclass(frozen=True)
class RegularityProfile:
    """Degrees (w0, w1) of a biregular bipartite graph."""

    w0: int
    w1: int

    @property
    def is_regular(self) -> bool:
        return True


@dataclass(frozen=True)
class NonRegularReport:
    """First vertex whose degree deviates, discovered scanning V0 then V1."""

    side: int
    vertex: int
    degree: int

    @property
    def is_regular(self) -> bool:
        return False


def regularity(graph: BipartiteGraph) -> Union[RegularityProfile, NonRegularReport]:
    """(w0, w1) when biregular, else a report naming the first vertex whose
    degree differs from its side's vertex 0, scanning V0 then V1.

    Non-regularity is a report, not a failure; degenerate empty sides count
    as regular with degree 0.  The verdict is computed once per graph.
    """
    return graph.regularity_profile


def neighbors(graph: BipartiteGraph, side: int, subset: Iterable[int]) -> frozenset[int]:
    """Union of adjacency of `subset` (living on `side`) on the opposite side."""
    adj = graph.adj0 if side == 0 else graph.adj1
    size = graph.v0_size if side == 0 else graph.v1_size
    out: set[int] = set()
    for x in subset:
        if not 0 <= x < size:
            raise IndexError(f"vertex {x} outside side {side} of size {size}")
        out.update(adj[x])
    return frozenset(out)


@dataclass(frozen=True)
class GraphAction:
    """A group acting on both sides of a bipartite graph."""

    group: FiniteGroup
    v0: GroupAction
    v1: GroupAction


def verify_edge_invariance(graph: BipartiteGraph, action: GraphAction) -> _Violation:
    """None when every group element maps edges to edges, else the first
    (g, edge) violation in ascending order.

    Both vertex actions are lawful actions of the group (every
    `GroupAction` is checked by `GroupAction.from_table` or is a translation,
    lawful by proof), so act(g s) = act(g) o act(s): when each generator s
    maps edges to edges, so does every word in the generators.  Only a
    failure scans all of G, for its witness.
    """
    group, edges = action.group, graph.edges

    def moves_an_edge(g: int) -> bool:
        r0, r1 = action.v0.table[g], action.v1.table[g]
        return any((r0[x0], r1[x1]) not in edges for x0, x1 in edges)

    same = action.v0.group.same_table(group) and action.v1.group.same_table(group)
    if not any(map(moves_an_edge, group.generators if same else group.elements())):
        return None
    ordered = sorted(edges)
    for g in group.elements():
        r0, r1 = action.v0.table[g], action.v1.table[g]
        for x0, x1 in ordered:
            if (r0[x0], r1[x1]) not in edges:
                return (g, (x0, x1))
    return None


@dataclass(frozen=True)
class CayleyGraph:
    """A bipartite Cayley graph together with its commuting free action."""

    graph: BipartiteGraph
    action: GraphAction
    gens: tuple[int, ...]
    side: str


def invert_gens(group: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    """Element-wise inverse of a generator list (order preserved)."""
    return tuple(group.inv[a] for a in gens)


def cayley_bipartite(group: FiniteGroup, gens: Iterable[int], side: str) -> CayleyGraph:
    """Bipartite Cayley graph on V0 = V1 = G.

    side="left" uses edges (g, a g); side="right" uses edges (g, g b).  The
    returned action is the translation from the opposite side, which acts
    freely and lawfully (by proof, see `groups`) and keeps the edges, also
    by proof: h maps (g, g b) to (h g, h g b) and (g, a g) to (g h^-1,
    a g h^-1), both edges by the associativity the group table was checked
    for.  So nothing is scanned here; `balanced_product` checks its factors.
    """
    gen_list = [int(a) for a in gens]
    for a in gen_list:
        if not 0 <= a < group.order:
            raise IndexError(f"generator {a} outside group of order {group.order}")
    if len(set(gen_list)) != len(gen_list):
        raise ValidationError("duplicate generators would create multi-edges; rejected")
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    mul = group.mul
    if side == "left":
        edges = [(g, mul[a][g]) for g in group.elements() for a in gen_list]
        one_side = group.right_translation
    else:
        edges = [(g, mul[g][b]) for g in group.elements() for b in gen_list]
        one_side = group.left_translation
    graph = build_bipartite(group.order, group.order, edges)
    return CayleyGraph(graph, GraphAction(group, one_side, one_side), tuple(gen_list), side)


# -- interchange ----------------------------------------------------------


def graph_from_json(obj: dict) -> BipartiteGraph:
    """Load `{v0, v1, edges}`: int side sizes within the declared-size budget
    and a list of [x0, x1] int pairs."""
    if not isinstance(obj, dict):
        raise ValidationError(f"graph JSON must be an object, got {type(obj).__name__}")
    try:
        v0, v1, edges = obj["v0"], obj["v1"], obj["edges"]
    except KeyError as exc:
        raise ValidationError(f"malformed graph JSON: missing {exc}") from exc
    try:
        return build_bipartite(_size_value(v0, "graph v0"), _size_value(v1, "graph v1"), edges)
    except IndexError as exc:
        raise ValidationError(f"malformed graph JSON: {exc}") from exc
