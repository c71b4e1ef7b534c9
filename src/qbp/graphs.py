"""Bipartite graphs, biregularity, neighbors, and bipartite Cayley graphs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Union

from .errors import ValidationError
from .groups import FiniteGroup, GroupAction, left_translation_action, right_translation_action, verify_free_action


@dataclass(frozen=True)
class BipartiteGraph:
    """A simple bipartite graph (V0, V1, E) with E a set of (x0, x1) pairs."""

    v0_size: int
    v1_size: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def adj0(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists for V0 vertices."""
        out: list[list[int]] = [[] for _ in range(self.v0_size)]
        for x0, x1 in self.edges:
            out[x0].append(x1)
        return tuple(tuple(sorted(v)) for v in out)

    @cached_property
    def adj1(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists for V1 vertices."""
        out: list[list[int]] = [[] for _ in range(self.v1_size)]
        for x0, x1 in self.edges:
            out[x1].append(x0)
        return tuple(tuple(sorted(v)) for v in out)


def build_bipartite(v0_size: int, v1_size: int, edges: Iterable[tuple[int, int]]) -> BipartiteGraph:
    """Validated constructor; rejects out-of-range endpoints and duplicates."""
    if v0_size < 0 or v1_size < 0:
        raise ValidationError(f"negative side sizes ({v0_size}, {v1_size})")
    edge_list = [(int(a), int(b)) for a, b in edges]
    for x0, x1 in edge_list:
        if not 0 <= x0 < v0_size:
            raise IndexError(f"edge endpoint {x0} outside V0 of size {v0_size}")
        if not 0 <= x1 < v1_size:
            raise IndexError(f"edge endpoint {x1} outside V1 of size {v1_size}")
    edge_set = frozenset(edge_list)
    if len(edge_set) != len(edge_list):
        seen, dupes = set(), set()
        for e in edge_list:
            if e in seen:
                dupes.add(e)
            seen.add(e)
        raise ValidationError(f"duplicate edges rejected: {sorted(dupes)}")
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
    """(w0, w1) when biregular, else a report naming the offending vertex.

    Non-regularity is a report, not a failure; degenerate empty sides count
    as regular with degree 0.
    """
    w0 = len(graph.adj0[0]) if graph.v0_size else 0
    for x0 in range(graph.v0_size):
        d = len(graph.adj0[x0])
        if d != w0:
            return NonRegularReport(0, x0, d)
    w1 = len(graph.adj1[0]) if graph.v1_size else 0
    for x1 in range(graph.v1_size):
        d = len(graph.adj1[x1])
        if d != w1:
            return NonRegularReport(1, x1, d)
    return RegularityProfile(w0, w1)


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


def verify_edge_invariance(graph: BipartiteGraph, action: GraphAction) -> Optional[tuple[int, tuple[int, int]]]:
    """None when every group element maps edges to edges, else the first
    (g, edge) violation in ascending order."""
    for g in action.group.elements():
        r0, r1 = action.v0.table[g], action.v1.table[g]
        for x0, x1 in sorted(graph.edges):
            if (r0[x0], r1[x1]) not in graph.edges:
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
    returned action is the translation from the opposite side, which commutes
    with the edge relation and acts freely (both facts re-verified here).
    """
    gen_list = [int(a) for a in gens]
    for a in gen_list:
        if not 0 <= a < group.order:
            raise IndexError(f"generator {a} outside group of order {group.order}")
    if len(set(gen_list)) != len(gen_list):
        raise ValidationError("duplicate generators would create multi-edges; rejected")
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    if side == "left":
        edges = [(g, group.op(a, g)) for g in group.elements() for a in gen_list]
        one_side = right_translation_action(group)
    else:
        edges = [(g, group.op(g, b)) for g in group.elements() for b in gen_list]
        one_side = left_translation_action(group)
    graph = build_bipartite(group.order, group.order, edges)
    action = GraphAction(group, one_side, one_side)
    fixed = verify_free_action(one_side)
    if fixed is not None:
        raise ValidationError(f"translation action unexpectedly has fixed point {fixed}")
    violation = verify_edge_invariance(graph, action)
    if violation is not None:
        raise ValidationError(f"Cayley action fails edge invariance at {violation}")
    return CayleyGraph(graph, action, tuple(gen_list), side)


# -- interchange ----------------------------------------------------------


def graph_to_json(graph: BipartiteGraph) -> dict:
    return {
        "v0": graph.v0_size,
        "v1": graph.v1_size,
        "edges": sorted([a, b] for a, b in graph.edges),
    }


def graph_from_json(obj: dict) -> BipartiteGraph:
    try:
        return build_bipartite(int(obj["v0"]), int(obj["v1"]),
                               [(int(a), int(b)) for a, b in obj["edges"]])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed graph JSON: {exc}") from exc
