"""Lossless vertex-expansion certification and its combinatorial consequences.

A (c, epsilon)-lossless certificate for one direction of a biregular graph
states that every source subset S with |S| < c * |V_src| (strict) satisfies
|N(S)| >= (1 - epsilon) * w_src * |S|.  Certification is exhaustive (a proof
at desk scale, budgeted) or sampled (evidence only; the certificate says so).

Also here: unique-neighbor counting, the two edge-count inequalities implied
by losslessness, an integral max-flow solver, and the flow-based partition
that assigns each vertex of a small target subset to a unique owner while
leaving every owner with at most epsilon * w0 unassigned neighbors.

Certification enumerations are embarrassingly parallel over subset-size
strata; the implementation here is sequential but keeps the contract that
the reported violation is the first one in lexicographic order.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Optional, Sequence

from .errors import (
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
    ValidationError,
)
from .graphs import BipartiteGraph, neighbors, regularity

DEFAULT_CERTIFY_BUDGET = 1 << 24

Node = Hashable


@dataclass(frozen=True)
class ExpansionCertificate:
    """Outcome of a lossless-expansion check for one direction of a graph.

    Only an exhaustive pass is authoritative; a sampled pass is evidence and
    is labelled as such so the distinction travels with the certificate.
    A fail verdict always carries a concrete violating subset.
    """

    side: str                      # "0to1" or "1to0"
    v_src_size: int
    v_dst_size: int
    w_src: int
    c: Fraction
    epsilon: Fraction
    mode: str                      # "exhaustive" or "sampled"
    verdict: str                   # "pass" or "fail"
    witness: Optional[tuple[int, ...]] = None
    trials: Optional[int] = None
    seed: Optional[int] = None
    budget: Optional[int] = None
    subsets_checked: int = 0
    note: str = ""

    @property
    def authoritative(self) -> bool:
        return self.mode == "exhaustive" and self.verdict == "pass"

    @property
    def max_eligible_size(self) -> int:
        """Largest |S| allowed by the strict bound |S| < c * |V_src|."""
        return max(0, math.ceil(self.c * self.v_src_size) - 1)

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "v_src_size": self.v_src_size,
            "v_dst_size": self.v_dst_size,
            "w_src": self.w_src,
            "c": [self.c.numerator, self.c.denominator],
            "epsilon": [self.epsilon.numerator, self.epsilon.denominator],
            "mode": self.mode,
            "verdict": self.verdict,
            "witness": sorted(self.witness) if self.witness is not None else None,
            "trials": self.trials,
            "seed": self.seed,
            "budget": self.budget,
            "subsets_checked": self.subsets_checked,
            "note": self.note,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExpansionCertificate":
        return cls(
            side=obj["side"],
            v_src_size=int(obj["v_src_size"]),
            v_dst_size=int(obj["v_dst_size"]),
            w_src=int(obj["w_src"]),
            c=Fraction(*obj["c"]),
            epsilon=Fraction(*obj["epsilon"]),
            mode=obj["mode"],
            verdict=obj["verdict"],
            witness=tuple(obj["witness"]) if obj.get("witness") is not None else None,
            trials=obj.get("trials"),
            seed=obj.get("seed"),
            budget=obj.get("budget"),
            subsets_checked=int(obj.get("subsets_checked", 0)),
            note=str(obj.get("note", "")),
        )


def _source_view(graph: BipartiteGraph, side: str):
    if side == "0to1":
        return graph.v0_size, graph.adj0
    if side == "1to0":
        return graph.v1_size, graph.adj1
    raise ValidationError(f"side must be '0to1' or '1to0', got {side!r}")


def certify_expansion(
    graph: BipartiteGraph,
    side: str,
    c: Fraction,
    epsilon: Fraction,
    mode: str = "exhaustive",
    *,
    trials: int = 200,
    seed: int = 0,
    budget: int = DEFAULT_CERTIFY_BUDGET,
) -> ExpansionCertificate:
    """Certify (c, epsilon)-lossless expansion from one side of a biregular graph.

    Parameters
    ----------
    graph : BipartiteGraph
        Must be biregular; the source degree enters the expansion bound.
    side : str
        "0to1" checks subsets of V0 against their V1 neighborhoods, "1to0"
        the reverse.
    c, epsilon : Fraction
        Small-set fraction (0 < c <= 1) and loss parameter (>= 0).  Subsets
        of size s are eligible iff s < c * |V_src|, strictly.
    mode : str
        "exhaustive" enumerates every eligible subset in lexicographic order
        and stops at the first violation; it refuses with a budget error when
        the subset count exceeds `budget`.  "sampled" draws `trials` uniform
        subsets per eligible size from `seed`.

    Returns
    -------
    ExpansionCertificate
        verdict "pass" or "fail"; a fail always carries the first violating
        subset found, which callers can recheck directly.

    Each subset is tested in exact integers, |N(S)| den < num w_src |S| with
    1 - epsilon = num/den, on neighborhoods held as bit masks.
    """
    c = Fraction(c)
    epsilon = Fraction(epsilon)
    if not 0 < c <= 1:
        raise PreconditionError(f"need 0 < c <= 1, got {c}")
    if epsilon < 0:
        raise PreconditionError(f"need epsilon >= 0, got {epsilon}")
    prof = regularity(graph)
    if not prof.is_regular:
        raise PreconditionError(f"graph is not biregular: {prof}")
    n_src, adj = _source_view(graph, side)
    v_dst = graph.v1_size if side == "0to1" else graph.v0_size
    w_src = prof.w0 if side == "0to1" else prof.w1
    max_size = max(0, math.ceil(c * n_src) - 1)
    keep = 1 - epsilon
    den, rate = keep.denominator, keep.numerator * w_src
    adj_masks = [sum(1 << y for y in ys) for ys in adj]

    def violates(subset: Sequence[int]) -> bool:
        seen = 0
        for x in subset:
            seen |= adj_masks[x]
        return seen.bit_count() * den < rate * len(subset)

    checked = 0
    if mode == "exhaustive":
        total = sum(math.comb(n_src, s) for s in range(1, max_size + 1))
        if total > budget:
            raise BudgetExceededError(
                f"exhaustive certification needs {total} subset checks, over the "
                f"budget of {budget}; raise the budget or use sampled mode"
            )
        for size in range(1, max_size + 1):
            for subset in itertools.combinations(range(n_src), size):
                checked += 1
                if violates(subset):
                    return ExpansionCertificate(
                        side, n_src, v_dst, w_src, c, epsilon, "exhaustive",
                        "fail", witness=subset, budget=budget, subsets_checked=checked,
                    )
        return ExpansionCertificate(
            side, n_src, v_dst, w_src, c, epsilon, "exhaustive",
            "pass", budget=budget, subsets_checked=checked,
        )
    if mode == "sampled":
        rng = random.Random(seed)
        for size in range(1, max_size + 1):
            for _ in range(trials):
                subset = tuple(sorted(rng.sample(range(n_src), size)))
                checked += 1
                if violates(subset):
                    return ExpansionCertificate(
                        side, n_src, v_dst, w_src, c, epsilon, "sampled",
                        "fail", witness=subset, trials=trials, seed=seed,
                        subsets_checked=checked,
                        note="sampled verdicts are evidence, not proof",
                    )
        return ExpansionCertificate(
            side, n_src, v_dst, w_src, c, epsilon, "sampled",
            "pass", trials=trials, seed=seed, subsets_checked=checked,
            note="sampled verdicts are evidence, not proof",
        )
    raise ValidationError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")


def unique_neighbors(graph: BipartiteGraph, side: int, subset: Iterable[int]) -> frozenset[int]:
    """Opposite-side vertices adjacent to exactly one member of `subset`."""
    adj = graph.adj0 if side == 0 else graph.adj1
    size = graph.v0_size if side == 0 else graph.v1_size
    counts: dict[int, int] = {}
    for x in subset:
        if not 0 <= x < size:
            raise IndexError(f"vertex {x} outside side {side} of size {size}")
        for y in adj[x]:
            counts[y] = counts.get(y, 0) + 1
    return frozenset(y for y, k in counts.items() if k == 1)


@dataclass(frozen=True)
class UniqueExpansionCheck:
    ok: bool
    unique_count: int
    required: Fraction
    margin: Fraction


def check_unique_expander_bound(
    graph: BipartiteGraph,
    certificate: ExpansionCertificate,
    subset: Iterable[int],
) -> UniqueExpansionCheck:
    """Check |N_unique(S)| >= (1 - 2 epsilon) * w_src * |S| for an eligible S.

    Losslessness forces most neighbors of a small set to be unique; the margin
    reported is count - bound (nonnegative on any certified instance).
    """
    sub = tuple(sorted(set(subset)))
    if len(sub) > certificate.max_eligible_size:
        raise PreconditionError(
            f"|subset| = {len(sub)} is not below c*|V_src| = "
            f"{certificate.c * certificate.v_src_size}"
        )
    side = 0 if certificate.side == "0to1" else 1
    uniq = unique_neighbors(graph, side, sub)
    required = (1 - 2 * certificate.epsilon) * certificate.w_src * len(sub)
    margin = Fraction(len(uniq)) - required
    return UniqueExpansionCheck(margin >= 0, len(uniq), required, margin)


@dataclass(frozen=True)
class EdgeCountBounds:
    bound1_ok: bool
    bound2_ok: bool
    edge_count: int
    bound1_rhs: Fraction
    excess_degree_sum: Fraction
    v1_size: int


def edge_count_bounds(
    graph: BipartiteGraph,
    v0_subset: Iterable[int],
    v1_subset: Iterable[int],
    epsilon: Fraction,
) -> EdgeCountBounds:
    """The two edge-count inequalities a lossless expander satisfies.

    For eligible v0 (caller-asserted) and any v1:
      (1) |E(v0, v1)| <= epsilon * w0 * |v0| + |v1|
      (2) sum_x0 max(deg_v1(x0) - epsilon * w0, 0) <= |v1|
    """
    epsilon = Fraction(epsilon)
    prof = regularity(graph)
    if not prof.is_regular:
        raise PreconditionError(f"graph is not biregular: {prof}")
    v0 = sorted(set(v0_subset))
    v1 = set(v1_subset)
    threshold = epsilon * prof.w0
    edge_count = 0
    excess = Fraction(0)
    for x0 in v0:
        deg = sum(1 for y in graph.adj0[x0] if y in v1)
        edge_count += deg
        excess += max(Fraction(deg) - threshold, Fraction(0))
    rhs1 = threshold * len(v0) + len(v1)
    return EdgeCountBounds(
        bound1_ok=edge_count <= rhs1,
        bound2_ok=excess <= len(v1),
        edge_count=edge_count,
        bound1_rhs=rhs1,
        excess_degree_sum=excess,
        v1_size=len(v1),
    )


# -- integral max flow -----------------------------------------------------


@dataclass(frozen=True)
class FlowNetwork:
    """A directed flow network with nonnegative integer capacities."""

    nodes: tuple[Node, ...]
    arcs: tuple[tuple[Node, Node, int], ...]
    source: Node
    sink: Node

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if self.source not in node_set or self.sink not in node_set:
            raise ValidationError("source and sink must be listed in nodes")
        for u, v, cap in self.arcs:
            if u not in node_set or v not in node_set:
                raise ValidationError(f"arc ({u},{v}) references unknown node")
            if not isinstance(cap, int) or cap < 0:
                raise ValidationError(f"capacity of ({u},{v}) must be a nonnegative integer, got {cap!r}")


@dataclass(frozen=True)
class MaxFlowResult:
    value: int
    flow: dict[tuple[Node, Node], int]
    cut_source_side: frozenset
    cut_capacity: int


def max_flow_integer(network: FlowNetwork) -> MaxFlowResult:
    """Integral max flow via shortest augmenting paths, plus a minimum cut.

    Integer capacities make every augmentation integral, so the returned flow
    is integer on every arc and its value equals the returned cut capacity.
    """
    residual: dict[Node, dict[Node, int]] = {u: {} for u in network.nodes}
    capacity: dict[tuple[Node, Node], int] = {}
    for u, v, cap in network.arcs:
        capacity[(u, v)] = capacity.get((u, v), 0) + cap
        residual[u][v] = residual[u].get(v, 0) + cap
        residual[v].setdefault(u, 0)

    s, t = network.source, network.sink
    value = 0
    while True:
        parent: dict[Node, Node] = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            break
        bottleneck = None
        v = t
        while v != s:
            u = parent[v]
            cap = residual[u][v]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            v = u
        v = t
        while v != s:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] = residual[v].get(u, 0) + bottleneck
            v = u
        value += bottleneck

    reachable = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v, cap in residual[u].items():
            if cap > 0 and v not in reachable:
                reachable.add(v)
                queue.append(v)
    cut_capacity = sum(cap for (u, v), cap in capacity.items()
                       if u in reachable and v not in reachable)
    flow = {}
    for (u, v), cap in capacity.items():
        flow[(u, v)] = cap - residual[u][v] if residual[u][v] < cap else 0
    if cut_capacity != value:
        raise InternalInvariantError(
            f"flow value {value} != cut capacity {cut_capacity}"
        )
    return MaxFlowResult(value, flow, frozenset(reachable), cut_capacity)


# -- flow-based ownership partition -----------------------------------------


@dataclass(frozen=True)
class TreePartition:
    """Disjoint ownership of a target subset v1 by source vertices.

    assignment[x0] is the set of v1-vertices owned by x0; the sets partition
    v1 and each x0 keeps at most threshold = floor(epsilon * w0) neighbors in
    v1 unowned (its leftover degree).
    """

    assignment: dict[int, frozenset[int]]
    leftover: dict[int, int]
    flow_value: int
    threshold: int


def tree_partition(
    graph: BipartiteGraph,
    v1_subset: Iterable[int],
    epsilon: Fraction,
    w0: int,
) -> TreePartition:
    """Partition v1 among V0 owners with bounded leftover degree.

    Builds the flow network over the induced subgraph (N(v1), v1, E(N(v1), v1))
    with capacities max(deg - threshold, 0) on source arcs and 1 elsewhere,
    saturates the source cut, sets ownership from unit-flow edges, then tops
    up so every v1-vertex has exactly one owner (lowest-index neighbor).

    threshold is floor(epsilon * w0): fractional thresholds are rounded down
    so capacities stay integral and the leftover bound <= epsilon * w0 stays
    valid; with epsilon * w0 integral this is exactly the nominal capacity.
    A flow value below the source-cut capacity means the caller's expansion
    hypothesis does not hold for this subset; that is reported as an internal
    invariant violation rather than silently weakened ownership.

    The work is local to v1: only N(v1) can own a vertex or keep a leftover,
    so every other V0 vertex gets an empty set and leftover 0 without being
    visited (the graph's regularity verdict is computed once per graph).
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise PreconditionError(f"need epsilon >= 0, got {epsilon}")
    prof = regularity(graph)
    if not prof.is_regular:
        raise PreconditionError(f"graph is not biregular: {prof}")
    v1 = sorted(set(v1_subset))
    for x1 in v1:
        if not 0 <= x1 < graph.v1_size:
            raise IndexError(f"vertex {x1} outside V1 of size {graph.v1_size}")
    threshold = math.floor(epsilon * w0)
    v1_set = set(v1)
    v0 = sorted(neighbors(graph, 1, v1))
    adj0 = graph.adj0
    deg = {x0: sum(1 for y in adj0[x0] if y in v1_set) for x0 in v0}

    nodes: list[Node] = ["s", "t"]
    arcs: list[tuple[Node, Node, int]] = []
    for x0 in v0:
        nodes.append(("v0", x0))
        arcs.append(("s", ("v0", x0), max(deg[x0] - threshold, 0)))
    for x1 in v1:
        nodes.append(("v1", x1))
        arcs.append((("v1", x1), "t", 1))
    for x0 in v0:
        for y in adj0[x0]:
            if y in v1_set:
                arcs.append((("v0", x0), ("v1", y), 1))
    network = FlowNetwork(tuple(nodes), tuple(arcs), "s", "t")
    result = max_flow_integer(network)

    required = sum(max(deg[x0] - threshold, 0) for x0 in v0)
    if result.value < required:
        raise InternalInvariantError(
            f"ownership flow is {result.value} < {required}; the expansion "
            "hypothesis asserted by the caller fails on this subset"
        )

    owned: dict[int, set[int]] = {x0: set() for x0 in v0}
    owner: dict[int, int] = {}
    for x0 in v0:
        for y in adj0[x0]:
            if y in v1_set and result.flow.get((("v0", x0), ("v1", y)), 0) == 1:
                owned[x0].add(y)
                owner[y] = x0
    for x1 in v1:
        if x1 not in owner:
            if not graph.adj1[x1]:
                raise PreconditionError(
                    f"target vertex {x1} has no neighbors; nothing can own it"
                )
            # Top-up: any neighbor may own an unclaimed vertex; lowest index
            # is chosen for determinism.
            x0 = graph.adj1[x1][0]
            owned[x0].add(x1)
            owner[x1] = x0
    assignment: dict[int, frozenset[int]] = dict.fromkeys(range(graph.v0_size), frozenset())
    leftover: dict[int, int] = dict.fromkeys(range(graph.v0_size), 0)
    for x0 in v0:
        assignment[x0] = frozenset(owned[x0])
        leftover[x0] = deg[x0] - len(owned[x0])
    return TreePartition(assignment, leftover, result.value, threshold)


@dataclass(frozen=True)
class TreePartitionAudit:
    disjoint: bool
    covering: bool
    within_neighborhoods: bool
    leftover_ok: bool
    majorization_ok: bool
    majorization_skipped: bool

    @property
    def all_ok(self) -> bool:
        return (self.disjoint and self.covering and self.within_neighborhoods
                and self.leftover_ok
                and (self.majorization_ok or self.majorization_skipped))


def verify_tree_partition(
    graph: BipartiteGraph,
    v1_subset: Iterable[int],
    epsilon: Fraction,
    w0: int,
    part: TreePartition,
) -> TreePartitionAudit:
    """Recompute every partition invariant from scratch.

    Checks disjointness, coverage of v1, containment in neighborhoods,
    leftover <= epsilon * w0, and the majorization of the sorted leftover
    sequence by {epsilon*w0 repeated ceil((w1/(epsilon*w0)) |v1|) times}
    (skipped when epsilon = 0 and all leftovers are zero).
    """
    epsilon = Fraction(epsilon)
    v1 = set(v1_subset)
    prof = regularity(graph)
    w1 = prof.w1 if prof.is_regular else None

    seen: set[int] = set()
    disjoint = True
    within = True
    for x0, owned in part.assignment.items():
        if owned & seen:
            disjoint = False
        seen |= owned
        if not owned <= set(graph.adj0[x0]):
            within = False
    covering = seen == v1

    bound = epsilon * w0
    leftovers = []
    leftover_ok = True
    for x0 in range(graph.v0_size):
        actual = sum(1 for y in graph.adj0[x0] if y in v1) - len(part.assignment.get(x0, ()))
        if actual != part.leftover.get(x0, 0):
            leftover_ok = False
        if Fraction(actual) > bound:
            leftover_ok = False
        leftovers.append(actual)

    if epsilon == 0:
        skipped = all(v == 0 for v in leftovers)
        return TreePartitionAudit(disjoint, covering, within, leftover_ok,
                                  majorization_ok=skipped, majorization_skipped=skipped)
    if w1 is None:
        raise PreconditionError("majorization check needs a biregular graph")
    copies = math.ceil(Fraction(w1, bound) * len(v1)) if v1 else 0
    sorted_desc = sorted(leftovers, reverse=True)
    length = max(len(sorted_desc), copies)
    prefix_actual = Fraction(0)
    prefix_bound = Fraction(0)
    majorized = True
    for i in range(length):
        prefix_actual += sorted_desc[i] if i < len(sorted_desc) else 0
        prefix_bound += bound if i < copies else 0
        if prefix_actual > prefix_bound:
            majorized = False
            break
    return TreePartitionAudit(disjoint, covering, within, leftover_ok,
                              majorization_ok=majorized, majorization_skipped=False)
