"""Lossless vertex-expansion certification and its combinatorial consequences.

A (c, epsilon)-lossless certificate for one direction of a biregular graph
states that every source subset S with |S| < c * |V_src| (strict) satisfies
|N(S)| >= (1 - epsilon) * w_src * |S|.  Certification is exhaustive (a proof
at desk scale, budgeted) or sampled (evidence only; the certificate says so).
Two exact counting bounds come first: double counting, |N(S)| >= w_src |S| /
w_dst, and the pair bound |N(S)| >= w_src |S| - lam C(|S|, 2), with lam the
most neighbors two source vertices share.  Together they prove every size up
to some s0; only larger sizes are enumerated, and a sampled certificate with
every size proven draws nothing.  Certificates are those of the full
enumeration; the exhaustive budget counts only the subsets of unproven sizes.

Also here: unique-neighbor counting, the two edge-count inequalities implied
by losslessness, and the flow-based partition that assigns each vertex of a
small target subset to a unique owner while leaving every owner with at most
epsilon * w0 unassigned neighbors.

Certification enumerations are embarrassingly parallel over subset-size
strata; the implementation here is sequential but keeps the contract that
the reported violation is the first one in lexicographic order.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import (
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
    ValidationError,
)
from .graphs import BipartiteGraph, neighbors, regularity

DEFAULT_CERTIFY_BUDGET = 1 << 24
MODES = ("exhaustive", "sampled")


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


def _views(graph: BipartiteGraph, side: str):
    """(adjacency, degree) of the source side, then of the destination side."""
    prof = regularity(graph)
    if not prof.is_regular:
        raise PreconditionError(f"graph is not biregular: {prof}")
    if side == "0to1":
        return graph.adj0, prof.w0, graph.adj1, prof.w1
    if side == "1to0":
        return graph.adj1, prof.w1, graph.adj0, prof.w0
    raise ValidationError(f"side must be '0to1' or '1to0', got {side!r}")


def _proven_size(adj, w_src: int, adj_dst, w_dst: int, num: int, den: int,
                 max_size: int) -> int:
    """The largest s0 <= max_size at which no subset S of size <= s0 can
    have |N(S)| den < num w_src |S|, from two exact counting bounds.

    Double counting: each vertex of N(S) takes at most w_dst of the
    w_src |S| edges that leave S, so |N(S)| >= w_src |S| / w_dst, and
    num w_dst <= den proves every size.  Pairs (Bonferroni): |N(S)| >=
    w_src |S| - lam C(|S|, 2), with lam the most neighbors that two source
    vertices share, proves size s when lam (s - 1) den <= 2 w_src (den - num).
    Size 1 needs neither: a single vertex has w_src >= num w_src / den
    neighbors whenever epsilon >= 0.
    """
    if num * w_dst <= den or max_size <= 1:
        return max_size
    lam = 0
    for x, ys in enumerate(adj):
        shared = Counter(itertools.chain.from_iterable(map(adj_dst.__getitem__, ys)))
        del shared[x]
        lam = max(lam, max(shared.values(), default=0))
    if lam == 0:
        return max_size
    return min(max_size, 1 + 2 * w_src * (den - num) // (lam * den))


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
        "exhaustive" checks every eligible subset in (size, lexicographic)
        order and stops at the first violation; it refuses with a budget
        error when the count of eligible subsets of the sizes the counting
        bounds leave unproven exceeds `budget`.  A negative budget is
        refused up front, in either mode.
        "sampled" draws `trials` (>= 1) uniform subsets per eligible size
        from `seed`.

    Returns
    -------
    ExpansionCertificate
        verdict "pass" or "fail"; a fail always carries the first violating
        subset found, which callers can recheck directly.

    Each subset is tested in exact integers, |N(S)| den < num w_src |S| with
    1 - epsilon = num/den, on neighborhoods held as bit masks.  Before that,
    two counting bounds (`_proven_size`: double counting, and the pair bound
    with the largest common neighborhood of two source vertices) prove every
    size up to some s0.  Exhaustive mode enumerates only sizes above s0 and
    counts the subsets of the proven sizes as checked, so verdict, witness
    and count are those of the full enumeration.  Sampled mode with every
    size proven draws nothing and records trials * sizes checked; otherwise
    it draws every size from `seed` as before, so its stream is unchanged.
    """
    c = Fraction(c)
    epsilon = Fraction(epsilon)
    if not 0 < c <= 1:
        raise PreconditionError(f"need 0 < c <= 1, got {c}")
    if epsilon < 0:
        raise PreconditionError(f"need epsilon >= 0, got {epsilon}")
    if mode not in MODES:
        raise ValidationError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "sampled" and trials < 1:
        raise PreconditionError(f"sampled mode needs trials >= 1, got {trials}")
    if budget < 0:
        raise PreconditionError(f"need budget >= 0, got {budget}")
    adj, w_src, adj_dst, w_dst = _views(graph, side)
    n_src = len(adj)
    max_size = max(0, math.ceil(c * n_src) - 1)
    keep = 1 - epsilon
    num, den = keep.numerator, keep.denominator
    s0 = _proven_size(adj, w_src, adj_dst, w_dst, num, den, max_size)
    if mode == "exhaustive":
        extra = {"budget": budget}
        unproven = sum(math.comb(n_src, s) for s in range(s0 + 1, max_size + 1))
        if unproven > budget:
            raise BudgetExceededError(
                f"exhaustive certification needs {unproven} subset checks of the sizes "
                f"the counting bounds leave unproven ({s0 + 1}..{max_size}), over the "
                f"budget of {budget}; raise the budget or use sampled mode"
            )
        checked = sum(math.comb(n_src, s) for s in range(1, s0 + 1))
        subsets = (subset for size in range(s0 + 1, max_size + 1)
                   for subset in itertools.combinations(range(n_src), size))
    else:
        extra = {"trials": trials, "seed": seed,
                 "note": "sampled verdicts are evidence, not proof"}
        if s0 == max_size:
            checked, subsets = trials * max_size, ()
        else:
            checked, rng = 0, random.Random(seed)
            subsets = (tuple(sorted(rng.sample(range(n_src), size)))
                       for size in range(1, max_size + 1) for _ in range(trials))
    if s0 < max_size:
        masks = graph.masks0 if side == "0to1" else graph.masks1
        rate = num * w_src
        for subset in subsets:
            checked += 1
            seen = 0
            for x in subset:
                seen |= masks[x]
            if seen.bit_count() * den < rate * len(subset):
                return ExpansionCertificate(
                    side, n_src, len(adj_dst), w_src, c, epsilon, mode, "fail",
                    witness=subset, subsets_checked=checked, **extra)
    return ExpansionCertificate(side, n_src, len(adj_dst), w_src, c, epsilon, mode, "pass",
                                subsets_checked=checked, **extra)


def unique_neighbors(graph: BipartiteGraph, side: int, subset: Iterable[int]) -> frozenset[int]:
    """Opposite-side vertices adjacent to exactly one member of `subset`,
    read as a set."""
    adj = graph.adj0 if side == 0 else graph.adj1
    size = graph.v0_size if side == 0 else graph.v1_size
    counts: dict[int, int] = {}
    for x in set(subset):
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


# -- flow-based ownership partition -----------------------------------------


@dataclass(frozen=True)
class TreePartition:
    """Disjoint ownership of a target subset v1 by source vertices.

    assignment[x0] is the set of v1-vertices owned by x0; the sets partition
    v1 and each x0 keeps at most threshold = floor(epsilon * w0) neighbors in
    v1 unowned (its leftover degree).  Both dicts are keyed by N(v1) in
    ascending order: a V0 vertex not next to v1 is absent, which means it owns
    nothing and leaves nothing over.
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
    invariant violation rather than silently weakened ownership.  A flow that
    saturates the source cut is maximal, so no cut is computed.

    The flow runs on the vertex ids themselves, as the tests' generic
    `max_flow_integer` oracle runs it on this network: shortest augmenting
    paths, each vertex's residual arcs visited in the order the network
    would insert them (the source's in ascending V0 order; a V0 vertex's to
    its v1 neighbors in adjacency order; a v1 vertex's to the sink, then back
    to its owner).  Every path ends on a
    unit sink arc, so each carries one unit, and a v1 vertex holds at most
    one: its owner.  A search ends at the first v1 vertex it finds without
    an owner, where the network's, which takes vertices in the order it
    finds them, reaches the sink.  So the flow, and every ownership, is the
    network's.

    The work is local to v1: only N(v1) can own a vertex or keep a leftover,
    so no other V0 vertex is visited or listed (the graph's regularity verdict
    is computed once per graph).
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
    threshold = epsilon.numerator * w0 // epsilon.denominator
    v1_set = set(v1)
    v0 = sorted(neighbors(graph, 1, v1))
    adj0 = graph.adj0
    inside = {x0: [y for y in adj0[x0] if y in v1_set] for x0 in v0}
    room = {x0: max(len(ys) - threshold, 0) for x0, ys in inside.items()}
    required = sum(room.values())

    owner: dict[int, int] = {}           # v1 vertex -> the V0 vertex sending it a unit
    value = 0
    while value < required:
        # BFS from the source; came[x0] is the v1 vertex x0 was reached from
        # (None: from the source), reached[y] the V0 vertex y was reached from.
        came: dict[int, Optional[int]] = {x0: None for x0 in v0 if room[x0]}
        reached: dict[int, int] = {}
        queue = list(came)
        end = None
        for x0 in queue:
            for y in inside[x0]:
                if y in reached or owner.get(y) == x0:
                    continue
                reached[y] = x0
                back = owner.get(y)
                if back is None:
                    end = y
                    break
                if back not in came:
                    came[back] = y
                    queue.append(back)
            if end is not None:
                break
        if end is None:
            break
        y = end
        while True:
            x0 = reached[y]
            owner[y] = x0
            y = came[x0]
            if y is None:
                room[x0] -= 1
                break
        value += 1
    if value < required:
        raise InternalInvariantError(
            f"ownership flow is {value} < {required}; the expansion "
            "hypothesis asserted by the caller fails on this subset"
        )

    for x1 in v1:
        if x1 not in owner:
            if not graph.adj1[x1]:
                raise PreconditionError(
                    f"target vertex {x1} has no neighbors; nothing can own it"
                )
            # Top-up: any neighbor may own an unclaimed vertex; lowest index
            # is chosen for determinism.
            owner[x1] = graph.adj1[x1][0]
    owned: dict[int, set[int]] = {x0: set() for x0 in v0}
    for y, x0 in owner.items():
        owned[x0].add(y)
    assignment = {x0: frozenset(ys) for x0, ys in owned.items()}
    leftover = {x0: len(inside[x0]) - len(ys) for x0, ys in owned.items()}
    return TreePartition(assignment, leftover, value, threshold)
