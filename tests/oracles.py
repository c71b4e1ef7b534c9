"""Reference implementations the tests compare the package against.

Each computes, by the direct method, something a faster path of the package
computes, or a check a test runs on a package result; no command and no
benchmark op runs them, so they live here and not in the package:

* `solve` and `from_alist`: a linear solve by eliminating [A | b], and the
  alist reader, the inverse of `gf2.to_alist`.
* `minimal_coset_representative`: the least normalized weight error with a
  given syndrome, by listing the whole coset.
* `greedy_flip_reduce` and `is_locally_minimal`: single Hz-row reduction of
  the normalized weight.
* `flippable`: the decoder's test of one candidate flip.
* `max_flow_integer`: integral max flow on a generic network, which
  `expansion.tree_partition` reproduces on vertex ids.
* `verify_tree_partition`: every invariant of a tree partition, recomputed.
* `adjacency_by_vertex_sort`: a graph's neighbor lists, appended in
  edge-set order and sorted per vertex.
* `masks_by_edge`, `boundary_1_by_edge`, `v00_map_by_qubit` and
  `col_masks_by_row`: the loops that packed bit rows before `gf2.pack`,
  the first two ORing bits in edge-set order.
* `transpose`: a matrix's transpose, read off its column view.
* `complex_to_json_by_lists`: the complex writer that copied every row of
  every table into a new list.
* `check_endpoints_by_min_max`: the endpoint check over a complex's edge
  sets, by two min and two max passes per class, and
  `subgraphs_by_oracle`, the loader's subgraphs built after it from that
  check and `adjacency_by_vertex_sort`, unseeded by any ascending rows.
* `transposed`: the dual complex, with V00 and V11 swapped.
* `boundary_2`: the V00 map of a complex, rows indexed by qubits, the
  transpose of the Hz that `extract_code` packs.
* `mat_mul` and `verify_chain_condition`: the GF(2) matrix product, and the
  chain condition decided by multiplying a complex's two boundary maps,
  which the builder's proof and the loader's checks stand in for.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, NamedTuple, Optional

from qbp import gf2
from qbp.css import CssCode, _key_weights
from qbp.decoder import _CodeOrComplex, _first_flippable, _index_for, _packed
from qbp.errors import InternalInvariantError, PreconditionError, ShapeError, ValidationError
from qbp.expansion import TreePartition
from qbp.gf2 import F2Matrix, F2Vector, _eliminate
from qbp.graphs import BipartiteGraph, GraphAction, regularity
from qbp.product import SUBGRAPHS, BalancedProductComplex, DegreeProfile

from fixtures import from_entries

__all__ = [
    "ChainCheck", "FlipCheck", "FlipReduction", "FlowNetwork", "MaxFlowResult",
    "MinimalRepresentative", "TreePartitionAudit", "adjacency_by_vertex_sort", "boundary_1_by_edge",
    "boundary_2", "check_endpoints_by_min_max", "col_masks_by_row", "complex_to_json_by_lists",
    "flippable", "from_alist", "greedy_flip_reduce",
    "is_locally_minimal", "masks_by_edge", "mat_mul", "max_flow_integer",
    "minimal_coset_representative", "reduce_by_pivot_scan", "solve", "subgraphs_by_oracle",
    "transpose", "transposed", "v00_map_by_qubit", "verify_chain_condition", "verify_tree_partition",
]

Node = Hashable


# -- gf2 -----------------------------------------------------------------------


def solve(a: F2Matrix, b: F2Vector) -> Optional[F2Vector]:
    """One solution x of A x = b, or None when the system is inconsistent.

    Eliminates [A | b], with b as column `a.cols`.  The system is
    inconsistent exactly when that column is a pivot; otherwise setting each
    free variable to 0 leaves each pivot variable equal to bit `a.cols` of
    its pivot row.
    """
    if a.rows != b.length:
        raise ShapeError(f"rhs length {b.length} != row count {a.rows}")
    target = b.to_mask()
    rhs = 1 << a.cols
    pivots = _eliminate(m | rhs if target >> r & 1 else m for r, m in enumerate(a.row_masks))
    if rhs in pivots:
        return None
    x = 0
    for low, row in pivots.items():
        if row & rhs:
            x |= low
    return F2Vector.from_mask(a.cols, x)


def mat_mul(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Matrix product over GF(2); entry (i, j) is the parity of the usual sum."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for mask in a.row_masks:
        acc = 0
        for c in gf2.bits(mask):
            acc ^= b.row_masks[c]
        out.append(acc)
    return F2Matrix(a.rows, b.cols, tuple(out))


def reduce_by_pivot_scan(space: gf2.RowSpace, v_mask: int) -> int:
    """The residue of v modulo a row space, as `RowSpace.reduce_mask` found it
    before it read the pivot mask: every pivot row in ascending pivot column,
    added when the running residue holds that column."""
    for low, row in sorted(space.pivots.items()):
        col = low.bit_length() - 1
        if v_mask & (1 << col):
            v_mask ^= row
    return v_mask


def from_alist(text: str) -> F2Matrix:
    """Parse alist text (zero padding tolerated, unpadded lines too)."""
    if not isinstance(text, str):
        raise ValidationError(f"alist must be text, got {type(text).__name__}")
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    try:
        cols, rows = (int(x) for x in lines[0])
        col_w = [int(x) for x in lines[2]]
        row_w = [int(x) for x in lines[3]]
        if len(col_w) != cols or len(row_w) != rows:
            raise ValidationError("alist weight lists disagree with header")
        entries = set()
        for c in range(cols):
            vals = [int(x) for x in lines[4 + c] if int(x) != 0]
            if len(vals) != col_w[c]:
                raise ValidationError(f"alist column {c} has {len(vals)} indices, expected {col_w[c]}")
            for r in vals:
                entries.add((r - 1, c))
        for r in range(rows):
            vals = [int(x) for x in lines[4 + cols + r] if int(x) != 0]
            if len(vals) != row_w[r]:
                raise ValidationError(f"alist row {r} has {len(vals)} indices, expected {row_w[r]}")
            for c in vals:
                if (r, c - 1) not in entries:
                    raise ValidationError(f"alist row/column lists disagree at ({r},{c - 1})")
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed alist: {exc}") from exc
    return from_entries(rows, cols, entries)


# -- css -----------------------------------------------------------------------


class MinimalRepresentative(NamedTuple):
    vector: F2Vector
    v10_weight: int
    v01_weight: int
    normalized_weight: Fraction


def minimal_coset_representative(code: CssCode, syndrome: F2Vector) -> MinimalRepresentative:
    """The least normalized weight error with the given syndrome, ties to the
    smaller mask.

    Lists the whole coset, a particular solution plus every vector of
    ker(Hx), and compares the integer key |v10| right + |v01| down; the
    weight returned is that key over down * right.  2^dim ker(Hx) vectors are
    held at once, so this is for desk-sized codes only.
    """
    particular = solve(code.hx, syndrome)
    if particular is None:
        raise ValidationError("syndrome is not in the image of Hx")
    d, split = code.degrees, code.v10_size
    low_block = (1 << split) - 1
    coset = [particular.to_mask()]
    for v in gf2.kernel_masks(code.hx):
        coset += [m ^ v for m in coset]
    key, mask = min((d.right * (m & low_block).bit_count() + d.down * (m >> split).bit_count(), m)
                    for m in coset)
    v10_weight = (mask & low_block).bit_count()
    return MinimalRepresentative(F2Vector.from_mask(code.n, mask), v10_weight,
                                 mask.bit_count() - v10_weight, Fraction(key, d.down * d.right))


@dataclass(frozen=True)
class FlipReduction:
    vector: F2Vector
    iterations: int


def greedy_flip_reduce(code: CssCode, c1: F2Vector) -> FlipReduction:
    """Add single Hz rows (columns of the V00 -> qubits map) while the
    normalized weight strictly drops; the result is locally minimal and has
    the same syndrome as the input.

    Weights are compared through the exact integer key of `_key_weights`,
    key(m) = a|m & V10| + b|m & V01|.  Adding Hz row r changes it by
    key(r) - 2 key(m & r); a row disjoint from m can only raise it, so each
    step tries only the rows that meet m's support, in ascending row order,
    and takes the first one whose addition strictly lowers the key.  The
    output is therefore deterministic.
    """
    if c1.length != code.n:
        raise ValidationError(f"vector length {c1.length} != n = {code.n}")
    if code.degrees is None:
        raise PreconditionError("normalized reduction needs recorded degrees")
    split = code.v10_size
    low_block = (1 << split) - 1
    a, b = _key_weights(code)

    def key(m: int) -> int:
        return a * (m & low_block).bit_count() + b * (m >> split).bit_count()

    rows = code.hz.row_masks             # row i of Hz = column i of the V00 map
    row_keys = [key(r) for r in rows]
    rows_at = code.hz.col_masks          # qubit -> the Hz rows containing it
    mask = c1.to_mask()
    iterations = 0
    while True:
        touched = 0
        for q in gf2.bits(mask):
            touched |= rows_at[q]
        for i in gf2.bits(touched):
            if 2 * key(mask & rows[i]) > row_keys[i]:
                break
        else:
            return FlipReduction(F2Vector.from_mask(code.n, mask), iterations)
        mask ^= rows[i]
        iterations += 1


def is_locally_minimal(code: CssCode, c1: F2Vector) -> bool:
    """No single Hz-row addition decreases the normalized weight.

    Weight ties do not disqualify: the comparison is strict decrease.
    """
    reduced = greedy_flip_reduce(code, c1)
    return reduced.iterations == 0


# -- decoder -------------------------------------------------------------------


@dataclass(frozen=True)
class FlipCheck:
    flippable: bool
    changed_count: int
    cleared_count: int


def flippable(
    code: _CodeOrComplex,
    syndrome: F2Vector,
    x00: int,
    n10: Iterable[int],
    n01: Iterable[int],
    beta: Fraction,
) -> FlipCheck:
    """Test one candidate flip against the current syndrome.

    The flip of n10 (subset of the V10 neighborhood of x00) and n01 (subset
    of the V01 neighborhood) passes when every changed syndrome count is
    nonzero and cleared >= beta * changed.  Empty flips change nothing and
    are defined non-flippable: they would never make progress.  beta must
    be positive, as in the decoder.  The test is the decoder's own search
    kernel, run on this one pair.
    """
    beta = Fraction(beta)
    if beta <= 0:
        raise PreconditionError(f"the flip test needs beta > 0, got beta = {beta}")
    idx = _index_for(code, "z")
    synd = _packed(idx, syndrome)
    if not 0 <= x00 < len(idx.n10):
        raise PreconditionError(f"center x00 = {x00} is outside V00 = 0..{len(idx.n10) - 1}")
    s10 = set(n10)
    s01 = set(n01)
    if not s10 <= set(idx.n10[x00]):
        raise PreconditionError(f"n10 is not a subset of the V10 neighborhood of {x00}")
    if not s01 <= set(idx.n01[x00]):
        raise PreconditionError(f"n01 is not a subset of the V01 neighborhood of {x00}")
    mask = 0
    for q in s10:
        mask ^= idx.v11_of_v10[q]
    for q in s01:
        mask ^= idx.v11_of_v01[q]
    found, _ = _first_flippable([mask], idx.ruler, synd, beta.numerator, beta.denominator)
    return FlipCheck(found is not None, mask.bit_count(), (mask & synd).bit_count())


# -- expansion -----------------------------------------------------------------


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
    leftover <= epsilon * w0 (and no leftover recorded outside V0), and the
    majorization of the sorted leftover sequence by {epsilon*w0 repeated
    ceil((w1/(epsilon*w0)) |v1|) times} (skipped when epsilon * w0 = 0 and
    all leftovers are zero).
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
        # An owner outside V0 has no neighborhood to hold what it owns.
        if owned and not (0 <= x0 < graph.v0_size and owned <= set(graph.adj0[x0])):
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
    # A vertex outside V0 has no neighbors, so it leaves nothing over.
    if any(n and not 0 <= x0 < graph.v0_size for x0, n in part.leftover.items()):
        leftover_ok = False

    if bound == 0:
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


# -- graphs --------------------------------------------------------------------


def adjacency_by_vertex_sort(graph: BipartiteGraph) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(adj0, adj1) built edge by edge in edge-set order, then each vertex's
    list sorted: the builder that `graphs.adjacency_lists` replaced."""
    out0: list[list[int]] = [[] for _ in range(graph.v0_size)]
    for x0, x1 in graph.edges:
        out0[x0].append(x1)
    out1: list[list[int]] = [[] for _ in range(graph.v1_size)]
    for x0, x1 in graph.edges:
        out1[x1].append(x0)
    return tuple(map(tuple, map(sorted, out0))), tuple(map(tuple, map(sorted, out1)))


def masks_by_edge(graph: BipartiteGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(masks0, masks1) ORed edge by edge in edge-set order."""
    out0 = [0] * graph.v0_size
    for x0, x1 in graph.edges:
        out0[x0] |= 1 << x1
    out1 = [0] * graph.v1_size
    for x0, x1 in graph.edges:
        out1[x1] |= 1 << x0
    return tuple(out0), tuple(out1)


# -- packed matrices -----------------------------------------------------------


def col_masks_by_row(a: F2Matrix) -> tuple[int, ...]:
    """A matrix's column view, one row's bit at a time."""
    masks = [0] * a.cols
    for r, m in enumerate(a.row_masks):
        bit = 1 << r
        for c in gf2.bits(m):
            masks[c] |= bit
    return tuple(masks)


# -- product -------------------------------------------------------------------


def boundary_1_by_edge(cpx: BalancedProductComplex) -> F2Matrix:
    """Hx: V11 rows over the V10 then the V01 qubits, ORed edge by edge in
    the edge sets' order."""
    rows, shift = [0] * cpx.v11_size, cpx.v10_size
    for z10, z11 in cpx.edges_v10_v11:
        rows[z11] |= 1 << z10
    for z01, z11 in cpx.edges_v01_v11:
        rows[z11] |= 1 << (shift + z01)
    return F2Matrix(cpx.v11_size, cpx.n_qubits, tuple(rows))


def v00_map_by_qubit(cpx: BalancedProductComplex) -> F2Matrix:
    """Hz: V00 rows over the qubits, one qubit's bit at a time from the V00
    subgraphs' V1-side lists."""
    rows = [0] * cpx.v00_size
    qubit_cells = (*cpx.subgraph("v00_v10").adj1, *cpx.subgraph("v00_v01").adj1)
    for q, cells in enumerate(qubit_cells):
        bit = 1 << q
        for z00 in cells:
            rows[z00] |= bit
    return F2Matrix(cpx.v00_size, cpx.n_qubits, tuple(rows))




def complex_to_json_by_lists(cpx: BalancedProductComplex) -> dict:
    """The complex file's data with every row copied into a new list."""
    d = cpx.degrees
    return {
        "v00": cpx.v00_size,
        "v10": cpx.v10_size,
        "v01": cpx.v01_size,
        "v11": cpx.v11_size,
        "reps_v00": list(map(list, cpx.reps_v00)),
        "reps_v10": list(map(list, cpx.reps_v10)),
        "reps_v01": list(map(list, cpx.reps_v01)),
        "reps_v11": list(map(list, cpx.reps_v11)),
        "edges_v00_v10": list(map(list, sorted(cpx.edges_v00_v10))),
        "edges_v01_v11": list(map(list, sorted(cpx.edges_v01_v11))),
        "edges_v00_v01": list(map(list, sorted(cpx.edges_v00_v01))),
        "edges_v10_v11": list(map(list, sorted(cpx.edges_v10_v11))),
        "faces": list(map(list, sorted(cpx.faces))),
        "degrees": {"down": d.down, "up": d.up, "right": d.right, "left": d.left}
        if d else None,
        "group_order": cpx.group_order,
        "provenance": cpx.provenance,
    }


def check_endpoints_by_min_max(cpx: BalancedProductComplex) -> None:
    """Every edge must join a vertex of its first class to one of its second,
    decided by one min and one max per end of each class's edge set; a
    refusal names the smallest bad edge of the first bad class."""
    for which, size0, size1 in (("v10_v11", cpx.v10_size, cpx.v11_size),
                                ("v01_v11", cpx.v01_size, cpx.v11_size),
                                ("v00_v10", cpx.v00_size, cpx.v10_size),
                                ("v00_v01", cpx.v00_size, cpx.v01_size)):
        edges = getattr(cpx, f"edges_{which}")
        if not edges:
            continue
        # Pairs order by their first end, so min and max of the pairs bound it.
        if (min(edges)[0] < 0 or max(edges)[0] >= size0
                or min(e[1] for e in edges) < 0
                or max(e[1] for e in edges) >= size1):
            a, b = min(e for e in edges if not (0 <= e[0] < size0 and 0 <= e[1] < size1))
            raise ValidationError(
                f"edge ({a}, {b}) in edges_{which} has an endpoint outside its "
                f"class (sizes {size0} and {size1})"
            )


def subgraphs_by_oracle(cpx: BalancedProductComplex, rows: object = None) -> dict:
    """The four subgraphs of `cpx`, in the signature of
    `product._subgraphs_from_rows` but ignoring its rows: the endpoints
    checked by `check_endpoints_by_min_max`, then each graph's lists set
    from `adjacency_by_vertex_sort`."""
    check_endpoints_by_min_max(cpx)
    sizes = {"v00": cpx.v00_size, "v10": cpx.v10_size,
             "v01": cpx.v01_size, "v11": cpx.v11_size}
    out = {}
    for which in SUBGRAPHS:
        first, second = which.split("_")
        graph = BipartiteGraph(sizes[first], sizes[second], getattr(cpx, f"edges_{which}"))
        graph.__dict__[BipartiteGraph.adjacency.attrname] = adjacency_by_vertex_sort(graph)
        out[which] = graph
    return out


def transpose(a: F2Matrix) -> F2Matrix:
    """The transpose of a matrix: its column view, as rows."""
    return F2Matrix(a.cols, a.rows, a.col_masks)


def boundary_2(cpx: BalancedProductComplex) -> F2Matrix:
    """F2^{V00} -> F2^{V10} (+) F2^{V01}: one row per qubit, the V10 then the
    V01 cells, holding that cell's V00 neighbours, packed from the edges."""
    rows = [0] * cpx.n_qubits
    for z00, z10 in cpx.edges_v00_v10:
        rows[z10] |= 1 << z00
    for z00, z01 in cpx.edges_v00_v01:
        rows[cpx.v10_size + z01] |= 1 << z00
    return F2Matrix(cpx.n_qubits, cpx.v00_size, tuple(rows))


def transposed(cpx: BalancedProductComplex) -> BalancedProductComplex:
    """The dual complex: V00 and V11 swap roles, as do V10 and V01.

    It carries each factor graph with its sides reversed and each action
    with its v0 and v1 swapped, the factors of which it is the product;
    transposing twice gives back the complex, provenance aside.
    """
    return BalancedProductComplex(
        reps_v00=cpx.reps_v11,
        reps_v10=cpx.reps_v01,
        reps_v01=cpx.reps_v10,
        reps_v11=cpx.reps_v00,
        edges_v00_v10=_rev(cpx.edges_v01_v11),
        edges_v01_v11=_rev(cpx.edges_v00_v10),
        edges_v00_v01=_rev(cpx.edges_v10_v11),
        edges_v10_v11=_rev(cpx.edges_v00_v01),
        faces=frozenset((f[3], f[2], f[1], f[0]) for f in cpx.faces),
        degrees=DegreeProfile(cpx.degrees.up, cpx.degrees.down,
                              cpx.degrees.left, cpx.degrees.right)
        if cpx.degrees else None,
        group_order=cpx.group_order,
        factor_x=_reversed(cpx.factor_x),
        factor_y=_reversed(cpx.factor_y),
        action_x=_swapped(cpx.action_x),
        action_y=_swapped(cpx.action_y),
        provenance=f"transpose of [{cpx.provenance}]",
    )


def _rev(edges: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    return frozenset((b, a) for a, b in edges)


def _reversed(graph: Optional[BipartiteGraph]) -> Optional[BipartiteGraph]:
    return None if graph is None else BipartiteGraph(graph.v1_size, graph.v0_size,
                                                     _rev(graph.edges))


def _swapped(action: Optional[GraphAction]) -> Optional[GraphAction]:
    return None if action is None else GraphAction(action.group, action.v1, action.v0)


@dataclass(frozen=True)
class ChainCheck:
    ok: bool
    witness_column: Optional[int] = None


def verify_chain_condition(cpx: BalancedProductComplex) -> ChainCheck:
    """Check that the two composite maps V00 -> V11 cancel over GF(2), by
    multiplying them; on failure report the first V00 column whose image is
    nonzero."""
    columns = 0
    for row in mat_mul(cpx.boundary_1, boundary_2(cpx)).row_masks:
        columns |= row
    if not columns:
        return ChainCheck(True)
    return ChainCheck(False, (columns & -columns).bit_length() - 1)
