"""Small-set-flip decoding of Z and X errors on a product-complex CSS code.

Given the X syndrome (a subset of V11), the decoder repeatedly picks a V00
vertex and a subset pair of its V10/V01 neighborhoods whose flip clears at
least beta = 1 - 12*epsilon of the syndrome bits it changes, applies the
flip, and re-tests only the flipped vertex and the V00 vertices next to the
checks the flip newly lit.  With epsilon < 1/24 (beta > 1/2) each applied
flip strictly shrinks the syndrome, so the number of flips is at most the
initial syndrome weight and every flip costs work bounded by the (constant)
degrees.

The re-test rule is exact: it queues the same vertices, in the same order,
as re-testing every vertex next to a changed check.  Every flippable vertex
is queued at the top of each iteration (the initial scan finds them all, and
the rule below keeps it so).  A pair's test cleared >= beta*changed has a
fixed changed count, and its cleared count moves only with the checks the
flip changed: it drops by the lit ones the pair reaches and grows by the
newly lit ones.  So an unqueued vertex other than the flipped one, which was
not flippable, stays so unless it reaches a newly lit check.  With
epsilon = 0 (beta = 1) an applied flip lights nothing, and only the flipped
vertex is re-tested.

A center's test walks its subset pairs in ascending (mask10, mask01) order
by prefix XORs (see `_first_flippable`): one XOR and two popcounts per pair,
from |N10| + |N01| masks per center.  That state is linear in the degree,
not exponential like a table per subset, so the index holds it for every
center and needs no cache or size limit.  A dead center, none of whose
prefix masks meets the syndrome, is not walked: every flip there is an XOR
of its prefixes, so it clears nothing, and as beta > 0 no pair passes
cleared >= beta*changed.  The test returns what the walk would, `tested`
included, after one AND per prefix.  On i.i.d. errors more than half of
the loop's pops and re-tests land on such centers.

The correction is kept as a set of qubit indices, toggled per flip, and
becomes an `F2Vector` once at the end, so no flip touches an n-bit
integer for it.  Trace steps are named tuples, which cost less than half
as much to build as frozen dataclasses.

The initial candidate scan is syndrome-local: a flip at a V00 vertex only
changes the V11 cells two edges away from it, so a vertex that reaches no
lit cell has cleared = 0 and, as beta > 0, cannot pass cleared >=
beta*changed.  Only the vertices next to lit cells are scanned, and the work
is bounded by the degrees times the syndrome weight.

The decoder reads only the edge classes of the complex, through its
subgraphs' adjacency and packed masks, and caches its index there; a code
read off a complex stands for it.  On the X side the index's check masks are
the V00 masks of the qubits, the rows of the complex's V00 map: Hz's
columns, so a code read off the complex and its X index share one copy.
Faces serve the diagnostics.

X errors decode by the same search on the same complex with V00 and V11,
and V10 and V01, swapped: the order the transposed complex would give, so
no second complex is built and corrections and traces are in the code's
own coordinates.

A single decode is strictly sequential.  Independent decodes may run in
parallel over a shared immutable complex; each owns its state.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, chain
from operator import or_, xor
from typing import Iterable, NamedTuple, Optional

from .css import CssCode
from .errors import (
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
    ShapeError,
    ValidationError,
)
from .expansion import ExpansionCertificate, TreePartition
from .gf2 import F2Vector, bits
from .product import BalancedProductComplex

_PAIR_BITS_LIMIT = 20   # a V00 vertex with |N10| + |N01| above this is refused
_CodeOrComplex = CssCode | BalancedProductComplex   # what the decoder's entry points take


@dataclass(frozen=True)
class DecoderConfig:
    """Decoder parameters: the loss fraction epsilon fixes beta = 1 - 12*epsilon.

    epsilon < 1/24 makes beta > 1/2, which is what guarantees strict syndrome
    decrease; epsilon in [1/24, 1/12) is allowed but then the iteration cap is
    the only termination guarantee.  epsilon >= 1/12 (beta <= 0) is rejected:
    a flip that clears nothing passes the test, so the decoder never stalls
    and runs to the cap while the syndrome grows.
    """

    epsilon: Fraction
    iteration_cap: int = 1 << 16
    keep_flip_sets: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.epsilon < 0:
            raise ValidationError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.epsilon >= Fraction(1, 12):
            raise ValidationError(
                f"epsilon must be below 1/12 so that beta = 1 - 12*epsilon > 0, "
                f"got {self.epsilon}"
            )
        if self.iteration_cap <= 0:
            raise ValidationError("iteration cap must be positive")

    @cached_property
    def beta(self) -> Fraction:
        return 1 - 12 * self.epsilon

    @property
    def guaranteed_progress(self) -> bool:
        return self.epsilon < Fraction(1, 24)


class TraceStep(NamedTuple):
    """One applied flip.  updated_syndromes is the number of checks it
    changed (cleared + created), and rescanned_vertices the number of
    vertices next to those checks: the vertices whose tests the flip can
    reach, of which only x00 and those next to a created check are re-tested.
    """

    iteration: int
    x00: int
    n10_size: int
    n01_size: int
    cleared: int
    created: int
    syndrome_after: int
    updated_syndromes: int
    rescanned_vertices: int
    n10: tuple[int, ...] = ()
    n01: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "x00": self.x00,
            "n10": self.n10_size,
            "n01": self.n01_size,
            "cleared": self.cleared,
            "created": self.created,
            "syndrome_after": self.syndrome_after,
        }


@dataclass(frozen=True)
class DecodeResult:
    outcome: str                  # "success", "stalled", or "capped"
    correction: F2Vector
    iterations: int
    initial_syndrome_weight: int
    trace: tuple[TraceStep, ...]
    stale_pops: int
    preprocess_vertices_scanned: int
    preprocess_subsets_tested: int

    @property
    def max_updated_syndromes(self) -> int:
        return max((s.updated_syndromes for s in self.trace), default=0)

    @property
    def max_rescanned_vertices(self) -> int:
        return max((s.rescanned_vertices for s in self.trace), default=0)

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "iterations": self.iterations,
            "initial_syndrome_weight": self.initial_syndrome_weight,
            "correction_support": sorted(self.correction.support),
            "stale_pops": self.stale_pops,
            "preprocess_vertices_scanned": self.preprocess_vertices_scanned,
            "preprocess_subsets_tested": self.preprocess_subsets_tested,
            "max_updated_syndromes": self.max_updated_syndromes,
            "max_rescanned_vertices": self.max_rescanned_vertices,
        }


class _DecoderIndex:
    """Adjacency and per-center prefix masks for one side of a complex, built
    once from its own subgraph adjacency and packed masks.

    Side "z" has V00 centers, flips over V10 then V01, and V11 checks; side
    "x" has V11 centers, flips over V01 then V10, and V00 checks.  Names are
    the Z side's: on the X side n10 lists V01 cells and n01 V10 cells.

    A center's flip search reads only the prefix XORs of its cells' check
    masks, N01 cells first (see `_first_flippable`): one mask per cell, held
    for every center.  The one ruler is sized to the widest center.
    """

    def __init__(self, cpx: BalancedProductComplex, side: str) -> None:
        self.n = cpx.n_qubits
        g10, g01 = cpx.subgraph("v00_v10"), cpx.subgraph("v00_v01")
        h10, h01 = cpx.subgraph("v10_v11"), cpx.subgraph("v01_v11")
        if side == "z":
            centers, self.checks, self.check_count = "V00", "V11", cpx.v11_size
            self.n10, self.n01 = g10.adj0, g01.adj0
            self.v11_of_v10, self.v11_of_v01 = h10.masks0, h01.masks0
            self.offsets = (0, cpx.v10_size)        # qubit index of n10, n01 cell 0
        else:
            centers, self.checks, self.check_count = "V11", "V00", cpx.v00_size
            self.n10, self.n01 = h01.adj1, h10.adj1
            self.v11_of_v10, self.v11_of_v01 = g01.masks1, g10.masks1
            self.offsets = (cpx.v10_size, 0)
        # The centers two edges away from each check, through either flip
        # class: exactly the centers whose flips can change that check.
        v00s: list[list[int]] = [[] for _ in range(self.check_count)]
        self.prefixes: list[list[int]] = []
        for x00, (a, b) in enumerate(zip(self.n10, self.n01)):
            # The flip search enumerates 2^(|N10| + |N01|) subset pairs here.
            if len(a) + len(b) > _PAIR_BITS_LIMIT:
                raise BudgetExceededError(
                    f"{centers} vertex {x00} has |N10| + |N01| = {len(a) + len(b)}: its "
                    f"flip pairs exceed the budget of 2^{_PAIR_BITS_LIMIT}")
            masks = [self.v11_of_v01[q] for q in b] + [self.v11_of_v10[q] for q in a]
            self.prefixes.append(list(accumulate(masks, xor)))
            for z11 in bits(reduce(or_, masks, 0)):
                v00s[z11].append(x00)
        self.v00_of_v11: list[tuple[int, ...]] = [tuple(v) for v in v00s]
        # ruler[c] is the number of trailing zeros of c > 0.  It covers c = 1
        # even when no center has a neighbor, for the one-mask walk of the
        # tests' `flippable` oracle.
        width = max(1, max(map(len, self.prefixes), default=0))
        self.ruler: list[int] = [(c & -c).bit_length() - 1 for c in range(1 << width)]


def _index_for(source: _CodeOrComplex, side: str) -> _DecoderIndex:
    """The decoder index of one side ("z" or "x") of a complex, cached on it.  A
    code stands for its complex, and is refused unless its matrices are its maps."""
    if isinstance(source, CssCode) and not source._maps_of_complex:
        raise PreconditionError("decoding needs a code whose matrices are its complex's maps")
    cpx = source.cpx if isinstance(source, CssCode) else source
    if side not in cpx.decoder_indexes:
        cpx.decoder_indexes[side] = _DecoderIndex(cpx, side)
    return cpx.decoder_indexes[side]


def _packed(idx: _DecoderIndex, syndrome: F2Vector) -> int:
    """The syndrome as a mask over the index's checks, refused on a wrong length."""
    if syndrome.length != idx.check_count:
        raise ValidationError(
            f"syndrome length {syndrome.length} != |{idx.checks}| = {idx.check_count}"
        )
    return syndrome.to_mask()


def _first_flippable(
    prefix: list[int], ruler: list[int], synd: int, beta_num: int, beta_den: int
) -> tuple[Optional[tuple[int, int, int, int]], int]:
    """First flippable subset pair of one center, in ascending (mask10,
    mask01) order, by one prefix-XOR walk.

    Pair c = mask10 * 2^|N01| + mask01 flips the cells at the set bits of c,
    N01 cells first.  From c - 1 to c the bits up to the lowest set bit of c
    flip, so the flip mask moves by prefix[ruler[c]].

    A center none of whose prefix masks meets the syndrome is not walked:
    every flip there is an XOR of prefixes, so it clears nothing, and with
    beta_num > 0 (which every caller holds) no pair passes.  The result is
    the one the walk would give.

    Returns (found, tested): found is (c, flip_mask, changed, cleared) or
    None, and tested counts the nonempty pairs tried, the found one
    included.
    """
    end = 1 << len(prefix)
    for p in prefix:
        if p & synd:
            break
    else:
        return None, end - 1
    flip = 0
    for c in range(1, end):
        flip ^= prefix[ruler[c]]
        changed = flip.bit_count()
        if changed == 0:
            continue
        cleared = (flip & synd).bit_count()
        if cleared * beta_den >= beta_num * changed:
            return (c, flip, changed, cleared), c
    return None, end - 1


def _preprocess(idx: _DecoderIndex, synd: int, beta: Fraction) -> tuple[list[int], int, int]:
    """The initial candidate scan (see the module docstring): the V00
    vertices next to a lit cell that admit a flippable pair, in ascending
    order, with the vertices scanned and the subset pairs tested on them."""
    prefixes, ruler, v00_of_v11 = idx.prefixes, idx.ruler, idx.v00_of_v11
    bn, bd = beta.numerator, beta.denominator
    candidates = sorted({x00 for z11 in bits(synd) for x00 in v00_of_v11[z11]})
    queue = []
    tested = 0
    for x00 in candidates:
        found, pairs = _first_flippable(prefixes[x00], ruler, synd, bn, bd)
        tested += pairs
        if found is not None:
            queue.append(x00)
    return queue, len(candidates), tested


def decode(code: _CodeOrComplex, syndrome: F2Vector, config: DecoderConfig) -> DecodeResult:
    """Run the small-set-flip loop until the syndrome clears or no candidate
    survives re-testing.

    The candidate queue is FIFO over V00 indices.  A popped vertex is always
    re-tested against the current syndrome before being applied (queue entries
    go stale as flips land); the subset pair is re-searched at pop time, first
    found in ascending subset order.  After a flip, only the flipped vertex
    and the unqueued V00 vertices next to a newly lit check are re-tested, in
    ascending order; no other vertex can have become flippable (see the
    module docstring).  The initial scan (`_preprocess`) runs on the
    syndrome packed here once; its work is bounded by the degrees times the
    initial syndrome weight.
    """
    idx = _index_for(code, "z")
    return _decode(idx, _packed(idx, syndrome), config)


def decode_x(code: _CodeOrComplex, syndrome_z: F2Vector, config: DecoderConfig) -> DecodeResult:
    """Decode an X error from its Z syndrome (a subset of V00).

    The loop of `decode` with V00 and V11, and V10 and V01, swapped: the
    candidates are V11 cells and a flip ranges over a cell's V01 and then
    its V10 neighbors.  The correction is in the code's qubit coordinates;
    trace steps name the V11 cell as x00, and n10/n01 list V01/V10 cells.
    """
    idx = _index_for(code, "x")
    return _decode(idx, _packed(idx, syndrome_z), config)


def _decode(idx: _DecoderIndex, synd: int, config: DecoderConfig) -> DecodeResult:
    """The candidate scan and the flip loop from the packed syndrome."""
    beta = config.beta
    first, scanned, tested = _preprocess(idx, synd, beta)
    bn, bd = beta.numerator, beta.denominator
    prefixes, ruler, v00_of_v11 = idx.prefixes, idx.ruler, idx.v00_of_v11
    keep_flip_sets = config.keep_flip_sets
    initial_weight = synd.bit_count()

    queue = deque(first)
    queued = set(first)
    correction: set[int] = set()          # support of the correction, in qubit indices
    off10, off01 = idx.offsets
    trace: list[TraceStep] = []
    stale_pops = 0
    iterations = 0

    while synd and queue and iterations < config.iteration_cap:
        x00 = queue.popleft()
        queued.discard(x00)
        found, _ = _first_flippable(prefixes[x00], ruler, synd, bn, bd)
        if found is None:
            stale_pops += 1
            continue
        c, flip, changed, cleared = found
        n10, n01 = idx.n10[x00], idx.n01[x00]
        n10_bits = [n10[i] for i in bits(c >> len(n01))]
        n01_bits = [n01[i] for i in bits(c & ((1 << len(n01)) - 1))]
        correction.symmetric_difference_update([off10 + q for q in n10_bits])
        correction.symmetric_difference_update([off01 + q for q in n01_bits])
        synd ^= flip
        iterations += 1

        # Only x00 and the centers next to a newly lit check can have turned
        # flippable (proof in the module docstring).
        near: set[int] = set()
        retest = {x00}
        lit = flip & synd
        for z11 in bits(flip):
            centers = v00_of_v11[z11]
            near.update(centers)
            if lit >> z11 & 1:
                retest.update(centers)
        for y00 in sorted(retest):
            if y00 in queued:
                continue
            if _first_flippable(prefixes[y00], ruler, synd, bn, bd)[0] is not None:
                queue.append(y00)
                queued.add(y00)
        trace.append(TraceStep(
            iteration=iterations,
            x00=x00,
            n10_size=len(n10_bits),
            n01_size=len(n01_bits),
            cleared=cleared,
            created=changed - cleared,
            syndrome_after=synd.bit_count(),
            updated_syndromes=changed,
            rescanned_vertices=len(near),
            n10=tuple(n10_bits) if keep_flip_sets else (),
            n01=tuple(n01_bits) if keep_flip_sets else (),
        ))

    if synd == 0:
        outcome = "success"
    elif iterations >= config.iteration_cap:
        outcome = "capped"
    else:
        outcome = "stalled"
    return DecodeResult(
        outcome=outcome,
        correction=F2Vector(idx.n, frozenset(correction)),
        iterations=iterations,
        initial_syndrome_weight=initial_weight,
        trace=tuple(trace),
        stale_pops=stale_pops,
        preprocess_vertices_scanned=scanned,
        preprocess_subsets_tested=tested,
    )


def z_syndrome(code: _CodeOrComplex, error: F2Vector) -> F2Vector:
    """The X syndrome (a subset of V11) of a Z error: the XOR of Hx's columns
    at the error's qubits, read from the Z decoder index's check masks (V10
    cells, then V01 cells), so Hx's column masks are never built."""
    idx = _index_for(code, "z")
    if error.length != idx.n:
        raise ShapeError(f"error length {error.length} != n = {idx.n}")
    v11_of_v10, v11_of_v01 = idx.v11_of_v10, idx.v11_of_v01
    v10_size = idx.offsets[1]
    synd = 0
    for q in error.support:
        synd ^= v11_of_v10[q] if q < v10_size else v11_of_v01[q - v10_size]
    return F2Vector.from_mask(idx.check_count, synd)


# -- eligibility gates and the guaranteed decoding radius ---------------------


@dataclass(frozen=True)
class SizeGates:
    """Eligibility bounds on the two error blocks of a locally minimal error.

    Two inequivalent pairings of the factor constants appear for these gates
    (which factor's small-set fraction is divided by which side's degree);
    each gate is the conservative minimum over both pairings.
    """

    v10: Fraction
    v01: Fraction


def size_gates(
    cpx: BalancedProductComplex,
    cert_x: ExpansionCertificate,
    cert_y: ExpansionCertificate,
) -> SizeGates:
    """Strict upper bounds |v10| < gate.v10, |v01| < gate.v01 for eligibility.

    Pairing "a": v10 < min(c_x |V0x| / up, c_y |V0y|),
                 v01 < min(c_y |V0y| / left, c_x |V0x|).
    Pairing "b": v10 < min(c_y |V0x| / left, c_x |V0y|),
                 v01 < min(c_x |V0y| / up, c_y |V0x|).
    Each gate is the smaller of its two pairings.  Here |V0x|, |V0y| are the
    factors' source-side sizes.
    """
    if cpx.degrees is None:
        raise PreconditionError("size gates need biregular factors")
    d = cpx.degrees
    d.require_positive("size gates", "up", "left")
    sx = Fraction(cert_x.c * cert_x.v_src_size)
    sy = Fraction(cert_y.c * cert_y.v_src_size)
    cx_on_y = cert_x.c * cert_y.v_src_size
    cy_on_x = cert_y.c * cert_x.v_src_size
    return SizeGates(
        v10=min(sx / d.up, sy, cy_on_x / d.left, cx_on_y),
        v01=min(sy / d.left, sx, cx_on_y / d.up, cy_on_x),
    )


def guaranteed_correctable_weight(
    cpx: BalancedProductComplex,
    cert_x: ExpansionCertificate,
    cert_y: ExpansionCertificate,
    epsilon: Fraction,
) -> Fraction:
    """Error weights strictly below this bound decode back to the codeword.

    min(down, right) * (1/2 - 6 epsilon) * (min(gate_v10/down, gate_v01/right) - 1),
    with the gates of `size_gates`.
    """
    if cpx.degrees is None:
        raise PreconditionError("the radius needs biregular factors")
    cpx.degrees.require_positive("the radius", "down", "up", "right", "left")
    epsilon = Fraction(epsilon)
    gates = size_gates(cpx, cert_x, cert_y)
    d = cpx.degrees
    inner = min(Fraction(gates.v10, d.down), Fraction(gates.v01, d.right)) - 1
    return min(d.down, d.right) * (Fraction(1, 2) - 6 * epsilon) * inner


# -- region diagnostics ---------------------------------------------------------


@dataclass(frozen=True)
class RegionReport:
    """Face-level accounting of one candidate flip family.

    Given an error (v10, v01) and ownership partitions n10(.), n01(.), every
    face whose flip would touch its V11 corner is classified:

      touched:  faces with exactly one owned coordinate (the main term)
      stray:    touched faces whose unowned coordinate is an unowned error
      multihit: touched faces whose corner sees the error more than once
      excess:   stray faces plus faces with both coordinates unowned errors

    flipped counts the corners actually flipped per owner (odd parity),
    lit those flipped corners currently carrying syndrome, and unique those
    that are unique neighbors of the whole error.  The counting bound
    |unique| >= |touched| - |stray| - |multihit| - 2|excess| holds
    unconditionally; the chain |syndrome| >= |unique| >= (1-12e)|flipped|
    additionally needs the expansion hypotheses and is reported, not raised.
    """

    touched_total: int
    stray_total: int
    multihit_total: int
    excess_total: int
    flipped_total: int
    lit_total: int
    unique_total: int
    syndrome_weight: int
    per_vertex: dict[int, dict[str, int]]
    epsilon: Fraction

    @property
    def counting_bound_ok(self) -> bool:
        return self.unique_total >= (self.touched_total - self.stray_total
                                     - self.multihit_total - 2 * self.excess_total)

    @property
    def chain_ok(self) -> Optional[bool]:
        """None when 1 - 12e <= 0: the chain bound is then vacuous."""
        factor = 1 - 12 * self.epsilon
        if factor <= 0:
            return None
        return (self.syndrome_weight >= self.unique_total
                and Fraction(self.unique_total) >= factor * self.touched_total
                and Fraction(self.unique_total) >= factor * self.flipped_total)


def region_diagnostics(
    cpx: BalancedProductComplex,
    v10: Iterable[int],
    v01: Iterable[int],
    part10: TreePartition,
    part01: TreePartition,
    epsilon: Fraction,
) -> RegionReport:
    """Classify every face against an error and its ownership partitions.

    part10 must partition v10 among V00 owners within the V00-V10 subgraph,
    and part01 likewise for v01; violated partition invariants are a
    precondition error.  The returned report carries exact counts; the
    unconditional counting bound is verified here and a violation raises,
    since it cannot fail for valid inputs.

    Only faces through an error qubit can be classified (an owned coordinate
    is an error qubit too), so the scan starts from the complex's per-qubit
    face index and the V11 cells next to the error; its work is proportional
    to the cells the error touches, not to the complex.
    """
    v10_set = frozenset(v10)
    v01_set = frozenset(v01)
    _check_partition(cpx, "v00_v10", v10_set, part10)
    _check_partition(cpx, "v00_v01", v01_set, part01)

    owner10 = {q: x00 for x00, owned in part10.assignment.items() for q in owned}
    owner01 = {q: x00 for x00, owned in part01.assignment.items() for q in owned}

    # Degree of each V11 corner into the error, for uniqueness and multihit.
    adj10, adj01 = cpx.subgraph("v10_v11").adj0, cpx.subgraph("v01_v11").adj0
    deg_v10_at_v11 = Counter(chain.from_iterable(map(adj10.__getitem__, v10_set)))
    deg_v01_at_v11 = Counter(chain.from_iterable(map(adj01.__getitem__, v01_set)))
    deg_at_v11 = deg_v10_at_v11 + deg_v01_at_v11
    unique_v11 = {z11 for z11, k in deg_at_v11.items() if k == 1}
    syndrome = {z11 for z11, k in deg_at_v11.items() if k % 2 == 1}

    at10, at01 = cpx.faces_at_qubit
    faces = [f for q in v10_set for f in at10.get(q, ())]
    faces += [f for q in v01_set for f in at01.get(q, ()) if f[1] not in v10_set]

    per: dict[int, dict[str, int]] = {}
    # Parity of the flips each owner makes at each corner.  Only a touched
    # face flips its corner: one with both coordinates owned flips it twice.
    parity: dict[tuple[int, int], int] = {}
    for z00, z10, z01, z11 in faces:
        owned10 = owner10.get(z10) == z00
        owned01 = owner01.get(z01) == z00
        in10 = z10 in v10_set
        in01 = z01 in v01_set
        counts = per.get(z00)
        if counts is None:
            counts = per[z00] = _zero_counts()
        if owned10 != owned01:
            counts["touched"] += 1
            # The unowned coordinate is stray when it is an error qubit, and
            # the owned one multihit when its corner sees the error again.
            if owned10:
                counts["stray"] += in01
                counts["multihit"] += deg_v10_at_v11.get(z11, 0) > 1
            else:
                counts["stray"] += in10
                counts["multihit"] += deg_v01_at_v11.get(z11, 0) > 1
            parity[z00, z11] = parity.get((z00, z11), 0) ^ 1
        if (in10 and not owned10) and (in01 and not owned01):
            counts["unowned_pairs"] += 1

    for (z00, z11), p in parity.items():
        if p:
            counts = per[z00]            # set by the face that flipped the corner
            counts["flipped"] += 1
            counts["lit"] += z11 in syndrome
            counts["unique"] += z11 in unique_v11

    totals = _zero_counts()
    for counts in per.values():
        for key in totals:
            totals[key] += counts[key]
    excess = totals["stray"] + totals["unowned_pairs"]

    report = RegionReport(
        touched_total=totals["touched"],
        stray_total=totals["stray"],
        multihit_total=totals["multihit"],
        excess_total=excess,
        flipped_total=totals["flipped"],
        lit_total=totals["lit"],
        unique_total=totals["unique"],
        syndrome_weight=len(syndrome),
        per_vertex=per,
        epsilon=Fraction(epsilon),
    )
    if not report.counting_bound_ok:
        raise InternalInvariantError(
            "region counting bound failed: "
            f"unique={report.unique_total}, touched={report.touched_total}, "
            f"stray={report.stray_total}, multihit={report.multihit_total}, "
            f"excess={report.excess_total}"
        )
    for counts in per.values():
        if counts["unique"] > counts["lit"]:
            raise InternalInvariantError(
                "a flipped unique neighbor without syndrome cannot exist"
            )
    return report


def _zero_counts() -> dict[str, int]:
    return {"touched": 0, "stray": 0, "multihit": 0, "unowned_pairs": 0,
            "flipped": 0, "lit": 0, "unique": 0}


def _check_partition(
    cpx: BalancedProductComplex,
    which: str,
    target: frozenset[int],
    part: TreePartition,
) -> None:
    """Owners lie in V00 (one min and max over them); the owned sets are
    disjoint, inside their owners' neighborhoods and cover target."""
    graph = cpx.subgraph(which)
    owners = part.assignment
    if owners and (min(owners) < 0 or max(owners) >= graph.v0_size):
        x00 = next(x for x in owners if not 0 <= x < graph.v0_size)
        raise PreconditionError(f"partition owner {x00} outside V00")
    seen: set[int] = set()
    for x00, owned in owners.items():
        if owned & seen:
            raise PreconditionError(f"partition for {which} is not disjoint")
        seen |= owned
        if not owned <= set(graph.adj0[x00]):
            raise PreconditionError(
                f"partition for {which} assigns non-neighbors to {x00}"
            )
    if seen != target:
        raise PreconditionError(
            f"partition for {which} covers {sorted(seen)}, expected {sorted(target)}"
        )
