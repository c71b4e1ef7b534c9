"""Small-set-flip decoding of Z errors on a product-complex CSS code.

Given the X syndrome (a subset of V11), the decoder repeatedly picks a V00
vertex and a subset pair of its V10/V01 neighborhoods whose flip clears at
least beta = 1 - 12*epsilon of the syndrome bits it changes, applies the
flip, and updates only the affected syndromes and their neighboring V00
vertices.  With epsilon < 1/24 (beta > 1/2) each applied flip strictly
shrinks the syndrome, so the number of flips is at most the initial syndrome
weight and every flip costs work bounded by the (constant) degrees.

The initial candidate scan is syndrome-local when beta > 0: a flip at a V00
vertex only changes the V11 cells two edges away from it, so a vertex that
reaches no lit cell has cleared = 0 and cannot pass cleared >= beta*changed.
Only the vertices next to lit cells are scanned, and the work is bounded by
the degrees times the syndrome weight.  With beta <= 0 a flip that clears
nothing can pass, so every V00 vertex is scanned.

The decoder reads only the four edge classes of the complex, which the
chain condition checks; the faces are used by the region diagnostics alone.

X errors decode through the transposed complex; the construction is
symmetric under swapping the two check classes.

A single decode is strictly sequential.  Independent decodes may run in
parallel over a shared immutable code; each owns its state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .css import CssCode, extract_code
from .errors import InternalInvariantError, PreconditionError, ValidationError
from .expansion import ExpansionCertificate, TreePartition
from .gf2 import F2Vector
from .product import BalancedProductComplex

_FLIP_CACHE_LIMIT = 1 << 12   # per-vertex subset tables above this are not cached


@dataclass(frozen=True)
class DecoderConfig:
    """Decoder parameters: the loss fraction epsilon fixes beta = 1 - 12*epsilon.

    epsilon < 1/24 makes beta > 1/2, which is what guarantees strict syndrome
    decrease; larger epsilon is allowed but then the iteration cap is the only
    termination guarantee.
    """

    epsilon: Fraction
    iteration_cap: int = 1 << 16
    keep_flip_sets: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.epsilon < 0:
            raise ValidationError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.iteration_cap <= 0:
            raise ValidationError("iteration cap must be positive")

    @property
    def beta(self) -> Fraction:
        return 1 - 12 * self.epsilon

    @property
    def guaranteed_progress(self) -> bool:
        return self.epsilon < Fraction(1, 24)


@dataclass(frozen=True)
class FlipCheck:
    flippable: bool
    changed_count: int
    cleared_count: int


@dataclass(frozen=True)
class TraceStep:
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
    """Adjacency and per-vertex flip masks for one code, built once."""

    def __init__(self, code: CssCode) -> None:
        cpx = code.cpx
        if cpx is None:
            raise PreconditionError("decoding needs a code extracted from a complex")
        self.code = code
        self.cpx = cpx
        tmp10: list[list[int]] = [[] for _ in range(cpx.v00_size)]
        tmp01: list[list[int]] = [[] for _ in range(cpx.v00_size)]
        for z00, z10 in cpx.edges_v00_v10:
            tmp10[z00].append(z10)
        for z00, z01 in cpx.edges_v00_v01:
            tmp01[z00].append(z01)
        self.n10: list[tuple[int, ...]] = [tuple(sorted(v)) for v in tmp10]
        self.n01: list[tuple[int, ...]] = [tuple(sorted(v)) for v in tmp01]
        self.v11_of_v10: list[int] = [0] * cpx.v10_size
        for z10, z11 in cpx.edges_v10_v11:
            self.v11_of_v10[z10] |= 1 << z11
        self.v11_of_v01: list[int] = [0] * cpx.v01_size
        for z01, z11 in cpx.edges_v01_v11:
            self.v11_of_v01[z01] |= 1 << z11
        # The V00 vertices two edges away from each V11 cell, through V10 or
        # V01: exactly the vertices whose flips can change that cell.
        v00s: list[list[int]] = [[] for _ in range(cpx.v11_size)]
        for x00 in range(cpx.v00_size):
            reach = 0
            for q in self.n10[x00]:
                reach |= self.v11_of_v10[q]
            for q in self.n01[x00]:
                reach |= self.v11_of_v01[q]
            for z11 in _bit_indices(reach):
                v00s[z11].append(x00)
        self.v00_of_v11: list[tuple[int, ...]] = [tuple(v) for v in v00s]
        self._flip_cache: dict[int, tuple[list[int], list[int]]] = {}

    def flip_tables(self, x00: int) -> tuple[list[int], list[int]]:
        """Subset-indexed syndrome-flip masks for both neighborhoods of x00."""
        cached = self._flip_cache.get(x00)
        if cached is not None:
            return cached
        tables = (
            _subset_masks([self.v11_of_v10[q] for q in self.n10[x00]]),
            _subset_masks([self.v11_of_v01[q] for q in self.n01[x00]]),
        )
        if (1 << (len(self.n10[x00]) + len(self.n01[x00]))) <= _FLIP_CACHE_LIMIT:
            self._flip_cache[x00] = tables
        return tables


def _bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _subset_masks(singles: list[int]) -> list[int]:
    out = [0] * (1 << len(singles))
    for s in range(1, len(out)):
        low = s & -s
        out[s] = out[s ^ low] ^ singles[low.bit_length() - 1]
    return out


_INDEX_ATTR = "_decoder_index"


def _index_for(code: CssCode) -> _DecoderIndex:
    idx = getattr(code, _INDEX_ATTR, None)
    if idx is None:
        idx = _DecoderIndex(code)
        object.__setattr__(code, _INDEX_ATTR, idx)
    return idx


def _checked_index(code: CssCode, syndrome: F2Vector) -> _DecoderIndex:
    idx = _index_for(code)
    if syndrome.length != idx.cpx.v11_size:
        raise ValidationError(
            f"syndrome length {syndrome.length} != |V11| = {idx.cpx.v11_size}"
        )
    return idx


def flippable(
    code: CssCode,
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
    are defined non-flippable: they would never make progress.
    """
    idx = _checked_index(code, syndrome)
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
    synd = syndrome.to_mask()
    changed = mask.bit_count()
    cleared = (mask & synd).bit_count()
    beta = Fraction(beta)
    ok = changed > 0 and cleared * beta.denominator >= beta.numerator * changed
    return FlipCheck(ok, changed, cleared)


def _first_flippable(
    idx: _DecoderIndex, synd: int, x00: int, beta_num: int, beta_den: int
) -> tuple[Optional[tuple[int, int, int, int, int]], int]:
    """First flippable subset pair at x00 in ascending (mask10, mask01) order.

    Returns (found, tested): found is (mask10, mask01, flip_mask, changed,
    cleared) or None, and tested counts the nonempty pairs tried, the found
    one included.
    """
    t10, t01 = idx.flip_tables(x00)
    width = len(t01)
    for m10, f10 in enumerate(t10):
        for m01 in range(0 if m10 else 1, width):
            flip = f10 ^ t01[m01]
            changed = flip.bit_count()
            if changed == 0:
                continue
            cleared = (flip & synd).bit_count()
            if cleared * beta_den >= beta_num * changed:
                return (m10, m01, flip, changed, cleared), m10 * width + m01
    return None, len(t10) * width - 1


@dataclass(frozen=True)
class PreprocessResult:
    queue: tuple[int, ...]
    vertices_scanned: int
    subsets_tested: int


def preprocess_candidates(code: CssCode, syndrome: F2Vector, beta: Fraction) -> PreprocessResult:
    """Find every V00 vertex with at least one flippable subset pair.

    The queue lists, in ascending vertex order, exactly the vertices that
    admit a flippable pair against the given syndrome.  When beta > 0 only
    the vertices two edges away from a lit V11 cell are scanned: any other
    vertex changes no lit cell, so every flip there has cleared = 0 and
    fails cleared >= beta * changed.  When beta <= 0 such a flip can pass
    and every V00 vertex is scanned.  Work is recorded as the vertices
    scanned and the subset pairs tested on them.
    """
    idx = _checked_index(code, syndrome)
    beta = Fraction(beta)
    synd = syndrome.to_mask()
    if beta > 0:
        candidates: Sequence[int] = sorted(
            {x00 for z11 in _bit_indices(synd) for x00 in idx.v00_of_v11[z11]})
    else:
        candidates = range(idx.cpx.v00_size)
    queue = []
    tested = 0
    for x00 in candidates:
        found, pairs = _first_flippable(idx, synd, x00, beta.numerator, beta.denominator)
        tested += pairs
        if found is not None:
            queue.append(x00)
    return PreprocessResult(tuple(queue), len(candidates), tested)


def decode(code: CssCode, syndrome: F2Vector, config: DecoderConfig) -> DecodeResult:
    """Run the small-set-flip loop until the syndrome clears or no candidate
    survives re-testing.

    The candidate queue is FIFO over V00 indices.  A popped vertex is always
    re-tested against the current syndrome before being applied (queue entries
    go stale as flips land); the subset pair is re-searched at pop time, first
    found in ascending subset order.  After a flip, only the changed syndromes
    and their neighboring V00 vertices are re-examined.  The initial scan is
    syndrome-local when beta > 0 and covers all of V00 when beta <= 0 (see
    `preprocess_candidates`); with beta > 0 its work is bounded by the
    degrees times the initial syndrome weight.
    """
    idx = _checked_index(code, syndrome)
    beta = config.beta
    bn, bd = beta.numerator, beta.denominator
    synd = syndrome.to_mask()
    initial_weight = synd.bit_count()

    pre = preprocess_candidates(code, syndrome, beta)
    queue = deque(pre.queue)
    queued = set(pre.queue)
    correction = 0
    v10_size = code.v10_size
    trace: list[TraceStep] = []
    stale_pops = 0
    iterations = 0

    while synd and queue and iterations < config.iteration_cap:
        x00 = queue.popleft()
        queued.discard(x00)
        found, _ = _first_flippable(idx, synd, x00, bn, bd)
        if found is None:
            stale_pops += 1
            continue
        m10, m01, flip, changed, cleared = found
        n10_bits = [idx.n10[x00][i] for i in _bit_indices(m10)]
        n01_bits = [idx.n01[x00][i] for i in _bit_indices(m01)]
        for q in n10_bits:
            correction ^= 1 << q
        for q in n01_bits:
            correction ^= 1 << (v10_size + q)
        synd ^= flip
        iterations += 1

        rescan: set[int] = set()
        for z11 in _bit_indices(flip):
            rescan.update(idx.v00_of_v11[z11])
        for y00 in sorted(rescan):
            if y00 in queued:
                continue
            if _first_flippable(idx, synd, y00, bn, bd)[0] is not None:
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
            rescanned_vertices=len(rescan),
            n10=tuple(n10_bits) if config.keep_flip_sets else (),
            n01=tuple(n01_bits) if config.keep_flip_sets else (),
        ))

    if synd == 0:
        outcome = "success"
    elif iterations >= config.iteration_cap:
        outcome = "capped"
    else:
        outcome = "stalled"
    return DecodeResult(
        outcome=outcome,
        correction=F2Vector.from_mask(code.n, correction),
        iterations=iterations,
        initial_syndrome_weight=initial_weight,
        trace=tuple(trace),
        stale_pops=stale_pops,
        preprocess_vertices_scanned=pre.vertices_scanned,
        preprocess_subsets_tested=pre.subsets_tested,
    )


def decode_x(code: CssCode, syndrome_z: F2Vector, config: DecoderConfig) -> DecodeResult:
    """Decode an X error from its Z syndrome (a subset of V00).

    Runs the Z decoder on the transposed complex (V00 and V11 swap roles,
    V10 and V01 swap blocks) and maps the correction back to the original
    qubit coordinates.  Trace steps stay in transpose coordinates: x00 there
    names a V11 cell of the original complex.
    """
    cpx = code.cpx
    if cpx is None:
        raise PreconditionError("decoding needs a code extracted from a complex")
    tcode = _transposed_code(code)
    result = decode(tcode, syndrome_z, config)
    old_v01 = cpx.v01_size
    support = set()
    for b in result.correction.support:
        if b < old_v01:
            support.add(code.v10_size + b)       # transposed V10 block = old V01
        else:
            support.add(b - old_v01)             # transposed V01 block = old V10
    return replace(result, correction=F2Vector.from_support(code.n, support))


_TRANSPOSE_ATTR = "_transposed_code"


def _transposed_code(code: CssCode) -> CssCode:
    tcode = getattr(code, _TRANSPOSE_ATTR, None)
    if tcode is None:
        tcode = extract_code(code.cpx.transposed())
        object.__setattr__(code, _TRANSPOSE_ATTR, tcode)
    return tcode


# -- eligibility gates and the guaranteed decoding radius ---------------------


@dataclass(frozen=True)
class SizeGates:
    """Eligibility bounds on the two error blocks of a locally minimal error.

    Two inequivalent pairings of the factor constants appear for these gates
    (which factor's small-set fraction is divided by which side's degree);
    both are computed, the conservative minimum is what downstream consumers
    gate on, and `binding` records which pairing binds each block.
    """

    v10_a: Fraction
    v01_a: Fraction
    v10_b: Fraction
    v01_b: Fraction

    @property
    def v10(self) -> Fraction:
        return min(self.v10_a, self.v10_b)

    @property
    def v01(self) -> Fraction:
        return min(self.v01_a, self.v01_b)

    @property
    def binding(self) -> dict[str, str]:
        return {
            "v10": "a" if self.v10_a <= self.v10_b else "b",
            "v01": "a" if self.v01_a <= self.v01_b else "b",
        }


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
    Here |V0x|, |V0y| are the factors' source-side sizes.
    """
    if cpx.degrees is None:
        raise PreconditionError("size gates need biregular factors")
    d = cpx.degrees
    sx = Fraction(cert_x.c * cert_x.v_src_size)
    sy = Fraction(cert_y.c * cert_y.v_src_size)
    cx_on_y = cert_x.c * cert_y.v_src_size
    cy_on_x = cert_y.c * cert_x.v_src_size
    return SizeGates(
        v10_a=min(sx / d.up, sy),
        v01_a=min(sy / d.left, sx),
        v10_b=min(cy_on_x / d.left, cx_on_y),
        v01_b=min(cx_on_y / d.up, cy_on_x),
    )


def guaranteed_correctable_weight(
    cpx: BalancedProductComplex,
    cert_x: ExpansionCertificate,
    cert_y: ExpansionCertificate,
    epsilon: Fraction,
    pairing: str = "min",
) -> Fraction:
    """Error weights strictly below this bound decode back to the codeword.

    min(down, right) * (1/2 - 6 epsilon) * (min(gate_v10/down, gate_v01/right) - 1),
    with the gates taken from pairing "a", "b", or their minimum.
    """
    if cpx.degrees is None:
        raise PreconditionError("the radius needs biregular factors")
    epsilon = Fraction(epsilon)
    gates = size_gates(cpx, cert_x, cert_y)
    if pairing == "a":
        g10, g01 = gates.v10_a, gates.v01_a
    elif pairing == "b":
        g10, g01 = gates.v10_b, gates.v01_b
    elif pairing == "min":
        g10, g01 = gates.v10, gates.v01
    else:
        raise ValidationError(f"pairing must be 'a', 'b', or 'min', got {pairing!r}")
    d = cpx.degrees
    inner = min(Fraction(g10, d.down), Fraction(g01, d.right)) - 1
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
    epsilon: Optional[Fraction]

    @property
    def counting_bound_ok(self) -> bool:
        return self.unique_total >= (self.touched_total - self.stray_total
                                     - self.multihit_total - 2 * self.excess_total)

    @property
    def chain_ok(self) -> Optional[bool]:
        if self.epsilon is None:
            return None
        factor = 1 - 12 * self.epsilon
        return (self.syndrome_weight >= self.unique_total
                and Fraction(self.unique_total) >= factor * self.touched_total
                and Fraction(self.unique_total) >= factor * self.flipped_total)


def region_diagnostics(
    cpx: BalancedProductComplex,
    v10: Iterable[int],
    v01: Iterable[int],
    part10: TreePartition,
    part01: TreePartition,
    epsilon: Optional[Fraction] = None,
) -> RegionReport:
    """Classify every face against an error and its ownership partitions.

    part10 must partition v10 among V00 owners within the V00-V10 subgraph,
    and part01 likewise for v01; violated partition invariants are a
    precondition error.  The returned report carries exact counts; the
    unconditional counting bound is verified here and a violation raises,
    since it cannot fail for valid inputs.
    """
    v10_set = frozenset(v10)
    v01_set = frozenset(v01)
    _check_partition(cpx, "v00_v10", v10_set, part10)
    _check_partition(cpx, "v00_v01", v01_set, part01)

    owner10: dict[int, int] = {}
    for x00, owned in part10.assignment.items():
        for q in owned:
            owner10[q] = x00
    owner01: dict[int, int] = {}
    for x00, owned in part01.assignment.items():
        for q in owned:
            owner01[q] = x00

    # Degree of each V11 corner into the error, for uniqueness and multihit.
    deg_v10_at_v11: dict[int, int] = {}
    for z10, z11 in cpx.edges_v10_v11:
        if z10 in v10_set:
            deg_v10_at_v11[z11] = deg_v10_at_v11.get(z11, 0) + 1
    deg_v01_at_v11: dict[int, int] = {}
    for z01, z11 in cpx.edges_v01_v11:
        if z01 in v01_set:
            deg_v01_at_v11[z11] = deg_v01_at_v11.get(z11, 0) + 1
    unique_v11 = {
        z11
        for z11 in range(cpx.v11_size)
        if deg_v10_at_v11.get(z11, 0) + deg_v01_at_v11.get(z11, 0) == 1
    }
    syndrome = {
        z11
        for z11 in range(cpx.v11_size)
        if (deg_v10_at_v11.get(z11, 0) + deg_v01_at_v11.get(z11, 0)) % 2 == 1
    }

    per: dict[int, dict[str, int]] = {}
    flip_parity: dict[int, dict[int, int]] = {}
    for z00, z10, z01, z11 in cpx.faces:
        owned10 = owner10.get(z10) == z00
        owned01 = owner01.get(z01) == z00
        in10 = z10 in v10_set
        in01 = z01 in v01_set
        if not (owned10 or owned01 or in10 or in01):
            continue
        counts = per.setdefault(z00, _zero_counts())
        if owned10 != owned01:
            counts["touched"] += 1
            if owned10 and in01 and not owned01:
                counts["stray"] += 1
            if owned01 and in10 and not owned10:
                counts["stray"] += 1
            if owned10 and deg_v10_at_v11.get(z11, 0) > 1:
                counts["multihit"] += 1
            if owned01 and deg_v01_at_v11.get(z11, 0) > 1:
                counts["multihit"] += 1
        if (in10 and not owned10) and (in01 and not owned01):
            counts["unowned_pairs"] += 1
        if owned10 or owned01:
            parity = flip_parity.setdefault(z00, {})
            if owned10 != owned01:
                parity[z11] = parity.get(z11, 0) ^ 1
            # Both coordinates owned flips the corner twice: parity unchanged.

    for z00, parity in flip_parity.items():
        counts = per.setdefault(z00, _zero_counts())
        flipped = [z11 for z11, p in parity.items() if p]
        counts["flipped"] = len(flipped)
        counts["lit"] = sum(1 for z11 in flipped if z11 in syndrome)
        counts["unique"] = sum(1 for z11 in flipped if z11 in unique_v11)

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
        epsilon=Fraction(epsilon) if epsilon is not None else None,
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
    graph = cpx.subgraph(which)
    seen: set[int] = set()
    for x00, owned in part.assignment.items():
        if not 0 <= x00 < graph.v0_size:
            raise PreconditionError(f"partition owner {x00} outside V00")
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
