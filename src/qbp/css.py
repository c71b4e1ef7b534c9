"""CSS codes extracted from product complexes, and their exact oracles.

A product complex yields the code with X checks indexed by V11, Z checks by
V00, and qubits by V10 followed by V01.  The commuting condition
Hx Hz^T = 0 is the chain condition; a code read off a complex reuses the
complex's one chain-condition verdict, and a code given as bare matrices
applies Hx to each row of Hz.

Distance oracles cover whole kernels (budgeted), so every reported value is
exact.  They read the kernel through the bit-sliced span kernel
`gf2.span_planes`: the 2^dim combinations of a kernel basis come in blocks
of at most 2^12, and a block is one 2^12-bit plane per qubit (bit j is the
qubit's value in combination j).  Weights, keys, local minimality and
minima are bit-sliced integer arithmetic on those planes, with no loop over
vectors.  A side keeps its first block on the code and a call derives one
later block at a time: at most 512 bytes per qubit and stabilizer residue
coordinate for each, plus O(log n) planes for each sum, however large the
kernel.  Normalized weights |v10|/down + |v01|/right are compared
through the integer key |v10|*right + |v01|*down, which orders them exactly
(down, right > 0); a Fraction is built only where one is returned.
Stabilizer membership comes from residues: reduction modulo a row space is
linear over GF(2), so the basis residues are sliced alongside the qubits.
Each side's kernel comes from one helper, `_kernel`, which derives it
once per code and checks the budget on every call: the basis with its
residues, sliced into its first block, and that block's weight digits.
ker(Hx) is shared by the two Z-side oracles, so it is sliced
and weighed once whichever of them runs first.  The residues' pivot
columns are read straight off `gf2._eliminate`.  Later blocks are derived
from the first as they are read, in ascending order, one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import add
from typing import Optional

from . import gf2
from .errors import OracleUnavailableError, PreconditionError, ValidationError
from .gf2 import F2Matrix, F2Vector
from .product import BalancedProductComplex, DegreeProfile

DEFAULT_KERNEL_BUDGET = 1 << 20


@dataclass(frozen=True)
class CssCode:
    """A CSS code (Hx, Hz) with Hx Hz^T = 0.

    Qubits 0..v10_size-1 are the V10 block, the rest the V01 block; the
    normalized weight of an error weights those blocks by 1/down and 1/right.
    When Hx and Hz are the maps of the attached complex, Hx Hz^T = 0 is the
    complex's chain-condition verdict, reused, and a complex that fails it
    is refused with its check's message; otherwise Hx is applied to each
    row of Hz.
    """

    hx: F2Matrix
    hz: F2Matrix
    v10_size: int
    degrees: Optional[DegreeProfile] = None
    cpx: Optional[BalancedProductComplex] = None

    def __post_init__(self) -> None:
        if self.hx.cols != self.hz.cols:
            raise ValidationError(
                f"Hx has {self.hx.cols} columns but Hz has {self.hz.cols}"
            )
        if self._maps_of_complex:
            # Hx is the complex's V11 map and Hz its V00 map, so Hx Hz^T = 0
            # is its chain condition: the verdict is True or raises.
            self.cpx.chain_check
        elif any(gf2.mat_vec_mask(self.hx, row) for row in self.hz.row_masks):
            raise ValidationError("Hx Hz^T != 0; not a CSS code")

    @property
    def n(self) -> int:
        return self.hx.cols

    @property
    def m_x(self) -> int:
        return self.hx.rows

    @property
    def m_z(self) -> int:
        return self.hz.rows

    @cached_property
    def _maps_of_complex(self) -> bool:
        """Whether Hx and Hz are the boundary maps of the attached complex."""
        cpx = self.cpx
        return (cpx is not None and self.hx.row_masks == cpx.boundary_1.row_masks
                and self.hz.col_masks == cpx.v00_columns)

    @property
    def weight(self) -> int:
        """Max stabilizer support and per-qubit total stabilizer count.

        Check weights are the bit counts of the packed rows, and so are the
        qubits' Z-check counts (Hz's columns are the rows of the V00 map).
        For a code read off its complex, a qubit's X-check count is its V11
        degree in the complex's subgraph adjacency, so Hx's column masks are
        never built; other codes count Hx's columns.
        """
        checks = max(self.hx.max_row_weight(), self.hz.max_row_weight())
        if self._maps_of_complex:
            g = self.cpx.subgraph
            x_counts = map(len, chain(g("v10_v11").adj0, g("v01_v11").adj0))
        else:
            x_counts = map(int.bit_count, self.hx.col_masks)
        return max(checks, max(map(add, x_counts, map(int.bit_count, self.hz.col_masks)),
                               default=0))

    @cached_property
    def z_stabilizers(self) -> gf2.RowSpace:
        """Row space of Hz: the trivial (stabilizer) Z operators."""
        return gf2.row_space(self.hz)

    @cached_property
    def x_stabilizers(self) -> gf2.RowSpace:
        """Row space of Hx: the trivial (stabilizer) X operators."""
        return gf2.row_space(self.hx)

    @cached_property
    def _kernels(self) -> dict[str, "_Kernel"]:
        """Each side's kernel with its residues, filled in by `_kernel`."""
        return {}

    def split_support(self, v: F2Vector) -> tuple[frozenset[int], frozenset[int]]:
        """Split a length-n vector into (V10 support, V01 support as V01 indices)."""
        if v.length != self.n:
            raise ValidationError(f"vector length {v.length} != n = {self.n}")
        s10 = frozenset(i for i in v.support if i < self.v10_size)
        s01 = frozenset(i - self.v10_size for i in v.support if i >= self.v10_size)
        return s10, s01


def extract_code(cpx: BalancedProductComplex) -> CssCode:
    """Read the CSS code off a verified complex.

    Hx is the qubits -> V11 map (m_x = |V11| rows), Hz the qubits -> V00 map
    (m_z = |V00| rows).  The complex's chain-condition verdict is read
    before either map is built: the builder and the loader preset it, and
    any other complex runs the loader's checks here, so one that a file of
    the same data would not load is refused with the loader's message.

    Hz is `cpx.v00_map()`, whose columns are the V00 subgraphs' packed
    masks, shared with the X decoder index.
    """
    cpx.chain_check                 # True, or the refusal of a loader check
    hx = cpx.boundary_1             # the first subgraph use checks every endpoint
    return CssCode(
        hx=hx,
        hz=cpx.v00_map(),
        v10_size=cpx.v10_size,
        degrees=cpx.degrees,
        cpx=cpx,
    )


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    m_x: int
    m_z: int
    weight: int
    rank_hx: int
    rank_hz: int
    rate_bound: Optional[Fraction] = None


def code_params(code: CssCode) -> CodeParams:
    """n, k and the degree-based rate bound (no distances).

    k = n - rank(Hx) - rank(Hz) >= n - m_x - m_z.  When all four degrees are
    recorded, the bound k/n >= (down-up)(left-right)/(down*left + up*right)
    is checked exactly and a violation raises (it would mean the construction
    itself is broken).
    """
    rank_hx = gf2.rank(code.hx)
    rank_hz = gf2.rank(code.hz)
    k = code.n - rank_hx - rank_hz
    if k < code.n - code.m_x - code.m_z:
        raise ValidationError("k fell below n - m_x - m_z; rank computation broken")
    bound = None
    d = code.degrees
    if d is not None and code.n and d.down * d.left + d.up * d.right > 0:
        bound = Fraction((d.down - d.up) * (d.left - d.right),
                         d.down * d.left + d.up * d.right)
        if Fraction(k, code.n) < bound:
            raise ValidationError(
                f"rate {Fraction(k, code.n)} violates the degree bound {bound}"
            )
    return CodeParams(
        n=code.n, k=k, m_x=code.m_x, m_z=code.m_z, weight=code.weight,
        rank_hx=rank_hx, rank_hz=rank_hz, rate_bound=bound,
    )


@dataclass(frozen=True)
class DistanceReport:
    which: str                      # "x" or "z"
    d: Optional[int]
    no_logicals: bool
    kernel_dim: int
    vectors_enumerated: int


def brute_distance(code: CssCode, which: str, budget: int = DEFAULT_KERNEL_BUDGET) -> DistanceReport:
    """Exact distance by kernel enumeration plus stabilizer-coset filtering.

    Parameters
    ----------
    code : CssCode
    which : str
        "z": minimum weight over ker(Hx) minus the row space of Hz.
        "x": minimum weight over ker(Hz) minus the row space of Hx.
    budget : int
        Refuse (oracle-unavailable) when the kernel holds more than this
        many vectors; the distance is left unset rather than approximated.
        A negative budget is refused up front.

    Returns
    -------
    DistanceReport
        d is None with no_logicals=True when the kernel equals the
        stabilizers (nothing nontrivial to measure).

    The kernel is read in bit-sliced blocks of at most 2^12 combinations
    (`gf2.span_planes`): a block's nontrivial combinations are the OR of its
    residue planes (`_with_residues`), its weights a carry-save count of its
    qubit planes, and its candidate the least weight among the nontrivial
    ones.  vectors_enumerated is 2^kernel_dim, every combination counted.
    """
    kernel, dim = _kernel(code, which, budget)
    best: Optional[int] = None
    for block in kernel.span:
        nontrivial = _nontrivial(block.planes, kernel.n)
        if nontrivial:
            w, _ = gf2.plane_min(kernel.weights(block), nontrivial)
            if best is None or w < best:
                best = w
    return DistanceReport(which, best, best is None, dim, 1 << dim)


@dataclass(frozen=True)
class _Kernel:
    """One side's kernel as `_with_residues` gives it, bit-sliced once.

    `span` slices the basis over the n qubits and the residue pivots, and
    `first_weights` holds its first block's qubit-weight digits, so every
    oracle on this side reads one slicing and one count of that block.
    """

    n: int
    span: gf2.SpanPlanes
    first_weights: list[int]

    def weights(self, block: gf2.SpanBlock) -> list[int]:
        """The digits of each combination's weight in a block of `span`."""
        if block.start == 0:
            return self.first_weights
        return gf2.plane_sum((p, 1) for p in block.planes[:self.n])


def _kernel(code: CssCode, which: str, budget: int) -> tuple[_Kernel, int]:
    """One side's kernel: ker(Hx) modulo the Hz row space for "z", ker(Hz)
    modulo the Hx row space for "x".

    Refused in this order: a negative budget (before any elimination), a
    side other than "x" or "z", and a kernel with more vectors than the
    budget.  The budget is checked on every call; each side is derived,
    sliced and its first block weighed once per code and shared by the
    oracles that read it.  Returns the kernel and its dimension.
    """
    if budget < 0:
        raise PreconditionError(f"need budget >= 0, got {budget}")
    if which == "z":
        matrix, other = code.hx, code.hz
    elif which == "x":
        matrix, other = code.hz, code.hx
    else:
        raise ValidationError(f"which must be 'x' or 'z', got {which!r}")
    dim = matrix.cols - gf2.rank(matrix)
    if 2 ** dim > budget:
        raise OracleUnavailableError(
            f"kernel has 2^{dim} vectors, over the budget of {budget}"
        )
    kernel = code._kernels.get(which)
    if kernel is None:
        masks, coords = _with_residues(gf2.kernel_masks(matrix), gf2.row_space(other), code.n)
        span = gf2.span_planes(masks, coords)
        first_weights = gf2.plane_sum((p, 1) for p in span.first.planes[:code.n])
        kernel = code._kernels[which] = _Kernel(code.n, span, first_weights)
    return kernel, dim


def _with_residues(masks: list[int], stabilizers: gf2.RowSpace,
                   n: int) -> tuple[list[int], list[int]]:
    """Kernel masks with their stabilizer residues above bit n, and the
    coordinates to slice: the n qubits, then n + each residue pivot column.

    Reduction modulo the stabilizer row space is linear, so a combination's
    residue is the same combination of the basis residues.  An element of
    the residues' span is 0 exactly when it is 0 on the pivot columns of
    their echelon form, so a combination is a stabilizer (the zero
    combination included) exactly when its k pivot planes are all clear.
    """
    residues = [stabilizers.reduce_mask(m) for m in masks]
    pivots = gf2._eliminate(residues)
    return ([m | r << n for m, r in zip(masks, residues)],
            [*range(n), *(n + low.bit_length() - 1 for low in pivots)])


def _nontrivial(planes: tuple[int, ...], n: int) -> int:
    """The combinations of a `_with_residues` block that are not stabilizers."""
    out = 0
    for plane in planes[n:]:
        out |= plane
    return out


def normalized_weight(code: CssCode, c1: F2Vector) -> Fraction:
    """|v10|/down + |v01|/right, as an exact rational."""
    if code.degrees is None:
        raise PreconditionError("normalized weight needs recorded degrees")
    code.degrees.require_positive("normalized weight", "down", "right")
    s10, s01 = code.split_support(c1)
    return Fraction(len(s10), code.degrees.down) + Fraction(len(s01), code.degrees.right)


def normalized_syndrome_weight(code: CssCode, c0: F2Vector) -> Fraction:
    """|c0| / (down * right), as an exact rational."""
    if code.degrees is None:
        raise PreconditionError("normalized weight needs recorded degrees")
    code.degrees.require_positive("normalized syndrome weight", "down", "right")
    return Fraction(c0.weight, code.degrees.down * code.degrees.right)


def _key_weights(code: CssCode) -> tuple[int, int]:
    """(a, b) = (right, down) of the integer weight key a|m & V10| + b|m & V01|,
    which is down*right times the normalized weight |v10|/down + |v01|/right.
    A zero degree leaves the normalized weight undefined and is refused.
    """
    code.degrees.require_positive("normalized weight", "down", "right")
    return code.degrees.right, code.degrees.down


@dataclass(frozen=True)
class LocallyMinimalDistanceReport:
    """Minimum weights over nonzero kernel vectors that are locally minimal
    in the normalized weight.

    d_lm_all quantifies over every nonzero locally minimal vector in the
    kernel, stabilizers included; d_lm_nontrivial excludes the stabilizer
    coset.  Both are reported because a nonzero stabilizer can itself be
    locally minimal, in which case the two differ.
    """

    d_lm_all: Optional[int]
    d_lm_nontrivial: Optional[int]
    kernel_dim: int


def locally_minimal_distance(
    code: CssCode,
    budget: int = DEFAULT_KERNEL_BUDGET,
) -> LocallyMinimalDistanceReport:
    """Cover ker(Hx) and minimize weight over locally minimal vectors.

    The kernel is read in bit-sliced blocks of at most 2^12 combinations, as
    in `brute_distance`.  Adding Hz row r changes the integer key of m by
    key(r) - 2 key(m & r), so m is locally minimal when no row has
    2 key(m & r) > key(r); for each row, key(m & r) is a carry-save sum of
    its qubits' planes weighted by the key, compared with key(r) // 2 for
    every combination of the block at once.  Stabilizer membership is the
    residue modulo the Hz row space, as in `brute_distance`.
    """
    kernel, dim = _kernel(code, "z", budget)
    if code.degrees is None:
        raise PreconditionError("normalized local minimality needs recorded degrees")
    a, b = _key_weights(code)
    n, split = code.n, code.v10_size
    # Per Hz row: its qubits with their key weights, and floor(key(r) / 2);
    # adding row r strictly lowers the key of m when key(m & r) exceeds it.
    rows = []
    for r in code.hz.row_masks:
        terms = [(q, a if q < split else b) for q in gf2.bits(r)]
        rows.append((terms, sum(w for _, w in terms) // 2))
    best_all: Optional[int] = None
    best_nontrivial: Optional[int] = None
    for block in kernel.span:
        planes = block.planes
        improvable = 0
        for terms, bound in rows:
            improvable |= gf2.plane_greater(
                gf2.plane_sum((planes[q], w) for q, w in terms), bound)
        minimal = block.full & ~improvable
        if block.start == 0:
            minimal &= ~1                # the zero combination
        if not minimal:
            continue
        weights = kernel.weights(block)
        w, _ = gf2.plane_min(weights, minimal)
        if best_all is None or w < best_all:
            best_all = w
        found = gf2.plane_min(weights, minimal & _nontrivial(planes, n))
        if found is not None and (best_nontrivial is None or found[0] < best_nontrivial):
            best_nontrivial = found[0]
    return LocallyMinimalDistanceReport(best_all, best_nontrivial, dim)


def export_manifest(code: CssCode, params: CodeParams, provenance: dict) -> dict:
    """JSON manifest accompanying the alist pair of an exported code."""
    d = code.degrees
    return {
        "budgets": {"kernel": DEFAULT_KERNEL_BUDGET},
        "n": params.n,
        "k": params.k,
        "m_x": params.m_x,
        "m_z": params.m_z,
        "weight": params.weight,
        "v10_size": code.v10_size,
        "degrees": {"down": d.down, "up": d.up, "right": d.right, "left": d.left}
        if d else None,
        "rate_bound": [params.rate_bound.numerator, params.rate_bound.denominator]
        if params.rate_bound is not None else None,
        "d_x": None,
        "d_z": None,
        "d": None,
        "d_lm": None,
        "provenance": provenance,
    }
