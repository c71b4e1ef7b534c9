"""CSS codes extracted from product complexes, and their exact oracles.

A product complex yields the code with X checks indexed by V11, Z checks by
V00, and qubits by V10 followed by V01.  The commuting condition
Hx Hz^T = 0 is the chain condition; a code read off a complex reuses the
complex's one chain-condition verdict, and a code given as bare matrices
multiplies them.

Distance oracles enumerate kernels outright (budgeted), so every reported
value is exact.  Normalized weights |v10|/down + |v01|/right are compared
through the integer key |v10|*right + |v01|*down, which orders them exactly
(down, right > 0); a Fraction is built only where one is returned.
Stabilizer membership is carried along the Gray-code walk as a residue
(reduction modulo a row space is linear over GF(2)).  Oracles parallelize
over kernel strata in principle; the implementation is sequential with the
same deterministic result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    complex's chain-condition verdict, reused; otherwise it is multiplied out.
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
        cpx = self.cpx
        if (cpx is not None and self.hx.row_masks == cpx.boundary_1.row_masks
                and self.hz.col_masks == cpx.boundary_2.row_masks):
            # Hx Hz^T is the complex's boundary_1 boundary_2, checked once.
            commutes = cpx.chain_check.ok
        else:
            commutes = gf2.mat_mul(self.hx, self.hz.transpose()).is_zero()
        if not commutes:
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

    @property
    def v01_size(self) -> int:
        return self.n - self.v10_size

    @property
    def weight(self) -> int:
        """Max stabilizer support and per-qubit total stabilizer count."""
        per_qubit = max(
            (self.hx.col_weight(q) + self.hz.col_weight(q) for q in range(self.n)),
            default=0,
        )
        return max(self.hx.max_row_weight(), self.hz.max_row_weight(), per_qubit)

    @cached_property
    def z_stabilizers(self) -> gf2.RowSpace:
        """Row space of Hz: the trivial (stabilizer) Z operators."""
        return gf2.row_space(self.hz)

    @cached_property
    def x_stabilizers(self) -> gf2.RowSpace:
        """Row space of Hx: the trivial (stabilizer) X operators."""
        return gf2.row_space(self.hx)

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
    (m_z = |V00| rows).  The complex's chain-condition verdict is computed
    once per complex object (a builder or loader has usually computed it
    already) and refuses a violating complex here.
    """
    check = cpx.chain_check
    if not check.ok:
        raise ValidationError(
            f"complex violates the chain condition at V00 column {check.witness_column}"
        )
    return CssCode(
        hx=cpx.boundary_1,
        hz=cpx.boundary_2.transpose(),
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
    d_x: Optional[int] = None
    d_z: Optional[int] = None
    d: Optional[int] = None
    d_lm: Optional[int] = None


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

    Returns
    -------
    DistanceReport
        d is None with no_logicals=True when the kernel equals the
        stabilizers (nothing nontrivial to measure).

    Stabilizer membership is one XOR per vector: each basis vector's residue
    modulo the stabilizer row space rides along the Gray-code walk.
    """
    if which == "z":
        kernel_of, stabilizers = code.hx, code.z_stabilizers
    elif which == "x":
        kernel_of, stabilizers = code.hz, code.x_stabilizers
    else:
        raise ValidationError(f"which must be 'x' or 'z', got {which!r}")
    basis = gf2.kernel_basis(kernel_of)
    dim = len(basis)
    if 2 ** dim > budget:
        raise OracleUnavailableError(
            f"kernel has 2^{dim} vectors, over the budget of {budget}"
        )
    # Reduction modulo the stabilizer row space is linear, so the residue of
    # each kernel vector rides along the same Gray-code walk: a vector is a
    # stabilizer (the zero vector included) exactly when its residue is 0.
    masks = [v.to_mask() for v in basis]
    residues = [stabilizers.reduce_mask(m) for m in masks]
    best: Optional[int] = None
    count = 0
    for mask, residue in zip(gf2.iter_span_masks(masks), gf2.iter_span_masks(residues)):
        count += 1
        if residue == 0:
            continue
        w = mask.bit_count()
        if best is None or w < best:
            best = w
    return DistanceReport(which, best, best is None, dim, count)


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


def _flip_search(code: CssCode, normalized: bool):
    """The integer weight key and the first improving Hz-row flip.

    key(m) = a|m & V10| + b|m & V01| with (a, b) = (right, down) when
    normalized and (1, 1) otherwise.  Normalized, it is down*right times
    |v10|/down + |v01|/right, so it orders vectors exactly as that weight.
    Adding Hz row r changes the key by key(r) - 2 key(m & r); a row disjoint
    from m can only raise it, so `first_improving(m)` looks only at the rows
    that meet m's support, in ascending row order, and returns the first one
    whose addition strictly lowers the key (None when m is locally minimal).
    A zero degree leaves the normalized weight undefined and is refused.
    """
    split = code.v10_size
    low_block = (1 << split) - 1
    a, b = 1, 1
    if normalized:
        code.degrees.require_positive("normalized weight", "down", "right")
        a, b = code.degrees.right, code.degrees.down

    def key(m: int) -> int:
        return a * (m & low_block).bit_count() + b * (m >> split).bit_count()

    rows = code.hz.row_masks
    row_keys = [key(r) for r in rows]
    rows_at = code.hz.col_masks          # qubit -> the Hz rows containing it

    def first_improving(m: int) -> Optional[int]:
        touched = 0
        rest = m
        while rest:
            low = rest & -rest
            touched |= rows_at[low.bit_length() - 1]
            rest ^= low
        while touched:
            low = touched & -touched
            i = low.bit_length() - 1
            if 2 * key(m & rows[i]) > row_keys[i]:
                return i
            touched ^= low
        return None

    return key, first_improving


@dataclass(frozen=True)
class FlipReduction:
    vector: F2Vector
    iterations: int


def greedy_flip_reduce(code: CssCode, c1: F2Vector, normalized: bool) -> FlipReduction:
    """Add single Hz rows (columns of the V00 -> qubits map) while the
    (normalized) weight strictly drops; the result is (normalized) locally
    minimal and has the same syndrome as the input.

    The first improving row in ascending index is taken, so the output is
    deterministic.  Weights are compared through the exact integer key of
    `_flip_search`, and only rows meeting the current support are tried.
    """
    if c1.length != code.n:
        raise ValidationError(f"vector length {c1.length} != n = {code.n}")
    if normalized and code.degrees is None:
        raise PreconditionError("normalized reduction needs recorded degrees")
    _, first_improving = _flip_search(code, normalized)
    rows = code.hz.row_masks             # row i of Hz = column i of the V00 map
    mask = c1.to_mask()
    iterations = 0
    while (i := first_improving(mask)) is not None:
        mask ^= rows[i]
        iterations += 1
    return FlipReduction(F2Vector.from_mask(code.n, mask), iterations)


def is_locally_minimal(code: CssCode, c1: F2Vector, normalized: bool) -> bool:
    """No single Hz-row addition decreases the (normalized) weight.

    Weight ties do not disqualify: the comparison is strict decrease.
    """
    reduced = greedy_flip_reduce(code, c1, normalized)
    return reduced.iterations == 0


@dataclass(frozen=True)
class LocallyMinimalDistanceReport:
    """Minimum weights over nonzero locally minimal kernel vectors.

    d_lm_all quantifies over every nonzero locally minimal vector in the
    kernel, stabilizers included; d_lm_nontrivial excludes the stabilizer
    coset.  Both are reported because a nonzero stabilizer can itself be
    locally minimal, in which case the two differ.
    """

    normalized: bool
    d_lm_all: Optional[int]
    d_lm_nontrivial: Optional[int]
    kernel_dim: int


def locally_minimal_distance(
    code: CssCode,
    normalized: bool = True,
    budget: int = DEFAULT_KERNEL_BUDGET,
) -> LocallyMinimalDistanceReport:
    """Enumerate ker(Hx) and minimize weight over locally minimal vectors.

    Local minimality uses the support-local test of `_flip_search` on the
    exact integer weight key; stabilizer membership is the residue modulo
    the Hz row space carried along the Gray-code walk, as in
    `brute_distance`.
    """
    basis = gf2.kernel_basis(code.hx)
    dim = len(basis)
    if 2 ** dim > budget:
        raise OracleUnavailableError(
            f"kernel has 2^{dim} vectors, over the budget of {budget}"
        )
    if normalized and code.degrees is None:
        raise PreconditionError("normalized local minimality needs recorded degrees")
    _, first_improving = _flip_search(code, normalized)
    best_all: Optional[int] = None
    best_nontrivial: Optional[int] = None
    masks = [v.to_mask() for v in basis]
    residues = [code.z_stabilizers.reduce_mask(m) for m in masks]
    for mask, residue in zip(gf2.iter_span_masks(masks), gf2.iter_span_masks(residues)):
        if mask == 0 or first_improving(mask) is not None:
            continue
        w = mask.bit_count()
        if best_all is None or w < best_all:
            best_all = w
        if residue and (best_nontrivial is None or w < best_nontrivial):
            best_nontrivial = w
    return LocallyMinimalDistanceReport(normalized, best_all, best_nontrivial, dim)


@dataclass(frozen=True)
class MinimalRepresentative:
    vector: F2Vector
    v10_weight: int
    v01_weight: int
    normalized_weight: Fraction


def minimal_coset_representative(
    code: CssCode,
    syndrome: F2Vector,
    budget: int = DEFAULT_KERNEL_BUDGET,
) -> MinimalRepresentative:
    """The minimum-normalized-weight error consistent with a syndrome.

    Exhaustive over the solution coset (particular solution plus the full
    kernel of Hx), so only feasible at toy sizes; budgeted accordingly.
    Candidates are compared by the integer key of `_flip_search` (ties go to
    the smaller mask); the returned weight is that key over down*right.
    """
    if code.degrees is None:
        raise PreconditionError("normalized weight needs recorded degrees")
    particular = gf2.solve(code.hx, syndrome)
    if particular is None:
        raise ValidationError("syndrome is not in the image of Hx")
    basis = gf2.kernel_basis(code.hx)
    if 2 ** len(basis) > budget:
        raise OracleUnavailableError(
            f"coset has 2^{len(basis)} vectors, over the budget of {budget}"
        )
    key, _ = _flip_search(code, normalized=True)
    base = particular.to_mask()
    best_mask = None
    best_key: Optional[int] = None
    for kmask in gf2.iter_span_masks([v.to_mask() for v in basis]):
        m = base ^ kmask
        k = key(m)
        if best_key is None or k < best_key or (k == best_key and m < best_mask):
            best_key, best_mask = k, m
    vec = F2Vector.from_mask(code.n, best_mask)
    s10, s01 = code.split_support(vec)
    d = code.degrees
    return MinimalRepresentative(vec, len(s10), len(s01),
                                 Fraction(best_key, d.down * d.right))


def export_manifest(code: CssCode, params: CodeParams, provenance: dict,
                    budgets: Optional[dict] = None) -> dict:
    """JSON manifest accompanying the alist pair of an exported code."""
    d = code.degrees
    return {
        "budgets": budgets or {"kernel": DEFAULT_KERNEL_BUDGET},
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
        "d_x": params.d_x,
        "d_z": params.d_z,
        "d": params.d,
        "d_lm": params.d_lm,
        "provenance": provenance,
    }
