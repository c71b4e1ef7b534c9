"""Exact linear algebra over the two-element field.

Vectors are stored as support sets.  A matrix is its shape plus one packed
bit row per row, carried in a Python integer (bit c of row r is entry
(r, c)); column views, matrix-vector products and elimination all work on
those rows.  Every packed row in the package comes from one packer, `pack`,
which sets each row's bits from the highest down.  Rank, row spaces and
kernels share one elimination kernel, `_eliminate`, whose reduced row
echelon form is unique: the map {pivot bit: reduced row}.
A matrix caches that map once, as a `RowSpace` with the OR of its pivot
bits, and rank, kernel, row space and membership all read that one object.
Reducing a vector modulo a row space takes one AND with the pivot mask and
one XOR per pivot bit hit.  Everything is exact; there is no floating point
anywhere.

A span is read bit-sliced by `span_planes`: its 2^k combinations come in
blocks of at most 2^12 (SPAN_BLOCK_BITS), and a block is one 2^12-bit
integer, a plane, per requested coordinate, with bit j of the plane that
coordinate of combination j.  The vectors are sliced once, into the first
block, and every later block is derived from it, so the sliced span takes
at most 512 bytes per coordinate, whatever k is.  `plane_sum` (a
carry-save adder tree over weighted planes, O(1) wide operations per
plane), `plane_min` and `plane_greater` do integer arithmetic on every
combination of a block at once; the exact distance oracles in `css` are
built from them.

All values are immutable after construction and safe to share across
threads.  Cached views (column masks, the echelon form) are derived from the
rows once and never change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ShapeError, ValidationError


@dataclass(frozen=True)
class F2Vector:
    """A vector over GF(2): a length and the set of coordinates equal to 1."""

    length: int
    support: frozenset[int]

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ShapeError(f"negative vector length {self.length}")
        bad = [i for i in self.support if not 0 <= i < self.length]
        if bad:
            raise ValidationError(f"support indices out of range: {sorted(bad)}")

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "F2Vector":
        return cls(length, frozenset(int(i) for i in support))

    @classmethod
    def from_mask(cls, length: int, mask: int) -> "F2Vector":
        return cls(length, frozenset(bits(mask)))

    @property
    def weight(self) -> int:
        return len(self.support)

    def to_mask(self) -> int:
        mask = 0
        for i in self.support:
            mask |= 1 << i
        return mask

    def __xor__(self, other: "F2Vector") -> "F2Vector":
        if self.length != other.length:
            raise ShapeError(f"cannot add vectors of lengths {self.length} and {other.length}")
        return F2Vector(self.length, self.support ^ other.support)


@dataclass(frozen=True)
class F2Matrix:
    """A matrix over GF(2): row/column counts plus one packed mask per row.

    Bit c of row_masks[r] is entry (r, c).  Zero-row or zero-column matrices
    are legal; they have rank 0 and a kernel equal to the full domain.
    """

    rows: int
    cols: int
    row_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_shape(self.rows, self.cols)
        masks = self.row_masks
        if len(masks) != self.rows:
            raise ShapeError(f"{len(masks)} row masks for {self.rows} rows")
        if masks and (min(masks) < 0 or max(masks) >> self.cols):
            r = next(r for r, m in enumerate(masks) if m < 0 or m >> self.cols)
            if masks[r] < 0:
                raise ValidationError(f"row {r} has a negative mask")
            raise ValidationError(
                f"entry ({r},{masks[r].bit_length() - 1}) outside {self.rows}x{self.cols}"
            )

    # -- packed views ----------------------------------------------------

    @cached_property
    def col_masks(self) -> tuple[int, ...]:
        return pack(self.cols, [*map(bits, self.row_masks)])

    # -- simple queries ---------------------------------------------------

    def max_row_weight(self) -> int:
        return max(map(int.bit_count, self.row_masks), default=0)

    # -- reduced row echelon form ------------------------------------------

    @cached_property
    def _echelon(self) -> "RowSpace":
        """Reduced row echelon form of the rows (see `_eliminate`)."""
        pivots = _eliminate(self.row_masks)
        return RowSpace(self.cols, pivots, sum(pivots))


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ShapeError(f"negative matrix shape {rows}x{cols}")


def pack(size: int, lists: Sequence[Iterable[int]]) -> tuple[int, ...]:
    """`size` packed rows: bit i of row z is set for every z in lists[i].

    The one packer of bit rows (graph masks, Hx, Hz, column views, kernel
    bases).  Bits are set for i descending, so each row is allocated at its
    full width by its first OR, and every later OR frees a block of the size
    the next one needs.  Set in ascending or edge-set order, wide rows widen
    step by step and leave the allocator freed blocks too small to reuse.
    Each z must be in range(size): a negative one would index from the end.
    """
    rows = [0] * size
    for i in reversed(range(len(lists))):
        zs, bit = lists[i], 1 << i
        for z in zs:
            rows[z] |= bit
    return tuple(rows)


def _eliminate(masks: Iterable[int]) -> dict[int, int]:
    """The reduced row echelon form of the span of packed rows.

    Returns {pivot bit: row} in ascending pivot bit: each row has its lowest
    set bit at its pivot bit (1 << pivot column), and that bit is clear in
    every other row.  This form is unique for the span.

    Each row is reduced at its lowest bit until that bit is a new pivot (or
    the row vanishes); then, from the highest pivot down, each pivot row has
    the higher pivot columns cleared by rows already fully reduced.
    """
    pivots: dict[int, int] = {}          # lowest bit (as 1 << col) -> row
    for m in masks:
        while m:
            low = m & -m
            row = pivots.get(low)
            if row is None:
                pivots[low] = m
                break
            m ^= row
    lows = sorted(pivots)
    others = sum(lows)                   # a row holds no pivot bit below its own
    for low in reversed(lows):
        row = pivots[low]
        hit = row & others ^ low         # the higher pivot bits, already reduced
        while hit:
            h = hit & -hit
            row ^= pivots[h]
            hit ^= h
        pivots[low] = row
    return {low: pivots[low] for low in lows}


def mat_vec(a: F2Matrix, v: F2Vector) -> F2Vector:
    """Apply a matrix to a column vector."""
    if a.cols != v.length:
        raise ShapeError(f"cannot apply {a.rows}x{a.cols} to length-{v.length} vector")
    mask = mat_vec_mask(a, v.to_mask())
    return F2Vector.from_mask(a.rows, mask)


def mat_vec_mask(a: F2Matrix, v_mask: int) -> int:
    """Apply a matrix to a packed column vector, returning a packed result."""
    acc = 0
    m = v_mask
    cols = a.col_masks
    while m:
        low = m & -m
        acc ^= cols[low.bit_length() - 1]
        m ^= low
    return acc


def rank(a: F2Matrix) -> int:
    """Rank over GF(2), via elimination on packed rows."""
    return len(a._echelon.pivots)


def kernel_masks(a: F2Matrix) -> list[int]:
    """Basis of the right kernel {v : A v = 0} as packed masks, in reduced
    echelon order: one vector per free column, by ascending free column.

    The vector of free column f is f plus every pivot column whose pivot row
    holds f: `pack` sets bit f in row f and bit p in the rows of the free
    columns pivot row p holds, so the pivot columns' rows stay empty.
    """
    held = {low.bit_length() - 1: bits(row ^ low) for low, row in a._echelon.pivots.items()}
    return [v for v in pack(a.cols, [held.get(c, (c,)) for c in range(a.cols)]) if v]


@dataclass(frozen=True)
class RowSpace:
    """A row space as its reduced row echelon form (see `_eliminate`), for
    fast membership tests."""

    length: int
    pivots: dict[int, int]               # pivot bit -> reduced row, ascending
    pivot_mask: int                      # the OR of the pivot bits

    def reduce_mask(self, v_mask: int) -> int:
        """The residue of v modulo the space: v plus the pivot row of each
        pivot bit v holds.  A reduced row holds no other pivot bit, so one
        pass over v's pivot bits clears them all."""
        rows = self.pivots
        hit = v_mask & self.pivot_mask
        while hit:
            h = hit & -hit
            v_mask ^= rows[h]
            hit ^= h
        return v_mask

    def contains_mask(self, v_mask: int) -> bool:
        return self.reduce_mask(v_mask) == 0

    def contains(self, v: F2Vector) -> bool:
        if v.length != self.length:
            raise ShapeError(f"vector length {v.length} != space length {self.length}")
        return self.contains_mask(v.to_mask())


def row_space(a: F2Matrix) -> RowSpace:
    return a._echelon


SPAN_BLOCK_BITS = 12     # a span block holds at most 2^12 combinations


class SpanBlock(NamedTuple):
    """One block of a bit-sliced span (see `span_planes`)."""

    start: int                # index of the block's first combination
    full: int                 # one bit per combination of the block
    planes: tuple[int, ...]   # one plane per requested coordinate


@dataclass(frozen=True)
class SpanPlanes:
    """A span bit-sliced by `span_planes`; iterating it yields its blocks.

    `first` is the block of combinations 0 .. 2^b - 1.  For coordinate
    coords[t], bit i of high[t] is its value in masks[b + i]: those masks
    add one vector to every combination of a block, so each plane of a
    later block is the first block's plane or its complement.
    """

    first: SpanBlock
    high: tuple[int, ...]
    blocks: int                          # 2^(len(masks) - b)

    def __iter__(self) -> Iterator[SpanBlock]:
        first = self.first
        yield first
        full, low = first.full, first.planes
        width = full.bit_length()
        for block in range(1, self.blocks):
            yield SpanBlock(block * width, full, tuple(p ^ full if (h & block).bit_count() & 1
                                                       else p for p, h in zip(low, self.high)))


def span_planes(masks: Sequence[int], coords: Iterable[int]) -> SpanPlanes:
    """The span of packed vectors, bit-sliced in blocks of combinations.

    Combination c, for 0 <= c < 2^len(masks), is the XOR of masks[i] over
    each set bit i of c.  The combinations come in 2^(len(masks) - b) blocks
    of 2^b, b = min(len(masks), SPAN_BLOCK_BITS), in ascending order.  Each
    block (a `SpanBlock`) has its start, its `full` mask (2^b ones) and one
    plane per coordinate of `coords`: bit j of planes[t] is coordinate
    coords[t] of combination start + j.  The masks are sliced once, into
    the first block; the returned `SpanPlanes` holds that block alone and
    derives each later one from it as it is iterated, so a block is one
    2^b-bit integer (at most 512 bytes) per coordinate, whatever the size of
    the span; callers are responsible for budgeting the number of blocks.
    """
    b = min(len(masks), SPAN_BLOCK_BITS)
    width = 1 << b
    full = (1 << width) - 1
    # Bit j of index[i] is bit i of j: alternating runs of 2^i zeros and ones.
    index = [full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
             for i in range(b)]
    columns = pack(max(map(int.bit_length, masks), default=0), [*map(bits, masks)])
    low, high = [], []
    for q in coords:
        col = columns[q] if q < len(columns) else 0
        plane = 0
        for i in bits(col & (width - 1)):
            plane ^= index[i]
        low.append(plane)
        high.append(col >> b)
    return SpanPlanes(SpanBlock(0, full, tuple(low)), tuple(high), 1 << (len(masks) - b))


def plane_sum(terms: Iterable[tuple[int, int]]) -> list[int]:
    """Bit-sliced sum of weighted planes.

    Each term is (plane, weight) with weight >= 0; bit j of the sum is
    weight * (bit j of plane) summed over the terms.  Returns the sum's
    binary digits as planes, least significant first.  A carry-save adder
    tree: each full adder takes three planes of one digit to one plane
    there and a carry into the next, so the cost is O(1) wide operations
    per plane and digit of weight.
    """
    columns: list[list[int]] = []
    for plane, weight in terms:
        k = 0
        while weight and plane:
            if weight & 1:
                while len(columns) <= k:
                    columns.append([])
                columns[k].append(plane)
            weight >>= 1
            k += 1
    digits = []
    for k, col in enumerate(columns):    # carries append columns as they go
        while len(col) > 1:
            x, y = col.pop(), col.pop()
            t = x ^ y
            if col:
                z = col.pop()
                col.append(t ^ z)
                carry = x & y | t & z
            else:
                col.append(t)
                carry = x & y
            if k + 1 == len(columns):
                columns.append([])
            columns[k + 1].append(carry)
        digits.append(col[0] if col else 0)
    return digits


def plane_min(digits: Sequence[int], target: int) -> Optional[tuple[int, int]]:
    """The least bit-sliced value among the target bits, and where it occurs.

    Returns (value, the target bits holding that value), or None when the
    target is empty.  One pass from the most significant digit down.
    """
    if not target:
        return None
    value = 0
    for k in reversed(range(len(digits))):
        low = target & ~digits[k]
        if low:
            target = low
        else:
            value |= 1 << k
    return value, target


def plane_greater(digits: Sequence[int], bound: int) -> int:
    """The bits whose bit-sliced value exceeds the constant bound >= 0."""
    if bound >> len(digits):
        return 0                         # every value is below 2^len(digits)
    greater, equal = 0, -1
    for k in reversed(range(len(digits))):
        d = digits[k]
        if bound >> k & 1:
            equal &= d
        else:
            greater |= equal & d
            equal &= ~d
    return greater


# -- interchange format ---------------------------------------------------


def to_alist(a: F2Matrix) -> str:
    """Serialize in alist form: header ``n m`` (columns then rows), the
    maximum column/row weights, per-column and per-row weights, then the
    1-based index lists padded with zeros to the maximum weight."""
    col_idx = [sorted(bits(m)) for m in a.col_masks]
    row_idx = [sorted(bits(m)) for m in a.row_masks]
    max_col = max((len(x) for x in col_idx), default=0)
    max_row = max((len(x) for x in row_idx), default=0)
    lines = [f"{a.cols} {a.rows}", f"{max_col} {max_row}"]
    lines.append(" ".join(str(len(x)) for x in col_idx))
    lines.append(" ".join(str(len(x)) for x in row_idx))
    for idx in col_idx:
        padded = [i + 1 for i in idx] + [0] * (max_col - len(idx))
        lines.append(" ".join(str(i) for i in padded) or "0")
    for idx in row_idx:
        padded = [i + 1 for i in idx] + [0] * (max_row - len(idx))
        lines.append(" ".join(str(i) for i in padded) or "0")
    return "\n".join(lines) + "\n"


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
