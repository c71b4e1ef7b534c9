"""Exact linear algebra over the two-element field.

Vectors and matrices are stored as sparse position sets (parity checks in
this package are low density, so iteration over support dominates), while
elimination-style algorithms run on packed bit rows carried in Python
integers.  Everything is exact; there is no floating point anywhere.

All values are immutable after construction and safe to share across
threads.  Elimination always works on private copies of the packed rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

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
    def zero(cls, length: int) -> "F2Vector":
        return cls(length, frozenset())

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "F2Vector":
        return cls(length, frozenset(int(i) for i in support))

    @classmethod
    def from_mask(cls, length: int, mask: int) -> "F2Vector":
        return cls(length, frozenset(_bits(mask)))

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

    def is_zero(self) -> bool:
        return not self.support


@dataclass(frozen=True)
class F2Matrix:
    """A matrix over GF(2): row/column counts plus the set of 1-positions.

    Zero-row or zero-column matrices are legal; they have rank 0 and a
    kernel equal to the full domain.
    """

    rows: int
    cols: int
    entries: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError(f"negative matrix shape {self.rows}x{self.cols}")
        for r, c in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValidationError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, frozenset())

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, frozenset((i, i) for i in range(n)))

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple[int, int]]) -> "F2Matrix":
        return cls(rows, cols, frozenset((int(r), int(c)) for r, c in entries))

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]]) -> "F2Matrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        ents = {(r, c) for r, row in enumerate(dense) for c, v in enumerate(row) if v % 2}
        return cls(rows, cols, frozenset(ents))

    @classmethod
    def from_row_masks(cls, rows: int, cols: int, masks: Sequence[int]) -> "F2Matrix":
        ents = {(r, c) for r, m in enumerate(masks) for c in _bits(m)}
        return cls(rows, cols, frozenset(ents))

    # -- packed views ----------------------------------------------------

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        masks = [0] * self.rows
        for r, c in self.entries:
            masks[r] |= 1 << c
        return tuple(masks)

    @cached_property
    def col_masks(self) -> tuple[int, ...]:
        masks = [0] * self.cols
        for r, c in self.entries:
            masks[c] |= 1 << r
        return tuple(masks)

    # -- simple queries ---------------------------------------------------

    def col_weight(self, c: int) -> int:
        return self.col_masks[c].bit_count()

    def max_row_weight(self) -> int:
        return max((m.bit_count() for m in self.row_masks), default=0)

    def transpose(self) -> "F2Matrix":
        return F2Matrix(self.cols, self.rows, frozenset((c, r) for r, c in self.entries))

    def is_zero(self) -> bool:
        return not self.entries

    # -- reduced row echelon form ------------------------------------------

    @cached_property
    def _rref(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Reduced row echelon form of the packed rows.

        Returns (pivot_rows, pivot_cols); pivot_rows[i] has its leading 1 in
        column pivot_cols[i] and that column is cleared everywhere else.
        """
        rows = [m for m in self.row_masks if m]
        pivot_rows: list[int] = []
        pivot_cols: list[int] = []
        for col in range(self.cols):
            bit = 1 << col
            src = None
            for i, m in enumerate(rows):
                if m & bit:
                    src = i
                    break
            if src is None:
                continue
            pivot = rows.pop(src)
            rows = [m ^ pivot if m & bit else m for m in rows]
            pivot_rows = [m ^ pivot if m & bit else m for m in pivot_rows]
            pivot_rows.append(pivot)
            pivot_cols.append(col)
            if not rows:
                break
        return tuple(pivot_rows), tuple(pivot_cols)


def mat_mul(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Matrix product over GF(2); entry (i, j) is the parity of the usual sum."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    b_rows = b.row_masks
    out = []
    for mask in a.row_masks:
        acc = 0
        m = mask
        while m:
            low = m & -m
            acc ^= b_rows[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return F2Matrix.from_row_masks(a.rows, b.cols, out)


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
    return len(a._rref[0])


def kernel_basis(a: F2Matrix) -> list[F2Vector]:
    """Basis of the right kernel {v : A v = 0}, in reduced echelon order.

    One basis vector per free column, listed by ascending free column; each
    satisfies A v = 0 and the basis size equals cols - rank(A).
    """
    pivot_rows, pivot_cols = a._rref
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        support = {free}
        bit = 1 << free
        for row_mask, col in zip(pivot_rows, pivot_cols):
            if row_mask & bit:
                support.add(col)
        basis.append(F2Vector.from_support(a.cols, support))
    return basis


@dataclass(frozen=True)
class RowSpace:
    """Reduced basis of a row space, for fast membership tests."""

    length: int
    pivot_rows: tuple[int, ...]
    pivot_cols: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    def reduce_mask(self, v_mask: int) -> int:
        for row, col in zip(self.pivot_rows, self.pivot_cols):
            if v_mask & (1 << col):
                v_mask ^= row
        return v_mask

    def contains_mask(self, v_mask: int) -> bool:
        return self.reduce_mask(v_mask) == 0

    def contains(self, v: F2Vector) -> bool:
        if v.length != self.length:
            raise ShapeError(f"vector length {v.length} != space length {self.length}")
        return self.contains_mask(v.to_mask())


def row_space(a: F2Matrix) -> RowSpace:
    pivot_rows, pivot_cols = a._rref
    return RowSpace(a.cols, pivot_rows, pivot_cols)


def solve(a: F2Matrix, b: F2Vector) -> Optional[F2Vector]:
    """One solution x of A x = b, or None when the system is inconsistent."""
    if a.rows != b.length:
        raise ShapeError(f"rhs length {b.length} != row count {a.rows}")
    # Eliminate on rows of [A^T | I] so pivots come with the combination that
    # produced them; a solution is a combination of columns of A hitting b.
    att = a.transpose()
    aug = [(m, 1 << i) for i, m in enumerate(att.row_masks)]
    target = b.to_mask()
    combo = 0
    for col in range(a.rows):
        bit = 1 << col
        src = None
        for i, (m, _) in enumerate(aug):
            if m & bit:
                src = i
                break
        if src is None:
            continue
        pm, pc = aug.pop(src)
        aug = [(m ^ pm, c ^ pc) if m & bit else (m, c) for m, c in aug]
        if target & bit:
            target ^= pm
            combo ^= pc
    if target:
        return None
    return F2Vector.from_mask(a.cols, combo)


def iter_span_masks(masks: Sequence[int]) -> Iterator[int]:
    """All 2^k combinations of the given packed vectors, in Gray-code order.

    The zero combination comes first.  Intended for brute-force oracles;
    callers are responsible for budgeting.
    """
    acc = 0
    yield acc
    n = len(masks)
    for i in range(1, 1 << n):
        acc ^= masks[(i & -i).bit_length() - 1]
        yield acc


# -- interchange formats --------------------------------------------------


def to_json_dict(a: F2Matrix) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": sorted([r, c] for r, c in a.entries),
    }


def from_json_dict(obj: dict) -> F2Matrix:
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = [(int(r), int(c)) for r, c in obj["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix JSON: {exc}") from exc
    return F2Matrix.from_entries(rows, cols, entries)


def to_alist(a: F2Matrix) -> str:
    """Serialize in alist form: header ``n m`` (columns then rows), the
    maximum column/row weights, per-column and per-row weights, then the
    1-based index lists padded with zeros to the maximum weight."""
    col_idx = [sorted(_bits(m)) for m in a.col_masks]
    row_idx = [sorted(_bits(m)) for m in a.row_masks]
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


def from_alist(text: str) -> F2Matrix:
    """Parse alist text (zero padding tolerated, unpadded lines too)."""
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
    return F2Matrix.from_entries(rows, cols, entries)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
