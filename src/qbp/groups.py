"""Finite groups given by explicit multiplication tables, and group actions.

Tables make every law checkable: identity and inverses are verified for all
elements, associativity exhaustively up to order 64 (seeded sampling above),
and action axioms exhaustively at the sizes this package targets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ValidationError

_ASSOC_EXHAUSTIVE_MAX_ORDER = 64
_ASSOC_SAMPLES = 20000


@dataclass(frozen=True)
class FiniteGroup:
    """A group on elements 0..order-1 with an explicit multiplication table."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]
    label: str = ""

    @classmethod
    def from_table(cls, mul: Iterable[Iterable[int]], label: str = "") -> "FiniteGroup":
        table = tuple(tuple(int(v) for v in row) for row in mul)
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValidationError("multiplication table must be square")
        for row in table:
            for v in row:
                if not 0 <= v < n:
                    raise ValidationError(f"table value {v} outside 0..{n - 1}")
        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValidationError("table has no two-sided identity")
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == identity and table[b][a] == identity:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValidationError(f"element {a} has no inverse")
        _check_associativity(table, n)
        return cls(n, table, identity, tuple(inv), label)

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def same_table(self, other: "FiniteGroup") -> bool:
        return self.order == other.order and self.mul == other.mul

    def elements(self) -> range:
        return range(self.order)


def _check_associativity(table: tuple[tuple[int, ...], ...], n: int) -> None:
    if n <= _ASSOC_EXHAUSTIVE_MAX_ORDER:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(0xA550C)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(_ASSOC_SAMPLES))
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise ValidationError(f"associativity fails at ({a},{b},{c})")


def cyclic_group(n: int) -> FiniteGroup:
    if n <= 0:
        raise ValidationError(f"cyclic group order must be positive, got {n}")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup.from_table(table, label=f"Z{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element 2i is rotation i, 2i+1 reflection i."""
    if n <= 0:
        raise ValidationError(f"dihedral parameter must be positive, got {n}")

    def enc(rot: int, flip: int) -> int:
        return 2 * (rot % n) + flip

    def mul(a: int, b: int) -> int:
        ra, fa = a // 2, a % 2
        rb, fb = b // 2, b % 2
        if fa == 0:
            return enc(ra + rb, fb)
        return enc(ra - rb, 1 - fb)

    table = tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))
    return FiniteGroup.from_table(table, label=f"D{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n letters; elements are permutations in lex order."""
    if not 1 <= n <= 6:
        raise ValidationError("symmetric_group supports 1 <= n <= 6")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # Composition (p . q)(x) = p(q(x)).
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms) for p in perms
    )
    return FiniteGroup.from_table(table, label=f"S{n}")


@dataclass(frozen=True)
class GroupAction:
    """A left action of a group on {0..set_size-1}, as an order x set_size table.

    Validated on construction: the identity acts trivially and
    act(g, act(h, x)) = act(g*h, x) for all g, h, x.  Freeness is a separate
    property checked by :func:`verify_free_action`.
    """

    group: FiniteGroup
    set_size: int
    table: tuple[tuple[int, ...], ...]

    @classmethod
    def from_table(cls, group: FiniteGroup, table: Iterable[Iterable[int]]) -> "GroupAction":
        tab = tuple(tuple(int(v) for v in row) for row in table)
        if len(tab) != group.order:
            raise ValidationError(f"action table has {len(tab)} rows, expected {group.order}")
        sizes = {len(row) for row in tab}
        if len(sizes) > 1:
            raise ValidationError("action table rows have unequal lengths")
        set_size = sizes.pop() if sizes else 0
        for row in tab:
            for v in row:
                if not 0 <= v < set_size:
                    raise ValidationError(f"action value {v} outside 0..{set_size - 1}")
        e = group.identity
        for x in range(set_size):
            if tab[e][x] != x:
                raise ValidationError(f"identity moves point {x}")
        for g in group.elements():
            for h in group.elements():
                gh = group.op(g, h)
                row_g, row_h, row_gh = tab[g], tab[h], tab[gh]
                for x in range(set_size):
                    if row_g[row_h[x]] != row_gh[x]:
                        raise ValidationError(
                            f"action not compatible at g={g}, h={h}, x={x}"
                        )
        return cls(group, set_size, tab)

    def act(self, g: int, x: int) -> int:
        return self.table[g][x]


def verify_free_action(action: GroupAction) -> Optional[tuple[int, int]]:
    """Exhaustive freeness scan: returns None when free, else the first fixed
    point (g, x) with g != identity, scanning in ascending (g, x) order."""
    e = action.group.identity
    for g in action.group.elements():
        if g == e:
            continue
        row = action.table[g]
        for x in range(action.set_size):
            if row[x] == x:
                return (g, x)
    return None


def left_translation_action(group: FiniteGroup) -> GroupAction:
    """g . x = g x on the group itself (free)."""
    return GroupAction.from_table(group, group.mul)


def right_translation_action(group: FiniteGroup) -> GroupAction:
    """g . x = x g^{-1} on the group itself (free; inverse keeps it a left action)."""
    table = tuple(
        tuple(group.op(x, group.inv[g]) for x in group.elements())
        for g in group.elements()
    )
    return GroupAction.from_table(group, table)


def conjugation_action(group: FiniteGroup) -> GroupAction:
    """g . x = g x g^{-1}; not free for any group with a non-central element."""
    table = tuple(
        tuple(group.op(group.op(g, x), group.inv[g]) for x in group.elements())
        for g in group.elements()
    )
    return GroupAction.from_table(group, table)


def trivial_action(group: FiniteGroup, set_size: int) -> GroupAction:
    table = tuple(tuple(range(set_size)) for _ in group.elements())
    return GroupAction.from_table(group, table)


def trivial_group() -> FiniteGroup:
    return FiniteGroup.from_table(((0,),), label="1")


# -- interchange ----------------------------------------------------------


def group_to_json(group: FiniteGroup) -> dict:
    return {"order": group.order, "mul": [list(r) for r in group.mul], "label": group.label}


def group_from_json(obj: dict) -> FiniteGroup:
    try:
        return FiniteGroup.from_table(obj["mul"], label=str(obj.get("label", "")))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed group JSON: {exc}") from exc


def action_from_json(obj: dict, group: FiniteGroup) -> GroupAction:
    try:
        return GroupAction.from_table(group, obj["act"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed action JSON: {exc}") from exc
