"""Finite groups given by explicit multiplication tables, and group actions.

Tables make every law checkable exactly, at the cost of at most log2 |G|
passes over each table:

* identity and inverses are verified for every element;
* each group computes a generating set once, by repeatedly adding the
  smallest element outside the subgroup generated so far, so it has at most
  log2 |G| elements;
* associativity is Light's test over that set: (a s) c = a (s c) for every
  generator s and all a, c.  The elements b with (a b) c = a (b c) for all
  a, c are closed under the product, so once they contain a generating set
  they are the whole group, and the test is exact at every order;
* the action law act(g s) = act(g) o act(s) is checked for every generator s
  and all g, x.  It extends to every h by induction on the length of h as a
  word in the generators, which needs the associativity checked above.

Tables written from a closed form need none of this.  `cyclic_group` and
`dihedral_group` write Z_n and D_n by their formulas, with identity,
inverses and generating set, and run no test: the formulas are the groups'
definitions, and `FiniteGroup.from_table` on the same table is their test
oracle.

Nor do translations.  The left law g (h x) = (g h) x is associativity,
which Light's test checked or the formula gives, and the right law
x (g h)^{-1} = (x h^{-1}) g^{-1} follows from it; both are free by
cancellation (g x = x or x g^{-1} = x forces g = e).  The same holds for
the translation g . (h, b) = (g h, b) on k copies G x [k] of the group,
under any numbering of its points.  So these actions are built with no
range check, no law check and no freeness scan (`_regular_action`):
`FiniteGroup.left_translation` holds `mul` itself as its table, and
`GroupAction.from_table` hands back the group's left translation object,
after its type and shape checks, for a table equal to `mul`.

Every verdict here is thus known by proof (a formula group, a
translation) or from the validating path (`from_table`), just as a
complex's chain verdict is known by proof or from the loader's checks
(see `product`).  Groups and actions are frozen, so a verdict about one is
a fact about that object for good.  Each is computed
at most once per object and cached on it: a group's generating set and its
left and right translation actions (one object per side), and an action's
freeness scan.  A cache lives on its own object and is never shared with
another, even an equal one.

Tables are read in one C-level pass per step, and every entry must be
exactly an int (see `jsonio._int_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import eq, itemgetter
from typing import Callable, Iterable, Optional

from .errors import ValidationError
from .jsonio import _int_rows, _int_value

_Row = tuple[int, ...]


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
        table = _int_rows(mul, "group table")
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValidationError("multiplication table must be square")
        _check_range(table, n, "table value")
        identity = None
        points = tuple(range(n))
        for e in range(n):
            if table[e] == points and all(table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValidationError("table has no two-sided identity")
        inv = []
        for a, row in enumerate(table):
            b = -1
            while True:
                try:
                    b = row.index(identity, b + 1)
                except ValueError:
                    raise ValidationError(f"element {a} has no inverse") from None
                if table[b][a] == identity:
                    break
            inv.append(b)
        group = cls(n, table, identity, tuple(inv), label)
        _check_associativity(table, group.generators)
        return group

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set: each generator is the smallest element outside
        the subgroup the earlier ones generate, so there are at most
        log2 |G| of them."""
        mul = self.mul
        reached = [False] * self.order
        reached[self.identity] = True
        members = [self.identity]
        gens: list[int] = []
        for candidate in range(self.order):
            if reached[candidate]:
                continue
            gens.append(candidate)
            # Close under right multiplication: the old members need only the
            # new generator, the new members need all of them.
            start = len(members)
            for h in members[:start]:
                v = mul[h][candidate]
                if not reached[v]:
                    reached[v] = True
                    members.append(v)
            i = start
            while i < len(members):
                row = mul[members[i]]
                for s in gens:
                    v = row[s]
                    if not reached[v]:
                        reached[v] = True
                        members.append(v)
                i += 1
        return tuple(gens)

    @cached_property
    def left_translation(self) -> "GroupAction":
        """g . x = g x on the group itself, one object per group; its table
        is `mul` itself (lawful and free by proof, see the module
        docstring)."""
        return _regular_action(self, self.mul)

    @cached_property
    def right_translation(self) -> "GroupAction":
        """g . x = x g^{-1} on the group itself, one object per group
        (lawful and free by proof, see the module docstring)."""
        columns = tuple(zip(*self.mul))    # columns[b][x] = x b
        return _regular_action(self, tuple(columns[b] for b in self.inv))

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def same_table(self, other: "FiniteGroup") -> bool:
        return self.order == other.order and self.mul == other.mul

    def elements(self) -> range:
        return range(self.order)


def _check_range(table: tuple[_Row, ...], size: int, what: str) -> None:
    """Refuse a value outside 0..size-1 with one min and one max over all
    entries; only a refusal scans for the first such value."""
    if (min(chain.from_iterable(table), default=0) < 0
            or max(chain.from_iterable(table), default=-1) >= size):
        v = next(v for v in chain.from_iterable(table) if not 0 <= v < size)
        raise ValidationError(f"{what} {v} outside 0..{size - 1}")


def _composer(row: _Row) -> Callable[[_Row], _Row]:
    """The map r -> (r[row[0]], r[row[1]], ...), the composition r o row."""
    if len(row) == 1:
        only = row[0]
        return lambda r: (r[only],)
    return itemgetter(*row) if row else (lambda r: ())


def _first_difference(a: _Row, b: _Row) -> int:
    return next(i for i, (u, v) in enumerate(zip(a, b)) if u != v)


def _check_associativity(table: tuple[_Row, ...], gens: tuple[int, ...]) -> None:
    """Light's test over a generating set; exact (see the module docstring)."""
    for s in gens:
        times_s = _composer(table[s])   # row_a -> (a (s c))_c
        for a, row_a in enumerate(table):
            left = table[row_a[s]]          # ((a s) c)_c
            right = times_s(row_a)
            if left != right:
                c = _first_difference(left, right)
                raise ValidationError(f"associativity fails at ({a},{s},{c})")


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n, written by formula: a b = a + b mod n (no check, see the module
    docstring)."""
    if n <= 0:
        raise ValidationError(f"cyclic group order must be positive, got {n}")
    base = tuple(range(n))
    table = tuple(base[a:] + base[:a] for a in range(n))
    inv = base[:1] + base[:0:-1]                # -a mod n
    return _by_formula(FiniteGroup(n, table, 0, inv, f"Z{n}"), base[1:2])


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element 2i is rotation i, 2i+1 reflection i.

    Written by formula (no check, see the module docstring): element
    a = 2r + f acts on b as b + 2r (mod 2n) when f = 0, and as 2r + 1 - b
    (mod 2n) when f = 1, so a rotation's row is a rotated copy of 0..2n-1
    and a reflection's a rotated copy of it reversed.
    """
    if n <= 0:
        raise ValidationError(f"dihedral parameter must be positive, got {n}")
    order = 2 * n
    base = tuple(range(order))
    rev = base[::-1]                            # rev[b] = 2n - 1 - b
    table = []
    for r in range(n):
        table.append(base[2 * r:] + base[:2 * r])
        k = (-2 * r - 2) % order                # (2r + 1 - b) = rev[(b + k) mod 2n]
        table.append(rev[k:] + rev[:k])
    # A rotation's inverse is the opposite rotation; a reflection is its own.
    inv = tuple(a if a % 2 else (order - a) % order for a in base)
    return _by_formula(FiniteGroup(order, tuple(table), 0, inv, f"D{n}"), base[1:3])


def _by_formula(group: FiniteGroup, generators: tuple[int, ...]) -> FiniteGroup:
    """A group whose table was written from a closed form, with its
    generating set preset: the one `FiniteGroup.generators` would find."""
    group.__dict__[FiniteGroup.generators.attrname] = generators
    return group


@dataclass(frozen=True)
class GroupAction:
    """A left action of a group on {0..set_size-1}, as an order x set_size table.

    Validated on construction: the identity acts trivially and
    act(g, act(s, x)) = act(g*s, x) for every generator s and all g, x, which
    gives the law for every group element (see the module docstring).  A
    table equal to `group.mul` is the group's left translation object,
    lawful and free by proof.  Freeness is a separate property, scanned once
    per other action object and returned by :func:`verify_free_action`.
    """

    group: FiniteGroup
    set_size: int
    table: tuple[tuple[int, ...], ...]

    @classmethod
    def from_table(cls, group: FiniteGroup, table: Iterable[Iterable[int]]) -> "GroupAction":
        tab = _int_rows(table, "action table")
        if len(tab) != group.order:
            raise ValidationError(f"action table has {len(tab)} rows, expected {group.order}")
        sizes = set(map(len, tab))
        if len(sizes) > 1:
            raise ValidationError("action table rows have unequal lengths")
        set_size = sizes.pop() if sizes else 0
        if tab == group.mul:
            return group.left_translation
        _check_range(tab, set_size, "action value")
        _check_action_law(group, tab, set_size)
        return cls(group, set_size, tab)

    @cached_property
    def fixed_point(self) -> Optional[tuple[int, int]]:
        """The first (g, x) with g != identity and g.x = x, in ascending
        (g, x) order, or None when the action is free; scanned once."""
        return _first_fixed_point(self)


def _regular_action(group: FiniteGroup, table: tuple[_Row, ...]) -> GroupAction:
    """The translation of `group` on itself, or on k copies of itself, with
    no check and no freeness scan: both hold by proof (see the module
    docstring).  `table[g]` must send the point of (h, b) to the point of
    (g h, b), for one numbering of G x [k] by 0..k|G|-1."""
    action = GroupAction(group, len(table[group.identity]), table)
    # Preset the cached freeness verdict; `TestComputedOnce` checks that
    # no translation is scanned.
    action.__dict__[GroupAction.fixed_point.attrname] = None
    return action


def _copies_translation(group: FiniteGroup, copies: int, interleaved: bool) -> GroupAction:
    """g . (h, b) = (g h, b) on G x [copies], by proof (`_regular_action`).

    Point (h, b) is b |G| + h, or h copies + b when `interleaved`; one copy
    is the group's own left translation object either way.
    """
    if copies == 1:
        return group.left_translation
    n = group.order
    if interleaved:
        spread = tuple(range(copies))
        table = tuple(tuple(v * copies + b for v in row for b in spread) for row in group.mul)
    else:
        offsets = tuple(range(0, copies * n, n))
        table = tuple(tuple(o + v for o in offsets for v in row) for row in group.mul)
    return _regular_action(group, table)


def _check_action_law(group: FiniteGroup, tab: tuple[_Row, ...], set_size: int) -> None:
    """The identity fixes every point, and act(g s) = act(g) o act(s) for
    every generator s (see the module docstring)."""
    points = tuple(range(set_size))
    if tab[group.identity] != points:
        x = _first_difference(tab[group.identity], points)
        raise ValidationError(f"identity moves point {x}")
    for s in group.generators:
        times_s = _composer(tab[s])     # row_g -> (act(g, act(s, x)))_x
        for g, row_g in enumerate(tab):
            row_gs = tab[group.mul[g][s]]
            composed = times_s(row_g)
            if composed != row_gs:
                x = _first_difference(composed, row_gs)
                raise ValidationError(
                    f"action not compatible at g={g}, h={s}, x={x}"
                )


def _first_fixed_point(action: GroupAction) -> Optional[tuple[int, int]]:
    e = action.group.identity
    points = range(action.set_size)
    for g, row in enumerate(action.table):
        if g != e and any(map(eq, row, points)):
            return (g, next(x for x in points if row[x] == x))
    return None


def verify_free_action(action: GroupAction) -> Optional[tuple[int, int]]:
    """Freeness verdict: None when free, else the first fixed point (g, x)
    with g != identity, scanning in ascending (g, x) order.  The scan runs
    once per action object (`GroupAction.fixed_point`)."""
    return action.fixed_point


def trivial_action(group: FiniteGroup, set_size: int) -> GroupAction:
    table = tuple(tuple(range(set_size)) for _ in group.elements())
    return GroupAction.from_table(group, table)


def trivial_group() -> FiniteGroup:
    return FiniteGroup.from_table(((0,),), label="1")


# -- interchange ----------------------------------------------------------


def group_from_json(obj: dict) -> FiniteGroup:
    """Load `{order, mul, label}`; every table entry must be an int, and
    `order`, when present, must be the int row count of `mul`."""
    if not isinstance(obj, dict):
        raise ValidationError(f"group JSON must be an object, got {type(obj).__name__}")
    if "mul" not in obj:
        raise ValidationError("malformed group JSON: missing 'mul'")
    group = FiniteGroup.from_table(obj["mul"], label=str(obj.get("label", "")))
    if "order" in obj:
        order = _int_value(obj["order"], "group order")
        if order != group.order:
            raise ValidationError(
                f"group order {order} does not match the {group.order}-row table")
    return group
