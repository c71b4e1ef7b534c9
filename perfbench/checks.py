"""Independent output checks for the benchmark.

Nothing here calls `qbp`.  Every check re-derives what it needs from the
edge and face sets of a complex with plain Python sets and integers, so a
defect in the code under test cannot hide itself by also breaking its
checker.  Each check returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


# -- GF(2) by hand -------------------------------------------------------------


def echelon(rows):
    """Row-reduce packed GF(2) rows; returns {leading bit: row}."""
    basis = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            row ^= pivot
    return basis


def in_span(basis, mask):
    while mask:
        pivot = basis.get(mask.bit_length() - 1)
        if pivot is None:
            return False
        mask ^= pivot
    return True


def support_mask(support):
    mask = 0
    for i in support:
        mask |= 1 << i
    return mask


# -- complexes -------------------------------------------------------------------


def _adjacency(edges):
    out = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
    return out


def check_complex(cpx):
    """Chain condition and face consistency, recomputed from the edge sets.

    Every V00-V11 pair must be joined by an even number of two-step paths
    (through V10 plus through V01).  Every face must use four existing
    edges, and the faces must be in one-to-one correspondence with the
    two-step paths on each side, which is what square completion on a free
    quotient gives.
    """
    problems = []
    up10 = _adjacency(cpx.edges_v00_v10)
    up01 = _adjacency(cpx.edges_v00_v01)
    right10 = _adjacency(cpx.edges_v10_v11)
    right01 = _adjacency(cpx.edges_v01_v11)
    for z00 in range(cpx.v00_size):
        paths = Counter()
        for z10 in up10.get(z00, ()):
            paths.update(right10.get(z10, ()))
        for z01 in up01.get(z00, ()):
            paths.update(right01.get(z01, ()))
        odd = sorted(z11 for z11, count in paths.items() if count % 2)
        if odd:
            problems.append(f"chain condition fails at V00 {z00} (odd paths to V11 {odd[:4]})")
            break

    via10, via01 = set(), set()
    for z00, z10, z01, z11 in cpx.faces:
        if ((z00, z10) not in cpx.edges_v00_v10 or (z00, z01) not in cpx.edges_v00_v01
                or (z10, z11) not in cpx.edges_v10_v11 or (z01, z11) not in cpx.edges_v01_v11):
            problems.append(f"face {(z00, z10, z01, z11)} uses an edge the complex lacks")
            break
        via10.add((z00, z10, z11))
        via01.add((z00, z01, z11))
    paths10 = sum(len(right10.get(z10, ())) for _, z10 in cpx.edges_v00_v10)
    paths01 = sum(len(right01.get(z01, ())) for _, z01 in cpx.edges_v00_v01)
    if not (len(via10) == len(via01) == len(cpx.faces) == paths10 == paths01):
        problems.append(
            f"faces do not match the two-step paths: {len(cpx.faces)} faces, "
            f"{len(via10)}/{len(via01)} distinct corner triples, {paths10}/{paths01} paths"
        )
    return problems


def same_complex(a, b):
    """Field-by-field equality of the parts a JSON round trip must keep."""
    fields = ("reps_v00", "reps_v10", "reps_v01", "reps_v11", "edges_v00_v10",
              "edges_v01_v11", "edges_v00_v01", "edges_v10_v11", "faces",
              "degrees", "group_order")
    return [f"round trip changed {name}" for name in fields
            if getattr(a, name) != getattr(b, name)]


def hx_rows(cpx):
    """X checks (V11) as packed qubit rows: V10 block, then V01 block."""
    rows = [0] * cpx.v11_size
    for z10, z11 in cpx.edges_v10_v11:
        rows[z11] |= 1 << z10
    for z01, z11 in cpx.edges_v01_v11:
        rows[z11] |= 1 << (cpx.v10_size + z01)
    return rows


def hz_rows(cpx):
    """Z checks (V00) as packed qubit rows."""
    rows = [0] * cpx.v00_size
    for z00, z10 in cpx.edges_v00_v10:
        rows[z00] |= 1 << z10
    for z00, z01 in cpx.edges_v00_v01:
        rows[z00] |= 1 << (cpx.v10_size + z01)
    return rows


def logical_dimension(cpx):
    """k = n - rank(Hx) - rank(Hz), by this module's own elimination."""
    n = cpx.v10_size + cpx.v01_size
    return n - len(echelon(hx_rows(cpx))) - len(echelon(hz_rows(cpx)))


def check_partition(edges, target, assignment):
    """An ownership partition must split `target` among neighbouring owners."""
    neighbours = _adjacency(edges)
    seen = set()
    for owner, owned in assignment.items():
        if owned & seen:
            return [f"partition owners overlap at {sorted(owned & seen)}"]
        seen |= owned
        if not owned <= set(neighbours.get(owner, ())):
            return [f"partition gives owner {owner} a non-neighbour"]
    if seen != set(target):
        return [f"partition covers {sorted(seen)} instead of {sorted(target)}"]
    return []


# -- decoding --------------------------------------------------------------------


@dataclass(frozen=True)
class DecodeView:
    """What one decode trial produced, in plain values."""

    side: str                 # "z": Z error, X syndrome on V11; "x": the transpose
    error: frozenset
    syndrome: frozenset       # the syndrome the code under test computed
    outcome: str
    correction: frozenset
    residual_ok: bool         # the code under test's stabilizer verdict


class DecodeChecker:
    """Syndromes and stabilizer membership recomputed from the edge lists."""

    OUTCOMES = ("success", "stalled", "capped")

    def __init__(self, cpx):
        self.n = cpx.v10_size + cpx.v01_size
        self.checks_of = {"z": [[] for _ in range(self.n)], "x": [[] for _ in range(self.n)]}
        for z10, z11 in cpx.edges_v10_v11:
            self.checks_of["z"][z10].append(z11)
        for z01, z11 in cpx.edges_v01_v11:
            self.checks_of["z"][cpx.v10_size + z01].append(z11)
        for z00, z10 in cpx.edges_v00_v10:
            self.checks_of["x"][z10].append(z00)
        for z00, z01 in cpx.edges_v00_v01:
            self.checks_of["x"][cpx.v10_size + z01].append(z00)
        # A Z residual is trivial when it lies in the span of the Z checks.
        self.stabilizers = {"z": echelon(hz_rows(cpx)), "x": echelon(hx_rows(cpx))}

    def syndrome(self, side, support):
        lit = set()
        for q in support:
            lit.symmetric_difference_update(self.checks_of[side][q])
        return frozenset(lit)

    def residual_trivial(self, view):
        residual = support_mask(view.error) ^ support_mask(view.correction)
        return in_span(self.stabilizers[view.side], residual)

    def check(self, view):
        problems = []
        if view.outcome not in self.OUTCOMES:
            return [f"unknown outcome {view.outcome!r}"]
        if any(not 0 <= q < self.n for q in view.correction):
            return ["correction outside the qubit range"]
        expected = self.syndrome(view.side, view.error)
        if view.syndrome != expected:
            problems.append("syndrome of the error disagrees with the edge lists")
        if view.outcome == "success" and self.syndrome(view.side, view.correction) != expected:
            problems.append("success reported but the correction has another syndrome")
        if view.residual_ok != self.residual_trivial(view):
            problems.append("stabilizer verdict on the residual disagrees with elimination")
        return problems
