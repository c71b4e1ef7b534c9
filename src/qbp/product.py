"""Hypergraph and balanced products of bipartite graphs.

The product of two bipartite graphs has four vertex classes (a 2x2 grid),
four edge classes connecting grid neighbors, and a set of square faces.  When
both factors carry a free action of the same group, quotienting the product
by the diagonal action yields the balanced product; freeness makes square
completion unique, which in turn makes the two composite maps
V00 -> {V10, V01} -> V11 cancel over GF(2).  That cancellation is the chain
condition, and it is exactly the CSS commuting condition of the codes
extracted downstream.

A complex's chain-condition verdict (`chain_check`) has one of two
sources, and neither multiplies the boundary maps:

* by proof: `balanced_product` writes one face per product square, so the
  complex it returns is a chain complex (see its docstring);
* from the loader's checks: distinct orbit representatives and a positive
  group order (`_check_fields`), then (`_check_complex`) edge endpoints,
  the recorded degrees, and the faces, which must match both families of
  two-edge paths one to one; that gives every (V00, V11) pair as many paths
  through V10 as through V01.  `complex_from_json` runs them on a file, and
  any other complex (one built field by field) runs them on first use, so
  it is accepted or refused exactly as a file of the same data is.

Construction is single-threaded; the resulting complex is immutable and
shareable.  Being frozen, a complex derives each structure it is asked for
once and caches it on itself: the V11 map, the chain-condition verdict,
the four one-dimensional subgraphs (so each edge class has one graph, one
adjacency and one set of packed masks, which the code, the
partitions and the decoder all read), the faces through each qubit and the
decoder's index of each side.  A cache is never shared between complexes; a
reloaded complex builds its own.  The region diagnostics read the face
index, and the loader's degree check reads the adjacency lengths.

Every complex builds its four subgraphs with one helper,
`_subgraphs_from_rows`, from one ascending list of rows per edge class: the
loader sorts the file's rows (linear on the ascending rows `complex_to_json`
writes, and right for any order); a built or hand-built complex sorts its
edge sets on first subgraph use.  That list checks every edge endpoint, then
seeds the subgraph's adjacency (both sides' neighbor lists) through
`graphs.seed_adjacency`, so no list is sorted per vertex.  The degree and
face checks, the partitions, the region diagnostics and the decoder index
all read these lists, and `gf2.pack` packs both boundary maps from them,
the V11 map (Hx) and the V00 map (`v00_map`, the code's Hz), each qubit's
cells in turn, so every row is set from its highest bit down.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, mul
from typing import Optional

from .errors import InternalInvariantError, PreconditionError, ValidationError
from .gf2 import F2Matrix, pack
from .graphs import (BipartiteGraph, GraphAction, regularity, seed_adjacency,
                     verify_edge_invariance)
from .groups import GroupAction, trivial_action, trivial_group, verify_free_action
from .expansion import ExpansionCertificate
from .jsonio import _first_repeat, _int_rows, _int_value

_Face = tuple[int, int, int, int]
SUBGRAPHS = ("v00_v10", "v01_v11", "v00_v01", "v10_v11")


@dataclass(frozen=True)
class DegreeProfile:
    """The four degrees of a product of biregular factors.

    down/up are the first factor's V0-side/V1-side degrees (the vertical
    moves of the grid), right/left the second factor's (horizontal moves).
    """

    down: int
    up: int
    right: int
    left: int

    def require_positive(self, purpose: str, *names: str) -> None:
        """Refuse a degree <= 0 among `names`: `purpose` divides by them."""
        if any(getattr(self, name) <= 0 for name in names):
            got = ", ".join(f"{name} = {getattr(self, name)}" for name in names)
            raise PreconditionError(f"{purpose} needs {', '.join(names)} > 0, got {got}")


@dataclass(frozen=True)
class BalancedProductComplex:
    """Vertex classes, edge classes, faces, and boundary maps of a product.

    Vertex classes are index ranges; reps_* map indices back to the
    lexicographically-smallest (x, y) pair of the orbit.  Qubit coordinates
    are the V10 block followed by the V01 block.
    """

    reps_v00: tuple[tuple[int, int], ...]
    reps_v10: tuple[tuple[int, int], ...]
    reps_v01: tuple[tuple[int, int], ...]
    reps_v11: tuple[tuple[int, int], ...]
    edges_v00_v10: frozenset[tuple[int, int]]
    edges_v01_v11: frozenset[tuple[int, int]]
    edges_v00_v01: frozenset[tuple[int, int]]
    edges_v10_v11: frozenset[tuple[int, int]]
    faces: frozenset[tuple[int, int, int, int]]
    degrees: Optional[DegreeProfile]
    group_order: int
    factor_x: Optional[BipartiteGraph] = None
    factor_y: Optional[BipartiteGraph] = None
    action_x: Optional[GraphAction] = None
    action_y: Optional[GraphAction] = None
    provenance: str = ""

    # -- sizes -------------------------------------------------------------

    @property
    def v00_size(self) -> int:
        return len(self.reps_v00)

    @property
    def v10_size(self) -> int:
        return len(self.reps_v10)

    @property
    def v01_size(self) -> int:
        return len(self.reps_v01)

    @property
    def v11_size(self) -> int:
        return len(self.reps_v11)

    @property
    def n_qubits(self) -> int:
        return self.v10_size + self.v01_size

    # -- boundary maps -------------------------------------------------------

    @cached_property
    def boundary_1(self) -> F2Matrix:
        """F2^{V10} (+) F2^{V01} -> F2^{V11}; rows are V11, columns qubits,
        packed by `gf2.pack` from each qubit's V11 cells."""
        qubit_cells = (*self.subgraph("v10_v11").adj0, *self.subgraph("v01_v11").adj0)
        return F2Matrix(self.v11_size, self.n_qubits, pack(self.v11_size, qubit_cells))

    def v00_map(self) -> F2Matrix:
        """F2^{V10} (+) F2^{V01} -> F2^{V00}; rows are V00, columns qubits.

        Not cached: the code read off the complex keeps it as its Hz.  The
        rows are packed by `gf2.pack` from each qubit's V00 cells, read from
        the subgraphs' cached adjacency.  The column view is seeded with
        `v00_columns`, so the matrix shares them with the subgraphs and the
        X decoder index and never unpacks its rows.
        """
        qubit_cells = (*self.subgraph("v00_v10").adj1, *self.subgraph("v00_v01").adj1)
        matrix = F2Matrix(self.v00_size, self.n_qubits, pack(self.v00_size, qubit_cells))
        matrix.__dict__["col_masks"] = self.v00_columns
        return matrix

    @property
    def v00_columns(self) -> tuple[int, ...]:
        """Each qubit's V00 cells, packed: the V10 then the V01 cells' masks,
        the same int objects as the V00 subgraphs' `masks1`."""
        return self.subgraph("v00_v10").masks1 + self.subgraph("v00_v01").masks1

    @cached_property
    def chain_check(self) -> bool:
        """The chain-condition verdict of this complex: True, or the
        ValidationError of the first loader check that fails.

        The builder and the loader preset it (see the module docstring); any
        other complex runs the loader's checks here, in the loader's order,
        on its faces in the order a file of it lists them.  Code extraction
        and the CSS commuting check read it.
        """
        _check_fields(self)
        _check_complex(self, tuple(sorted(self.faces)))
        return True

    # -- 1-d subgraphs --------------------------------------------------------

    def subgraph(self, which: str) -> BipartiteGraph:
        """One of the four one-dimensional subgraphs, as a bipartite graph.

        Every call with the same `which` returns the same graph object, so its
        adjacency lists and regularity verdict are derived once per complex.
        """
        graph = self._subgraphs.get(which)
        if graph is None:
            raise ValidationError(f"unknown subgraph {which!r}; expected one of {SUBGRAPHS}")
        return graph

    @cached_property
    def _subgraphs(self) -> dict[str, BipartiteGraph]:
        """The four subgraphs, from each edge set sorted once; the loader
        presets them from its file's rows instead."""
        return _subgraphs_from_rows(
            self, {which: sorted(getattr(self, f"edges_{which}")) for which in SUBGRAPHS})

    @cached_property
    def faces_at_qubit(self) -> tuple[dict[int, list[_Face]], dict[int, list[_Face]]]:
        """(by V10 cell, by V01 cell): the faces through each qubit, indexed
        once per complex, so a face scan can start from the qubits it needs."""
        at10: dict[int, list[_Face]] = {}
        at01: dict[int, list[_Face]] = {}
        for face in self.faces:
            at10.setdefault(face[1], []).append(face)
            at01.setdefault(face[2], []).append(face)
        return at10, at01

    @cached_property
    def decoder_indexes(self) -> dict:    # side ("z", "x") -> index, filled by `decoder`
        return {}


def _preset_chain_check(cpx: BalancedProductComplex) -> BalancedProductComplex:
    """Store the verdict True under the cached property's own name, for a
    complex that is a chain complex by proof or has passed the checks."""
    cpx.__dict__[BalancedProductComplex.chain_check.attrname] = True
    return cpx


# -- construction -----------------------------------------------------------


def hypergraph_product(x: BipartiteGraph, y: BipartiteGraph) -> BalancedProductComplex:
    """Cartesian product of two bipartite graphs (trivial-group quotient)."""
    g = trivial_group()
    ax = GraphAction(g, trivial_action(g, x.v0_size), trivial_action(g, x.v1_size))
    ay = GraphAction(g, trivial_action(g, y.v0_size), trivial_action(g, y.v1_size))
    return balanced_product(x, ax, y, ay, provenance="hypergraph product")


def balanced_product(
    x: BipartiteGraph,
    action_x: GraphAction,
    y: BipartiteGraph,
    action_y: GraphAction,
    provenance: str = "balanced product",
) -> BalancedProductComplex:
    """Quotient of the product of two G-graphs by the diagonal G-action.

    Both actions must be over the same group, free on all four vertex sets,
    and must map edges to edges; violations are rejected with the witness.
    Orbit representatives are the lexicographically smallest pairs, so vertex
    indexing is reproducible across runs.  The quotient is written directly
    from an orbit transversal of the x side, one cell, edge and face at a
    time, so the work is the input tables plus the size of the quotient.

    The result is a chain complex by proof, so its verdict is preset and no
    boundary map is built here.  One face is written per product square
    (x0 x1, y0 y1), and that square holds one path through V10, via
    (x1, y0), and one through V01, via (x0, y1), from the class of (x0, y0)
    to the class of (x1, y1).  The freeness and edge-class counts checked
    below mean that no two product edges at one cell fall onto one class
    pair, so the
    quotient's edges are exactly the images of the product's.  The paths
    from a V00 cell, lifted to its representative (x0, y0), therefore reach
    each V11 cell through V10 as often as through V01, once per square at
    (x0, y0): the two composite maps cancel over GF(2).
    """
    group = action_x.group
    if not group.same_table(action_y.group):
        raise ValidationError("factor actions are over different groups")
    for name, act in (("x.v0", action_x.v0), ("x.v1", action_x.v1),
                      ("y.v0", action_y.v0), ("y.v1", action_y.v1)):
        fixed = verify_free_action(act)
        if fixed is not None:
            raise ValidationError(
                f"action on {name} is not free: fixed point (g, x) = {fixed}"
            )
    for name, graph, act in (("x", x, action_x), ("y", y, action_y)):
        violation = verify_edge_invariance(graph, act)
        if violation is not None:
            raise ValidationError(f"action on factor {name} is not edge-invariant at {violation}")
    if action_x.v0.set_size != x.v0_size or action_x.v1.set_size != x.v1_size:
        raise ValidationError("action on x has wrong set sizes")
    if action_y.v0.set_size != y.v0_size or action_y.v1.set_size != y.v1_size:
        raise ValidationError("action on y has wrong set sizes")

    # One representative per orbit of product cells: the x-coordinate is an
    # orbit minimum, so each quotient cell, edge and face is written once.
    tx0, tx1 = _Transversal.of(action_x.v0), _Transversal.of(action_x.v1)
    ny0, ny1 = y.v0_size, y.v1_size
    ay0, ay1 = action_y.v0.table, action_y.v1.table
    reps00, reps10 = tx0.reps(ny0), tx1.reps(ny0)
    reps01, reps11 = tx0.reps(ny1), tx1.reps(ny1)

    ex, ey = x.edges, y.edges
    n = group.order
    e_v00_v10: list[tuple[int, int]] = []
    e_v01_v11: list[tuple[int, int]] = []
    faces: list[tuple[int, int, int, int]] = []
    for x0, x1 in ex:
        if not tx0.is_min(x0):
            continue
        b00, b01 = tx0.rank[x0] * ny0, tx0.rank[x0] * ny1
        b10, b11 = tx1.rank[x1] * ny0, tx1.rank[x1] * ny1
        g = tx1.to_min[x1]
        row0, row1 = ay0[g], ay1[g]
        e_v00_v10 += [(b00 + y0, b10 + row0[y0]) for y0 in range(ny0)]
        e_v01_v11 += [(b01 + y1, b11 + row1[y1]) for y1 in range(ny1)]
        faces += [(b00 + y0, b10 + row0[y0], b01 + y1, b11 + row1[y1]) for y0, y1 in ey]
    e_v00_v01 = [(r * ny0 + y0, r * ny1 + y1) for r in range(len(tx0.minima)) for y0, y1 in ey]
    e_v10_v11 = [(r * ny0 + y0, r * ny1 + y1) for r in range(len(tx1.minima)) for y0, y1 in ey]

    classes = {}
    for name, edges, expected in (
        ("v00_v10", e_v00_v10, len(ex) * y.v0_size // n),
        ("v01_v11", e_v01_v11, len(ex) * y.v1_size // n),
        ("v00_v01", e_v00_v01, len(ey) * x.v0_size // n),
        ("v10_v11", e_v10_v11, len(ey) * x.v1_size // n),
    ):
        classes[name] = frozenset(edges)
        if len(classes[name]) != expected:
            raise ValidationError(
                f"edge class {name} collapsed to {len(classes[name])} classes, expected "
                f"{expected}: distinct product edges fell onto one class pair "
                "(multi-edge); the quotient does not define a simple graph"
            )

    face_set = frozenset(faces)
    if len(face_set) != len(ex) * len(ey) // n:
        raise ValidationError(
            f"face count {len(face_set)} != |E_x||E_y|/|G| = {len(ex) * len(ey) // n}"
        )

    rx = regularity(x)
    ry = regularity(y)
    degrees = None
    if rx.is_regular and ry.is_regular:
        degrees = DegreeProfile(down=rx.w0, up=rx.w1, right=ry.w0, left=ry.w1)

    cpx = BalancedProductComplex(
        reps_v00=reps00,
        reps_v10=reps10,
        reps_v01=reps01,
        reps_v11=reps11,
        edges_v00_v10=classes["v00_v10"],
        edges_v01_v11=classes["v01_v11"],
        edges_v00_v01=classes["v00_v01"],
        edges_v10_v11=classes["v10_v11"],
        faces=face_set,
        degrees=degrees,
        group_order=n,
        factor_x=x,
        factor_y=y,
        action_x=action_x,
        action_y=action_y,
        provenance=provenance,
    )
    return _preset_chain_check(cpx)


@dataclass(frozen=True)
class _Transversal:
    """Orbit data of a free action, as used on the x side of a product.

    For each point x: `rank[x]` is the position of its orbit minimum among all
    orbit minima, and `to_min[x]` the unique g with g.x = that minimum.  The
    lexicographically smallest pair in the diagonal orbit of (x, y) is then
    (minimum, to_min[x].y), so with the pairs sorted its class index is
    rank[x] * |Y| + act_y(to_min[x], y).
    """

    minima: tuple[int, ...]
    rank: tuple[int, ...]
    to_min: tuple[int, ...]

    @classmethod
    def of(cls, action: GroupAction) -> "_Transversal":
        inv = action.group.inv
        rank = [-1] * action.set_size
        to_min = [0] * action.set_size
        minima: list[int] = []
        for x in range(action.set_size):
            if rank[x] >= 0:
                continue
            # Scanning in ascending order, the first unseen point of an orbit
            # is its minimum.
            for g, row in enumerate(action.table):
                rank[row[x]] = len(minima)
                to_min[row[x]] = inv[g]
            minima.append(x)
        return cls(tuple(minima), tuple(rank), tuple(to_min))

    def is_min(self, x: int) -> bool:
        return self.minima[self.rank[x]] == x

    def reps(self, ny: int) -> tuple[tuple[int, int], ...]:
        """The orbit representatives of the pairs (x, y), in index order."""
        return tuple((m, v) for m in self.minima for v in range(ny))

    def class_of(self, x: int, y: int, y_action: GroupAction) -> int:
        return self.rank[x] * y_action.set_size + y_action.table[self.to_min[x]][y]


# -- copies decomposition ----------------------------------------------------


@dataclass(frozen=True)
class SubgraphCopy:
    """One connected component of a 1-d subgraph, tagged with its isomorphism
    onto the corresponding factor graph (complex index -> factor index)."""

    which: str
    v0_map: dict[int, int]
    v1_map: dict[int, int]


def copies_decomposition(cpx: BalancedProductComplex, which: str) -> list[SubgraphCopy]:
    """Decompose a 1-d subgraph into disjoint copies of the factor graph.

    The v00_v10 and v01_v11 subgraphs decompose into copies of the first
    factor, one per orbit of the second factor's corresponding side; the
    v00_v01 and v10_v11 subgraphs into copies of the second factor, one per
    orbit of the first factor's side.  Requires the complex to carry its
    factors and actions.
    """
    if cpx.factor_x is None or cpx.action_x is None:
        raise PreconditionError("complex does not carry factor graphs and actions")
    x, y = cpx.factor_x, cpx.factor_y
    ax, ay = cpx.action_x, cpx.action_y
    copies: list[SubgraphCopy] = []
    if which in ("v00_v10", "v01_v11"):
        # One copy of x per y-orbit: the classes of (x, y_rep) over all x.
        y_act = ay.v0 if which == "v00_v10" else ay.v1
        tx0, tx1 = _Transversal.of(ax.v0), _Transversal.of(ax.v1)
        for y_rep in _Transversal.of(y_act).minima:
            v0_map = {tx0.class_of(xv, y_rep, y_act): xv for xv in range(x.v0_size)}
            v1_map = {tx1.class_of(xv, y_rep, y_act): xv for xv in range(x.v1_size)}
            copies.append(SubgraphCopy(which, v0_map, v1_map))
    elif which in ("v00_v01", "v10_v11"):
        # One copy of y per x-orbit: the classes of (x_rep, y) over all y.
        x_act = ax.v0 if which == "v00_v01" else ax.v1
        tx = _Transversal.of(x_act)
        for x_rep in tx.minima:
            v0_map = {tx.class_of(x_rep, yv, ay.v0): yv for yv in range(y.v0_size)}
            v1_map = {tx.class_of(x_rep, yv, ay.v1): yv for yv in range(y.v1_size)}
            copies.append(SubgraphCopy(which, v0_map, v1_map))
    else:
        raise ValidationError(f"unknown subgraph {which!r}; expected one of {SUBGRAPHS}")
    return copies


# -- certificate inheritance ---------------------------------------------------


def inherit_certificates(
    cpx: BalancedProductComplex,
    cert_x: ExpansionCertificate,
    cert_y: ExpansionCertificate,
) -> dict[str, ExpansionCertificate]:
    """Transport factor expansion certificates to the four 1-d subgraphs.

    A subgraph made of k disjoint copies of a factor inherits the factor's
    expansion with the small-set fraction rescaled by 1/k (epsilon unchanged):
    any small subset splits across copies and each piece expands on its own.
    Certificates must be for the 0-to-1 direction of each factor; the factor
    mode travels with the derived certificate, so sampled evidence never
    silently upgrades to proof.
    """
    if cert_x is None or cert_y is None:
        raise ValidationError("both factor certificates are required")
    if cert_x.side != "0to1" or cert_y.side != "0to1":
        raise ValidationError("inheritance needs 0to1 certificates for both factors")
    if cpx.degrees is None:
        raise PreconditionError("inheritance needs biregular factors")
    d = cpx.degrees
    out: dict[str, ExpansionCertificate] = {}
    spec = (
        ("v00_v10", cert_x, cpx.v00_size, cpx.v10_size, d.down),
        ("v01_v11", cert_x, cpx.v01_size, cpx.v11_size, d.down),
        ("v00_v01", cert_y, cpx.v00_size, cpx.v01_size, d.right),
        ("v10_v11", cert_y, cpx.v10_size, cpx.v11_size, d.right),
    )
    for which, cert, src_size, dst_size, w_src in spec:
        scaled = cert.c * Fraction(cert.v_src_size, src_size)
        out[which] = ExpansionCertificate(
            side="0to1",
            v_src_size=src_size,
            v_dst_size=dst_size,
            w_src=w_src,
            c=scaled,
            epsilon=cert.epsilon,
            mode=cert.mode,
            verdict=cert.verdict,
            trials=cert.trials,
            seed=cert.seed,
            budget=cert.budget,
            subsets_checked=cert.subsets_checked,
            note=f"inherited onto {which} from a factor certificate "
                 f"(mode={cert.mode})",
        )
    return out


# -- interchange ---------------------------------------------------------------


_PAIR_FIELDS = ("reps_v00", "reps_v10", "reps_v01", "reps_v11",
                "edges_v00_v10", "edges_v01_v11", "edges_v00_v01", "edges_v10_v11")


def complex_to_json(cpx: BalancedProductComplex) -> dict:
    """The complex file's data, each table a list of the complex's own tuples
    (reps in index order, edges and faces sorted), which JSON writes as
    arrays: a caller that edits a row copies it first."""
    d = cpx.degrees
    return {
        "v00": cpx.v00_size,
        "v10": cpx.v10_size,
        "v01": cpx.v01_size,
        "v11": cpx.v11_size,
        **{name: list(getattr(cpx, name)) for name in _PAIR_FIELDS[:4]},
        **{name: sorted(getattr(cpx, name)) for name in _PAIR_FIELDS[4:]},
        "faces": sorted(cpx.faces),
        "degrees": {"down": d.down, "up": d.up, "right": d.right, "left": d.left}
        if d else None,
        "group_order": cpx.group_order,
        "provenance": cpx.provenance,
    }


def complex_from_json(obj: dict) -> BalancedProductComplex:
    """Load a complex written by `complex_to_json`.

    Reps and edges are lists of int pairs, faces lists of four ints,
    `degrees` null or four ints, `group_order` a positive int and
    `provenance`, when present, a string; anything else is refused with a
    ValidationError naming the field.  Each table is read in one C-level
    pass (see `jsonio._int_rows`).  A declared class size (`v00`, `v10`,
    `v01`, `v11`), when present, must be the int length of its reps list,
    and a class's representatives must be distinct, as orbits are disjoint.
    No edge class may repeat an edge.  Each class's rows, sorted once, check
    the endpoints and seed its subgraph (see the module docstring); then
    the edges are checked against the recorded degrees and the faces
    against the edges (`_check_complex`, which a hand-built complex runs
    too).  The first check that fails names the file's error.  Faces in
    one-to-one correspondence with both families of two-edge paths prove
    the chain condition, so the verdict is preset and no map is built.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"complex JSON must be an object, got {type(obj).__name__}")
    try:
        rows = {name: _int_rows(obj[name], name, 2) for name in _PAIR_FIELDS}
        faces = _int_rows(obj["faces"], "faces", 4)
    except KeyError as exc:
        raise ValidationError(f"malformed complex JSON: missing {exc}") from exc
    for cell in ("v00", "v10", "v01", "v11"):
        reps = rows[f"reps_{cell}"]
        size = len(reps)
        declared = obj.get(cell, size)
        if type(declared) is not int or declared != size:
            raise ValidationError(
                f"complex {cell} must be {size}, the length of reps_{cell}, got {declared!r:.40}")
        _check_reps(cell, reps)
    deg = obj.get("degrees")
    degrees = None
    if deg is not None:
        if not isinstance(deg, dict):
            raise ValidationError(
                f"complex degrees must be an object or null, got {type(deg).__name__}")
        try:
            degrees = DegreeProfile(*(_int_value(deg[name], f"degree {name}")
                                      for name in ("down", "up", "right", "left")))
        except KeyError as exc:
            raise ValidationError(f"malformed complex JSON: degrees miss {exc}") from exc
    group_order = _check_group_order(obj.get("group_order", 1))
    provenance = _check_provenance(obj.get("provenance", ""))
    edges = {}
    for name in _PAIR_FIELDS[4:]:
        edges[name] = frozenset(rows[name])
        if len(edges[name]) != len(rows[name]):
            i = _first_repeat(rows[name])
            raise ValidationError(f"{name}[{i}] repeats the edge {list(rows[name][i])}")
    cpx = BalancedProductComplex(
        reps_v00=rows["reps_v00"],
        reps_v10=rows["reps_v10"],
        reps_v01=rows["reps_v01"],
        reps_v11=rows["reps_v11"],
        **edges,
        faces=frozenset(faces),
        degrees=degrees,
        group_order=group_order,
        provenance=provenance,
    )
    cpx.__dict__[BalancedProductComplex._subgraphs.attrname] = _subgraphs_from_rows(
        cpx, {which: sorted(rows[f"edges_{which}"]) for which in SUBGRAPHS})
    _check_complex(cpx, faces)
    return _preset_chain_check(cpx)


def _check_reps(cell: str, reps: tuple[tuple[int, int], ...]) -> None:
    """A class's orbit representatives must be distinct, as orbits are disjoint."""
    if len(set(reps)) != len(reps):
        i = _first_repeat(reps)
        raise ValidationError(
            f"reps_{cell}[{i}] repeats the orbit representative {list(reps[i])}")


def _check_group_order(value: object) -> int:
    """`value` as a group order: an int of at least 1."""
    group_order = _int_value(value, "group_order")
    if group_order < 1:
        raise ValidationError(f"group_order must be positive, got {group_order}")
    return group_order


def _check_provenance(value: object) -> str:
    """`value` as a provenance: exactly a str, written back as read."""
    if type(value) is not str:
        raise ValidationError(f"complex provenance must be a string, got {value!r:.40}")
    return value


def _check_fields(cpx: BalancedProductComplex) -> None:
    """The loader's checks of the fields that feed no boundary map, in its
    order: each class's representatives, the group order, then the
    provenance.  The loader makes them as it reads the fields; a complex
    built field by field makes them before `_check_complex`."""
    for cell in ("v00", "v10", "v01", "v11"):
        _check_reps(cell, getattr(cpx, f"reps_{cell}"))
    _check_group_order(cpx.group_order)
    _check_provenance(cpx.provenance)


def _check_complex(cpx: BalancedProductComplex, faces: tuple[tuple[int, ...], ...]) -> None:
    """The loader's last checks, after `_check_fields`, in order: every edge
    endpoint (on first subgraph use), the degrees when recorded, then the
    faces, scanned in `faces` order.  The first that fails raises its
    ValidationError."""
    cpx.subgraph("v00_v10")
    if cpx.degrees is not None:
        _check_degrees(cpx)
    _check_faces(cpx, faces)


def _subgraphs_from_rows(cpx: BalancedProductComplex,
                         rows: dict[str, list[tuple[int, int]]]) -> dict[str, BipartiteGraph]:
    """The four subgraphs of `cpx`, each seeded from `rows[which]`, that
    class's distinct edges in ascending order, once every edge joins a
    vertex of its first class to one of its second: the adjacency and the
    maps index by them unchecked, and an endpoint past its class would land
    on another class's row.  The first and last rows bound the first ends,
    one min and one max the second; a refusal names the smallest bad edge
    of the first bad class, the V11 map's classes first."""
    sizes = {"v00": cpx.v00_size, "v10": cpx.v10_size,
             "v01": cpx.v01_size, "v11": cpx.v11_size}
    for which in ("v10_v11", "v01_v11", "v00_v10", "v00_v01"):
        edges = rows[which]
        size0, size1 = (sizes[cell] for cell in which.split("_"))
        if edges and (edges[0][0] < 0 or edges[-1][0] >= size0
                      or min(map(itemgetter(1), edges)) < 0
                      or max(map(itemgetter(1), edges)) >= size1):
            a, b = next(e for e in edges if not (0 <= e[0] < size0 and 0 <= e[1] < size1))
            raise ValidationError(
                f"edge ({a}, {b}) in edges_{which} has an endpoint outside its "
                f"class (sizes {size0} and {size1})"
            )
    graphs = {}
    for which in SUBGRAPHS:
        first, second = which.split("_")
        graphs[which] = BipartiteGraph(sizes[first], sizes[second],
                                       getattr(cpx, f"edges_{which}"))
        seed_adjacency(graphs[which], rows[which])
    return graphs


def _check_faces(cpx: BalancedProductComplex, faces: tuple[tuple[int, ...], ...]) -> None:
    """Each face (z00, z10, z01, z11) must lie on four edges, and the faces
    must match the V00-V10-V11 and the V00-V01-V11 paths one to one.

    Set algebra accepts the faces, in C: the corner columns of the faces are
    zipped into corner pairs, each of which must be a subset of its edge
    class, and into the two kinds of path, each of which must have as many
    distinct elements as there are faces.  Only a file that fails this is
    scanned face by face, in file order, for the first face off the edges
    or repeating an earlier face's path (`_first_bad_face`).  Each face
    holds one path of each kind, so with no path repeated the faces cover
    every path exactly when there are as many as there are paths; only a
    shortfall is scanned, for the first path on no face.  Passing, it
    proves the chain condition: the faces with corners z00 and z11 count
    both the paths from z00 to z11 through V10 and those through V01, so
    the two counts are equal.
    """
    z00s, z10s, z01s, z11s = tuple(zip(*faces)) or ((),) * 4
    via10 = set(zip(z00s, z10s, z11s))
    via01 = set(zip(z00s, z01s, z11s))
    if not (len(via10) == len(via01) == len(faces)
            and cpx.edges_v00_v10.issuperset(zip(z00s, z10s))
            and cpx.edges_v00_v01.issuperset(zip(z00s, z01s))
            and cpx.edges_v10_v11.issuperset(zip(z10s, z11s))
            and cpx.edges_v01_v11.issuperset(zip(z01s, z11s))):
        raise _first_bad_face(cpx, faces)
    for cell, via, down, up in (("V10", via10, "v00_v10", "v10_v11"),
                                ("V01", via01, "v00_v01", "v01_v11")):
        into, out = cpx.subgraph(down).adj1, cpx.subgraph(up).adj0
        if sum(map(mul, map(len, into), map(len, out))) != len(via):
            z00, z, z11 = next((z00, z, z11) for z, (a, b) in enumerate(zip(into, out))
                               for z00 in a for z11 in b if (z00, z, z11) not in via)
            raise ValidationError(
                f"no face holds the path V00 {z00} -> {cell} {z} -> V11 {z11}")


def _first_bad_face(cpx: BalancedProductComplex,
                    faces: tuple[tuple[int, ...], ...]) -> ValidationError:
    """The refusal of the first face, in file order, that is off the edges
    or repeats a two-edge path of an earlier face."""
    e10, e01 = cpx.edges_v00_v10, cpx.edges_v00_v01
    f10, f01 = cpx.edges_v10_v11, cpx.edges_v01_v11
    via10: set[tuple[int, int, int]] = set()
    via01: set[tuple[int, int, int]] = set()
    for face in faces:
        z00, z10, z01, z11 = face
        if not ((z00, z10) in e10 and (z00, z01) in e01
                and (z10, z11) in f10 and (z01, z11) in f01):
            return ValidationError(f"face {list(face)} does not lie on four edges of the complex")
        if (z00, z10, z11) in via10 or (z00, z01, z11) in via01:
            return ValidationError(f"face {list(face)} repeats a two-edge path of an earlier face")
        via10.add((z00, z10, z11))
        via01.add((z00, z01, z11))
    raise InternalInvariantError("the set checks refused faces with no bad face")


def _check_degrees(cpx: BalancedProductComplex) -> None:
    """Every vertex must have the recorded degree in both of its edge classes.

    A vertex's degree in a class is the length of its list in that class's
    cached adjacency, which `_check_faces` reads too; the endpoints are
    already known to lie in their classes.  A class is right when the set of
    its lengths is {expected}; only a wrong class is scanned for its first
    wrong vertex.
    """
    d = cpx.degrees
    for cell, which, end, name, expected in (
        ("V00", "v00_v10", 0, "down", d.down),
        ("V00", "v00_v01", 0, "right", d.right),
        ("V10", "v00_v10", 1, "up", d.up),
        ("V10", "v10_v11", 0, "right", d.right),
        ("V01", "v01_v11", 0, "down", d.down),
        ("V01", "v00_v01", 1, "left", d.left),
        ("V11", "v01_v11", 1, "up", d.up),
        ("V11", "v10_v11", 1, "left", d.left),
    ):
        graph = cpx.subgraph(which)
        counts = tuple(map(len, graph.adj1 if end else graph.adj0))
        if set(counts) - {expected}:
            v = next(v for v, k in enumerate(counts) if k != expected)
            raise ValidationError(
                f"degrees say {name} = {expected}, but {cell} vertex {v} has "
                f"{counts[v]} edges in {which}"
            )
