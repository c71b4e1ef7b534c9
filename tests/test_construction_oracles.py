"""Fast construction paths against their exhaustive oracles.

The group laws are checked on a generating set, edge invariance on the
generators (and a Cayley graph's not at all, since its translations keep
the edges by proof), the balanced product is written from an orbit
transversal, and square completion reads the face index.  Each fast path is
compared here with the exhaustive code it replaced: the all-triples
associativity check, the all-(g, h, x) action check, the scan of every
(g, edge), the builder that enumerates the whole unquotiented product, and
the four completion tables.
"""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbp.errors import ValidationError
from qbp.graphs import (
    GraphAction,
    build_bipartite,
    cayley_bipartite,
    regularity,
    verify_edge_invariance,
)
from qbp.groups import (
    FiniteGroup,
    GroupAction,
    cyclic_group,
    dihedral_group,
    trivial_group,
)
from qbp.instances import (
    doubled_complete_incidence,
    left_right_cayley,
    random_free_action_graph,
    star_graph,
)
from qbp.jsonio import canonical_dumps
from qbp.product import (
    BalancedProductComplex,
    DegreeProfile,
    balanced_product,
    complex_to_json,
    copies_decomposition,
    hypergraph_product,
)
from fixtures import conjugation_action, random_bipartite, symmetric_group
from oracles import transposed
from test_local_oracles import table_groups

GROUPS = {
    "Z1": trivial_group,
    "Z2": lambda: cyclic_group(2),
    "Z5": lambda: cyclic_group(5),
    "Z6": lambda: cyclic_group(6),
    "Z8": lambda: cyclic_group(8),
    "D3": lambda: dihedral_group(3),
    "D4": lambda: dihedral_group(4),
    "D5": lambda: dihedral_group(5),
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
}


# -- oracles -------------------------------------------------------------------


def exhaustive_group_ok(table):
    """Identity, inverses and associativity over every triple."""
    n = len(table)
    ids = [e for e in range(n)
           if all(table[e][x] == x and table[x][e] == x for x in range(n))]
    if not ids:
        return False
    e = ids[0]
    if not all(any(table[a][b] == e and table[b][a] == e for b in range(n)) for a in range(n)):
        return False
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a, b, c in itertools.product(range(n), repeat=3))


def exhaustive_action_violation(group, table):
    """The first point the identity moves, as ("identity", x), or the first
    (g, h, x) with act(g, act(h, x)) != act(gh, x); None for an action."""
    for x, v in enumerate(table[group.identity]):
        if v != x:
            return ("identity", x)
    for g in group.elements():
        for h in group.elements():
            for x in range(len(table[0])):
                if table[g][table[h][x]] != table[group.op(g, h)][x]:
                    return (g, h, x)
    return None


def exhaustive_edge_violation(graph, action):
    """The first (g, edge) that maps an edge off the graph, scanning all of G."""
    for g in action.group.elements():
        r0, r1 = action.v0.table[g], action.v1.table[g]
        for x0, x1 in sorted(graph.edges):
            if (r0[x0], r1[x1]) not in graph.edges:
                return (g, (x0, x1))
    return None


CORNERS = ("z00", "z10", "z01", "z11")
# The omitted corner -> the corners that key its completion table.
COMPLETION_KEYS = {"z11": ("z00", "z10", "z01"), "z01": ("z00", "z10", "z11"),
                   "z10": ("z11", "z01", "z00"), "z00": ("z01", "z11", "z10")}


def oracle_completion(cpx):
    """The four completion tables, omitted corner -> {triple: corner}, built
    from every face; a triple with two answers refuses the whole complex."""
    tables = {which: {} for which in COMPLETION_KEYS}
    for face in cpx.faces:
        named = dict(zip(CORNERS, face))
        for which, table in tables.items():
            key = tuple(named[k] for k in COMPLETION_KEYS[which])
            if table.get(key, named[which]) != named[which]:
                raise ValidationError(f"square completion is not unique at {key}; "
                                      "the underlying action cannot be free")
            table[key] = named[which]
    return tables


def orbit_classes(nx, ny, ax, ay, group):
    """Lexicographic orbit representatives of all pairs, and every pair's class."""
    rep = {}
    for x0 in range(nx):
        for y0 in range(ny):
            p = (x0, y0)
            if p in rep:
                continue
            orbit = {(ax.table[g][x0], ay.table[g][y0]) for g in group.elements()}
            assert len(orbit) == group.order
            r = min(orbit)
            for q in orbit:
                rep[q] = r
    reps = tuple(sorted(set(rep.values())))
    index = {r: i for i, r in enumerate(reps)}
    return reps, {p: index[r] for p, r in rep.items()}


def oracle_balanced_product(x, action_x, y, action_y, provenance):
    """The product built from every pair of the unquotiented product, with the
    class map of every pair."""
    group = action_x.group
    n = group.order
    reps00, cls00 = orbit_classes(x.v0_size, y.v0_size, action_x.v0, action_y.v0, group)
    reps10, cls10 = orbit_classes(x.v1_size, y.v0_size, action_x.v1, action_y.v0, group)
    reps01, cls01 = orbit_classes(x.v0_size, y.v1_size, action_x.v0, action_y.v1, group)
    reps11, cls11 = orbit_classes(x.v1_size, y.v1_size, action_x.v1, action_y.v1, group)
    ex, ey = sorted(x.edges), sorted(y.edges)
    e_v00_v10 = {(cls00[(x0, y0)], cls10[(x1, y0)]) for x0, x1 in ex for y0 in range(y.v0_size)}
    e_v01_v11 = {(cls01[(x0, y1)], cls11[(x1, y1)]) for x0, x1 in ex for y1 in range(y.v1_size)}
    e_v00_v01 = {(cls00[(x0, y0)], cls01[(x0, y1)]) for y0, y1 in ey for x0 in range(x.v0_size)}
    e_v10_v11 = {(cls10[(x1, y0)], cls11[(x1, y1)]) for y0, y1 in ey for x1 in range(x.v1_size)}
    faces = {(cls00[(x0, y0)], cls10[(x1, y0)], cls01[(x0, y1)], cls11[(x1, y1)])
             for x0, x1 in ex for y0, y1 in ey}
    assert len(e_v00_v10) == len(ex) * y.v0_size // n
    assert len(faces) == len(ex) * len(ey) // n
    rx, ry = regularity(x), regularity(y)
    degrees = None
    if rx.is_regular and ry.is_regular:
        degrees = DegreeProfile(down=rx.w0, up=rx.w1, right=ry.w0, left=ry.w1)
    cpx = BalancedProductComplex(
        reps_v00=reps00, reps_v10=reps10, reps_v01=reps01, reps_v11=reps11,
        edges_v00_v10=frozenset(e_v00_v10), edges_v01_v11=frozenset(e_v01_v11),
        edges_v00_v01=frozenset(e_v00_v01), edges_v10_v11=frozenset(e_v10_v11),
        faces=frozenset(faces), degrees=degrees, group_order=n,
        factor_x=x, factor_y=y, action_x=action_x, action_y=action_y,
        provenance=provenance,
    )
    return cpx, {"v00": cls00, "v10": cls10, "v01": cls01, "v11": cls11}


def oracle_copies(cpx, classes, which):
    """(v0_map, v1_map) of each copy, read off the full class maps."""
    x, y, ax, ay = cpx.factor_x, cpx.factor_y, cpx.action_x, cpx.action_y

    def orbit_reps(action, size):
        seen, reps = set(), []
        for v in range(size):
            if v not in seen:
                reps.append(v)
                seen.update(action.table[g][v] for g in action.group.elements())
        return reps

    out = []
    if which in ("v00_v10", "v01_v11"):
        side = 0 if which == "v00_v10" else 1
        c0, c1 = (classes["v00"], classes["v10"]) if side == 0 else (classes["v01"], classes["v11"])
        for y_rep in orbit_reps(ay.v0 if side == 0 else ay.v1, y.v0_size if side == 0 else y.v1_size):
            out.append(({c0[(v, y_rep)]: v for v in range(x.v0_size)},
                        {c1[(v, y_rep)]: v for v in range(x.v1_size)}))
    else:
        side = 0 if which == "v00_v01" else 1
        c0, c1 = (classes["v00"], classes["v01"]) if side == 0 else (classes["v10"], classes["v11"])
        for x_rep in orbit_reps(ax.v0 if side == 0 else ax.v1, x.v0_size if side == 0 else x.v1_size):
            out.append(({c0[(x_rep, v)]: v for v in range(y.v0_size)},
                        {c1[(x_rep, v)]: v for v in range(y.v1_size)}))
    return out


# -- action tables -------------------------------------------------------------


def block_translation(group, blocks):
    n = group.order
    return [[b * n + group.op(g, h) for b in range(blocks) for h in group.elements()]
            for g in group.elements()]


def natural_tables(name, group):
    """Valid action tables of the group: translations, conjugation, a trivial
    action, block translations, and its action on letters or polygon corners."""
    tables = [
        [list(r) for r in group.mul],
        [list(r) for r in group.right_translation.table],
        [list(r) for r in conjugation_action(group).table],
        [list(range(3)) for _ in group.elements()],
        block_translation(group, 2),
    ]
    if name.startswith("S"):
        letters = int(name[1:])
        perms = sorted(itertools.permutations(range(letters)))
        tables.append([list(p) for p in perms])
    if name.startswith("D"):
        m = int(name[1:])
        tables.append([[(g // 2 + (-1) ** (g % 2) * v) % m for v in range(m)]
                       for g in group.elements()])
    return tables


def check_action_witness(group, table, message):
    """A rejected action must name a real (g, h, x) failure."""
    found = re.search(r"g=(\d+), h=(\d+), x=(\d+)", message)
    if found:
        g, h, x = map(int, found.groups())
        assert table[g][table[h][x]] != table[group.op(g, h)][x]


def check_associativity_witness(table, message):
    """A rejected table must name a real (a, s, c) failure."""
    found = re.search(r"associativity fails at \((\d+),(\d+),(\d+)\)", message)
    if found:
        a, s, c = map(int, found.groups())
        assert table[table[a][s]][c] != table[a][table[s][c]]


class TestGroupLaws:
    def test_generators_generate_with_at_most_log2_order(self):
        for name, make in GROUPS.items():
            group = make()
            gens = group.generators
            assert len(gens) <= math.floor(math.log2(group.order))
            reached, frontier = {group.identity}, [group.identity]
            while frontier:
                nxt = [group.op(h, s) for h in frontier for s in gens]
                frontier = [v for v in nxt if v not in reached]
                reached.update(frontier)
            assert reached == set(group.elements()), name

    def test_light_test_rejects_a_table_that_sampling_accepted(self):
        # Z_256 with two entries of row 111 swapped keeps its identity and
        # inverses and breaks associativity on few enough triples that the
        # earlier 20,000-triple sampler (fixed seed) missed every one.
        m = 256
        table = [[(a + b) % m for b in range(m)] for a in range(m)]
        table[111][63], table[111][254] = table[111][254], table[111][63]
        with pytest.raises(ValidationError, match="associativity fails") as info:
            FiniteGroup.from_table(table)
        check_associativity_witness(table, str(info.value))

    def test_associativity_failure_seen_only_at_a_later_generator(self):
        # Z_2 x Q, where Q is Z_8 with two entries of row 3 swapped (identity
        # and inverses kept).  Element 2q + z is (z, q), so the first
        # generator 1 = (1, 0) associates with everything; only a later
        # generator from the Q factor exposes the failure.
        q = [[(a + b) % 8 for b in range(8)] for a in range(8)]
        q[3][1], q[3][2] = q[3][2], q[3][1]
        table = [[2 * q[a // 2][b // 2] + (a + b) % 2 for b in range(16)] for a in range(16)]
        assert not exhaustive_group_ok(table)
        with pytest.raises(ValidationError, match="associativity fails"):
            FiniteGroup.from_table(table)

    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(GROUPS)), data=st.data())
    def test_group_verdict_matches_exhaustive(self, name, data):
        table = [list(r) for r in GROUPS[name]().mul]
        n = len(table)
        if data.draw(st.booleans(), label="corrupt") and n > 1:
            a = data.draw(st.integers(0, n - 1), label="a")
            b = data.draw(st.integers(0, n - 1), label="b")
            table[a][b] = data.draw(st.integers(0, n - 1), label="value")
        try:
            FiniteGroup.from_table(table)
            fast_ok = True
        except ValidationError as exc:
            fast_ok = False
            check_associativity_witness(table, str(exc))
        assert fast_ok == exhaustive_group_ok(table)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(GROUPS)), data=st.data())
    def test_action_verdict_matches_exhaustive(self, name, data):
        group = GROUPS[name]()
        tables = natural_tables(name, group)
        table = [list(r) for r in data.draw(st.sampled_from(tables), label="action")]
        size = len(table[0])
        if data.draw(st.booleans(), label="corrupt"):
            g = data.draw(st.integers(0, group.order - 1), label="g")
            x = data.draw(st.integers(0, size - 1), label="x")
            table[g][x] = data.draw(st.integers(0, size - 1), label="value")
        try:
            GroupAction.from_table(group, table)
            fast_ok = True
        except ValidationError as exc:
            fast_ok = False
            check_action_witness(group, table, str(exc))
        assert fast_ok == (exhaustive_action_violation(group, table) is None)


# -- edge invariance -------------------------------------------------------------


def random_factor(group, rng):
    """A seeded random graph with a free action: 1-2 blocks a side, 1-3 edge orbits."""
    blocks0, blocks1 = rng.randrange(1, 3), rng.randrange(1, 3)
    orbits = rng.randrange(1, min(3, blocks0 * blocks1 * group.order) + 1)
    return random_free_action_graph(group, blocks0, blocks1, orbits, rng)


def invariant_graph(group, rng):
    if rng.random() < 0.5 and group.order > 1:
        gens = rng.sample(range(group.order), rng.randrange(1, min(3, group.order) + 1))
        cg = cayley_bipartite(group, gens, rng.choice(["left", "right"]))
        return cg.graph, cg.action
    return random_factor(group, rng)


class TestEdgeInvariance:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(GROUPS)), seed=st.integers(0, 10**6),
           corruption=st.sampled_from(["none", "drop", "add", "move"]))
    def test_witness_matches_exhaustive(self, name, seed, corruption):
        rng = random.Random(seed)
        group = GROUPS[name]()
        graph, action = invariant_graph(group, rng)
        edges = set(graph.edges)
        if corruption == "drop" and edges:
            edges.discard(rng.choice(sorted(edges)))
        elif corruption == "add":
            missing = [(a, b) for a in range(graph.v0_size) for b in range(graph.v1_size)
                       if (a, b) not in edges]
            if missing:
                edges.add(rng.choice(missing))
        elif corruption == "move" and edges:
            a, b = rng.choice(sorted(edges))
            edges.discard((a, b))
            edges.add((a, rng.randrange(graph.v1_size)))
        graph = build_bipartite(graph.v0_size, graph.v1_size, edges)
        assert verify_edge_invariance(graph, action) == exhaustive_edge_violation(graph, action)

    def test_violation_seen_only_at_a_later_generator(self):
        # D_4 translating both sides: the reflection 1 swaps the two edges,
        # the rotation 2 moves them off the graph.
        group = dihedral_group(4)
        left = GroupAction.from_table(group, group.mul)
        action = GraphAction(group, left, left)
        graph = build_bipartite(8, 8, [(0, 0), (1, 1)])
        assert verify_edge_invariance(graph, action) == (2, (0, 0))
        assert exhaustive_edge_violation(graph, action) == (2, (0, 0))

    def test_actions_over_another_table_scan_every_element(self):
        # The vertex actions are over the Klein group D_2; the graph action
        # claims Z_4, whose generator alone says nothing about D_2's table.
        klein, z4 = dihedral_group(2), cyclic_group(4)
        cg = cayley_bipartite(klein, [1, 2], "right")
        action = GraphAction(z4, cg.action.v0, cg.action.v1)
        graph = build_bipartite(4, 4, set(cg.graph.edges) - {(0, 1)} | {(0, 3)})
        assert verify_edge_invariance(graph, action) == exhaustive_edge_violation(graph, action)
        assert verify_edge_invariance(graph, action) is not None


class TestCayleyByProof:
    @settings(max_examples=150, deadline=None)
    @given(group=table_groups(), side=st.sampled_from(["left", "right"]), data=st.data())
    def test_translations_keep_the_edges(self, group, side, data):
        gens = data.draw(st.lists(st.integers(0, group.order - 1), unique=True,
                                  max_size=min(4, group.order)))
        cg = cayley_bipartite(group, gens, side)
        assert verify_edge_invariance(cg.graph, cg.action) is None
        assert exhaustive_edge_violation(cg.graph, cg.action) is None
        # Translating from the same side keeps the edges only when the
        # generators are closed under conjugation; the witness is the scan's.
        same = group.left_translation if side == "left" else group.right_translation
        action = GraphAction(group, same, same)
        assert verify_edge_invariance(cg.graph, action) == \
            exhaustive_edge_violation(cg.graph, action)


# -- balanced products -------------------------------------------------------------


def assert_matches_oracle(cpx):
    oracle, classes = oracle_balanced_product(cpx.factor_x, cpx.action_x, cpx.factor_y,
                                              cpx.action_y, cpx.provenance)
    assert canonical_dumps(complex_to_json(cpx)) == canonical_dumps(complex_to_json(oracle))
    for which in ("v00_v10", "v01_v11", "v00_v01", "v10_v11"):
        fast = [(c.v0_map, c.v1_map) for c in copies_decomposition(cpx, which)]
        assert fast == oracle_copies(cpx, classes, which)


class TestBalancedProductOracle:
    @pytest.mark.parametrize("family", ["toric2", "toric3", "match8", "star12", "incstar13"])
    def test_conftest_families(self, family, request):
        assert_matches_oracle(request.getfixturevalue(family))

    @pytest.mark.parametrize("build", [
        lambda: left_right_cayley(dihedral_group(4), [1, 2], [1, 2]),
        lambda: left_right_cayley(symmetric_group(3), [1, 2], [3]),
        lambda: left_right_cayley(cyclic_group(12), [1, 2], [1, 4]),
        lambda: balanced_product(*star_graph(7, 2), *doubled_complete_incidence(7)),
        lambda: hypergraph_product(random_bipartite(4, 3, 6, random.Random(5)),
                                   random_bipartite(3, 5, 7, random.Random(6))),
    ])
    def test_more_families(self, build):
        assert_matches_oracle(build())

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(GROUPS)), seed=st.integers(0, 10**6))
    def test_random_free_action_products(self, name, seed):
        rng = random.Random(seed)
        group = GROUPS[name]()
        x, ax = random_factor(group, rng)
        y, ay = random_factor(group, rng)
        assert_matches_oracle(balanced_product(x, ax, y, ay))


# -- square completion ---------------------------------------------------------------


class TestSquareCompletionOracle:
    """Freeness makes square completion unique: `oracle_completion`, which
    refuses a triple of corners that lies on two faces, builds on every
    product."""

    @pytest.mark.parametrize("family", ["toric2", "toric3", "match8", "star12", "incstar13"])
    def test_conftest_families_and_their_transposes(self, family, request):
        cpx = request.getfixturevalue(family)
        oracle_completion(cpx)
        oracle_completion(transposed(cpx))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(GROUPS)), seed=st.integers(0, 10**6))
    def test_random_free_action_products(self, name, seed):
        rng = random.Random(seed)
        group = GROUPS[name]()
        x, ax = random_factor(group, rng)
        y, ay = random_factor(group, rng)
        oracle_completion(balanced_product(x, ax, y, ay))

    def test_ambiguous_completion_is_refused_where_it_is_asked(self):
        # One V00, V10 and V01 cell, two V11 cells, and a face through each:
        # the path V00 0 -> V10 0 and V01 0 closes in two ways.
        pair = frozenset({(0, 0)})
        both = frozenset({(0, 0), (0, 1)})
        cpx = BalancedProductComplex(
            reps_v00=((0, 0),), reps_v10=((0, 0),), reps_v01=((0, 0),),
            reps_v11=((0, 0), (0, 1)),
            edges_v00_v10=pair, edges_v01_v11=both, edges_v00_v01=pair, edges_v10_v11=both,
            faces=frozenset({(0, 0, 0, 0), (0, 0, 0, 1)}), degrees=None, group_order=1,
        )
        assert cpx.chain_check is True
        with pytest.raises(ValidationError, match=re.escape(
                "square completion is not unique at (0, 0, 0); "
                "the underlying action cannot be free")):
            oracle_completion(cpx)
