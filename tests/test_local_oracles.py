"""Cached verdicts and error-local scans against the code they replaced.

Freeness scans, translation actions, regularity verdicts and the complex's
subgraphs are computed once per object; a group's translations are built
without a check or a freeness scan, and a table equal to one of them loads
as that object; the region diagnostics visit only
the faces through an error qubit; `tree_partition` runs its flow over
N(v1) only, on the vertex ids; and a complex's code reads its weight off
the subgraph adjacency.  Each is compared here with the earlier
formulation, kept as an oracle: the validating action path, the full face
scan, the all-owners partition on a `FlowNetwork`, the uncached regularity
and freeness scans, and the column-mask weight.  Every field
must be equal, `per_vertex` included, and so must every refusal; a
partition lists only N(v1), so its `assignment` and `leftover` equal the
oracle's there, and the oracle's other entries must be empty or 0.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbp import graphs, groups, product
from qbp.css import CssCode, extract_code
from qbp.decoder import RegionReport, _index_for, region_diagnostics
from qbp.errors import InternalInvariantError, PreconditionError, ValidationError
from qbp.gf2 import F2Matrix
from qbp.expansion import TreePartition, tree_partition
from qbp.graphs import (
    BipartiteGraph,
    NonRegularReport,
    RegularityProfile,
    neighbors,
    regularity,
)
from qbp.groups import (
    FiniteGroup,
    GroupAction,
    cyclic_group,
    dihedral_group,
    trivial_action,
    verify_free_action,
)
from qbp.instances import (
    incidence_star_product,
    left_right_cayley,
    random_free_action_graph,
    star_product,
    toric_complex,
)
from qbp.jsonio import _int_rows
from qbp.product import SUBGRAPHS, balanced_product, hypergraph_product

import oracles
from fixtures import conjugation_action, random_bipartite, symmetric_group, zero_matrix
from oracles import FlowNetwork, max_flow_integer, transpose, transposed


# -- oracles: the earlier formulations ------------------------------------------


def oracle_regularity(graph):
    """Degree scan over V0 then V1, recomputed on every call."""
    w0 = len(graph.adj0[0]) if graph.v0_size else 0
    for x0 in range(graph.v0_size):
        d = len(graph.adj0[x0])
        if d != w0:
            return NonRegularReport(0, x0, d)
    w1 = len(graph.adj1[0]) if graph.v1_size else 0
    for x1 in range(graph.v1_size):
        d = len(graph.adj1[x1])
        if d != w1:
            return NonRegularReport(1, x1, d)
    return RegularityProfile(w0, w1)


def oracle_free_action(action):
    """The first fixed point (g, x), g != identity, rescanned on every call."""
    e = action.group.identity
    for g in range(action.group.order):
        if g == e:
            continue
        for x in range(action.set_size):
            if action.table[g][x] == x:
                return (g, x)
    return None


def oracle_action_from_table(group, table):
    """The validating path every action table took before translations were
    recognised: int and shape checks, the value range, then the law on the
    generators."""
    tab = _int_rows(table, "action table")
    if len(tab) != group.order:
        raise ValidationError(f"action table has {len(tab)} rows, expected {group.order}")
    sizes = set(map(len, tab))
    if len(sizes) > 1:
        raise ValidationError("action table rows have unequal lengths")
    set_size = sizes.pop() if sizes else 0
    groups._check_range(tab, set_size, "action value")
    groups._check_action_law(group, tab, set_size)
    return GroupAction(group, set_size, tab)


def oracle_weight(code):
    """Column masks of Hx and Hz for every qubit, rows for every check."""
    per_qubit = max(
        (code.hx.col_masks[q].bit_count() + code.hz.col_masks[q].bit_count()
         for q in range(code.n)),
        default=0,
    )
    return max(code.hx.max_row_weight(), code.hz.max_row_weight(), per_qubit)


def oracle_tree_partition(graph, v1_subset, epsilon, w0):
    """The flow partition with every V0 vertex visited for its owned set and
    leftover."""
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise PreconditionError(f"need epsilon >= 0, got {epsilon}")
    prof = oracle_regularity(graph)
    if not prof.is_regular:
        raise PreconditionError(f"graph is not biregular: {prof}")
    v1 = sorted(set(v1_subset))
    for x1 in v1:
        if not 0 <= x1 < graph.v1_size:
            raise IndexError(f"vertex {x1} outside V1 of size {graph.v1_size}")
    threshold = math.floor(epsilon * w0)
    v1_set = set(v1)
    v0 = sorted(neighbors(graph, 1, v1))
    deg = {x0: sum(1 for y in graph.adj0[x0] if y in v1_set) for x0 in v0}
    nodes = ["s", "t"]
    arcs = []
    for x0 in v0:
        nodes.append(("v0", x0))
        arcs.append(("s", ("v0", x0), max(deg[x0] - threshold, 0)))
    for x1 in v1:
        nodes.append(("v1", x1))
        arcs.append((("v1", x1), "t", 1))
    for x0 in v0:
        for y in graph.adj0[x0]:
            if y in v1_set:
                arcs.append((("v0", x0), ("v1", y), 1))
    result = max_flow_integer(FlowNetwork(tuple(nodes), tuple(arcs), "s", "t"))
    required = sum(max(deg[x0] - threshold, 0) for x0 in v0)
    if result.value < required:
        raise InternalInvariantError(
            f"ownership flow is {result.value} < {required}; the expansion "
            "hypothesis asserted by the caller fails on this subset"
        )
    assignment = {x0: set() for x0 in range(graph.v0_size)}
    owner = {}
    for x0 in v0:
        for y in graph.adj0[x0]:
            if y in v1_set and result.flow.get((("v0", x0), ("v1", y)), 0) == 1:
                assignment[x0].add(y)
                owner[y] = x0
    for x1 in v1:
        if x1 not in owner:
            if not graph.adj1[x1]:
                raise PreconditionError(
                    f"target vertex {x1} has no neighbors; nothing can own it"
                )
            x0 = graph.adj1[x1][0]
            assignment[x0].add(x1)
            owner[x1] = x0
    leftover = {
        x0: sum(1 for y in graph.adj0[x0] if y in v1_set) - len(assignment[x0])
        for x0 in range(graph.v0_size)
    }
    return TreePartition({x0: frozenset(s) for x0, s in assignment.items()},
                         leftover, result.value, threshold)


def assert_partition_matches(graph, target, got, want):
    """`got` equals the all-owners oracle's `want` restricted to N(target),
    keyed in ascending order, and every other oracle entry is empty or 0;
    refusals must be equal."""
    if not isinstance(want, TreePartition):
        assert got == want
        return
    near = sorted(neighbors(graph, 1, target))
    assert list(got.assignment) == list(got.leftover) == near
    assert all(not want.assignment[x0] and want.leftover[x0] == 0
               for x0 in range(graph.v0_size) if x0 not in got.assignment)
    assert got == TreePartition({x0: want.assignment[x0] for x0 in near},
                                {x0: want.leftover[x0] for x0 in near},
                                want.flow_value, want.threshold)


def _zero_counts():
    return {"touched": 0, "stray": 0, "multihit": 0, "unowned_pairs": 0,
            "flipped": 0, "lit": 0, "unique": 0}


def oracle_check_partition(cpx, which, target, part):
    """Every owner, empty or not, on a freshly built subgraph."""
    edges = getattr(cpx, f"edges_{which}")
    graph = BipartiteGraph(cpx.v00_size, len(getattr(cpx, f"reps_{which[4:]}")), edges)
    seen = set()
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


def oracle_region_diagnostics(cpx, v10, v01, part10, part01, epsilon):
    """Every face, every V11 cell and every V00 owner, scanned on each call."""
    v10_set = frozenset(v10)
    v01_set = frozenset(v01)
    oracle_check_partition(cpx, "v00_v10", v10_set, part10)
    oracle_check_partition(cpx, "v00_v01", v01_set, part01)
    owner10 = {q: x00 for x00, owned in part10.assignment.items() for q in owned}
    owner01 = {q: x00 for x00, owned in part01.assignment.items() for q in owned}
    deg_v10_at_v11 = {}
    for z10, z11 in cpx.edges_v10_v11:
        if z10 in v10_set:
            deg_v10_at_v11[z11] = deg_v10_at_v11.get(z11, 0) + 1
    deg_v01_at_v11 = {}
    for z01, z11 in cpx.edges_v01_v11:
        if z01 in v01_set:
            deg_v01_at_v11[z11] = deg_v01_at_v11.get(z11, 0) + 1
    total = {z11: deg_v10_at_v11.get(z11, 0) + deg_v01_at_v11.get(z11, 0)
             for z11 in range(cpx.v11_size)}
    unique_v11 = {z11 for z11, k in total.items() if k == 1}
    syndrome = {z11 for z11, k in total.items() if k % 2 == 1}
    per = {}
    flip_parity = {}
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
    report = RegionReport(
        touched_total=totals["touched"], stray_total=totals["stray"],
        multihit_total=totals["multihit"],
        excess_total=totals["stray"] + totals["unowned_pairs"],
        flipped_total=totals["flipped"], lit_total=totals["lit"],
        unique_total=totals["unique"], syndrome_weight=len(syndrome),
        per_vertex=per, epsilon=Fraction(epsilon),
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
                "a flipped unique neighbor without syndrome cannot exist")
    return report


def loaded(fn, *args):
    """An action loader's table and set size, or the type and message of its
    refusal."""
    try:
        action = fn(*args)
    except ValidationError as exc:
        return type(exc), str(exc)
    return action.table, action.set_size


def outcome(fn, *args, **kwargs):
    """A call's value, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (PreconditionError, InternalInvariantError, IndexError) as exc:
        return type(exc), str(exc)


# -- families ---------------------------------------------------------------------


def _random_free(name, seed):
    group = {"Z6": lambda: cyclic_group(6), "D3": lambda: dihedral_group(3)}[name]()
    rng = random.Random(seed)
    x, ax = random_free_action_graph(group, 1, 2, 2, rng)
    y, ay = random_free_action_graph(group, 2, 1, 3, rng)
    return balanced_product(x, ax, y, ay)


FAMILIES = {
    "toric2": lambda: toric_complex(2),
    "toric4": lambda: toric_complex(4),
    "star6": lambda: star_product(6, 3, 2),
    "star8_21": lambda: star_product(8, 2, 1),
    "cayley_z8": lambda: left_right_cayley(cyclic_group(8), [1, 2], [1, 4]),
    "cayley_z12": lambda: left_right_cayley(cyclic_group(12), [1, 5], [2, 3, 7]),
    "cayley_d4": lambda: left_right_cayley(dihedral_group(4), [1, 2], [1, 2]),
    "cayley_d5": lambda: left_right_cayley(dihedral_group(5), [1, 4], [3]),
    "incidence5": lambda: incidence_star_product(5, 2),
    "random_z6": lambda: _random_free("Z6", 11),
    "random_d3": lambda: _random_free("D3", 5),
    "hgp_irregular": lambda: hypergraph_product(random_bipartite(4, 3, 7, random.Random(2)),
                                                random_bipartite(3, 3, 5, random.Random(4))),
}
_BUILT = {}


def family(name):
    """One shared complex per family, like the session fixtures."""
    if name not in _BUILT:
        _BUILT[name] = FAMILIES[name]()
    return _BUILT[name]


@st.composite
def small_errors(draw, cpx):
    """An error (v10, v01) of total weight at most 4."""
    w10 = draw(st.integers(0, min(4, cpx.v10_size)))
    w01 = draw(st.integers(0, min(4 - w10, cpx.v01_size)))
    v10 = draw(st.sets(st.integers(0, cpx.v10_size - 1), min_size=w10, max_size=w10)
               if cpx.v10_size else st.just(set()))
    v01 = draw(st.sets(st.integers(0, cpx.v01_size - 1), min_size=w01, max_size=w01)
               if cpx.v01_size else st.just(set()))
    return frozenset(v10), frozenset(v01)


def neighbor_partition(graph, target, rng):
    """Each target vertex owned by a random neighbor, every V0 vertex listed;
    a vertex without neighbors stays unowned, which both scans refuse."""
    assignment = {x0: set() for x0 in range(graph.v0_size)}
    for x1 in sorted(target):
        if graph.adj1[x1]:
            assignment[rng.choice(graph.adj1[x1])].add(x1)
    return TreePartition({x0: frozenset(s) for x0, s in assignment.items()},
                         {x0: 0 for x0 in range(graph.v0_size)}, 0, 0)


EPSILONS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))

TABLE_GROUPS = {"Z1": lambda: cyclic_group(1), "Z2": lambda: cyclic_group(2),
                "Z7": lambda: cyclic_group(7), "Z12": lambda: cyclic_group(12),
                "D3": lambda: dihedral_group(3), "D4": lambda: dihedral_group(4),
                "D5": lambda: dihedral_group(5), "S3": lambda: symmetric_group(3),
                "S4": lambda: symmetric_group(4)}


def relabelled(group, perm):
    """The same group with element a renamed perm[a], so that the identity
    need not be 0."""
    mul = [[0] * group.order for _ in group.elements()]
    for a in group.elements():
        for b in group.elements():
            mul[perm[a]][perm[b]] = perm[group.mul[a][b]]
    return FiniteGroup.from_table(mul, label=group.label)


@st.composite
def table_groups(draw):
    """A small group from its table, half of the time relabelled at random."""
    group = TABLE_GROUPS[draw(st.sampled_from(sorted(TABLE_GROUPS)))]()
    if draw(st.booleans()):
        group = relabelled(group, draw(st.permutations(range(group.order))))
    return group


def translations(group):
    """(left, right) with the tables written from their definitions."""
    left = [[group.op(g, x) for x in group.elements()] for g in group.elements()]
    right = [[group.op(x, group.inv[g]) for x in group.elements()] for g in group.elements()]
    return left, right


# -- tests -------------------------------------------------------------------------


class TestComputedOnce:
    """Each verdict is computed once per object, and only once."""

    @staticmethod
    def counting(monkeypatch):
        calls = {"free": [], "law": []}
        scan, law = groups._first_fixed_point, groups._check_action_law

        def counted_scan(action):
            calls["free"].append(id(action))
            return scan(action)

        def counted_law(group, tab, set_size):
            calls["law"].append(id(tab))
            return law(group, tab, set_size)

        monkeypatch.setattr(groups, "_first_fixed_point", counted_scan)
        monkeypatch.setattr(groups, "_check_action_law", counted_law)
        return calls

    @pytest.mark.parametrize("build, distinct, regular", [
        (lambda: left_right_cayley(cyclic_group(8), [1, 2], [1, 4]), 1, 1),
        (lambda: star_product(8, 3, 2), 4, 2),
    ], ids=["cayley_z8", "star8"])
    def test_one_scan_and_one_law_check_per_action(self, monkeypatch, build, distinct,
                                                   regular):
        # Translations, on the group or on copies of it (the star leaves),
        # are lawful and free by proof: no law check and no scan (this
        # guards the verdict `groups._regular_action` presets).  The
        # validating path and the uncached scan, as oracles, agree.
        calls = self.counting(monkeypatch)
        cpx = build()
        actions = {id(a): a for a in (cpx.action_x.v0, cpx.action_x.v1,
                                      cpx.action_y.v0, cpx.action_y.v1)}
        assert len(actions) == distinct
        on_copies = [a for a in actions.values() if a is not a.group.left_translation]
        assert len(actions) - len(on_copies) == regular
        assert all(a.set_size in (2 * a.group.order, 3 * a.group.order) for a in on_copies)
        for action in actions.values():
            assert verify_free_action(action) is None
        assert calls == {"free": [], "law": []}
        for action in actions.values():
            assert oracle_action_from_table(action.group, action.table) == action
            assert oracle_free_action(action) is None

    def test_one_edge_invariance_scan_per_graph_and_action(self, monkeypatch):
        # cayley_bipartite keeps its edges by proof and scans nothing; the
        # product checks each factor with its action, once.
        scans = []
        scan = graphs.verify_edge_invariance

        def counted(module):
            def verify(graph, action):
                scans.append((module, graph, action))
                return scan(graph, action)
            return verify

        monkeypatch.setattr(graphs, "verify_edge_invariance", counted("graphs"))
        monkeypatch.setattr(product, "verify_edge_invariance", counted("product"))
        cpx = left_right_cayley(cyclic_group(48), [1, 2], [1, 4])
        assert [module for module, _, _ in scans] == ["product", "product"]
        assert scans[0][1] is cpx.factor_x and scans[0][2] is cpx.action_x
        assert scans[1][1] is cpx.factor_y and scans[1][2] is cpx.action_y

    def test_one_translation_action_per_group_and_side(self, monkeypatch):
        calls = self.counting(monkeypatch)
        group = cyclic_group(6)
        assert group.left_translation is group.left_translation
        assert group.right_translation is group.right_translation
        other = cyclic_group(6)
        assert other.left_translation is not group.left_translation
        for action in (group.left_translation, group.right_translation, other.left_translation):
            assert verify_free_action(action) is None
        assert calls == {"free": [], "law": []}

    def test_subgraph_is_one_object_per_edge_class(self):
        cpx = star_product(8, 3, 2)
        for which in SUBGRAPHS:
            graph = cpx.subgraph(which)
            assert cpx.subgraph(which) is graph
            assert graph.edges is getattr(cpx, f"edges_{which}")
            assert regularity(graph) is regularity(graph)
        assert transposed(cpx).subgraph("v00_v10") is not cpx.subgraph("v00_v10")

    def test_decoder_index_reads_the_complex_adjacency(self, star12_code):
        idx = _index_for(star12_code, "z")
        cpx = star12_code.cpx
        assert idx.n10 is cpx.subgraph("v00_v10").adj0
        assert idx.n01 is cpx.subgraph("v00_v01").adj0
        for x00 in range(cpx.v00_size):
            assert idx.n10[x00] == tuple(sorted(z for a, z in cpx.edges_v00_v10 if a == x00))
            assert idx.n01[x00] == tuple(sorted(z for a, z in cpx.edges_v00_v01 if a == x00))
        # The X side reads the same complex with the roles swapped: V11
        # centers, whose V01 and then V10 neighbors are the flip classes.
        idx_x = _index_for(star12_code, "x")
        assert idx_x.n10 is cpx.subgraph("v01_v11").adj1
        assert idx_x.n01 is cpx.subgraph("v10_v11").adj1


class TestTranslationsByProof:
    """A group's translations skip the validating path; a table equal to
    `mul` loads as the left translation object, and every other table meets
    the validating path's refusals."""

    @settings(max_examples=60, deadline=None)
    @given(group=table_groups())
    def test_the_validating_path_accepts_both_translations(self, group):
        left, right = group.left_translation, group.right_translation
        assert left.table is group.mul
        for action, table in zip((left, right), translations(group)):
            assert action.table == tuple(map(tuple, table))
            assert action.set_size == group.order
            assert oracle_action_from_table(group, table) == action
            assert groups._first_fixed_point(action) is None
            assert oracle_free_action(action) is None
            assert verify_free_action(action) is None

    @settings(max_examples=60, deadline=None)
    @given(group=table_groups())
    def test_an_equal_table_loads_as_the_translation(self, group):
        table, _ = translations(group)
        want = group.left_translation
        assert GroupAction.from_table(group, table) is want
        assert GroupAction.from_table(group, map(tuple, table)) is want
        # The cache belongs to the group object, not to its table.
        other = FiniteGroup.from_table(group.mul)
        assert GroupAction.from_table(other, group.mul) is other.left_translation
        assert other.left_translation is not group.left_translation

    @settings(max_examples=200, deadline=None)
    @given(group=table_groups(), data=st.data())
    def test_one_changed_entry_meets_the_old_refusal(self, group, data):
        table = [list(row) for row in data.draw(st.sampled_from(translations(group)))]
        g = data.draw(st.integers(0, group.order - 1))
        x = data.draw(st.integers(0, group.order - 1))
        value = data.draw(st.integers(-2, group.order + 1) | st.sampled_from([1.0, True, "0"]))
        assume(type(value) is not int or value != table[g][x])
        table[g][x] = value
        got = loaded(GroupAction.from_table, group, table)
        assert got == loaded(oracle_action_from_table, group, table)
        assert got[0] is ValidationError

    @pytest.mark.parametrize("name", ["Z7", "D4", "S4"])
    def test_other_tables_keep_the_validating_path(self, name):
        group = TABLE_GROUPS[name]()
        shuffled = random.Random(0).sample(range(group.order), group.order)
        for table in (conjugation_action(group).table, trivial_action(group, 3).table,
                      trivial_action(group, group.order).table,
                      [[shuffled[v] for v in row] for row in group.mul],
                      [[row[v] for v in shuffled] for row in group.mul]):
            assert loaded(GroupAction.from_table, group, table) == \
                loaded(oracle_action_from_table, group, table)


class TestVerdicts:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_regularity_freeness_and_weight(self, name):
        cpx = family(name)
        for which in SUBGRAPHS:
            graph = cpx.subgraph(which)
            assert regularity(graph) == oracle_regularity(graph)
        for graph in (cpx.factor_x, cpx.factor_y):
            assert regularity(graph) == oracle_regularity(graph)
        for act in (cpx.action_x.v0, cpx.action_x.v1, cpx.action_y.v0, cpx.action_y.v1):
            assert verify_free_action(act) == oracle_free_action(act) is None
        code = extract_code(cpx)
        assert code.weight == oracle_weight(code)
        tcode = extract_code(transposed(cpx))
        assert tcode.weight == oracle_weight(tcode)

    @settings(max_examples=60, deadline=None)
    @given(v0=st.integers(1, 6), v1=st.integers(1, 6), data=st.data())
    def test_regularity_of_random_graphs(self, v0, v1, data):
        n_edges = data.draw(st.integers(0, v0 * v1))
        graph = random_bipartite(v0, v1, n_edges, random.Random(data.draw(st.integers(0, 99))))
        assert regularity(graph) == oracle_regularity(graph)

    @pytest.mark.parametrize("group", [cyclic_group(1), cyclic_group(6), dihedral_group(4),
                                       symmetric_group(3)], ids=["Z1", "Z6", "D4", "S3"])
    def test_freeness_of_actions_that_are_not_free(self, group):
        for action in (conjugation_action(group), trivial_action(group, 3),
                       group.left_translation, group.right_translation):
            assert verify_free_action(action) == oracle_free_action(action)
            assert verify_free_action(action) == oracle_free_action(action)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(0, 6), cols=st.integers(1, 8), data=st.data())
    def test_weight_of_codes_that_are_not_complex_maps(self, rows, cols, data):
        hz = F2Matrix(rows, cols, tuple(data.draw(st.integers(0, (1 << cols) - 1))
                                        for _ in range(rows)))
        code = CssCode(F2Matrix(0, cols, ()), hz, cols // 2)
        assert code.weight == oracle_weight(code)

    @pytest.mark.parametrize("name", ["toric2", "star6"])
    def test_complex_code_with_other_matrices_keeps_the_matrix_path(self, name):
        # The transposed star product has qubits in more checks than any
        # check has qubits, so a wrong per-qubit count shows in the weight.
        cpx = transposed(family(name))
        code = extract_code(cpx)
        other = CssCode(code.hx, transpose(transpose(code.hz)), code.v10_size, cpx=cpx)
        assert other._maps_of_complex
        for hx, hz in ((code.hx, zero_matrix(code.hz.rows, code.hz.cols)),
                       (zero_matrix(code.hx.rows, code.hx.cols), code.hz)):
            swapped = CssCode(hx, hz, code.v10_size, cpx=cpx)
            assert not swapped._maps_of_complex
            assert swapped.weight == oracle_weight(swapped)


class TestLocalDiagnostics:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(FAMILIES)), data=st.data())
    def test_tree_partition_matches_the_all_owner_oracle(self, name, data):
        cpx = family(name)
        v10, v01 = data.draw(small_errors(cpx))
        eps = data.draw(st.sampled_from(EPSILONS))
        w0 = data.draw(st.integers(0, 4))
        for which, target in (("v00_v10", v10), ("v00_v01", v01)):
            graph = cpx.subgraph(which)
            assert_partition_matches(graph, target,
                                     outcome(tree_partition, graph, target, eps, w0),
                                     outcome(oracle_tree_partition, graph, target, eps, w0))

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(FAMILIES)), data=st.data())
    def test_region_report_matches_the_full_face_scan(self, name, data):
        cpx = family(name)
        v10, v01 = data.draw(small_errors(cpx))
        eps = data.draw(st.sampled_from(EPSILONS))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g10, g01 = cpx.subgraph("v00_v10"), cpx.subgraph("v00_v01")
        if cpx.degrees is not None and data.draw(st.booleans()):
            d = cpx.degrees
            part10 = outcome(tree_partition, g10, v10, Fraction(1), d.down)
            part01 = outcome(tree_partition, g01, v01, Fraction(1), d.right)
            if not isinstance(part10, TreePartition) or not isinstance(part01, TreePartition):
                return
        else:
            part10 = neighbor_partition(g10, v10, rng)
            part01 = neighbor_partition(g01, v01, rng)
        got = outcome(region_diagnostics, cpx, v10, v01, part10, part01, epsilon=eps)
        want = outcome(oracle_region_diagnostics, cpx, v10, v01, part10, part01, epsilon=eps)
        assert got == want
        if isinstance(got, RegionReport):
            assert got.per_vertex == want.per_vertex

    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(FAMILIES)), data=st.data(),
           fault=st.sampled_from(["drop", "non_neighbor", "shared", "outside", "empty_outside"]))
    def test_refusals_match_the_full_face_scan(self, name, data, fault):
        cpx = family(name)
        v10, v01 = data.draw(small_errors(cpx))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g10, g01 = cpx.subgraph("v00_v10"), cpx.subgraph("v00_v01")
        part10 = neighbor_partition(g10, v10, rng)
        part01 = neighbor_partition(g01, v01, rng)
        assignment = dict(part10.assignment)
        owners = [x for x, owned in assignment.items() if owned]
        if fault == "drop" and owners:
            assignment[owners[0]] = frozenset(sorted(assignment[owners[0]])[1:])
        elif fault == "non_neighbor" and owners:
            q = min(assignment[owners[0]])
            strangers = [x for x in range(cpx.v00_size) if q not in g10.adj0[x]]
            if strangers:
                assignment[owners[0]] -= {q}
                assignment[strangers[0]] |= {q}
        elif fault == "shared" and owners and cpx.v00_size > 1:
            q = min(assignment[owners[0]])
            other = next(x for x in range(cpx.v00_size) if x != owners[0])
            assignment[other] |= {q}
        elif fault == "outside":
            assignment[cpx.v00_size] = frozenset(v10)
        elif fault == "empty_outside":
            assignment[-1] = frozenset()
        part10 = TreePartition(assignment, part10.leftover, 0, 0)
        eps = Fraction(0)
        assert outcome(region_diagnostics, cpx, v10, v01, part10, part01, epsilon=eps) == \
            outcome(oracle_region_diagnostics, cpx, v10, v01, part10, part01, epsilon=eps)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_face_index_lists_exactly_the_faces_through_each_qubit(self, name):
        cpx = family(name)
        at10, at01 = cpx.faces_at_qubit
        assert cpx.faces_at_qubit is cpx.faces_at_qubit
        for q in range(cpx.v10_size):
            assert sorted(at10.get(q, ())) == sorted(f for f in cpx.faces if f[1] == q)
        for q in range(cpx.v01_size):
            assert sorted(at01.get(q, ())) == sorted(f for f in cpx.faces if f[2] == q)
        assert sum(map(len, at10.values())) == sum(map(len, at01.values())) == len(cpx.faces)


def flow_targets(graph, seed):
    """Every target of at most two vertices, then 40 seeded ones each of
    three and of four."""
    pool = range(graph.v1_size)
    targets = [t for k in range(3) for t in itertools.combinations(pool, k)]
    rng = random.Random(seed)
    for k in (3, 4):
        if graph.v1_size >= k:
            targets += [tuple(rng.sample(pool, k)) for _ in range(40)]
    return targets


FLOW_FAMILIES = ("toric4", "star6", "cayley_z8", "incidence5")


class TestOwnershipFlow:
    """`tree_partition` runs its flow on vertex ids; the oracle builds the
    `FlowNetwork` and calls `max_flow_integer`, as the partition once did."""

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)],
                             ids=["0", "1/3", "1/2", "1"])
    @pytest.mark.parametrize("which", ["v00_v10", "v00_v01"])
    @pytest.mark.parametrize("name", FLOW_FAMILIES)
    def test_partitions_equal_the_flow_network_oracle(self, name, which, eps):
        graph = family(name).subgraph(which)
        for target in flow_targets(graph, seed=len(name) * 7 + len(which)):
            for w0 in range(1, 5):
                assert_partition_matches(graph, target,
                                         outcome(tree_partition, graph, target, eps, w0),
                                         outcome(oracle_tree_partition, graph, target, eps, w0))

    @pytest.mark.parametrize("graph, target, kind, message", [
        (lambda: family("toric4").subgraph("v00_v10"), [0], InternalInvariantError,
         "ownership flow is 1 < 2; the expansion hypothesis asserted by the caller "
         "fails on this subset"),
        (lambda: BipartiteGraph(2, 3, frozenset()), [0, 2], PreconditionError,
         "target vertex 0 has no neighbors; nothing can own it"),
    ], ids=["flow_short", "no_neighbors"])
    def test_refusals_equal_the_oracle(self, graph, target, kind, message):
        g = graph()
        got = outcome(tree_partition, g, target, Fraction(0), 2)
        assert got == (kind, message)
        assert got == outcome(oracle_tree_partition, g, target, Fraction(0), 2)

    def test_no_flow_network_is_built(self, monkeypatch):
        cases = [(family(name).subgraph(which), target, eps, w0)
                 for name in sorted(FAMILIES) for which in ("v00_v10", "v00_v01")
                 for target in flow_targets(family(name).subgraph(which), seed=3)[::9]
                 for eps, w0 in ((Fraction(0), 2), (Fraction(1, 2), 3))]
        want = [outcome(oracle_tree_partition, *case) for case in cases]

        def forbidden(*args, **kwargs):
            pytest.fail("tree_partition built a FlowNetwork or called max_flow_integer")

        monkeypatch.setattr(oracles, "FlowNetwork", forbidden)
        monkeypatch.setattr(oracles, "max_flow_integer", forbidden)
        for (graph, target, eps, w0), wanted in zip(cases, want):
            assert_partition_matches(graph, target,
                                     outcome(tree_partition, graph, target, eps, w0), wanted)

    def test_a_partition_lists_only_the_neighbors_of_its_target(self):
        # On toric(64), V0 has 4,096 vertices and two targets have 4 neighbors.
        graph = toric_complex(64).subgraph("v00_v10")
        target = [0, 1]
        part = tree_partition(graph, target, Fraction(1, 2), 2)
        assert len(part.assignment) == len(neighbors(graph, 1, target))
        assert len(part.leftover) == len(part.assignment)
