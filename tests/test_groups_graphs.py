"""Groups, actions, bipartite graphs, and Cayley constructions."""

import random

import pytest

import qbp
from qbp.errors import ValidationError
from qbp.graphs import (
    NonRegularReport,
    RegularityProfile,
    build_bipartite,
    cayley_bipartite,
    graph_from_json,
    invert_gens,
    neighbors,
    regularity,
    verify_edge_invariance,
)
from qbp.groups import (
    FiniteGroup,
    GroupAction,
    cyclic_group,
    dihedral_group,
    group_from_json,
    trivial_action,
    verify_free_action,
)
from qbp.instances import bipartite_cycle

from fixtures import conjugation_action, graph_to_json, group_to_json, symmetric_group


class TestGroups:
    def test_cyclic_laws(self):
        g = cyclic_group(6)
        assert g.identity == 0
        assert g.inv[2] == 4

    def test_dihedral_order_and_noncommutativity(self):
        g = dihedral_group(4)
        assert g.order == 8
        assert any(g.op(a, b) != g.op(b, a) for a in g.elements() for b in g.elements())

    def test_symmetric_group_s3(self):
        g = symmetric_group(3)
        assert g.order == 6

    def test_bad_table_rejected(self):
        # A table without an identity element.
        with pytest.raises(ValidationError):
            FiniteGroup.from_table([[1, 0], [1, 0]])

    def test_json_roundtrip(self):
        g = dihedral_group(3)
        assert group_from_json(group_to_json(g)).mul == g.mul

    def test_json_without_order_loads(self):
        obj = group_to_json(cyclic_group(4))
        del obj["order"]
        assert group_from_json(obj).order == 4

    @pytest.mark.parametrize("order", [7, 0])
    def test_json_order_must_be_the_table_size(self, order):
        obj = dict(group_to_json(cyclic_group(4)), order=order)
        with pytest.raises(ValidationError, match="does not match the 4-row table"):
            group_from_json(obj)

    @pytest.mark.parametrize("order", ["4", None, 4.0, True],
                             ids=["str", "null", "float", "bool"])
    def test_json_order_must_be_an_int(self, order):
        obj = dict(group_to_json(cyclic_group(4)), order=order)
        with pytest.raises(ValidationError, match="group order must be an int"):
            group_from_json(obj)


class TestActions:
    def test_right_translation_free(self):
        assert verify_free_action(cyclic_group(4).right_translation) is None

    def test_trivial_action_counterexample(self):
        # Every nonidentity element fixes every point; the scan order makes
        # the first counterexample (g=1, x=0).
        act = trivial_action(cyclic_group(2), 3)
        assert verify_free_action(act) == (1, 0)

    def test_conjugation_s3_not_free(self):
        g = symmetric_group(3)
        found = verify_free_action(conjugation_action(g))
        assert found is not None
        gg, x = found
        assert gg != g.identity
        assert g.op(g.op(gg, x), g.inv[gg]) == x

    def test_incompatible_table_rejected(self):
        g = cyclic_group(3)
        bad = [[0, 1, 2], [1, 2, 0], [0, 1, 2]]   # g=2 row breaks compatibility
        with pytest.raises(ValidationError):
            GroupAction.from_table(g, bad)


class TestBipartite:
    def test_single_edge(self):
        g = build_bipartite(1, 1, [(0, 0)])
        assert regularity(g) == RegularityProfile(1, 1)

    def test_k22(self):
        g = build_bipartite(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert regularity(g) == RegularityProfile(2, 2)

    def test_cycle_regular(self):
        assert regularity(bipartite_cycle(3)) == RegularityProfile(2, 2)

    def test_k33_regular(self):
        g = build_bipartite(3, 3, [(a, b) for a in range(3) for b in range(3)])
        assert regularity(g) == RegularityProfile(3, 3)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError):
            build_bipartite(2, 2, [(0, 0), (0, 0)])

    def test_duplicate_edges_are_named_once_in_order(self):
        edges = [(1, 1), (0, 1), (1, 1), (0, 0), (0, 1), (1, 1)]
        with pytest.raises(ValidationError) as exc:
            build_bipartite(2, 2, edges)
        assert str(exc.value) == "duplicate edges rejected: [(0, 1), (1, 1)]"

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            build_bipartite(2, 2, [(0, 2)])

    @pytest.mark.parametrize("edges, message", [
        ([(0, 0), (1, 1), (-1, 0)], "edge endpoint -1 outside V0 of size 2"),
        ([(0, 0), (2, 1), (1, 1)], "edge endpoint 2 outside V0 of size 2"),
        ([(1, 0), (0, -2)], "edge endpoint -2 outside V1 of size 2"),
        ([(0, 0), (1, 1), (1, 5)], "edge endpoint 5 outside V1 of size 2"),
        ([(0, 0), (1, 1), (1, 5), (-1, 0)], "edge endpoint 5 outside V1 of size 2"),
        ([(0, 0), (1, 1), (-1, 7), (1, 5)], "edge endpoint -1 outside V0 of size 2"),
    ], ids=["low_v0", "high_v0", "low_v1", "high_v1", "v1_then_v0",
            "v0_of_an_edge_bad_at_both_ends"])
    def test_out_of_range_names_the_first_bad_edge_in_list_order(self, edges, message):
        # The message names the first bad edge as listed, its V0 end first.
        with pytest.raises(IndexError) as exc:
            build_bipartite(2, 2, edges)
        assert str(exc.value) == message

    def test_path_non_regular_report(self):
        # Four-vertex path 0-0'-1-1': vertex 1 on side 0 has degree 2.
        g = build_bipartite(2, 2, [(0, 0), (1, 0), (1, 1)])
        report = regularity(g)
        assert report == NonRegularReport(side=0, vertex=1, degree=2)

    def test_neighbors(self):
        k33 = build_bipartite(3, 3, [(a, b) for a in range(3) for b in range(3)])
        assert neighbors(k33, 0, [0]) == frozenset({0, 1, 2})
        assert neighbors(k33, 0, []) == frozenset()
        cyc = bipartite_cycle(3)
        # Direct adjacency: 0 -> {0, 1}, 1 -> {1, 2}.
        assert neighbors(cyc, 0, [0, 1]) == frozenset({0, 1, 2})

    def test_neighbor_count_bound(self):
        rng = random.Random(3)
        cyc = bipartite_cycle(5)
        prof = regularity(cyc)
        for _ in range(20):
            s = rng.sample(range(5), rng.randrange(1, 5))
            assert len(neighbors(cyc, 0, s)) <= prof.w0 * len(s)

    def test_json_roundtrip(self):
        g = bipartite_cycle(4)
        assert graph_from_json(graph_to_json(g)) == g


class TestCayley:
    def test_z4_left_single_generator(self):
        cg = cayley_bipartite(cyclic_group(4), [1], "left")
        assert cg.graph.edges == frozenset((g, (g + 1) % 4) for g in range(4))
        assert regularity(cg.graph) == RegularityProfile(1, 1)

    def test_z5_right_two_generators(self):
        cg = cayley_bipartite(cyclic_group(5), [1, 2], "right")
        assert len(cg.graph.edges) == 10
        assert regularity(cg.graph) == RegularityProfile(2, 2)

    def test_z6_left_three_generators_free(self):
        cg = cayley_bipartite(cyclic_group(6), [1, 2, 3], "left")
        assert regularity(cg.graph) == RegularityProfile(3, 3)
        assert verify_free_action(cg.action.v0) is None
        assert verify_free_action(cg.action.v1) is None

    def test_nonabelian_invariance(self):
        g = symmetric_group(3)
        for side in ("left", "right"):
            cg = cayley_bipartite(g, [1, 2], side)
            assert verify_edge_invariance(cg.graph, cg.action) is None

    def test_duplicate_generators_rejected(self):
        with pytest.raises(ValidationError):
            cayley_bipartite(cyclic_group(4), [1, 1], "left")

    def test_generator_out_of_range(self):
        with pytest.raises(IndexError):
            cayley_bipartite(cyclic_group(4), [4], "left")

    def test_invert_gens(self):
        g = cyclic_group(5)
        assert invert_gens(g, [1, 2]) == (4, 3)

    def test_regularity_matches_generator_count(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randrange(3, 9)
            g = cyclic_group(n)
            k = rng.randrange(1, n)
            gens = rng.sample(range(n), k)
            cg = cayley_bipartite(g, gens, rng.choice(["left", "right"]))
            assert regularity(cg.graph) == RegularityProfile(k, k)
