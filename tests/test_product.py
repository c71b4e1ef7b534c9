"""Products: construction counts, chain condition, squares, copies, inheritance."""

import operator
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import qbp
from qbp.decoder import _index_for
from qbp.errors import PreconditionError, ValidationError
from qbp.expansion import certify_expansion
from qbp.gf2 import F2Matrix
from qbp.graphs import GraphAction, build_bipartite
from qbp.groups import cyclic_group, dihedral_group, trivial_action, trivial_group
from qbp.instances import (
    bipartite_cycle,
    left_right_cayley,
    random_free_action_graph,
    star_graph,
    star_product,
    toric_complex,
)
from qbp.product import (
    balanced_product,
    complex_from_json,
    complex_to_json,
    copies_decomposition,
    hypergraph_product,
    inherit_certificates,
)

from fixtures import random_bipartite
from oracles import transposed, verify_chain_condition
from test_build_oracles import assert_certificates_agree


def single_edge():
    return build_bipartite(1, 1, [(0, 0)])


class TestHypergraphProduct:
    def test_single_edge_square(self):
        cpx = hypergraph_product(single_edge(), single_edge())
        assert (cpx.v00_size, cpx.v10_size, cpx.v01_size, cpx.v11_size) == (1, 1, 1, 1)
        assert len(cpx.faces) == 1
        total_edges = (len(cpx.edges_v00_v10) + len(cpx.edges_v01_v11)
                       + len(cpx.edges_v00_v01) + len(cpx.edges_v10_v11))
        assert total_edges == 4

    def test_toric_counts(self, toric3):
        assert toric3.v10_size + toric3.v01_size == 18
        assert len(toric3.faces) == 36
        assert toric3.degrees == qbp.DegreeProfile(2, 2, 2, 2)

    def test_cartesian_cardinalities_random(self):
        rng = random.Random(5)
        for _ in range(10):
            x = random_bipartite(rng.randrange(1, 5), rng.randrange(1, 5),
                                 rng.randrange(1, 5), rng)
            y = random_bipartite(rng.randrange(1, 5), rng.randrange(1, 5),
                                 rng.randrange(1, 5), rng)
            cpx = hypergraph_product(x, y)
            assert cpx.v00_size == x.v0_size * y.v0_size
            assert cpx.v10_size == x.v1_size * y.v0_size
            assert cpx.v01_size == x.v0_size * y.v1_size
            assert cpx.v11_size == x.v1_size * y.v1_size
            assert len(cpx.faces) == len(x.edges) * len(y.edges)

    def test_degenerate_products_do_not_crash(self):
        from qbp.css import code_params, extract_code
        edgeless = build_bipartite(2, 2, [])
        cpx = hypergraph_product(edgeless, edgeless)
        assert len(cpx.faces) == 0
        params = code_params(extract_code(cpx))
        assert params.k == params.n == 8
        no_v1 = build_bipartite(2, 0, [])
        empty_qubits = hypergraph_product(no_v1, no_v1)
        assert empty_qubits.n_qubits == 0
        assert code_params(extract_code(empty_qubits)).k == 0

    def test_equals_balanced_product_over_trivial_group(self):
        x, y = bipartite_cycle(3), bipartite_cycle(2)
        g = trivial_group()
        ax = GraphAction(g, trivial_action(g, 3), trivial_action(g, 3))
        ay = GraphAction(g, trivial_action(g, 2), trivial_action(g, 2))
        via_trivial = balanced_product(x, ax, y, ay)
        direct = hypergraph_product(x, y)
        assert direct.faces == via_trivial.faces
        assert direct.edges_v00_v10 == via_trivial.edges_v00_v10


class TestBalancedProduct:
    def test_z5_left_right_cayley(self):
        cpx = left_right_cayley(cyclic_group(5), [1], [2])
        assert [cpx.v00_size, cpx.v10_size, cpx.v01_size, cpx.v11_size] == [5, 5, 5, 5]
        assert len(cpx.faces) == 5
        # Classes are labelled by differences, so edges read (g, g+1) and
        # (g, g+2) in the two directions.
        assert cpx.edges_v00_v10 == frozenset((d, (d + 1) % 5) for d in range(5))
        assert cpx.edges_v00_v01 == frozenset((d, (d + 2) % 5) for d in range(5))

    def test_orbit_size_sanity_random(self):
        rng = random.Random(11)
        for order in (2, 3, 4):
            group = cyclic_group(order)
            x, ax = random_free_action_graph(group, 2, 1, 3, rng)
            y, ay = random_free_action_graph(group, 1, 2, 3, rng)
            cpx = balanced_product(x, ax, y, ay)
            assert cpx.v00_size == x.v0_size * y.v0_size // order
            assert cpx.v10_size == x.v1_size * y.v0_size // order
            assert len(cpx.faces) == len(x.edges) * len(y.edges) // order

    def test_class_size_ratios(self, star12):
        d = star12.degrees
        sizes = (star12.v00_size, star12.v10_size, star12.v01_size, star12.v11_size)
        ratio = (d.up * d.left, d.down * d.left, d.up * d.right, d.down * d.right)
        scale = sizes[0] / ratio[0]
        assert all(s == r * scale for s, r in zip(sizes, ratio))

    def test_non_free_action_rejected(self):
        g = cyclic_group(2)
        x = build_bipartite(2, 2, [(0, 0), (1, 1)])
        free = GraphAction(g, trivial_action(g, 2), trivial_action(g, 2))
        with pytest.raises(ValidationError, match="not free"):
            balanced_product(x, free, x, free)

    def test_mismatched_groups_rejected(self):
        g2, g3 = cyclic_group(2), cyclic_group(3)
        x, ax = random_free_action_graph(g2, 1, 1, 1, random.Random(0))
        y, ay = random_free_action_graph(g3, 1, 1, 1, random.Random(0))
        with pytest.raises(ValidationError, match="different groups"):
            balanced_product(x, ax, y, ay)

    def test_dihedral_group_product(self):
        cpx = left_right_cayley(dihedral_group(3), [1], [2, 4])
        assert verify_chain_condition(cpx).ok


class TestChainCondition:
    def test_random_hypergraph_products(self):
        rng = random.Random(31)
        for _ in range(25):
            a, b = rng.randrange(1, 8), rng.randrange(1, 8)
            x = random_bipartite(a, b, rng.randrange(1, a * b + 1), rng)
            a, b = rng.randrange(1, 8), rng.randrange(1, 8)
            y = random_bipartite(a, b, rng.randrange(1, a * b + 1), rng)
            assert verify_chain_condition(hypergraph_product(x, y)).ok

    def test_random_balanced_products(self):
        rng = random.Random(37)
        for order in range(2, 9):
            group = cyclic_group(order)
            x, ax = random_free_action_graph(group, 1, 1, rng.randrange(1, order + 1), rng)
            y, ay = random_free_action_graph(group, 1, 1, rng.randrange(1, order + 1), rng)
            assert verify_chain_condition(balanced_product(x, ax, y, ay)).ok

    def test_corrupted_complex_reports_witness(self, toric2):
        removed = next(iter(toric2.edges_v10_v11))
        broken = replace(toric2, edges_v10_v11=toric2.edges_v10_v11 - {removed})
        # The cached boundary of the original must not leak into the copy.
        check = verify_chain_condition(broken)
        assert not check.ok
        assert check.witness_column is not None
        assert 0 <= check.witness_column < toric2.v00_size


class TestSquareCompletion:
    def test_cartesian_completion(self):
        # Three corners of a face fix the fourth.
        x, y = bipartite_cycle(2), bipartite_cycle(2)
        cpx = hypergraph_product(x, y)
        face = min(cpx.faces)
        assert [f for f in cpx.faces if f[:3] == face[:3]] == [face]

    def test_left_right_cayley_square(self):
        # In difference labels the face at g=0 with a=1, b=2 reads
        # (0, 1, 2, 3): the missing corner is a*g*b.
        cpx = left_right_cayley(cyclic_group(5), [1], [2])
        assert (0, 1, 2, 3) in cpx.faces

    def test_round_trip_all_faces(self):
        # Freeness: any three corners of a face lie on no other face.
        rng = random.Random(41)
        group = cyclic_group(4)
        x, ax = random_free_action_graph(group, 1, 1, 3, rng)
        y, ay = random_free_action_graph(group, 1, 1, 2, rng)
        cpx = balanced_product(x, ax, y, ay)
        assert cpx.faces
        for omitted in range(4):
            triples = Counter(face[:omitted] + face[omitted + 1:] for face in cpx.faces)
            assert set(triples.values()) == {1}

    def test_completion_total_on_adjacent_pairs(self, toric2):
        # Every path z10 - z00 - z01 bounds exactly one face.
        adj01 = toric2.subgraph("v00_v01").adj0
        paths = Counter((z00, z10, z01) for z00, z10 in toric2.edges_v00_v10
                        for z01 in adj01[z00])
        assert Counter((z00, z10, z01) for z00, z10, z01, _ in toric2.faces) == paths

    def test_non_adjacent_triple_rejected(self, toric2):
        # A face closes only corners that are pairwise adjacent.
        for z00, z10, z01, z11 in toric2.faces:
            assert (z00, z10) in toric2.edges_v00_v10
            assert (z00, z01) in toric2.edges_v00_v01
            assert (z10, z11) in toric2.edges_v10_v11
            assert (z01, z11) in toric2.edges_v01_v11

    def test_degree_laws(self, star12):
        # Each V10 vertex sees `right` V11 cells; each V01 vertex `down`.
        deg10 = {}
        for z10, z11 in star12.edges_v10_v11:
            deg10[z10] = deg10.get(z10, 0) + 1
        deg01 = {}
        for z01, z11 in star12.edges_v01_v11:
            deg01[z01] = deg01.get(z01, 0) + 1
        assert set(deg10.values()) == {star12.degrees.right}
        assert set(deg01.values()) == {star12.degrees.down}


class TestCopiesDecomposition:
    def _assert_isomorphism(self, cpx, which, copy, factor):
        graph = cpx.subgraph(which)
        assert len(copy.v0_map) == factor.v0_size
        assert len(copy.v1_map) == factor.v1_size
        mapped = {(copy.v0_map[a], copy.v1_map[b])
                  for a, b in graph.edges
                  if a in copy.v0_map and b in copy.v1_map}
        expected = set(factor.edges)
        assert mapped == expected
        # Edge counts match, so the component is exactly one copy.
        degree_sum = sum(1 for a, b in graph.edges if a in copy.v0_map)
        assert degree_sum == len(factor.edges)

    def test_trivial_group_copy_count(self):
        x, y = bipartite_cycle(3), bipartite_cycle(3)
        cpx = hypergraph_product(x, y)
        copies = copies_decomposition(cpx, "v00_v10")
        assert len(copies) == 3
        for copy in copies:
            self._assert_isomorphism(cpx, "v00_v10", copy, x)

    def test_left_right_cayley_single_copy(self):
        cpx = left_right_cayley(cyclic_group(5), [1], [2])
        for which in ("v00_v10", "v01_v11", "v00_v01", "v10_v11"):
            assert len(copies_decomposition(cpx, which)) == 1

    def test_z2_orbit_count(self):
        rng = random.Random(47)
        group = cyclic_group(2)
        x, ax = random_free_action_graph(group, 2, 2, 4, rng)
        y, ay = random_free_action_graph(group, 2, 1, 3, rng)
        cpx = balanced_product(x, ax, y, ay)
        assert len(copies_decomposition(cpx, "v00_v10")) == y.v0_size // 2
        assert len(copies_decomposition(cpx, "v00_v01")) == x.v0_size // 2

    def test_star_product_isomorphisms(self, star12):
        copies = copies_decomposition(star12, "v10_v11")
        assert len(copies) == star12.factor_x.v1_size // 12
        for copy in copies:
            self._assert_isomorphism(star12, "v10_v11", copy, star12.factor_y)

    @pytest.mark.parametrize("which, original", [
        ("v00_v10", "v01_v11"), ("v01_v11", "v00_v10"),
        ("v00_v01", "v10_v11"), ("v10_v11", "v00_v01"),
    ])
    def test_transposed_complex_decomposes(self, which, original):
        # The transpose carries reversed factors and swapped actions, so its
        # subgraphs decompose into the copies of the original's dual
        # subgraphs, with the two maps of each copy exchanged.
        cpx = star_product(6, 3, 2)
        t = transposed(cpx)
        copies = copies_decomposition(t, which)
        factor = t.factor_x if which in ("v00_v10", "v01_v11") else t.factor_y
        for copy in copies:
            self._assert_isomorphism(t, which, copy, factor)
        assert [(c.v0_map, c.v1_map) for c in copies] == \
            [(c.v1_map, c.v0_map) for c in copies_decomposition(cpx, original)]

    @pytest.mark.parametrize("build", [
        lambda: star_product(6, 3, 2),
        lambda: left_right_cayley(dihedral_group(4), [1, 2], [1, 2]),
        lambda: hypergraph_product(bipartite_cycle(3), random_bipartite(3, 4, 7, random.Random(3))),
    ], ids=["star6", "cayley_d4", "hypergraph"])
    def test_transpose_is_the_product_of_the_reversed_factors(self, build):
        cpx = build()
        t = transposed(cpx)
        assert t.factor_x.edges == {(b, a) for a, b in cpx.factor_x.edges}
        assert (t.action_x.v0, t.action_x.v1) == (cpx.action_x.v1, cpx.action_x.v0)
        assert (t.action_y.v0, t.action_y.v1) == (cpx.action_y.v1, cpx.action_y.v0)
        rebuilt = balanced_product(t.factor_x, t.action_x, t.factor_y, t.action_y,
                                   provenance=t.provenance)
        assert complex_to_json(rebuilt) == complex_to_json(t)
        assert replace(transposed(t), provenance=cpx.provenance) == cpx

    def test_requires_recorded_factors(self, toric2):
        bare = replace(toric2, factor_x=None, action_x=None)
        with pytest.raises(PreconditionError):
            copies_decomposition(bare, "v00_v10")


class TestInheritCertificates:
    def test_single_orbit_rescaling(self):
        cpx = left_right_cayley(cyclic_group(5), [1], [2])
        cert = certify_expansion(cpx.factor_x, "0to1", Fraction(2, 5), Fraction(0))
        derived = inherit_certificates(cpx, cert, certify_expansion(
            cpx.factor_y, "0to1", Fraction(2, 5), Fraction(0)))
        # One orbit: |V0 factor| = |V00|, so c is unchanged.
        assert derived["v00_v10"].c == Fraction(2, 5)
        assert derived["v00_v10"].epsilon == 0

    def test_trivial_group_three_copies(self):
        x = bipartite_cycle(3)
        cpx = hypergraph_product(x, x)
        cert = certify_expansion(x, "0to1", Fraction(2, 3), Fraction(0))
        derived = inherit_certificates(cpx, cert, cert)
        assert derived["v00_v10"].c == Fraction(2, 3) * Fraction(3, 9)

    def test_derived_certificate_rechecks_exhaustively(self):
        cpx = star_product(4, 2, 2)
        cert_x = certify_expansion(star_graph(4, 2)[0], "0to1", Fraction(1), Fraction(0))
        assert cert_x.verdict == "pass"
        derived = inherit_certificates(cpx, cert_x, cert_x)
        for which, cert in derived.items():
            graph = cpx.subgraph(which)
            recheck = certify_expansion(graph, "0to1", cert.c, cert.epsilon)
            assert recheck.verdict == "pass", which

    def test_missing_certificate_rejected(self, star12, star12_certs):
        with pytest.raises(ValidationError):
            inherit_certificates(star12, star12_certs[0], None)

    def test_incidence_subgraph_recheck(self, incstar13, inc13_cert, star13_cert):
        derived = inherit_certificates(incstar13, inc13_cert, star13_cert)
        # One orbit on that side, so the constants transfer unchanged; the
        # subgraph is a single copy and passes its own exhaustive run.
        cert = derived["v00_v10"]
        assert cert.c == inc13_cert.c
        recheck = certify_expansion(incstar13.subgraph("v00_v10"), "0to1",
                                    cert.c, cert.epsilon)
        assert recheck.verdict == "pass"


class TestSerialization:
    def test_roundtrip(self, toric2):
        back = complex_from_json(complex_to_json(toric2))
        assert back.faces == toric2.faces
        assert back.edges_v00_v10 == toric2.edges_v00_v10
        assert back.degrees == toric2.degrees

    def test_degrees_must_match_edges(self):
        obj = complex_to_json(toric_complex(4))
        obj["degrees"] = {"down": 9, "up": 9, "right": 9, "left": 9}
        with pytest.raises(ValidationError, match="V00 vertex 0"):
            complex_from_json(obj)

    @pytest.mark.parametrize("name, cell", [("down", "V00"), ("up", "V10"),
                                            ("right", "V00"), ("left", "V01")])
    def test_each_degree_is_checked(self, star12, name, cell):
        obj = complex_to_json(star12)
        obj["degrees"] = dict(obj["degrees"], **{name: obj["degrees"][name] + 1})
        with pytest.raises(ValidationError, match=f"{name} = .* {cell} vertex 0"):
            complex_from_json(obj)
        assert complex_from_json(complex_to_json(transposed(star12))).degrees == \
            transposed(star12).degrees

    def test_v11_degree_checked(self):
        # No V00 or V01 cells, so only V10 and V11 constrain the degrees:
        # both V10 cells have right = 1, but V11 cell 0 has two edges.
        obj = {"reps_v00": [], "reps_v10": [[0, 0], [1, 0]], "reps_v01": [],
               "reps_v11": [[0, 0], [1, 0]], "edges_v00_v10": [], "edges_v01_v11": [],
               "edges_v00_v01": [], "edges_v10_v11": [[0, 0], [1, 0]], "faces": [],
               "degrees": {"down": 0, "up": 0, "right": 1, "left": 1}}
        with pytest.raises(ValidationError, match="left = 1, but V11 vertex 0 has 2"):
            complex_from_json(obj)

    def test_edge_endpoint_outside_its_class(self):
        # (z00, v10 + k) lands in the V00 map on V01 qubit k's row; with (z00, k)
        # already a V00-V01 edge the chain condition still holds, so only the
        # endpoint check refuses it.
        cpx = hypergraph_product(random_bipartite(4, 3, 6, random.Random(5)),
                                 random_bipartite(3, 4, 6, random.Random(6)))
        obj = complex_to_json(cpx)
        assert obj["degrees"] is None
        z00, k = min(cpx.edges_v00_v01)
        bad = [z00, cpx.v10_size + k]
        obj["edges_v00_v10"].append(bad)
        with pytest.raises(ValidationError, match=rf"edge \({bad[0]}, {bad[1]}\) in edges_v00_v10"):
            complex_from_json(obj)

    @pytest.mark.parametrize("which", ["v00_v10", "v01_v11", "v00_v01", "v10_v11"])
    def test_every_edge_class_endpoint_is_checked(self, toric2, which):
        obj = complex_to_json(toric2)
        obj[f"edges_{which}"].append([0, 99])
        with pytest.raises(ValidationError, match=rf"edge \(0, 99\) in edges_{which}"):
            complex_from_json(obj)
        obj[f"edges_{which}"][-1] = [-1, 0]
        with pytest.raises(ValidationError, match=rf"edge \(-1, 0\) in edges_{which}"):
            complex_from_json(obj)

    def test_faces_must_match_the_two_edge_paths(self, star12):
        obj = complex_to_json(star12)
        z00, z10, z01, z11 = obj["faces"][0]
        with pytest.raises(ValidationError, match=r"no face holds the path V00 0 -> V10 0 -> V11"):
            complex_from_json(dict(obj, faces=[]))
        with pytest.raises(ValidationError, match=(
                rf"no face holds the path V00 {z00} -> V10 {z10} -> V11 {z11}$")):
            complex_from_json(dict(obj, faces=obj["faces"][1:]))
        with pytest.raises(ValidationError, match=(
                rf"face \[{z00}, {z10}, {z01}, {z11}\] repeats a two-edge path")):
            complex_from_json(dict(obj, faces=obj["faces"] + [obj["faces"][0]]))
        assert complex_from_json(dict(obj, faces=obj["faces"][::-1])).faces == star12.faces

    def test_each_face_edge_is_checked(self, toric3):
        # Move one corner of a face so that exactly one of its four edges is
        # missing, for each of the four edges (every toric cell has degree 2,
        # so a moved corner can keep one of its two edges).
        obj = complex_to_json(toric3)
        z00, z10, z01, z11 = obj["faces"][0]
        edges = (toric3.edges_v00_v10, toric3.edges_v00_v01,
                 toric3.edges_v10_v11, toric3.edges_v01_v11)
        sizes = (toric3.v00_size, toric3.v10_size, toric3.v01_size, toric3.v11_size)
        missing_seen = set()
        for corner, size in enumerate(sizes):
            for v in range(size):
                bad = [z00, z10, z01, z11]
                bad[corner] = v
                a, b, c, d = bad
                pairs = ((a, b), (a, c), (b, d), (c, d))
                missing = [i for i, (e, pair) in enumerate(zip(edges, pairs)) if pair not in e]
                if len(missing) != 1:
                    continue
                missing_seen.add(missing[0])
                with pytest.raises(ValidationError, match=(
                        rf"face \[{a}, {b}, {c}, {d}\] does not lie on four edges")):
                    complex_from_json(dict(obj, faces=[bad] + obj["faces"][1:]))
        assert missing_seen == {0, 1, 2, 3}

    def test_transpose_is_dual(self, star12):
        t = transposed(star12)
        assert t.v00_size == star12.v11_size
        assert t.boundary_1.rows == star12.v00_size
        assert verify_chain_condition(t).ok
        assert t.chain_check is True
        d = t.degrees
        assert (d.down, d.up, d.right, d.left) == (
            star12.degrees.up, star12.degrees.down,
            star12.degrees.left, star12.degrees.right)


CONFTEST_FAMILIES = ["toric2", "toric3", "match8", "star12", "incstar13"]


class TestPackedMasks:
    """Each graph packs its neighborhoods once (`masks0`, `masks1`); Hz's
    columns and the X decoder index's check masks are those of the
    complex's subgraphs, so they share one copy."""

    @staticmethod
    def complexes(cpx):
        return {"built": cpx, "transposed": transposed(cpx),
                "reloaded": complex_from_json(complex_to_json(cpx))}

    @staticmethod
    def graphs(cpx):
        out = {which: cpx.subgraph(which)
               for which in ("v00_v10", "v01_v11", "v00_v01", "v10_v11")}
        out.update({name: graph for name, graph in (("x", cpx.factor_x), ("y", cpx.factor_y))
                    if graph is not None})
        return out

    @pytest.mark.parametrize("name", CONFTEST_FAMILIES)
    def test_masks_are_the_packed_adjacency(self, name, request):
        for kind, cpx in self.complexes(request.getfixturevalue(name)).items():
            for which, graph in self.graphs(cpx).items():
                for masks, adj in ((graph.masks0, graph.adj0), (graph.masks1, graph.adj1)):
                    assert masks == tuple(sum(1 << v for v in cells) for cells in adj), \
                        (kind, which)

    @pytest.mark.parametrize("name", CONFTEST_FAMILIES)
    def test_v00_map_rows_are_the_x_index_masks(self, name, request):
        for kind, cpx in self.complexes(request.getfixturevalue(name)).items():
            idx = _index_for(cpx, "x")
            hz = qbp.extract_code(cpx).hz
            shared = idx.v11_of_v01 + idx.v11_of_v10
            assert hz.col_masks == shared, kind
            assert all(map(operator.is_, hz.col_masks, shared)), kind
            # The seeded column view is the one the packed rows give.
            assert F2Matrix(hz.rows, hz.cols, hz.row_masks).col_masks == shared, kind

    @pytest.mark.parametrize("name", CONFTEST_FAMILIES)
    def test_certificates_read_the_masks_unchanged(self, name, request):
        for cpx in self.complexes(request.getfixturevalue(name)).values():
            for graph in self.graphs(cpx).values():
                if graph.regularity_profile.is_regular:
                    assert_certificates_agree(graph, Fraction(1, 2), Fraction(1, 4), trials=4)
