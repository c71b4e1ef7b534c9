"""The loader's neighbor lists against the per-vertex sort they replaced.

`complex_from_json` seeds each subgraph's adjacency from the file's rows of
that edge class, in one ordered pass (`graphs.seed_adjacency`), and a built
complex's subgraphs sort their own edge sets for the same pass; the oracle
`adjacency_by_vertex_sort` appends edge by edge in edge-set order and sorts
each vertex's list.  The files here list every edge class and the faces in
a shuffled order, so the loader's `sorted` does real work, and a broken file
must be refused with the message that names its first fault as before.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbp import graphs
from qbp.errors import ValidationError
from qbp.graphs import BipartiteGraph
from qbp.product import SUBGRAPHS, complex_from_json, complex_to_json, hypergraph_product

from fixtures import (SHUFFLED_FAMILIES as FAMILIES, family_file, family_files,
                      hypergraph_product_files, random_bipartite, shuffled)
from oracles import adjacency_by_vertex_sort

ADJACENCY = BipartiteGraph.adjacency.attrname

# _check_degrees's order: (cell, edge class, end of the edge, degree name).
DEGREE_ORDER = (
    ("V00", "v00_v10", 0, "down"), ("V00", "v00_v01", 0, "right"),
    ("V10", "v00_v10", 1, "up"), ("V10", "v10_v11", 0, "right"),
    ("V01", "v01_v11", 0, "down"), ("V01", "v00_v01", 1, "left"),
    ("V11", "v01_v11", 1, "up"), ("V11", "v10_v11", 1, "left"),
)


def class_sizes(obj, which):
    first, second = which.split("_")
    return obj[first], obj[second]


def oracle_lists(obj, which):
    """The oracle's (adj0, adj1) of one edge class of a file."""
    edges = frozenset(map(tuple, obj[f"edges_{which}"]))
    return adjacency_by_vertex_sort(BipartiteGraph(*class_sizes(obj, which), edges))


def refusal(obj):
    with pytest.raises(ValidationError) as exc:
        complex_from_json(obj)
    return str(exc.value)


class TestLoadedAdjacency:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(family_files(), hypergraph_product_files()))
    def test_loaded_lists_match_the_oracle(self, obj):
        cpx = complex_from_json(obj)
        for which in SUBGRAPHS:
            graph = cpx.subgraph(which)
            assert (graph.adj0, graph.adj1) == oracle_lists(obj, which)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(family_files(), hypergraph_product_files()))
    def test_subgraphs_hold_their_lists_when_the_loader_returns(self, obj):
        cpx = complex_from_json(obj)
        for which in SUBGRAPHS:
            held = vars(cpx.subgraph(which)).get(ADJACENCY)
            assert held == oracle_lists(obj, which), which

    @pytest.mark.parametrize("obj", [
        shuffled(family_file("star12"), random.Random(1)),
        complex_to_json(hypergraph_product(random_bipartite(3, 4, 7, random.Random(2)),
                                           random_bipartite(2, 3, 4, random.Random(3)))),
    ], ids=["star12", "hypergraph_product"])
    def test_loader_seeds_the_lists_from_the_sorted_rows(self, obj, monkeypatch):
        # Each class's lists are the builder's output for that class's rows,
        # sorted, and no subgraph derives them again from its edge set.
        made, build = [], graphs.adjacency_lists

        def recording(v0_size, v1_size, rows):
            made.append((rows, build(v0_size, v1_size, rows)))
            return made[-1][1]

        monkeypatch.setattr(graphs, "adjacency_lists", recording)
        cpx = complex_from_json(obj)
        assert len(made) == len(SUBGRAPHS)
        for which, (rows, lists) in zip(SUBGRAPHS, made):
            assert rows == sorted(map(tuple, obj[f"edges_{which}"]))
            assert vars(cpx.subgraph(which))[ADJACENCY] is lists

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_built_complexes_derive_the_same_lists(self, name):
        # A complex the builder returns sorts its own edge sets, on first use.
        cpx = FAMILIES[name]()
        for which in SUBGRAPHS:
            graph = cpx.subgraph(which)
            assert ADJACENCY not in vars(graph)
            assert (graph.adj0, graph.adj1) == adjacency_by_vertex_sort(graph)


class TestRefusalsUnchanged:
    """A shuffled file with one fault gets the message that names it."""

    @settings(max_examples=30, deadline=None)
    @given(family_files(), st.sampled_from(SUBGRAPHS), st.sampled_from(("low", "high")),
           st.integers(0, 1), st.data())
    def test_bad_endpoint(self, obj, which, where, end, data):
        field = f"edges_{which}"
        rows = [list(row) for row in obj[field]]
        i = data.draw(st.integers(0, len(rows) - 1))
        size0, size1 = class_sizes(obj, which)
        rows[i][end] = -1 if where == "low" else (size0, size1)[end]
        a, b = rows[i]
        expected = (f"edge ({a}, {b}) in {field} has an endpoint outside its class "
                    f"(sizes {size0} and {size1})")
        assert refusal(dict(obj, **{field: rows})) == expected

    def test_bad_endpoints_name_the_first_class_and_its_smallest_edge(self):
        obj = shuffled(family_file("toric3"), random.Random(3))
        v00, v10, v11 = obj["v00"], obj["v10"], obj["v11"]
        v00_v10 = obj["edges_v00_v10"] + [[v00, 0]]
        v10_v11 = obj["edges_v10_v11"] + [[v10 - 1, v11], [1, -1], [v10, 0]]
        expected = (f"edge (1, -1) in edges_v10_v11 has an endpoint outside its class "
                    f"(sizes {v10} and {v11})")
        assert refusal(dict(obj, edges_v00_v10=v00_v10, edges_v10_v11=v10_v11)) == expected

    @settings(max_examples=30, deadline=None)
    @given(family_files(), st.sampled_from(SUBGRAPHS), st.data())
    def test_repeated_edge(self, obj, which, data):
        field = f"edges_{which}"
        rows = list(obj[field])
        row = data.draw(st.sampled_from(rows))
        rows.insert(data.draw(st.integers(0, len(rows))), list(row))
        i = next(i for i, r in enumerate(rows) if r in rows[:i])
        assert refusal(dict(obj, **{field: rows})) == f"{field}[{i}] repeats the edge {row}"

    @settings(max_examples=30, deadline=None)
    @given(family_files(), st.sampled_from(SUBGRAPHS), st.data())
    def test_wrong_degree(self, obj, which, data):
        field = f"edges_{which}"
        rows = list(obj[field])
        del rows[data.draw(st.integers(0, len(rows) - 1))]
        broken = dict(obj, **{field: rows})
        for cell, graph, end, degree in DEGREE_ORDER:
            expected = broken["degrees"][degree]
            counts = list(map(len, oracle_lists(broken, graph)[end]))
            v = next((v for v, k in enumerate(counts) if k != expected), None)
            if v is not None:
                break
        assert refusal(broken) == (f"degrees say {degree} = {expected}, but {cell} vertex "
                                   f"{v} has {counts[v]} edges in {graph}")

    @settings(max_examples=30, deadline=None)
    @given(family_files(), st.data())
    def test_missing_face(self, obj, data):
        faces = list(obj["faces"])
        z00, z10, _, z11 = faces.pop(data.draw(st.integers(0, len(faces) - 1)))
        expected = f"no face holds the path V00 {z00} -> V10 {z10} -> V11 {z11}"
        assert refusal(dict(obj, faces=faces)) == expected
