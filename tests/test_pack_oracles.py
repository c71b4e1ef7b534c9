"""`gf2.pack` against the loops it replaced.

Every bit row of the package is packed by `gf2.pack` from neighbor lists,
from the highest bit down: each subgraph's `masks0` and `masks1`, Hx
(`boundary_1`), Hz (`v00_map`) and a matrix's `col_masks`.  The oracles
(`tests/oracles.py`) are the loops that packed them before, two of them
ORing bits in edge-set order; the values must be equal, bit for bit, on
built complexes, on loaded files with every edge class and the faces
shuffled, on hand-built graphs with an empty side and on matrices of any
shape.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbp import gf2
from qbp.gf2 import F2Matrix
from qbp.graphs import BipartiteGraph
from qbp.product import SUBGRAPHS, complex_from_json

from fixtures import family_files, hypergraph_product_files
from oracles import boundary_1_by_edge, col_masks_by_row, masks_by_edge, v00_map_by_qubit

CONFTEST_FAMILIES = ["toric2", "toric3", "match8", "star12", "incstar13"]


def graphs_of(cpx):
    """The four subgraphs, then the factors a built complex carries."""
    out = [cpx.subgraph(which) for which in SUBGRAPHS]
    return out + [graph for graph in (cpx.factor_x, cpx.factor_y) if graph is not None]


def assert_packed_as_the_oracles_pack(cpx):
    for graph in graphs_of(cpx):
        assert (graph.masks0, graph.masks1) == masks_by_edge(graph)
    hx, hz = cpx.boundary_1, cpx.v00_map()
    assert hx == boundary_1_by_edge(cpx)
    assert hz == v00_map_by_qubit(cpx)
    assert hx.col_masks == col_masks_by_row(hx)
    assert hz.col_masks == col_masks_by_row(hz) == cpx.v00_columns


@st.composite
def graphs(draw):
    """A hand-built graph of up to 6 + 6 vertices, either side maybe empty."""
    v0, v1 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = [(a, b) for a in range(v0) for b in range(v1)]
    edges = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return BipartiteGraph(v0, v1, frozenset(edges))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 70))
    masks = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return F2Matrix(rows, cols, tuple(masks))


class TestPack:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.data())
    def test_rows_hold_the_listed_bits(self, size, data):
        lists = data.draw(st.lists(st.lists(st.integers(0, size - 1), unique=True)
                                   if size else st.just([]), max_size=70))
        rows = gf2.pack(size, lists)
        assert rows == tuple(sum(1 << i for i, zs in enumerate(lists) if z in zs)
                             for z in range(size))

    def test_empty(self):
        assert gf2.pack(0, []) == ()
        assert gf2.pack(3, [(), []]) == (0, 0, 0)


class TestPackedAsTheOraclesPack:
    @pytest.mark.parametrize("name", CONFTEST_FAMILIES)
    def test_conftest_families(self, name, request):
        assert_packed_as_the_oracles_pack(request.getfixturevalue(name))

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(family_files(), hypergraph_product_files()))
    def test_loaded_files_with_shuffled_rows(self, obj):
        assert_packed_as_the_oracles_pack(complex_from_json(obj))

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_hand_built_graphs(self, graph):
        assert (graph.masks0, graph.masks1) == masks_by_edge(graph)

    @pytest.mark.parametrize("sizes", [(0, 0), (0, 4), (4, 0)])
    def test_graphs_with_an_empty_side(self, sizes):
        graph = BipartiteGraph(*sizes, frozenset())
        assert (graph.masks0, graph.masks1) == masks_by_edge(graph) == (
            (0,) * sizes[0], (0,) * sizes[1])

    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_col_masks(self, matrix):
        assert matrix.col_masks == col_masks_by_row(matrix)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_col_masks_of_empty_shapes(self, shape):
        rows, cols = shape
        matrix = F2Matrix(rows, cols, (0,) * rows)
        assert matrix.col_masks == col_masks_by_row(matrix) == (0,) * cols

    def test_a_large_random_matrix(self):
        rng = random.Random(33)
        matrix = F2Matrix(40, 300, tuple(rng.getrandbits(300) for _ in range(40)))
        assert matrix.col_masks == col_masks_by_row(matrix)
