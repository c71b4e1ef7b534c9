"""Packed-row matrices and the one elimination kernel against the code they
replaced.

`F2Matrix` now holds only packed rows; the boundary maps are written from
the edge classes, and rank, row spaces, kernels and `solve` share one
leading-bit elimination.  The oracles here are the earlier entry-set
boundary maps, the column-scan elimination, its kernel loop, the separate
[A^T | I] elimination of `solve` and the pivot-scan reduction modulo a row
space (`oracles.reduce_by_pivot_scan`).
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbp import gf2
from qbp.css import extract_code
from qbp.errors import ShapeError, ValidationError
from qbp.gf2 import F2Matrix, F2Vector, _eliminate
from qbp.groups import cyclic_group
from qbp.instances import left_right_cayley, star_product
from qbp.product import hypergraph_product

from fixtures import from_entries, random_bipartite, zero_matrix, zero_vector
from oracles import (
    mat_mul,
    minimal_coset_representative,
    reduce_by_pivot_scan,
    solve,
    transpose,
    transposed,
    verify_chain_condition,
)

FAMILIES = ["toric2", "toric3", "match8", "star12", "incstar13"]


# -- oracles -------------------------------------------------------------------


def oracle_rref(row_masks, cols):
    """The column-scan elimination: one pivot per column, in ascending order."""
    rows = [m for m in row_masks if m]
    pivot_rows, pivot_cols = [], []
    for col in range(cols):
        bit = 1 << col
        src = next((i for i, m in enumerate(rows) if m & bit), None)
        if src is None:
            continue
        pivot = rows.pop(src)
        rows = [m ^ pivot if m & bit else m for m in rows]
        pivot_rows = [m ^ pivot if m & bit else m for m in pivot_rows]
        pivot_rows.append(pivot)
        pivot_cols.append(col)
        if not rows:
            break
    return tuple(pivot_rows), tuple(pivot_cols)


def oracle_kernel_basis(row_masks, cols):
    pivot_rows, pivot_cols = oracle_rref(row_masks, cols)
    basis = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        support = {free} | {col for row, col in zip(pivot_rows, pivot_cols) if row >> free & 1}
        basis.append(F2Vector.from_support(cols, support))
    return basis


def oracle_solve(a, b):
    """Elimination on the rows of [A^T | I], so each pivot carries its combination."""
    aug = [(m, 1 << i) for i, m in enumerate(transpose(a).row_masks)]
    target, combo = b.to_mask(), 0
    for col in range(a.rows):
        bit = 1 << col
        src = next((i for i, (m, _) in enumerate(aug) if m & bit), None)
        if src is None:
            continue
        pm, pc = aug.pop(src)
        aug = [(m ^ pm, c ^ pc) if m & bit else (m, c) for m, c in aug]
        if target & bit:
            target ^= pm
            combo ^= pc
    return None if target else F2Vector.from_mask(a.cols, combo)


def oracle_boundaries(cpx):
    """The boundary maps as entry sets, as they were built before."""
    off = cpx.v10_size
    b2 = [(z10, z00) for z00, z10 in cpx.edges_v00_v10]
    b2 += [(off + z01, z00) for z00, z01 in cpx.edges_v00_v01]
    b1 = [(z11, z10) for z10, z11 in cpx.edges_v10_v11]
    b1 += [(z11, off + z01) for z01, z11 in cpx.edges_v01_v11]
    return (from_entries(cpx.v11_size, cpx.n_qubits, b1),
            from_entries(cpx.n_qubits, cpx.v00_size, b2))


def assert_maps_match_the_entry_sets(cpx):
    """Hx, and Hz with its seeded column view, against `oracle_boundaries`:
    Hz's packed rows are the V00 map's columns, its column view the rows."""
    b1, b2 = oracle_boundaries(cpx)
    hz = extract_code(cpx).hz
    assert cpx.boundary_1 == b1
    assert transpose(hz) == b2
    assert hz == transpose(b2)


def oracle_minimal_coset_representative(code, syndrome):
    """Exhaustive over the coset of the oracle's particular solution; the key
    |v10| right + |v01| down, ties to the smaller mask."""
    d, split = code.degrees, code.v10_size
    base = oracle_solve(code.hx, syndrome).to_mask()
    coset = [base]
    for v in oracle_kernel_basis(code.hx.row_masks, code.n):
        coset += [m ^ v.to_mask() for m in coset]
    return min((d.right * (m & ((1 << split) - 1)).bit_count() + d.down * (m >> split).bit_count(),
                m) for m in coset)[1]


# -- strategies ------------------------------------------------------------------


@st.composite
def matrices(draw, rows=None):
    if rows is None:
        rows = draw(st.integers(0, 10))
    cols = draw(st.integers(0, 12))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.9]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    masks = [sum(1 << c for c in range(cols) if rng.random() < density) for _ in range(rows)]
    if rows and draw(st.booleans()):
        # Repeated and summed rows make the rank deficient.
        masks[-1] = masks[0] ^ masks[rows // 2]
    return F2Matrix(rows, cols, tuple(masks))


def assert_elimination_matches(m):
    pivot_rows, pivot_cols = oracle_rref(m.row_masks, m.cols)
    expected = [(1 << col, row) for row, col in zip(pivot_rows, pivot_cols)]
    assert list(_eliminate(m.row_masks).items()) == expected
    assert gf2.rank(m) == len(pivot_rows)
    assert gf2.kernel_masks(m) == [v.to_mask() for v in oracle_kernel_basis(m.row_masks, m.cols)]
    space = gf2.row_space(m)
    assert list(space.pivots.items()) == expected
    assert space.pivot_mask == sum(1 << col for col in pivot_cols)
    assert space.length == m.cols


def assert_reduction_matches(m, combos, others):
    """reduce_mask and contains_mask against the pivot scan, on the row
    combinations named by the bits of each combo (inside the span) and on
    the raw masks of others (inside or outside)."""
    space = gf2.row_space(m)
    inside = []
    for combo in combos:
        v = 0
        for r in gf2.bits(combo):
            v ^= m.row_masks[r]
        inside.append(v)
    for v in inside:
        assert reduce_by_pivot_scan(space, v) == 0
        assert space.reduce_mask(v) == 0
        assert space.contains_mask(v)
    for v in others:
        residue = reduce_by_pivot_scan(space, v)
        assert space.reduce_mask(v) == residue
        assert space.contains_mask(v) == (residue == 0)
        assert residue & space.pivot_mask == 0
    for v, w in zip(inside, others):
        # Adding a span vector leaves the residue as it was.
        assert space.reduce_mask(v ^ w) == reduce_by_pivot_scan(space, w)


# -- tests -----------------------------------------------------------------------------


class TestEliminationKernel:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_rref_rank_kernel_match_the_column_scan(self, m):
        assert_elimination_matches(m)
        assert_elimination_matches(transpose(m))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (3, 1), (1, 3)])
    def test_empty_and_thin_shapes(self, shape):
        rows, cols = shape
        for m in (zero_matrix(rows, cols),
                  F2Matrix(rows, cols, tuple((1 << cols) - 1 for _ in range(rows)))):
            assert_elimination_matches(m)
            assert_reduction_matches(m, range(1 << rows), range(1 << cols))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_code_matrices(self, family, request):
        code = extract_code(request.getfixturevalue(family))
        rng = random.Random(7)
        for m in (code.hx, code.hz):
            assert_elimination_matches(m)
            combos = [rng.getrandbits(m.rows) for _ in range(40)]
            # Low-weight vectors, mostly outside the span, then dense ones.
            others = [sum(1 << q for q in rng.sample(range(m.cols), w))
                      for w in (1, 2, 3, 4) for _ in range(5)]
            others += [rng.getrandbits(m.cols) for _ in range(20)]
            assert_reduction_matches(m, combos, others)
            assert any(not gf2.row_space(m).contains_mask(v) for v in others)

    @settings(max_examples=300, deadline=None)
    @given(matrices(), st.data())
    def test_reduce_mask_matches_the_pivot_scan(self, m, data):
        for a in (m, transpose(m)):
            count = data.draw(st.integers(0, 6))
            combos = data.draw(st.lists(st.integers(0, (1 << a.rows) - 1), min_size=count,
                                        max_size=count))
            others = data.draw(st.lists(st.integers(0, (1 << a.cols) - 1), min_size=count,
                                        max_size=count))
            assert_reduction_matches(a, combos, others)

    @settings(max_examples=300, deadline=None)
    @given(matrices(), st.data())
    def test_solve_finds_a_solution_exactly_when_the_oracle_does(self, m, data):
        if data.draw(st.booleans()):
            x = F2Vector.from_mask(m.cols, data.draw(st.integers(0, (1 << m.cols) - 1)))
            b = gf2.mat_vec(m, x)                 # consistent by construction
        else:
            b = F2Vector.from_mask(m.rows, data.draw(st.integers(0, (1 << m.rows) - 1)))
        found, expected = solve(m, b), oracle_solve(m, b)
        assert (found is None) == (expected is None)
        if found is not None:
            assert found.length == m.cols
            assert gf2.mat_vec(m, found) == b

    def test_solve_shapes(self):
        assert solve(zero_matrix(0, 3), zero_vector(0)) == zero_vector(3)
        assert solve(zero_matrix(2, 0), zero_vector(2)) == zero_vector(0)
        assert solve(zero_matrix(2, 0), F2Vector.from_support(2, [1])) is None
        with pytest.raises(ShapeError):
            solve(zero_matrix(2, 3), zero_vector(3))

    @pytest.mark.parametrize("family", ["toric2", "match8", "star12"])
    def test_minimal_coset_representative_unchanged(self, family, request):
        code = extract_code(request.getfixturevalue(family))
        rng = random.Random(11)
        for weight in (0, 1, 2, 3, 4):
            for _ in range(6):
                err = F2Vector.from_support(code.n, rng.sample(range(code.n), weight))
                syndrome = gf2.mat_vec(code.hx, err)
                rep = minimal_coset_representative(code, syndrome)
                assert rep.vector.to_mask() == oracle_minimal_coset_representative(code, syndrome)


class TestPackedRows:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_boundary_maps_match_the_entry_sets(self, family, request):
        cpx = request.getfixturevalue(family)
        assert_maps_match_the_entry_sets(cpx)
        assert_maps_match_the_entry_sets(transposed(cpx))

    @pytest.mark.parametrize("build", [
        lambda: left_right_cayley(cyclic_group(12), [1, 2], [1, 4]),
        lambda: star_product(8, 3, 2),
        lambda: hypergraph_product(random_bipartite(4, 3, 6, random.Random(5)),
                                   random_bipartite(3, 5, 7, random.Random(6))),
    ])
    def test_more_boundary_maps(self, build):
        assert_maps_match_the_entry_sets(build())

    @pytest.mark.parametrize("which", ["v00_v10", "v01_v11", "v00_v01", "v10_v11"])
    def test_boundary_maps_refuse_a_first_endpoint_past_its_class(self, toric2, which):
        # (v10 + k, z11) in edges_v10_v11 would be V01 qubit k's column.
        edges = getattr(toric2, f"edges_{which}")
        a, b = min(edges)
        size0 = {"v00_v10": toric2.v00_size, "v01_v11": toric2.v01_size,
                 "v00_v01": toric2.v00_size, "v10_v11": toric2.v10_size}[which]
        broken = replace(toric2, **{f"edges_{which}": edges | {(size0 + a, b)}})
        with pytest.raises(ValidationError, match=rf"edge \({size0 + a}, {b}\) in edges_{which}"):
            verify_chain_condition(broken)

    def test_chain_witness_is_the_smallest_violating_column(self, toric3):
        dropped = sorted(toric3.edges_v00_v10)[-7:]
        broken = replace(toric3, edges_v00_v10=toric3.edges_v00_v10 - set(dropped))
        b1, b2 = oracle_boundaries(broken)
        columns = {c for row in mat_mul(b1, b2).row_masks for c in gf2.bits(row)}
        assert len(columns) > 1
        assert verify_chain_condition(broken).witness_column == min(columns)

    @settings(max_examples=100, deadline=None)
    @given(matrices(), st.data())
    def test_transpose_product_and_views(self, a, data):
        entries = {(r, c) for r in range(a.rows) for c in range(a.cols) if a.row_masks[r] >> c & 1}
        assert a == from_entries(a.rows, a.cols, entries)
        assert [(r, c) for r, row in enumerate(a.row_masks) for c in gf2.bits(row)] == \
            sorted(entries)
        assert transpose(a) == from_entries(a.cols, a.rows, {(c, r) for r, c in entries})
        assert transpose(transpose(a)) == a
        b = data.draw(matrices(rows=a.cols))
        expected = {(r, c) for r in range(a.rows) for c in range(b.cols)
                    if sum(a.row_masks[r] >> k & b.row_masks[k] >> c & 1 for k in range(a.cols)) % 2}
        assert mat_mul(a, b) == from_entries(a.rows, b.cols, expected)

    def test_range_checks(self):
        with pytest.raises(ValidationError, match=r"entry \(1,3\) outside 2x3"):
            F2Matrix(2, 3, (0b111, 0b1001))
        with pytest.raises(ValidationError, match=r"entry \(2,0\) outside 2x3"):
            from_entries(2, 3, [(2, 0)])
        with pytest.raises(ValidationError, match=r"entry \(0,-1\) outside 2x3"):
            from_entries(2, 3, [(0, -1)])
        with pytest.raises(ValidationError, match="negative mask"):
            F2Matrix(1, 3, (-1,))
        with pytest.raises(ShapeError):
            F2Matrix(2, 3, (0,))
        with pytest.raises(ShapeError):
            from_entries(-1, 3, [(0, 0)])
        with pytest.raises(ShapeError):
            zero_matrix(2, -1)
