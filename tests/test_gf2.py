"""GF(2) linear algebra: frozen oracle values and randomized properties."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbp
from qbp import gf2
from qbp.errors import ShapeError, ValidationError
from qbp.gf2 import F2Vector

from fixtures import from_dense, from_entries, identity_matrix, zero_matrix
from oracles import from_alist, mat_mul, solve, transpose


def random_matrix(rows, cols, rng, density=0.5):
    ents = [(r, c) for r in range(rows) for c in range(cols) if rng.random() < density]
    return from_entries(rows, cols, ents)


def span_masks(masks, length):
    """Every combination of the masks, read back bit by bit from the planes
    of the bit-sliced span kernel."""
    out = []
    for block in gf2.span_planes(masks, range(length)):
        for j in range(block.full.bit_length()):
            out.append(sum((p >> j & 1) << q for q, p in enumerate(block.planes)))
    return out


class TestMatMul:
    """The product oracle (`oracles.mat_mul`)."""

    def test_identity(self):
        rng = random.Random(1)
        m = random_matrix(3, 5, rng)
        assert mat_mul(identity_matrix(3), m) == m

    def test_parity_cancellation(self):
        a = from_dense([[1, 1], [1, 1]])
        b = from_dense([[1], [1]])
        assert mat_mul(a, b) == zero_matrix(2, 1)

    def test_toric_commuting_condition(self, toric3_code):
        # Hx Hz^T over the L=3 toric complex must cancel entirely.
        prod = mat_mul(toric3_code.hx, transpose(toric3_code.hz))
        assert not any(prod.row_masks)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(zero_matrix(2, 3), zero_matrix(4, 2))

    def test_associativity_random(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_matrix(rng.randrange(1, 8), rng.randrange(1, 8), rng)
            b = random_matrix(a.cols, rng.randrange(1, 8), rng)
            c = random_matrix(b.cols, rng.randrange(1, 8), rng)
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


class TestRank:
    def test_identity(self):
        assert gf2.rank(identity_matrix(3)) == 3

    def test_equal_rows(self):
        assert gf2.rank(from_dense([[1, 1], [1, 1]])) == 1

    def test_toric_hx_rank(self, toric3_code):
        # One dependent check: the nine X checks sum to zero.
        assert gf2.rank(toric3_code.hx) == 8

    def test_toric_hx_rank_against_row_space_enumeration(self, toric3_code):
        # Independent oracle: the row space of an 9x18 matrix of rank r has
        # exactly 2^r distinct elements.
        masks = toric3_code.hx.row_masks
        space = set(span_masks(masks, toric3_code.hx.cols))
        assert len(space) == 2 ** 8

    def test_row_space_size_random(self):
        rng = random.Random(13)
        for _ in range(15):
            m = random_matrix(rng.randrange(1, 9), rng.randrange(1, 12), rng)
            space = set(span_masks(m.row_masks, m.cols))
            assert len(space) == 2 ** gf2.rank(m)

    def test_rank_transpose_invariant(self):
        rng = random.Random(17)
        for _ in range(25):
            m = random_matrix(rng.randrange(0, 10), rng.randrange(0, 10), rng)
            assert gf2.rank(m) == gf2.rank(transpose(m))

    def test_empty_matrices(self):
        assert gf2.rank(zero_matrix(0, 5)) == 0
        assert gf2.rank(zero_matrix(5, 0)) == 0
        assert len(gf2.kernel_masks(zero_matrix(0, 4))) == 4


class TestKernel:
    def test_zero_matrix_full_kernel(self):
        basis = gf2.kernel_masks(zero_matrix(2, 3))
        assert len(basis) == 3
        assert len(set(span_masks(basis, 3))) == 8

    def test_forced_kernel_element(self):
        m = from_dense([[1, 1, 0], [0, 1, 1]])
        assert gf2.kernel_masks(m) == [0b111]

    def test_toric_boundary_kernel(self, toric3_code):
        basis = gf2.kernel_masks(toric3_code.hx)
        assert len(basis) == 18 - 8
        for v in basis:
            assert gf2.mat_vec_mask(toric3_code.hx, v) == 0

    def test_kernel_vectors_random(self):
        rng = random.Random(23)
        for _ in range(20):
            m = random_matrix(rng.randrange(1, 9), rng.randrange(1, 11), rng)
            basis = gf2.kernel_masks(m)
            assert len(basis) == m.cols - gf2.rank(m)
            for v in basis:
                assert gf2.mat_vec_mask(m, v) == 0

    def test_deterministic_order(self):
        m = from_dense([[1, 0, 1, 1], [0, 1, 1, 0]])
        b1 = gf2.kernel_masks(m)
        entries = [(r, c) for r, row in enumerate(m.row_masks) for c in gf2.bits(row)]
        b2 = gf2.kernel_masks(from_entries(2, 4, entries))
        assert b1 == b2


class TestSolve:
    def test_solve_roundtrip(self):
        rng = random.Random(31)
        for _ in range(25):
            m = random_matrix(rng.randrange(1, 8), rng.randrange(1, 8), rng)
            x = F2Vector.from_support(m.cols, [c for c in range(m.cols) if rng.random() < 0.5])
            b = gf2.mat_vec(m, x)
            sol = solve(m, b)
            assert sol is not None
            assert gf2.mat_vec(m, sol) == b

    def test_solve_inconsistent(self):
        m = from_dense([[1, 0], [1, 0]])
        assert solve(m, F2Vector.from_support(2, [0])) is None


class TestVectors:
    def test_weight(self):
        v = F2Vector.from_support(6, [1, 3, 5])
        assert v.weight == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            F2Vector.from_support(3, [3])

    def test_xor(self):
        a = F2Vector.from_support(4, [0, 1])
        b = F2Vector.from_support(4, [1, 2])
        assert (a ^ b).support == frozenset({0, 2})


class TestInterchange:
    def test_alist_roundtrip(self):
        rng = random.Random(43)
        for _ in range(10):
            m = random_matrix(rng.randrange(1, 7), rng.randrange(1, 7), rng, density=0.4)
            assert from_alist(gf2.to_alist(m)) == m

    def test_alist_header_is_cols_rows(self):
        m = from_dense([[1, 0, 1]])
        first = gf2.to_alist(m).splitlines()[0]
        assert first == "3 1"

    def test_alist_rejects_garbage(self):
        with pytest.raises(ValidationError):
            from_alist("2 2\n1 1\n1 1\n1 1\n1\n")

    @pytest.mark.parametrize("text, message", [
        ("2 1\n1 1\n1\n1\n1\n", "alist weight lists disagree with header"),
        ("1 1\n1 1\n1\n1\n0\n1\n", "alist column 0 has 0 indices, expected 1"),
        ("2 1\n1 1\n1 0\n1\n1\n0\n2\n", "alist row/column lists disagree at (0,1)"),
        ("1 1\n1 1\n1\n1\n1.5\n1\n", "malformed alist: invalid literal"),
        ("1 1\n1 1\n1\n1\n1\n", "malformed alist: list index out of range"),
    ], ids=["weights", "column", "disagree", "float", "truncated"])
    def test_alist_refusals_name_the_fault(self, text, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            from_alist(text)


class TestSpanPlanes:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 2, 5, 12, 13, 14]), st.integers(1, 12), st.data())
    def test_planes_are_the_span(self, dim, length, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        masks = [rng.getrandbits(length) for _ in range(dim)]
        coords = data.draw(st.lists(st.integers(0, length - 1), max_size=length))
        blocks = list(gf2.span_planes(masks, coords))
        width = 1 << min(dim, gf2.SPAN_BLOCK_BITS)
        assert [b.start for b in blocks] == list(range(0, 1 << dim, width))
        for block in blocks:
            assert block.full == (1 << width) - 1
            for j in range(width):
                c, expected = block.start + j, 0
                for i in range(dim):
                    if c >> i & 1:
                        expected ^= masks[i]
                assert [p >> j & 1 for p in block.planes] == [expected >> q & 1 for q in coords]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_plane_arithmetic_matches_integers(self, bits, data):
        width = 1 << bits
        terms = data.draw(st.lists(st.tuples(st.integers(0, (1 << width) - 1),
                                              st.integers(0, 9)), max_size=12))
        values = [sum(w * (p >> j & 1) for p, w in terms) for j in range(width)]
        digits = gf2.plane_sum(terms)
        assert [sum((d >> j & 1) << k for k, d in enumerate(digits))
                for j in range(width)] == values
        target = data.draw(st.integers(0, (1 << width) - 1))
        found = gf2.plane_min(digits, target)
        if target:
            least = min(v for j, v in enumerate(values) if target >> j & 1)
            assert found == (least, sum(1 << j for j, v in enumerate(values)
                                        if target >> j & 1 and v == least))
        else:
            assert found is None
        bound = data.draw(st.integers(0, 100))
        assert gf2.plane_greater(digits, bound) == sum(
            1 << j for j, v in enumerate(values) if v > bound)
