"""Build-path oracles and certificates against the code they replaced.

The distance oracles compare weights through an exact integer key, test
local minimality only against the Hz rows that meet a vector's support, and
carry the stabilizer residue along the Gray-code walk; `certify_expansion`
compares integers instead of building a Fraction per subset.  Each is
compared here with the earlier formulation: Fraction weights against every
Hz row, O(rank) row-space membership per vector, and the per-subset
Fraction bound.
"""

import functools
import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbp import gf2
from qbp.css import (
    CssCode,
    brute_distance,
    extract_code,
    greedy_flip_reduce,
    locally_minimal_distance,
    minimal_coset_representative,
    normalized_syndrome_weight,
    normalized_weight,
)
from qbp.decoder import guaranteed_correctable_weight, size_gates
from qbp.errors import PreconditionError, ValidationError
from qbp.expansion import certify_expansion
from qbp.gf2 import F2Matrix, F2Vector
from qbp.graphs import regularity
from qbp.instances import (
    bipartite_cycle,
    doubled_complete_incidence,
    incidence_star_product,
    random_bipartite,
    random_biregular,
    star_graph,
    star_product,
    toric_complex,
)
from qbp.product import DegreeProfile, hypergraph_product

EPSILONS = (Fraction(0), Fraction(1, 7), Fraction(1, 2))
ORACLE_KERNEL_DIM = 12


# -- oracles -------------------------------------------------------------------


def gray_span(masks):
    """All 2^k combinations of packed vectors in Gray-code order, zero first:
    the one-vector-at-a-time walk the distance oracles made before the
    bit-sliced span kernel."""
    acc = 0
    yield acc
    for i in range(1, 1 << len(masks)):
        acc ^= masks[(i & -i).bit_length() - 1]
        yield acc


def fraction_weight(code, normalized):
    split = code.v10_size
    low_block = (1 << split) - 1
    if not normalized:
        return lambda m: m.bit_count()
    d = code.degrees
    return lambda m: (Fraction((m & low_block).bit_count(), d.down)
                      + Fraction((m >> split).bit_count(), d.right))


def oracle_brute_distance(code, which):
    kernel_of, stabilizers = (code.hx, code.z_stabilizers) if which == "z" else (
        code.hz, code.x_stabilizers)
    basis = gf2.kernel_basis(kernel_of)
    best = None
    count = 0
    for mask in gray_span([v.to_mask() for v in basis]):
        count += 1
        if mask == 0 or stabilizers.contains_mask(mask):
            continue
        w = mask.bit_count()
        if best is None or w < best:
            best = w
    return which, best, best is None, len(basis), count


def oracle_locally_minimal_distance(code, normalized):
    measure = fraction_weight(code, normalized)
    columns = code.hz.row_masks
    basis = gf2.kernel_basis(code.hx)
    best_all = best_nontrivial = None
    for mask in gray_span([v.to_mask() for v in basis]):
        if mask == 0:
            continue
        value = measure(mask)
        if not all(measure(mask ^ col) >= value for col in columns):
            continue
        w = mask.bit_count()
        if best_all is None or w < best_all:
            best_all = w
        if not code.z_stabilizers.contains_mask(mask):
            if best_nontrivial is None or w < best_nontrivial:
                best_nontrivial = w
    return normalized, best_all, best_nontrivial, len(basis)


def oracle_greedy_flip_reduce(code, c1, normalized):
    measure = fraction_weight(code, normalized)
    mask = c1.to_mask()
    current = measure(mask)
    iterations = 0
    improved = True
    while improved:
        improved = False
        for col in code.hz.row_masks:
            value = measure(mask ^ col)
            if value < current:
                mask, current = mask ^ col, value
                iterations += 1
                improved = True
                break
    return F2Vector.from_mask(code.n, mask), iterations


def oracle_minimal_coset_representative(code, syndrome):
    measure = fraction_weight(code, True)
    base = gf2.solve(code.hx, syndrome).to_mask()
    best_mask = best_val = None
    for kmask in gray_span([v.to_mask() for v in gf2.kernel_basis(code.hx)]):
        m = base ^ kmask
        val = measure(m)
        if best_val is None or val < best_val or (val == best_val and m < best_mask):
            best_val, best_mask = val, m
    return F2Vector.from_mask(code.n, best_mask), best_val


def oracle_certify(graph, side, c, epsilon, mode, trials, seed):
    """Verdict, witness and subsets checked, with the bound as a Fraction."""
    n_src, adj = (graph.v0_size, graph.adj0) if side == "0to1" else (graph.v1_size, graph.adj1)
    prof = regularity(graph)
    w_src = prof.w0 if side == "0to1" else prof.w1
    max_size = max(0, math.ceil(c * n_src) - 1)

    def violates(subset):
        seen = set()
        for x in subset:
            seen.update(adj[x])
        return len(seen) < (1 - epsilon) * w_src * len(subset)

    if mode == "exhaustive":
        subsets = (s for size in range(1, max_size + 1)
                   for s in itertools.combinations(range(n_src), size))
    else:
        rng = random.Random(seed)
        subsets = (tuple(sorted(rng.sample(range(n_src), size)))
                   for size in range(1, max_size + 1) for _ in range(trials))
    checked = 0
    for subset in subsets:
        checked += 1
        if violates(subset):
            return "fail", subset, checked
    return "pass", None, checked


# -- comparisons ------------------------------------------------------------------


def kernel_dim(matrix):
    return matrix.cols - gf2.rank(matrix)


def assert_oracles_agree(code, rng, vectors=6):
    d = code.degrees
    normalizations = (False, True) if d is not None and d.down and d.right else (False,)
    for which, matrix in (("z", code.hx), ("x", code.hz)):
        if kernel_dim(matrix) <= ORACLE_KERNEL_DIM:
            r = brute_distance(code, which)
            assert (r.which, r.d, r.no_logicals, r.kernel_dim, r.vectors_enumerated) == \
                oracle_brute_distance(code, which)
    if kernel_dim(code.hx) <= ORACLE_KERNEL_DIM:
        for normalized in normalizations:
            r = locally_minimal_distance(code, normalized=normalized)
            assert (r.normalized, r.d_lm_all, r.d_lm_nontrivial, r.kernel_dim) == \
                oracle_locally_minimal_distance(code, normalized)
    for _ in range(vectors):
        c1 = F2Vector.from_support(code.n, rng.sample(range(code.n), rng.randint(0, code.n)))
        for normalized in normalizations:
            r = greedy_flip_reduce(code, c1, normalized)
            assert (r.vector, r.iterations) == oracle_greedy_flip_reduce(code, c1, normalized)
        if True in normalizations and kernel_dim(code.hx) <= ORACLE_KERNEL_DIM:
            syndrome = gf2.mat_vec(code.hx, c1)
            rep = minimal_coset_representative(code, syndrome)
            assert (rep.vector, rep.normalized_weight) == \
                oracle_minimal_coset_representative(code, syndrome)
            assert rep.v10_weight + rep.v01_weight == rep.vector.weight


def assert_certificates_agree(graph, c, epsilon, trials=8, seed=0):
    for side in ("0to1", "1to0"):
        n_src = graph.v0_size if side == "0to1" else graph.v1_size
        max_size = max(0, math.ceil(c * n_src) - 1)
        subsets = sum(math.comb(n_src, s) for s in range(1, max_size + 1))
        modes = ("exhaustive", "sampled") if subsets <= 1 << ORACLE_KERNEL_DIM else ("sampled",)
        for mode in modes:
            cert = certify_expansion(graph, side, c, epsilon, mode, trials=trials, seed=seed)
            assert (cert.verdict, cert.witness, cert.subsets_checked) == \
                oracle_certify(graph, side, c, epsilon, mode, trials, seed)


FAMILIES = ["toric2", "toric3", "match8", "star12", "incstar13"]
MORE_FAMILIES = {
    "star6_2_3": lambda: star_product(6, 2, 3),
    "star8_3_2": lambda: star_product(8, 3, 2),
    "incstar5": lambda: incidence_star_product(5, 2),
    "incstar7_3": lambda: incidence_star_product(7, 3),
}


class TestFamilies:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_conftest_families(self, name, request):
        cpx = request.getfixturevalue(name)
        code = extract_code(cpx)
        assert_oracles_agree(code, random.Random(name))
        assert_oracles_agree(extract_code(cpx.transposed()), random.Random(name))

    @pytest.mark.parametrize("name", sorted(MORE_FAMILIES))
    def test_unequal_block_weights(self, name):
        cpx = MORE_FAMILIES[name]()
        assert cpx.degrees.down != cpx.degrees.right
        assert_oracles_agree(extract_code(cpx), random.Random(name))
        assert_oracles_agree(extract_code(cpx.transposed()), random.Random(name))

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_factor_certificates(self, epsilon):
        graphs = [bipartite_cycle(4), star_graph(6, 3)[0], star_graph(5, 2)[0],
                  doubled_complete_incidence(5)[0]]
        for graph in graphs:
            for c in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                assert_certificates_agree(graph, c, epsilon)


# -- random instances --------------------------------------------------------------

# (v0, v1, w0) with w0 * v0 divisible by v1 and a simple graph possible.
BIREGULAR_SHAPES = [(2, 2, 1), (2, 2, 2), (3, 3, 1), (3, 3, 2), (2, 4, 2), (4, 2, 1),
                    (3, 2, 2), (2, 3, 3), (4, 4, 2), (4, 2, 2)]


def biregular(shape, seed):
    try:
        return random_biregular(*shape, random.Random(seed))
    except ValidationError:
        assume(False)


class TestRandom:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(BIREGULAR_SHAPES), st.sampled_from(BIREGULAR_SHAPES),
           st.integers(0, 10 ** 6))
    def test_biregular_hypergraph_products(self, shape_x, shape_y, seed):
        code = extract_code(hypergraph_product(biregular(shape_x, seed),
                                               biregular(shape_y, seed + 1)))
        assert code.degrees is not None
        assert_oracles_agree(code, random.Random(seed), vectors=3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.data())
    def test_irregular_hypergraph_products(self, a0, a1, b0, b1, data):
        seed = data.draw(st.integers(0, 10 ** 6))
        x = random_bipartite(a0, a1, data.draw(st.integers(0, a0 * a1)), random.Random(seed))
        y = random_bipartite(b0, b1, data.draw(st.integers(0, b0 * b1)), random.Random(seed + 1))
        assert_oracles_agree(extract_code(hypergraph_product(x, y)), random.Random(seed),
                             vectors=3)

    def test_zero_degree_refuses_normalized_weight(self):
        # An edgeless factor is 0-regular; the normalized weight divides by
        # its degree, so it is refused instead of compared.
        code = extract_code(hypergraph_product(random_bipartite(2, 2, 0, random.Random(1)),
                                               bipartite_cycle(2)))
        assert code.degrees.down == 0
        c1 = F2Vector.from_support(code.n, [0])
        with pytest.raises(PreconditionError, match="down, right > 0"):
            greedy_flip_reduce(code, c1, normalized=True)
        with pytest.raises(PreconditionError, match="down, right > 0"):
            locally_minimal_distance(code, normalized=True)
        with pytest.raises(PreconditionError, match="down, right > 0"):
            minimal_coset_representative(code, gf2.mat_vec(code.hx, c1))

    def test_zero_degree_refuses_every_normalized_quantity(self):
        # The same 0-regular factor: each quantity that divides by a degree
        # refuses it with a typed error, never a bare ZeroDivisionError.
        cpx = hypergraph_product(random_bipartite(2, 2, 0, random.Random(1)),
                                 bipartite_cycle(2))
        code = extract_code(cpx)
        assert (code.degrees.down, code.degrees.up) == (0, 0)
        with pytest.raises(PreconditionError, match="down, right > 0, got down = 0"):
            normalized_weight(code, F2Vector.from_support(code.n, [0]))
        with pytest.raises(PreconditionError, match="down, right > 0, got down = 0"):
            normalized_syndrome_weight(code, F2Vector.zero(code.m_x))
        certs = [certify_expansion(g, "0to1", Fraction(1, 2), Fraction(1, 2))
                 for g in (cpx.factor_x, cpx.factor_y)]
        with pytest.raises(PreconditionError, match="up, left > 0, got up = 0"):
            size_gates(cpx, *certs)
        with pytest.raises(PreconditionError, match="down, up, right, left > 0"):
            guaranteed_correctable_weight(cpx, *certs, Fraction(0))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BIREGULAR_SHAPES + [(6, 3, 2), (6, 6, 3), (8, 4, 1), (5, 5, 2)]),
           st.integers(0, 10 ** 6), st.sampled_from(EPSILONS),
           st.fractions(min_value=Fraction(1, 9), max_value=1, max_denominator=9),
           st.integers(1, 6))
    def test_certificates(self, shape, seed, epsilon, c, trials):
        assume(c > 0)
        assert_certificates_agree(biregular(shape, seed), c, epsilon, trials=trials, seed=seed)


# -- the bit-sliced span kernel ------------------------------------------------------

@st.composite
def kernel_codes(draw, dim):
    """A CSS code whose Hx kernel has dimension `dim`.

    Hx is n - dim random rows of full rank; Hz rows are random combinations
    of its kernel basis, or the basis itself (k = 0).  The degrees, and so
    the key weights, are drawn with down != right allowed.
    """
    n = dim + draw(st.integers(0 if dim else 1, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    hx = F2Matrix.from_row_masks(n - dim, n, [rng.getrandbits(n) for _ in range(n - dim)])
    assume(gf2.rank(hx) == n - dim)
    basis = [v.to_mask() for v in gf2.kernel_basis(hx)]
    if draw(st.booleans()):
        hz_rows = basis                                      # every logical is trivial
    else:
        hz_rows = [functools.reduce(operator.xor, (m for m in basis if rng.random() < 0.3), 0)
                   for _ in range(rng.randint(0, 3))]
    degrees = DegreeProfile(draw(st.integers(1, 4)), 1, draw(st.integers(1, 4)), 1)
    return CssCode(hx, F2Matrix.from_row_masks(len(hz_rows), n, hz_rows),
                   draw(st.integers(0, n)), degrees)


def assert_span_oracles_agree(code, normalized, syndrome):
    for which, matrix in (("z", code.hx), ("x", code.hz)):
        if kernel_dim(matrix) <= 17:
            r = brute_distance(code, which)
            assert (r.which, r.d, r.no_logicals, r.kernel_dim, r.vectors_enumerated) == \
                oracle_brute_distance(code, which)
    r = locally_minimal_distance(code, normalized=normalized)
    assert (r.normalized, r.d_lm_all, r.d_lm_nontrivial, r.kernel_dim) == \
        oracle_locally_minimal_distance(code, normalized)
    rep = minimal_coset_representative(code, syndrome)
    assert (rep.vector, rep.normalized_weight) == \
        oracle_minimal_coset_representative(code, syndrome)


class TestSpanKernel:
    # Kernel dimensions around the block of 2^12 combinations: one block of
    # one combination, of two, one full block, two blocks; 17 is 32 blocks.
    @pytest.mark.parametrize("dim", [0, 1, 12, 13])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_matches_the_gray_walk(self, dim, data):
        self.check(data.draw(kernel_codes(dim)), data)

    @settings(max_examples=1, deadline=None)      # 2^17 Fraction-weighted oracle steps
    @given(data=st.data())
    def test_multi_block_matches_the_gray_walk(self, data):
        self.check(data.draw(kernel_codes(17)), data)

    @staticmethod
    def check(code, data):
        error = F2Vector.from_mask(code.n, data.draw(st.integers(0, (1 << code.n) - 1)))
        assert_span_oracles_agree(code, data.draw(st.booleans()), gf2.mat_vec(code.hx, error))

    def test_toric_multi_block_distance(self):
        code = extract_code(toric_complex(4))
        assert kernel_dim(code.hx) == 17
        r = brute_distance(code, "z")
        assert (r.which, r.d, r.no_logicals, r.kernel_dim, r.vectors_enumerated) == \
            oracle_brute_distance(code, "z") == ("z", 4, False, 17, 1 << 17)

    @pytest.mark.parametrize("build", [lambda: toric_complex(4), lambda: star_product(20, 3, 2)],
                             ids=["toric4", "star20"])
    def test_memory_is_bounded_by_the_block(self, build):
        # 2^17 and 2^20 combinations; the oracles hold one block at a time.
        code = extract_code(build())
        for oracle in (lambda: brute_distance(code, "z"), lambda: locally_minimal_distance(code)):
            tracemalloc.start()
            try:
                oracle()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1 << 20

    def test_minimal_coset_ties_go_to_the_smaller_mask(self):
        # Qubits 0 and 2 have equal Hx columns and lie in the same block, so
        # the coset of either holds both weight-1 vectors at the same key.
        hx = F2Matrix.from_dense([[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [0, 0, 0, 1, 1]])
        code = CssCode(hx, F2Matrix.zero(0, 5), 3, DegreeProfile(2, 1, 3, 1))
        for q, expected in ((0, 0), (2, 0), (1, 1)):
            syndrome = gf2.mat_vec(hx, F2Vector.from_support(5, [q]))
            rep = minimal_coset_representative(code, syndrome)
            assert rep.vector == F2Vector.from_support(5, [expected])
            assert (rep.vector, rep.normalized_weight) == \
                oracle_minimal_coset_representative(code, syndrome)
