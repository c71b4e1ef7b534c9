"""Build-path oracles and certificates against the code they replaced.

The distance oracles compare weights through an exact integer key, test
local minimality only against the Hz rows that meet a vector's support, and
carry the stabilizer residue along the Gray-code walk; `certify_expansion`
compares integers instead of building a Fraction per subset, and skips the
sizes that two counting bounds prove.  Each is compared here with the
earlier formulation: Fraction weights against every Hz row, O(rank)
row-space membership per vector, and the per-subset Fraction bound over
every eligible subset or draw.  The proven size itself is recomputed from
the bounds in Fractions, with the common neighborhoods of all pairs.
"""

import functools
import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from qbp import expansion, gf2
from qbp.css import (
    CssCode,
    brute_distance,
    extract_code,
    locally_minimal_distance,
    normalized_syndrome_weight,
    normalized_weight,
)
from qbp.decoder import guaranteed_correctable_weight, size_gates
from qbp.errors import PreconditionError, ValidationError
from qbp.expansion import _proven_size, certify_expansion
from qbp.gf2 import F2Matrix, F2Vector
from qbp.graphs import regularity
from qbp.instances import (
    bipartite_cycle,
    doubled_complete_incidence,
    incidence_star_product,
    star_graph,
    star_product,
    toric_complex,
)
from qbp.product import DegreeProfile, hypergraph_product

from fixtures import random_bipartite, random_biregular, zero_vector
from oracles import greedy_flip_reduce, transposed

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


def fraction_weight(code):
    """The normalized weight |v10|/down + |v01|/right of a packed vector."""
    split = code.v10_size
    low_block = (1 << split) - 1
    d = code.degrees
    return lambda m: (Fraction((m & low_block).bit_count(), d.down)
                      + Fraction((m >> split).bit_count(), d.right))


def oracle_brute_distance(code, which):
    kernel_of, stabilizers = (code.hx, code.z_stabilizers) if which == "z" else (
        code.hz, code.x_stabilizers)
    basis = gf2.kernel_masks(kernel_of)
    best = None
    count = 0
    for mask in gray_span(basis):
        count += 1
        if mask == 0 or stabilizers.contains_mask(mask):
            continue
        w = mask.bit_count()
        if best is None or w < best:
            best = w
    return which, best, best is None, len(basis), count


def oracle_locally_minimal_distance(code):
    measure = fraction_weight(code)
    columns = code.hz.row_masks
    basis = gf2.kernel_masks(code.hx)
    best_all = best_nontrivial = None
    for mask in gray_span(basis):
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
    return best_all, best_nontrivial, len(basis)


def oracle_greedy_flip_reduce(code, c1):
    measure = fraction_weight(code)
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
    normalizable = d is not None and d.down and d.right
    for which, matrix in (("z", code.hx), ("x", code.hz)):
        if kernel_dim(matrix) <= ORACLE_KERNEL_DIM:
            r = brute_distance(code, which)
            assert (r.which, r.d, r.no_logicals, r.kernel_dim, r.vectors_enumerated) == \
                oracle_brute_distance(code, which)
    if normalizable and kernel_dim(code.hx) <= ORACLE_KERNEL_DIM:
        r = locally_minimal_distance(code)
        assert (r.d_lm_all, r.d_lm_nontrivial, r.kernel_dim) == \
            oracle_locally_minimal_distance(code)
    for _ in range(vectors):
        c1 = F2Vector.from_support(code.n, rng.sample(range(code.n), rng.randint(0, code.n)))
        if not normalizable:
            with pytest.raises(PreconditionError):
                greedy_flip_reduce(code, c1)
            continue
        r = greedy_flip_reduce(code, c1)
        assert (r.vector, r.iterations) == oracle_greedy_flip_reduce(code, c1)


def source_views(graph, side):
    prof = regularity(graph)
    if side == "0to1":
        return graph.adj0, prof.w0, graph.adj1, prof.w1
    return graph.adj1, prof.w1, graph.adj0, prof.w0


def oracle_proven_size(graph, side, c, epsilon):
    """The largest s0 <= max_size at which each size up to s0 satisfies the
    double-counting bound w_src s / w_dst >= (1 - epsilon) w_src s or the pair
    bound w_src s - lam C(s, 2) >= (1 - epsilon) w_src s, in Fractions, with
    lam the largest common neighborhood over all pairs of source vertices."""
    adj, w_src, _, w_dst = source_views(graph, side)
    keep = 1 - epsilon
    lam = max((len(set(a) & set(b)) for a, b in itertools.combinations(adj, 2)), default=0)

    def proven(s):
        need = keep * w_src * s
        return ((w_dst == 0 or Fraction(w_src * s, w_dst) >= need)
                or w_src * s - lam * math.comb(s, 2) >= need)

    max_size = max(0, math.ceil(c * len(adj)) - 1)
    s0 = 0
    while s0 < max_size and proven(s0 + 1):
        s0 += 1
    return s0


def proven_size(graph, side, c, epsilon):
    adj, w_src, adj_dst, w_dst = source_views(graph, side)
    keep = 1 - epsilon
    return _proven_size(adj, w_src, adj_dst, w_dst, keep.numerator, keep.denominator,
                        max(0, math.ceil(c * len(adj)) - 1))


def proof_kind(s0, max_size):
    """What the counting bounds decide: every size, a prefix beyond the
    singletons (which every biregular graph passes), or nothing more."""
    return "all" if s0 == max_size else "prefix" if s0 > 1 else "none"


def assert_certificates_agree(graph, c, epsilon, trials=8, seed=0, sides=("0to1", "1to0")):
    """Certificates equal the enumeration oracle's in verdict, witness and
    count, and the proven size equals the Fraction oracle's; returns the
    proof kind of each side."""
    kinds = []
    for side in sides:
        n_src = graph.v0_size if side == "0to1" else graph.v1_size
        max_size = max(0, math.ceil(c * n_src) - 1)
        s0 = proven_size(graph, side, c, epsilon)
        assert s0 == oracle_proven_size(graph, side, c, epsilon)
        kinds.append(proof_kind(s0, max_size))
        subsets = sum(math.comb(n_src, s) for s in range(1, max_size + 1))
        modes = ("exhaustive", "sampled") if subsets <= 1 << ORACLE_KERNEL_DIM else ("sampled",)
        for mode in modes:
            cert = certify_expansion(graph, side, c, epsilon, mode, trials=trials, seed=seed)
            expected = oracle_certify(graph, side, c, epsilon, mode, trials, seed)
            assert (cert.verdict, cert.witness, cert.subsets_checked) == expected
            if expected[1] is not None:
                assert len(expected[1]) > s0            # the proven sizes hold
    return kinds


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
        assert_oracles_agree(extract_code(transposed(cpx)), random.Random(name))

    @pytest.mark.parametrize("name", sorted(MORE_FAMILIES))
    def test_unequal_block_weights(self, name):
        cpx = MORE_FAMILIES[name]()
        assert cpx.degrees.down != cpx.degrees.right
        assert_oracles_agree(extract_code(cpx), random.Random(name))
        assert_oracles_agree(extract_code(transposed(cpx)), random.Random(name))

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
            greedy_flip_reduce(code, c1)
        with pytest.raises(PreconditionError, match="down, right > 0"):
            locally_minimal_distance(code)

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
            normalized_syndrome_weight(code, zero_vector(code.m_x))
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


# -- counting bounds before enumeration ---------------------------------------------

# Both degrees at least 2, so w_dst >= 2 from either side.
DENSE_SHAPES = [(4, 4, 2), (5, 5, 2), (6, 6, 2), (6, 4, 2), (6, 3, 2), (8, 4, 2), (9, 6, 2),
                (6, 9, 3), (6, 6, 3), (8, 8, 3)]


def bound_epsilons(w_dst):
    return (Fraction(0), Fraction(1, w_dst), Fraction(1, 2), Fraction(1), Fraction(3, 2))


def forbid_enumeration(monkeypatch):
    """Make any subset enumeration or draw in `qbp.expansion` raise."""
    monkeypatch.setattr(expansion, "itertools", SimpleNamespace(chain=itertools.chain))
    monkeypatch.setattr(expansion, "random", SimpleNamespace())


# name: (graph, side, c, epsilon, proof kind, size of the first violation)
PROOF_KINDS = {
    "double_counting": (lambda: bipartite_cycle(6), "1to0", 1, Fraction(1, 2), "all", None),
    "pairs": (lambda: doubled_complete_incidence(7)[0], "0to1", Fraction(3, 7), Fraction(1, 8),
              "all", None),
    "prefix": (lambda: random_biregular(8, 8, 3, random.Random(0)), "0to1", 1, Fraction(1, 3),
               "prefix", 3),
    "prefix_passes": (lambda: random_biregular(8, 8, 3, random.Random(0)), "0to1",
                      Fraction(1, 2), Fraction(1, 2), "prefix", None),
    "nothing": (lambda: bipartite_cycle(6), "0to1", 1, Fraction(0), "none", 2),
    "nothing_k33": (lambda: random_biregular(3, 3, 3, random.Random(0)), "0to1", 1,
                    Fraction(1, 3), "none", 2),
}


class TestCountingBounds:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(DENSE_SHAPES), st.integers(0, 10 ** 6), st.integers(0, 4),
           st.fractions(min_value=Fraction(1, 3), max_value=1, max_denominator=9),
           st.integers(1, 4))
    def test_certificates_match_the_enumeration(self, shape, seed, which, c, trials):
        graph = biregular(shape, seed)
        for side in ("0to1", "1to0"):
            w_dst = source_views(graph, side)[3]
            assert w_dst >= 2
            (kind,) = assert_certificates_agree(graph, c, bound_epsilons(w_dst)[which],
                                                trials=trials, seed=seed, sides=(side,))
            event(f"counting bounds prove {kind}")

    @pytest.mark.parametrize("name", sorted(PROOF_KINDS))
    def test_each_kind_matches_the_enumeration(self, name):
        build, side, c, epsilon, kind, violation = PROOF_KINDS[name]
        graph = build()
        assert source_views(graph, side)[3] >= 2
        assert assert_certificates_agree(graph, c, epsilon, sides=(side,)) == [kind]
        cert = certify_expansion(graph, side, c, epsilon)
        assert (len(cert.witness) if cert.witness else None) == violation
        if violation is not None:
            assert violation == proven_size(graph, side, c, epsilon) + 1

    @pytest.mark.parametrize("m", [5, 7, 9, 13])
    def test_doubled_incidence_is_proven_by_pairs_with_equality(self, m, monkeypatch):
        graph, _ = doubled_complete_incidence(m)
        c, epsilon = Fraction(3, m), Fraction(1, m + 1)
        adj, w_src, _, w_dst = source_views(graph, "0to1")
        lam = max(len(set(a) & set(b)) for a, b in itertools.combinations(adj, 2))
        keep = 1 - epsilon
        num, den = keep.numerator, keep.denominator
        assert (w_src, w_dst, lam, num, den) == (m + 1, 2, 2, m, m + 1)
        assert num * w_dst > den                                  # double counting fails
        assert lam * (2 - 1) * den == 2 * w_src * (den - num)     # pairs hold at s = 2
        assert proven_size(graph, "0to1", c, epsilon) == 2 == certify_expansion(
            graph, "0to1", c, epsilon).max_eligible_size
        forbid_enumeration(monkeypatch)
        cert = certify_expansion(graph, "0to1", c, epsilon)
        assert (cert.verdict, cert.subsets_checked) == ("pass", m + math.comb(m, 2))
        cert = certify_expansion(graph, "0to1", c, epsilon, "sampled", trials=5, seed=1)
        assert (cert.verdict, cert.subsets_checked, cert.trials, cert.seed) == ("pass", 10, 5, 1)
        assert cert.note == "sampled verdicts are evidence, not proof"

    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_double_counting_is_proven_with_equality(self, n, monkeypatch):
        # The 2n-cycle at epsilon = 1/2: num w_dst = den, while pairs alone
        # (lam = 1) stop at size 3.
        graph = bipartite_cycle(n)
        epsilon = Fraction(1, 2)
        assert proven_size(graph, "0to1", Fraction(1), epsilon) == n - 1
        forbid_enumeration(monkeypatch)
        cert = certify_expansion(graph, "0to1", Fraction(1), epsilon)
        assert (cert.verdict, cert.subsets_checked) == ("pass", 2 ** n - 2)

    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_pairs_short_by_one_enumerate_that_size(self, n):
        # The 2n-cycle at epsilon = 1/5: at s = 2, lam (s - 1) den = 5 and
        # 2 w_src (den - num) = 4, and pair (0, 1) is the first violation.
        graph = bipartite_cycle(n)
        epsilon = Fraction(1, 5)
        keep = 1 - epsilon
        assert 1 * (2 - 1) * keep.denominator == 2 * 2 * (keep.denominator - keep.numerator) + 1
        assert proven_size(graph, "0to1", Fraction(1), epsilon) == 1
        for mode in ("exhaustive", "sampled"):
            cert = certify_expansion(graph, "0to1", Fraction(1), epsilon, mode, trials=40)
            assert cert.verdict == "fail" and len(cert.witness) == 2
        cert = certify_expansion(graph, "0to1", Fraction(1), epsilon)
        assert (cert.witness, cert.subsets_checked) == ((0, 1), n + 1)


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
    hx = F2Matrix(n - dim, n, tuple(rng.getrandbits(n) for _ in range(n - dim)))
    assume(gf2.rank(hx) == n - dim)
    basis = gf2.kernel_masks(hx)
    if draw(st.booleans()):
        hz_rows = basis                                      # every logical is trivial
    else:
        hz_rows = [functools.reduce(operator.xor, (m for m in basis if rng.random() < 0.3), 0)
                   for _ in range(rng.randint(0, 3))]
    degrees = DegreeProfile(draw(st.integers(1, 4)), 1, draw(st.integers(1, 4)), 1)
    return CssCode(hx, F2Matrix(len(hz_rows), n, tuple(hz_rows)),
                   draw(st.integers(0, n)), degrees)


def assert_span_oracles_agree(code):
    for which, matrix in (("z", code.hx), ("x", code.hz)):
        if kernel_dim(matrix) <= 17:
            r = brute_distance(code, which)
            assert (r.which, r.d, r.no_logicals, r.kernel_dim, r.vectors_enumerated) == \
                oracle_brute_distance(code, which)
    r = locally_minimal_distance(code)
    assert (r.d_lm_all, r.d_lm_nontrivial, r.kernel_dim) == oracle_locally_minimal_distance(code)


class TestSpanKernel:
    # Kernel dimensions around the block of 2^12 combinations: one block of
    # one combination, of two, one full block, two blocks; 17 is 32 blocks.
    @pytest.mark.parametrize("dim", [0, 1, 12, 13])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_matches_the_gray_walk(self, dim, data):
        assert_span_oracles_agree(data.draw(kernel_codes(dim)))

    @settings(max_examples=1, deadline=None)      # 2^17 Fraction-weighted oracle steps
    @given(data=st.data())
    def test_multi_block_matches_the_gray_walk(self, data):
        assert_span_oracles_agree(data.draw(kernel_codes(17)))

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


# -- one slicing per kernel side ------------------------------------------------------

ORACLES = {
    "z": lambda code: brute_distance(code, "z"),
    "lm": locally_minimal_distance,
    "x": lambda code: brute_distance(code, "x"),
}
# The local-minimality oracle before, after and without the Z distance, with
# the X distance in between or not at all.
ORACLE_ORDERS = [("z", "lm", "x"), ("lm", "z", "x"), ("lm", "x", "z"), ("x", "lm"),
                 ("z", "x"), ("lm",), ("z",)]


def fresh(code):
    """The same matrices as a new code, with no kernel derived yet."""
    return CssCode(code.hx, code.hz, code.v10_size, code.degrees, code.cpx)


def run_oracles(code, order):
    """Each oracle's report in `order`, or its refusal's type and message."""
    out = {}
    for name in order:
        try:
            out[name] = ORACLES[name](code)
        except PreconditionError as exc:
            out[name] = (type(exc), str(exc))
    return out


def assert_order_free(code, max_dim=ORACLE_KERNEL_DIM):
    """The three reports do not depend on which oracle runs first, or on
    whether the code already holds a side's kernel."""
    names = [name for name, matrix in (("z", code.hx), ("lm", code.hx), ("x", code.hz))
             if kernel_dim(matrix) <= max_dim]
    want = run_oracles(fresh(code), names)
    warm = fresh(code)
    for order in ORACLE_ORDERS:
        order = [name for name in order if name in names]
        expected = {name: want[name] for name in order}
        assert run_oracles(fresh(code), order) == expected, order
        assert run_oracles(warm, order) == expected, order


class TestKernelSlices:
    @pytest.mark.parametrize("name", FAMILIES + sorted(MORE_FAMILIES))
    def test_families_in_every_order(self, name, request):
        cpx = request.getfixturevalue(name) if name in FAMILIES else MORE_FAMILIES[name]()
        for c in (cpx, transposed(cpx)):
            assert_order_free(extract_code(c))

    @pytest.mark.parametrize("dim", [0, 1, 12, 13])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_span_codes_in_every_order(self, dim, data):
        assert_order_free(data.draw(kernel_codes(dim)), max_dim=13)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(BIREGULAR_SHAPES), st.sampled_from(BIREGULAR_SHAPES),
           st.integers(0, 10 ** 6))
    def test_random_products_in_every_order(self, shape_x, shape_y, seed):
        assert_order_free(extract_code(hypergraph_product(biregular(shape_x, seed),
                                                          biregular(shape_y, seed + 1))))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.data())
    def test_irregular_products_in_every_order(self, a0, a1, b0, b1, data):
        seed = data.draw(st.integers(0, 10 ** 6))
        x = random_bipartite(a0, a1, data.draw(st.integers(0, a0 * a1)), random.Random(seed))
        y = random_bipartite(b0, b1, data.draw(st.integers(0, b0 * b1)), random.Random(seed + 1))
        assert_order_free(extract_code(hypergraph_product(x, y)))

    @pytest.mark.parametrize("name", FAMILIES)
    def test_each_side_is_sliced_once_per_code(self, name, request, monkeypatch):
        sliced = []
        original = gf2.span_planes

        def counted(masks, coords):
            sliced.append(len(masks))
            return original(masks, coords)

        monkeypatch.setattr(gf2, "span_planes", counted)
        code = extract_code(request.getfixturevalue(name))
        dims = {which: kernel_dim(matrix) for which, matrix in (("z", code.hx), ("x", code.hz))
                if kernel_dim(matrix) <= 14}     # incstar13's Z side has 2^14, in 4 blocks
        assert "z" in dims
        for _ in range(2):
            for which in dims:
                brute_distance(code, which)
            locally_minimal_distance(code)
        assert sorted(sliced) == sorted(dims.values())
