"""Small-set-flip decoder: flippability, queue, decode loop, diagnostics."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbp
from qbp import gf2
from qbp.css import extract_code
from qbp.decoder import (
    DecoderConfig,
    TraceStep,
    _index_for,
    _packed,
    _preprocess,
    decode,
    decode_x,
    guaranteed_correctable_weight,
    region_diagnostics,
    size_gates,
)
from qbp.errors import BudgetExceededError, PreconditionError, ValidationError
from qbp.expansion import tree_partition
from qbp.gf2 import F2Vector
from qbp.graphs import build_bipartite
from qbp.groups import cyclic_group, dihedral_group
from qbp.instances import (
    doubled_complete_incidence,
    incidence_star_product,
    left_right_cayley,
    star_graph,
    star_product,
    toric_complex,
)
from qbp.product import (
    BalancedProductComplex,
    balanced_product,
    complex_from_json,
    complex_to_json,
    hypergraph_product,
)

import oracles
from fixtures import zero_matrix, zero_vector
from oracles import FlipCheck, flippable, is_locally_minimal, minimal_coset_representative


def syndrome_of(code, support):
    return gf2.mat_vec(code.hx, F2Vector.from_support(code.n, support))


def preprocess(code, syn, beta):
    """The decoder's initial Z-side scan: (queue, vertices scanned, subset
    pairs tested), as `_decode` runs it."""
    idx = _index_for(code, "z")
    return _preprocess(idx, _packed(idx, syn), Fraction(beta))


def bruteforce_scan(code, syn, beta):
    """Full V00 scan on the public `flippable`: the oracle for preprocessing.

    Pairs are tried in ascending (mask10, mask01) order.  Returns the queue
    and, per vertex, the nonempty pairs tried up to the first flippable one.
    """
    cpx = code.cpx
    queue, tested = [], []
    for x00 in range(cpx.v00_size):
        n10 = sorted(b for a, b in cpx.edges_v00_v10 if a == x00)
        n01 = sorted(b for a, b in cpx.edges_v00_v01 if a == x00)
        count = 0
        for m10, m01 in itertools.product(range(1 << len(n10)), range(1 << len(n01))):
            if not (m10 or m01):
                continue
            count += 1
            sub10 = [q for i, q in enumerate(n10) if m10 >> i & 1]
            sub01 = [q for i, q in enumerate(n01) if m01 >> i & 1]
            if flippable(code, syn, x00, sub10, sub01, beta).flippable:
                queue.append(x00)
                break
        tested.append(count)
    return queue, tested


def vertices_reaching(cpx, cells):
    """V00 vertices joined to one of the V11 cells by a two-edge path."""
    hit10 = {z10 for z10, z11 in cpx.edges_v10_v11 if z11 in cells}
    hit01 = {z01 for z01, z11 in cpx.edges_v01_v11 if z11 in cells}
    return ({z00 for z00, z10 in cpx.edges_v00_v10 if z10 in hit10}
            | {z00 for z00, z01 in cpx.edges_v00_v01 if z01 in hit01})


def face_derived_v00_of_v11(cpx):
    v00s = [set() for _ in range(cpx.v11_size)]
    for z00, z10, z01, z11 in cpx.faces:
        v00s[z11].add(z00)
    return [tuple(sorted(v)) for v in v00s]


_ORACLE_FAMILIES = {
    "toric3": lambda: toric_complex(3),
    "star12": lambda: star_product(12, 3, 2),
    "cayley_z8": lambda: left_right_cayley(cyclic_group(8), [1, 2], [1, 4]),
    "cayley_d4": lambda: left_right_cayley(dihedral_group(4), [1, 2], [1, 2]),
    "incstar5": lambda: incidence_star_product(5, 2),
}


@functools.cache
def oracle_code(name):
    return extract_code(_ORACLE_FAMILIES[name]())


class TestConfig:
    def test_beta_formula(self):
        config = DecoderConfig(epsilon=Fraction(1, 28))
        assert config.beta == Fraction(4, 7)
        assert config.guaranteed_progress

    def test_progress_threshold(self):
        assert not DecoderConfig(epsilon=Fraction(1, 24)).guaranteed_progress
        assert DecoderConfig(epsilon=Fraction(1, 25)).guaranteed_progress

    def test_epsilon_from_one_twelfth_rejected(self):
        # beta <= 0 lets a flip that clears nothing pass, so the loop would
        # run to the cap while the syndrome grows.
        for eps in (Fraction(1, 12), Fraction(1, 10), Fraction(1)):
            with pytest.raises(ValidationError, match="below 1/12"):
                DecoderConfig(epsilon=eps)
        assert DecoderConfig(epsilon=Fraction(1, 13)).beta == Fraction(1, 13)


class TestFlippable:
    def test_empty_flip_not_flippable(self, star12_code):
        syn = syndrome_of(star12_code, [0])
        check = flippable(star12_code, syn, 0, [], [], Fraction(1))
        assert not check.flippable and check.changed_count == 0

    def test_empty_flip_on_an_edgeless_product(self):
        # No center has a neighbor, so the only flip is the empty one.
        code = extract_code(hypergraph_product(build_bipartite(1, 1, []),
                                               build_bipartite(1, 1, [])))
        syn = zero_vector(code.cpx.v11_size)
        assert flippable(code, syn, 0, [], [], Fraction(1)) == FlipCheck(False, 0, 0)
        assert decode(code, syn, DecoderConfig(epsilon=Fraction(0))).outcome == "success"

    def test_exact_cancellation(self, star12_code):
        # Error = the V10 half of one check column; the matching candidate
        # clears everything it changes.
        code = star12_code
        cpx = code.cpx
        x00 = 3
        n10 = [b for a, b in cpx.edges_v00_v10 if a == x00]
        err = F2Vector.from_support(code.n, n10)
        syn = gf2.mat_vec(code.hx, err)
        assert syn.weight > 0
        check = flippable(code, syn, x00, n10, [], Fraction(1))
        assert check.flippable
        assert check.cleared_count == check.changed_count > 0

    def test_full_column_changes_nothing(self, star12_code):
        # Flipping an entire check column is a stabilizer: by the chain
        # condition it changes no syndrome, so the vacuous-flip convention
        # rules it out.
        code = star12_code
        cpx = code.cpx
        x00 = 3
        err = F2Vector.from_mask(code.n, code.hz.row_masks[x00])
        syn = gf2.mat_vec(code.hx, err)
        assert syn.weight == 0
        n10 = [b for a, b in cpx.edges_v00_v10 if a == x00]
        n01 = [b for a, b in cpx.edges_v00_v01 if a == x00]
        check = flippable(code, syn, x00, n10, n01, Fraction(1))
        assert not check.flippable and check.changed_count == 0

    def test_neighbor_violation_rejected(self, star12_code):
        syn = syndrome_of(star12_code, [0])
        bad = [q for q in range(star12_code.cpx.v10_size)][:4]
        with pytest.raises(PreconditionError):
            flippable(star12_code, syn, 0, bad, [], Fraction(1))

    @pytest.mark.parametrize("x00", [-1, 12], ids=["negative", "v00_size"])
    def test_a_center_outside_v00_is_refused(self, star12_code, x00):
        # -1 would otherwise test the last center, by Python's negative index.
        assert star12_code.cpx.v00_size == 12
        syn = syndrome_of(star12_code, [0])
        with pytest.raises(PreconditionError, match=rf"center x00 = {x00} is outside V00 = 0\.\.11"):
            flippable(star12_code, syn, x00, [], [], Fraction(1))

    @pytest.mark.parametrize("beta", [Fraction(0), Fraction(-1, 2)], ids=str)
    def test_a_nonpositive_beta_is_refused(self, star12_code, beta):
        # The search kernel skips centers that reach no lit check, which is
        # exact only for beta > 0.
        syn = syndrome_of(star12_code, [0])
        with pytest.raises(PreconditionError, match="needs beta > 0"):
            flippable(star12_code, syn, 0, [], [], beta)

    def test_matches_independent_recomputation(self, star12_code):
        # Exhaustive oracle at one vertex: recompute the flip result from the
        # boundary matrix for every candidate subset pair.
        code = star12_code
        cpx = code.cpx
        rng = random.Random(2)
        err = F2Vector.from_support(code.n, rng.sample(range(code.n), 3))
        syn = gf2.mat_vec(code.hx, err)
        beta = Fraction(1, 2)
        x00 = 5
        n10 = sorted(b for a, b in cpx.edges_v00_v10 if a == x00)
        n01 = sorted(b for a, b in cpx.edges_v00_v01 if a == x00)
        for r in range(len(n10) + 1):
            for sub10 in itertools.combinations(n10, r):
                for s in range(len(n01) + 1):
                    for sub01 in itertools.combinations(n01, s):
                        flip_vec = F2Vector.from_support(
                            code.n, set(sub10) | {code.v10_size + q for q in sub01})
                        delta = gf2.mat_vec(code.hx, flip_vec)
                        changed = delta.weight
                        cleared = len(delta.support & syn.support)
                        expect = changed > 0 and cleared >= beta * changed
                        check = flippable(code, syn, x00, sub10, sub01, beta)
                        assert check.flippable == expect
                        assert (check.changed_count, check.cleared_count) == (changed, cleared)


class TestTraceStep:
    def test_fields_defaults_and_json(self):
        step = TraceStep(iteration=2, x00=3, n10_size=0, n01_size=1, cleared=2, created=0,
                         syndrome_after=0, updated_syndromes=2, rescanned_vertices=6, n01=(7,))
        assert step == TraceStep(2, 3, 0, 1, 2, 0, 0, 2, 6, (), (7,))
        assert (step.n10, step.n01) == ((), (7,))
        assert step.to_json() == {"iteration": 2, "x00": 3, "n10": 0, "n01": 1, "cleared": 2,
                                  "created": 0, "syndrome_after": 0}
        with pytest.raises(AttributeError):
            step.x00 = 4


class TestPreprocess:
    def test_zero_syndrome_empty_queue(self, star12_code):
        assert preprocess(star12_code, zero_vector(72), 1) == ([], 0, 0)

    @pytest.mark.parametrize("family", sorted(_ORACLE_FAMILIES))
    def test_local_scan_holds_for_a_tiny_beta(self, family):
        # However small beta > 0 is, a vertex that reaches no lit cell
        # clears nothing and fails, so the local scan still finds every flip.
        code = oracle_code(family)
        beta = Fraction(1, 10**9)
        rng = random.Random(family)
        for _ in range(4):
            syn = syndrome_of(code, rng.sample(range(code.n), 3))
            queue, scanned, _ = preprocess(code, syn, beta)
            assert queue == bruteforce_scan(code, syn, beta)[0]
            assert scanned == len(vertices_reaching(code.cpx, syn.support))

    def test_half_column_error_found(self, star12_code):
        code = star12_code
        x00 = 7
        n10 = [b for a, b in code.cpx.edges_v00_v10 if a == x00]
        err = F2Vector.from_support(code.n, n10)
        syn = gf2.mat_vec(code.hx, err)
        assert x00 in preprocess(code, syn, 1)[0]

    def test_matches_bruteforce_scan(self, star12_code):
        code = star12_code
        rng = random.Random(4)
        beta = Fraction(1)
        for _ in range(5):
            err = F2Vector.from_support(code.n, rng.sample(range(code.n), 3))
            syn = gf2.mat_vec(code.hx, err)
            assert preprocess(code, syn, beta)[0] == bruteforce_scan(code, syn, beta)[0]

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(sorted(_ORACLE_FAMILIES)),
        beta=st.sampled_from([Fraction(1), Fraction(3, 5)]),
        data=st.data(),
    )
    def test_local_scan_matches_full_scan_oracle(self, family, beta, data):
        # Differential test of the syndrome-local scan against the full-V00
        # oracle, on syndromes of random errors and on arbitrary V11 subsets.
        code = oracle_code(family)
        if data.draw(st.booleans(), label="from_error"):
            support = data.draw(st.sets(st.integers(0, code.n - 1), max_size=6), label="error")
            syn = syndrome_of(code, support)
        else:
            support = data.draw(st.sets(st.integers(0, code.m_x - 1), max_size=6), label="cells")
            syn = F2Vector.from_support(code.m_x, support)
        queue, scanned, tested = preprocess(code, syn, beta)
        want_queue, want_tested = bruteforce_scan(code, syn, beta)
        assert queue == want_queue
        reaching = vertices_reaching(code.cpx, syn.support)
        assert scanned == len(reaching)
        assert tested == sum(want_tested[x00] for x00 in reaching)


class TestDecode:
    def test_zero_syndrome(self, star12_code):
        res = decode(star12_code, zero_vector(72), DecoderConfig(epsilon=Fraction(0)))
        assert res.outcome == "success"
        assert res.iterations == 0
        assert not res.correction.support

    def test_weight1_sweep_star(self, star12_code):
        config = DecoderConfig(epsilon=Fraction(0))
        for q in range(star12_code.n):
            err = F2Vector.from_support(star12_code.n, [q])
            res = decode(star12_code, gf2.mat_vec(star12_code.hx, err), config)
            assert res.outcome == "success"
            residual = err ^ res.correction
            assert star12_code.z_stabilizers.contains(residual)

    def test_trace_syndrome_consistency(self, star12_code):
        # At every step the current syndrome equals the initial syndrome plus
        # the boundary of the accumulated correction.
        code = star12_code
        rng = random.Random(6)
        config = DecoderConfig(epsilon=Fraction(0))
        for _ in range(10):
            err = F2Vector.from_support(code.n, rng.sample(range(code.n), 2))
            syn = gf2.mat_vec(code.hx, err)
            res = decode(code, syn, config)
            acc = 0
            for step in res.trace:
                for q in step.n10:
                    acc ^= 1 << q
                for q in step.n01:
                    acc ^= 1 << (code.v10_size + q)
                current = syn.to_mask() ^ gf2.mat_vec_mask(code.hx, acc)
                assert current.bit_count() == step.syndrome_after

    def test_strict_progress_and_iteration_bound(self, star12_code):
        code = star12_code
        rng = random.Random(8)
        config = DecoderConfig(epsilon=Fraction(0))
        for _ in range(20):
            err = F2Vector.from_support(code.n, rng.sample(range(code.n), 2))
            syn = gf2.mat_vec(code.hx, err)
            res = decode(code, syn, config)
            weights = [syn.weight] + [s.syndrome_after for s in res.trace]
            assert all(a > b for a, b in zip(weights, weights[1:]))
            assert res.iterations <= syn.weight

    def test_work_accounting(self, star12_code):
        d = star12_code.degrees
        rng = random.Random(10)
        config = DecoderConfig(epsilon=Fraction(0))
        for _ in range(10):
            err = F2Vector.from_support(star12_code.n, rng.sample(range(star12_code.n), 2))
            res = decode(star12_code, gf2.mat_vec(star12_code.hx, err), config)
            assert res.max_updated_syndromes <= d.down * d.right
            assert res.max_rescanned_vertices <= (d.down * d.right) ** 2
            # beta = 1 > 0: the initial scan only visits the V00 vertices
            # that can reach a lit V11 cell.
            assert config.beta > 0
            reach = max(len(v) for v in _index_for(star12_code, "z").v00_of_v11)
            assert res.preprocess_vertices_scanned <= reach * res.initial_syndrome_weight

    def test_stall_is_first_class_on_uncertified_instance(self):
        # The toric code is no lossless expander; past the guarantee the
        # decoder may stall, and that is an outcome, not an exception.
        from qbp.instances import toric_complex
        code = extract_code(toric_complex(4))
        config = DecoderConfig(epsilon=Fraction(0))
        err = F2Vector.from_support(code.n, [0, 1])
        res = decode(code, gf2.mat_vec(code.hx, err), config)
        assert res.outcome == "stalled"
        assert res.iterations == 0

    def test_radius_sweep_matching(self, match8, match8_code, match8_cert):
        # Every error strictly below the guaranteed radius must decode back
        # to the codeword (residual inside the stabilizers).
        bound = guaranteed_correctable_weight(match8, match8_cert, match8_cert, Fraction(0))
        assert bound == Fraction(7, 2)
        config = DecoderConfig(epsilon=Fraction(0))
        code = match8_code
        for w in range(1, 4):
            for support in itertools.combinations(range(code.n), w):
                err = F2Vector.from_support(code.n, support)
                res = decode(code, gf2.mat_vec(code.hx, err), config)
                assert res.outcome == "success"
                assert code.z_stabilizers.contains(err ^ res.correction)


class TestEdgeDerivedIndex:
    @pytest.mark.parametrize("family", ["toric2", "toric3", "match8", "star12", "incstar13"])
    def test_matches_face_derived_index(self, request, family):
        cpx = request.getfixturevalue(family)
        code = extract_code(cpx)
        assert _index_for(code, "z").v00_of_v11 == face_derived_v00_of_v11(cpx)
        tcode = extract_code(oracles.transposed(cpx))
        assert _index_for(tcode, "z").v00_of_v11 == face_derived_v00_of_v11(oracles.transposed(cpx))
        assert _index_for(code, "x").v00_of_v11 == face_derived_v00_of_v11(oracles.transposed(cpx))

    def test_decoding_ignores_faces(self, star12):
        # The decoder reads only the edge classes.  The loader refuses files
        # whose faces disagree with the edges, and code extraction refuses
        # the complexes without faces and with one face altered, built
        # directly, with the same message; they still decode through the
        # complex, and wrong faces must not change any decode.
        obj = complex_to_json(star12)
        z00, z10, z01, z11 = obj["faces"][0]
        other = next(f[3] for f in obj["faces"] if f[3] != z11)
        altered = [[z00, z10, z01, other]] + obj["faces"][1:]
        cpx = complex_from_json(obj)
        complexes = (cpx, dataclasses.replace(cpx, faces=frozenset()),
                     dataclasses.replace(cpx, faces=frozenset(map(tuple, altered))))
        for faces, wrong in zip(([], altered), complexes[1:]):
            with pytest.raises(ValidationError, match="face") as refused:
                complex_from_json(dict(obj, faces=faces))
            with pytest.raises(ValidationError) as extracted:
                extract_code(wrong)
            assert str(extracted.value) == str(refused.value)
        code = extract_code(cpx)
        n = code.n
        rng = random.Random(26)
        errors = [[q] for q in range(n)]
        errors += [rng.sample(range(n), w) for w in (2, 3) for _ in range(30)]
        config = DecoderConfig(epsilon=Fraction(0))
        for support in errors:
            err = F2Vector.from_support(n, support)
            syn_x, syn_z = gf2.mat_vec(code.hx, err), gf2.mat_vec(code.hz, err)
            outputs = []
            for c in complexes:
                z, x = decode(c, syn_x, config), decode_x(c, syn_z, config)
                outputs.append((z.to_json(), z.trace, x.to_json(), x.trace))
            assert outputs[0] == outputs[1] == outputs[2], support

    def test_reach_through_either_edge_class(self):
        # A chain-valid complex without faces whose one check is reached only
        # through V01; its transpose reaches it only through V10.
        # The loader refuses it, since its two V01 paths lie on no face, and
        # so does code extraction; it still decodes through the complex.
        obj = {
            "reps_v00": [[0, 0]], "reps_v10": [], "reps_v01": [[0, 0], [0, 1]],
            "reps_v11": [[0, 0]], "edges_v00_v10": [], "edges_v10_v11": [],
            "edges_v00_v01": [[0, 0], [0, 1]], "edges_v01_v11": [[0, 0], [1, 0]],
            "faces": [], "degrees": None,
        }
        with pytest.raises(ValidationError, match=r"no face holds the path V00 0 -> V01 0"):
            complex_from_json(obj)
        cpx = BalancedProductComplex(
            **{k: tuple(map(tuple, v)) for k, v in obj.items() if k.startswith("reps")},
            **{k: frozenset(map(tuple, v)) for k, v in obj.items() if k.startswith("edges")},
            faces=frozenset(), degrees=None, group_order=1)
        assert oracles.verify_chain_condition(cpx).ok
        with pytest.raises(ValidationError, match=r"no face holds the path V00 0 -> V01 0"):
            extract_code(cpx)
        # The bare matrices make a code (Hx Hz^T = 0) to check residuals on.
        hz = oracles.transpose(oracles.boundary_2(cpx))
        code = qbp.CssCode(cpx.boundary_1, hz, cpx.v10_size)
        config = DecoderConfig(epsilon=Fraction(0))
        for q in range(code.n):
            err = F2Vector.from_support(code.n, [q])
            z = decode(cpx, gf2.mat_vec(code.hx, err), config)
            x = decode_x(cpx, gf2.mat_vec(code.hz, err), config)
            assert z.outcome == x.outcome == "success"
            assert z.preprocess_vertices_scanned == x.preprocess_vertices_scanned == 1
            assert code.z_stabilizers.contains(err ^ z.correction)
            assert code.x_stabilizers.contains(err ^ x.correction)


def star_hypergraph_product(degree):
    star = build_bipartite(1, degree, [(0, j) for j in range(degree)])
    return extract_code(hypergraph_product(star, star))


class TestPairBudget:
    def test_refuses_a_vertex_over_twenty_pair_bits(self):
        # The V00 vertex at the two centres has |N10| = |N01| = 11, so its
        # flip search would enumerate 2^22 subset pairs.
        code = star_hypergraph_product(11)
        assert code.cpx.degrees.down + code.cpx.degrees.right == 22
        with pytest.raises(BudgetExceededError, match=r"V00 vertex 0 has \|N10\| \+ \|N01\| = 22"):
            _index_for(code, "z")
        err = F2Vector.from_support(code.n, [0])
        with pytest.raises(BudgetExceededError, match="V00 vertex 0"):
            decode(code, gf2.mat_vec(code.hx, err), DecoderConfig(epsilon=Fraction(0)))

    def test_twenty_pair_bits_are_allowed(self):
        code = star_hypergraph_product(10)
        idx = _index_for(code, "z")
        assert max(len(a) + len(b) for a, b in zip(idx.n10, idx.n01)) == 20


class TestIndexOnTheComplex:
    """The decoder index is the complex's: a complex and a code read off it
    decode alike, and a code that is not its complex's maps is refused."""

    @pytest.mark.parametrize("family", ["toric2", "toric3", "match8", "star12", "incstar13"])
    def test_a_complex_decodes_as_its_code(self, request, family):
        # The complex is reloaded, so the two calls build separate indexes.
        built = request.getfixturevalue(family)
        cpx = complex_from_json(complex_to_json(built))
        code = extract_code(built)
        rng = random.Random(20)
        errors = [[q] for q in rng.sample(range(code.n), 2)]
        errors += [rng.sample(range(code.n), w) for w in (2, 3)]
        for epsilon in (Fraction(0), Fraction(1, 30), Fraction(1, 13)):
            config = DecoderConfig(epsilon=epsilon, iteration_cap=64)
            for support in errors:
                err = F2Vector.from_support(code.n, support)
                syn_x, syn_z = gf2.mat_vec(code.hx, err), gf2.mat_vec(code.hz, err)
                assert decode(cpx, syn_x, config) == decode(code, syn_x, config), support
                assert decode_x(cpx, syn_z, config) == decode_x(code, syn_z, config), support
        syn = syndrome_of(code, [0])
        assert preprocess(cpx, syn, 1) == preprocess(code, syn, 1)
        for x00 in range(cpx.v00_size):
            n10, n01 = cpx.subgraph("v00_v10").adj0[x00], cpx.subgraph("v00_v01").adj0[x00]
            assert (flippable(cpx, syn, x00, n10, n01, Fraction(1, 2))
                    == flippable(code, syn, x00, n10, n01, Fraction(1, 2)))

    def test_codes_over_one_complex_share_one_index(self):
        cpx = left_right_cayley(cyclic_group(8), [1, 2], [1, 4])
        first, second = extract_code(cpx), extract_code(cpx)
        for side in ("z", "x"):
            idx = _index_for(first, side)
            assert _index_for(second, side) is idx
            assert _index_for(cpx, side) is idx
            assert cpx.decoder_indexes[side] is idx
            assert not hasattr(idx, "code")
        assert not any(k.startswith("_decoder_index") for k in vars(first))

    def test_a_complex_decodes_without_its_boundary_maps(self, star12):
        cpx = complex_from_json(complex_to_json(star12))
        config = DecoderConfig(epsilon=Fraction(1, 30))
        decode(cpx, F2Vector.from_support(cpx.v11_size, [0, 1]), config)
        decode_x(cpx, F2Vector.from_support(cpx.v00_size, [0]), config)
        assert "boundary_1" not in vars(cpx)
        assert set(cpx.decoder_indexes) == {"z", "x"}

    def test_refuses_a_code_whose_matrices_are_not_its_complexs_maps(self):
        # Hz = 0 commutes with Hx, so the code is valid, but it is not the
        # complex's: decoding it against the complex would answer for
        # another code, as decode_x's "success" with correction {4} would,
        # whose syndrome under this Hz is empty.
        cpx = left_right_cayley(cyclic_group(8), [1, 2], [1, 4])
        code = extract_code(cpx)
        other = qbp.CssCode(code.hx, zero_matrix(code.m_z, code.n), code.v10_size,
                            code.degrees, cpx=cpx)
        assert not other._maps_of_complex
        config = DecoderConfig(epsilon=Fraction(1, 30))
        syn_z = F2Vector.from_support(code.m_z, [2, 3])
        syn_x = syndrome_of(code, [1])
        calls = [
            lambda: decode(other, syn_x, config),
            lambda: decode_x(other, syn_z, config),
            lambda: preprocess(other, syn_x, config.beta),
            lambda: flippable(other, syn_x, 0, [], [], config.beta),
        ]
        for call in calls:
            with pytest.raises(PreconditionError, match="its complex's maps"):
                call()
        assert cpx.decoder_indexes == {}

    def test_refuses_a_code_without_a_complex(self, star12_code):
        bare = qbp.CssCode(star12_code.hx, star12_code.hz, star12_code.v10_size)
        with pytest.raises(PreconditionError, match="its complex's maps"):
            decode(bare, zero_vector(star12_code.m_x), DecoderConfig(epsilon=Fraction(0)))


class TestOnePathPerSide:
    """Each side's entry point looks up its index and packs its syndrome once
    per call, and runs its candidate scan once, inside `_decode`."""

    @pytest.mark.parametrize("side", ["z", "x"])
    def test_one_index_lookup_and_one_pack_per_call(self, monkeypatch, star12_code, side):
        code = star12_code
        run, matrix = (decode, code.hx) if side == "z" else (decode_x, code.hz)
        syn = gf2.mat_vec(matrix, F2Vector.from_support(code.n, [0, 5]))
        config = DecoderConfig(epsilon=Fraction(1, 30))
        want = run(code, syn, config)
        assert want.iterations > 0
        calls = dict.fromkeys(("index", "pack"), 0)

        def counted(key, f):
            @functools.wraps(f)
            def wrapper(*args):
                calls[key] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr("qbp.decoder._index_for", counted("index", _index_for))
        monkeypatch.setattr(F2Vector, "to_mask", counted("pack", F2Vector.to_mask))
        got = run(code, syn, config)
        assert calls == {"index": 1, "pack": 1}
        assert got == want

    def test_decode_runs_one_candidate_scan(self, monkeypatch, star12_code):
        syn = syndrome_of(star12_code, [0, 5])
        config = DecoderConfig(epsilon=Fraction(1, 30))
        _, scanned, tested = preprocess(star12_code, syn, config.beta)
        scans = []

        def counted(*args):
            scans.append(args[1])
            return _preprocess(*args)

        monkeypatch.setattr("qbp.decoder._preprocess", counted)
        res = decode(star12_code, syn, config)
        assert scans == [syn.to_mask()]
        assert res.outcome == "success"
        assert (res.preprocess_vertices_scanned, res.preprocess_subsets_tested) == \
            (scanned, tested)


class TestDecodeX:
    def test_zero_syndrome(self, star12_code):
        res = decode_x(star12_code, zero_vector(12), DecoderConfig(epsilon=Fraction(0)))
        assert res.outcome == "success" and res.iterations == 0

    def test_weight1_sweep_matching(self, match8_code):
        config = DecoderConfig(epsilon=Fraction(0))
        code = match8_code
        for q in range(code.n):
            err = F2Vector.from_support(code.n, [q])
            syn = gf2.mat_vec(code.hz, err)
            res = decode_x(code, syn, config)
            assert res.outcome == "success"
            assert code.x_stabilizers.contains(err ^ res.correction)

    def test_self_dual_toy_agrees(self):
        cpx = hypergraph_product(build_bipartite(1, 1, [(0, 0)]),
                                 build_bipartite(1, 1, [(0, 0)]))
        code = extract_code(cpx)
        config = DecoderConfig(epsilon=Fraction(0))
        err = F2Vector.from_support(2, [0])
        rz = decode(code, gf2.mat_vec(code.hx, err), config)
        rx = decode_x(code, gf2.mat_vec(code.hz, err), config)
        assert rz.outcome == rx.outcome == "success"
        assert code.z_stabilizers.contains(err ^ rz.correction)
        assert code.x_stabilizers.contains(err ^ rx.correction)


_CONFTEST_FAMILIES = {
    "toric2": lambda: toric_complex(2),
    "toric3": lambda: toric_complex(3),
    "match8": lambda: left_right_cayley(cyclic_group(8), [1], [1]),
    "star12": lambda: star_product(12, 3, 2),
    "incstar13": lambda: incidence_star_product(13, 2),
}


@functools.cache
def code_and_transposed_code(name, transposed):
    """A conftest family (or its transpose) and the code of its transpose."""
    cpx = _CONFTEST_FAMILIES[name]()
    if transposed:
        cpx = oracles.transposed(cpx)
    return extract_code(cpx), extract_code(oracles.transposed(cpx))


def transposed_decode_x(code, tcode, syndrome, config):
    """The former X path, kept as the oracle: the Z decoder on the transposed
    code, whose qubits are the V01 block and then the V10 block, with the
    correction mapped back to the code's V10-then-V01 coordinates."""
    result = decode(tcode, syndrome, config)
    v01 = code.cpx.v01_size
    support = {code.v10_size + b if b < v01 else b - v01 for b in result.correction.support}
    return dataclasses.replace(result, correction=F2Vector.from_support(code.n, support))


class TestDecodeXOracle:
    # A draw of the transposed incstar13 family can cost about a second: its
    # V11 cells have 2^16 flip pairs each, too many to cache.
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(_CONFTEST_FAMILIES)),
        transposed=st.booleans(),
        epsilon=st.sampled_from([Fraction(0), Fraction(1, 30)]),
        data=st.data(),
    )
    def test_matches_the_transposed_code_path(self, family, transposed, epsilon, data):
        # Outcome, correction, iterations, stale pops, preprocess counters
        # and every trace step (flip sets kept) must be identical.
        code, tcode = code_and_transposed_code(family, transposed)
        if data.draw(st.booleans(), label="from_error"):
            support = data.draw(st.sets(st.integers(0, code.n - 1), max_size=8), label="error")
            syn = gf2.mat_vec(code.hz, F2Vector.from_support(code.n, support))
        else:
            support = data.draw(st.sets(st.integers(0, code.m_z - 1), max_size=8), label="cells")
            syn = F2Vector.from_support(code.m_z, support)
        config = DecoderConfig(epsilon=epsilon, keep_flip_sets=True)
        assert decode_x(code, syn, config) == transposed_decode_x(code, tcode, syn, config)

    def test_x_side_refuses_a_wrong_syndrome_length(self, star12_code):
        with pytest.raises(ValidationError, match=r"syndrome length 72 != \|V00\| = 12"):
            decode_x(star12_code, zero_vector(72), DecoderConfig(epsilon=Fraction(0)))


class TestShortnessMonitors:
    def test_found_if_short(self, star12, star12_code, star12_certs):
        # Within the gates, a nonzero syndrome always has a candidate.
        code = star12_code
        gates = size_gates(star12, *star12_certs)
        rng = random.Random(14)
        checked = 0
        while checked < 40:
            w10 = rng.randrange(0, 3)
            w01 = rng.randrange(0, 3)
            sup = set(rng.sample(range(code.cpx.v10_size), w10))
            sup |= {code.v10_size + q for q in rng.sample(range(code.cpx.v01_size), w01)}
            err = F2Vector.from_support(code.n, sup)
            rep = minimal_coset_representative(code, gf2.mat_vec(code.hx, err))
            if not rep.vector.support:
                continue
            if not (rep.v10_weight < gates.v10 and rep.v01_weight < gates.v01):
                continue
            queue, _, _ = preprocess(code, gf2.mat_vec(code.hx, err), 1)
            assert queue, "no candidate despite an in-gate minimal representative"
            checked += 1

    def test_short_remains_short_exact_oracle(self, star12, star12_code, star12_certs):
        # Along successful decodes from in-radius errors, the minimal
        # representative of every intermediate syndrome stays inside the gates.
        code = star12_code
        gates = size_gates(star12, *star12_certs)
        config = DecoderConfig(epsilon=Fraction(0))
        rng = random.Random(16)
        for _ in range(15):
            err = F2Vector.from_support(code.n, rng.sample(range(code.n), 2))
            syn = gf2.mat_vec(code.hx, err)
            res = decode(code, syn, config)
            assert res.outcome == "success"
            acc = 0
            for step in res.trace:
                for q in step.n10:
                    acc ^= 1 << q
                for q in step.n01:
                    acc ^= 1 << (code.v10_size + q)
                current = F2Vector.from_mask(
                    code.m_x, syn.to_mask() ^ gf2.mat_vec_mask(code.hx, acc))
                rep = minimal_coset_representative(code, current)
                assert rep.v10_weight < gates.v10
                assert rep.v01_weight < gates.v01

    def test_upper_bound_proxy_flagging(self, star12_code):
        # At sizes beyond the exact oracle the monitor tracks the proxy
        # |injected + correction so far|; here we only exercise the hook.
        code = star12_code
        rng = random.Random(18)
        err = F2Vector.from_support(code.n, rng.sample(range(code.n), 2))
        res = decode(code, gf2.mat_vec(code.hx, err), DecoderConfig(epsilon=Fraction(0)))
        proxy = err
        for step in res.trace:
            flip = set(step.n10) | {code.v10_size + q for q in step.n01}
            proxy = proxy ^ F2Vector.from_support(code.n, flip)
        assert proxy.weight <= err.weight + sum(
            len(s.n10) + len(s.n01) for s in res.trace)


class TestRegionDiagnostics:
    @staticmethod
    def partitions_for(cpx, v10, v01, eps_x, eps_y):
        p10 = tree_partition(cpx.subgraph("v00_v10"), v10, eps_x, cpx.degrees.down)
        p01 = tree_partition(cpx.subgraph("v00_v01"), v01, eps_y, cpx.degrees.right)
        return p10, p01

    def test_empty_error_all_zero(self, star12):
        p10, p01 = self.partitions_for(star12, [], [], Fraction(0), Fraction(0))
        rep = region_diagnostics(star12, [], [], p10, p01, epsilon=Fraction(0))
        assert rep.touched_total == rep.flipped_total == rep.unique_total == 0
        assert rep.counting_bound_ok

    def test_single_vertex_formulas(self, star12):
        # A lone v10 vertex owned by x00 touches |n10| * (right - |n01|)
        # faces, everything unique.
        d = star12.degrees
        p10, p01 = self.partitions_for(star12, [0], [], Fraction(0), Fraction(0))
        rep = region_diagnostics(star12, [0], [], p10, p01, epsilon=Fraction(0))
        assert rep.touched_total == 1 * d.right
        assert rep.stray_total == rep.multihit_total == rep.excess_total == 0
        assert rep.unique_total == rep.touched_total
        assert rep.syndrome_weight >= rep.unique_total

    def test_stray_region_nonempty_on_doubled_pair(self):
        # v10 = a doubled edge instance: its non-owner endpoint keeps it as
        # leftover; give that endpoint an owned v01 leaf to populate stray.
        cpx = balanced_product(*star_graph(7, 2), *doubled_complete_incidence(7))
        d = cpx.degrees
        # v01 lives on the incidence side: pick the doubled instance of edge
        # {0,1}, i.e. the V01 class with two V00 neighbors 0 and 1.
        eps_y = Fraction(1, d.right)
        adj = {}
        for z00, z01 in cpx.edges_v00_v01:
            adj.setdefault(z01, []).append(z00)
        target = next(z01 for z01, v in adj.items() if len(v) == 2)
        owner, other = sorted(adj[target])
        p01 = tree_partition(cpx.subgraph("v00_v01"), [target], eps_y, d.right)
        assert target in p01.assignment[owner]
        # Give `other` an owned v10 vertex (its star leaves are degree-1).
        mine = next(z10 for z00, z10 in cpx.edges_v00_v10 if z00 == other)
        p10 = tree_partition(cpx.subgraph("v00_v10"), [mine], Fraction(0), d.down)
        rep = region_diagnostics(cpx, [mine], [target], p10, p01,
                                 epsilon=eps_y)
        assert rep.stray_total >= 1
        assert rep.counting_bound_ok

    def test_monte_carlo_claim_inequality(self, incstar13):
        cpx = incstar13
        d = cpx.degrees
        rng = random.Random(20)
        eps_x, eps_y = Fraction(1, 14), Fraction(0)
        ran = 0
        while ran < 60:
            v10 = rng.sample(range(cpx.v10_size), rng.randrange(0, 2))
            v01 = rng.sample(range(cpx.v01_size), rng.randrange(0, 2))
            if not v10 and not v01:
                continue
            p10, p01 = self.partitions_for(cpx, v10, v01, eps_x, eps_y)
            rep = region_diagnostics(cpx, v10, v01, p10, p01, epsilon=Fraction(1, 14))
            assert rep.counting_bound_ok
            assert rep.chain_ok
            ran += 1

    def test_chain_is_vacuous_once_beta_is_not_positive(self):
        # Partitions at epsilon = 1/2 (1/14 cannot partition this error):
        # unique = 3 < touched = flipped = 4, which no chain with
        # 1 - 12e <= 0 can be said to pass.
        cpx = left_right_cayley(cyclic_group(8), [1, 2], [1, 4])
        v10, v01 = [1, 2, 3], [9 - cpx.v10_size, 10 - cpx.v10_size]
        p10, p01 = self.partitions_for(cpx, v10, v01, Fraction(1, 2), Fraction(1, 2))
        for epsilon, verdict in ((Fraction(1, 2), None), (Fraction(1, 12), None),
                                 (Fraction(1, 14), True)):
            rep = region_diagnostics(cpx, v10, v01, p10, p01, epsilon=epsilon)
            assert (rep.unique_total, rep.touched_total, rep.flipped_total) == (3, 4, 4)
            assert rep.chain_ok is verdict

    def test_partition_invariant_violation_rejected(self, star12):
        p10, p01 = self.partitions_for(star12, [0], [], Fraction(0), Fraction(0))
        with pytest.raises(PreconditionError):
            region_diagnostics(star12, [0, 1], [], p10, p01, epsilon=Fraction(0))


class TestTheoryIntegration:
    def test_partition_flip_is_flippable(self, star12, star12_code):
        # The existence argument behind the candidate search builds its flip
        # from the ownership partitions; with exact expansion every owner
        # whose flip touches anything clears everything it touches.
        code = star12_code
        d = star12.degrees
        rng = random.Random(22)
        exercised = 0
        while exercised < 20:
            v10 = set(rng.sample(range(star12.v10_size), 3))
            v01 = set(rng.sample(range(star12.v01_size), 2))
            support = v10 | {code.v10_size + q for q in v01}
            c1 = F2Vector.from_support(code.n, support)
            if not is_locally_minimal(code, c1):
                continue
            syn = gf2.mat_vec(code.hx, c1)
            if not syn.support:
                continue
            p10 = tree_partition(star12.subgraph("v00_v10"), v10, Fraction(0), d.down)
            p01 = tree_partition(star12.subgraph("v00_v01"), v01, Fraction(0), d.right)
            found_one = False
            for x00 in range(star12.v00_size):
                n10 = p10.assignment.get(x00, frozenset())
                n01 = p01.assignment.get(x00, frozenset())
                if not n10 and not n01:
                    continue
                check = flippable(code, syn, x00, n10, n01, Fraction(1))
                if check.changed_count == 0:
                    continue
                assert check.flippable
                assert check.cleared_count == check.changed_count
                found_one = True
            assert found_one
            exercised += 1

    def test_decode_trace_deterministic(self, star12_code):
        rng = random.Random(24)
        config = DecoderConfig(epsilon=Fraction(0))
        for _ in range(5):
            err = F2Vector.from_support(star12_code.n, rng.sample(range(star12_code.n), 2))
            syn = gf2.mat_vec(star12_code.hx, err)
            first = decode(star12_code, syn, config)
            second = decode(star12_code, syn, config)
            assert first.trace == second.trace
            assert first.correction == second.correction

    def test_toric_weight1_corrects_exactly(self, toric3_code):
        # k = 2 here, so landing in the stabilizers is a real statement about
        # not tripping a logical operator.
        config = DecoderConfig(epsilon=Fraction(0))
        for q in range(toric3_code.n):
            err = F2Vector.from_support(toric3_code.n, [q])
            res = decode(toric3_code, gf2.mat_vec(toric3_code.hx, err), config)
            assert res.outcome == "success"
            assert toric3_code.z_stabilizers.contains(err ^ res.correction)


class TestBadEdgeEndpoints:
    """A complex whose edge leaves its class is refused by name before its
    adjacency is read, as code extraction refuses it.  Each case moves one
    V10-V11 edge to V10 vertex -1 or to 9, one past V10 of toric_complex(3)."""

    @staticmethod
    def moved(cpx, which, endpoint):
        edges = getattr(cpx, f"edges_{which}")
        a, b = min(edges)
        return dataclasses.replace(cpx, **{f"edges_{which}": edges - {(a, b)} | {(endpoint, b)}})

    @pytest.mark.parametrize("endpoint", [-1, 9])
    @pytest.mark.parametrize("side", ["z", "x"])
    def test_decode_refuses(self, toric3, side, endpoint):
        broken = self.moved(toric3, "v10_v11", endpoint)
        call = decode if side == "z" else decode_x
        with pytest.raises(ValidationError,
                           match=rf"edge \({endpoint}, 0\) in edges_v10_v11 has an endpoint"):
            call(broken, F2Vector.from_support(9, [0, 1]), DecoderConfig(epsilon=Fraction(0)))
        with pytest.raises(ValidationError, match=rf"edge \({endpoint}, 0\) in edges_v10_v11"):
            extract_code(broken)

    @pytest.mark.parametrize("endpoint", [-1, 9])
    def test_region_diagnostics_refuses(self, toric3, endpoint):
        d = toric3.degrees
        p10 = tree_partition(toric3.subgraph("v00_v10"), [0], Fraction(1, 2), d.down)
        p01 = tree_partition(toric3.subgraph("v00_v01"), [], Fraction(1, 2), d.right)
        broken = self.moved(toric3, "v10_v11", endpoint)
        with pytest.raises(ValidationError, match=rf"edge \({endpoint}, 0\) in edges_v10_v11"):
            region_diagnostics(broken, [0], [], p10, p01, epsilon=Fraction(0))

    def test_partition_graph_refuses(self, toric3):
        broken = self.moved(toric3, "v00_v10", -1)
        with pytest.raises(ValidationError, match=r"edge \(-1, 0\) in edges_v00_v10"):
            broken.subgraph("v00_v10")
