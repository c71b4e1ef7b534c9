"""Code extraction, parameters, distances, and locally minimal machinery."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import qbp
from qbp import css, gf2
from qbp.css import (
    brute_distance,
    code_params,
    extract_code,
    locally_minimal_distance,
    normalized_weight,
    normalized_syndrome_weight,
)
from qbp.css import CssCode
from qbp.errors import OracleUnavailableError, PreconditionError, ValidationError
from qbp.gf2 import F2Matrix, F2Vector
from qbp.graphs import build_bipartite
from qbp.instances import left_right_cayley, toric_complex
from qbp.groups import cyclic_group
from qbp.product import DegreeProfile, complex_from_json, complex_to_json, hypergraph_product

from fixtures import from_dense, zero_vector
from oracles import (
    boundary_2,
    greedy_flip_reduce,
    is_locally_minimal,
    mat_mul,
    minimal_coset_representative,
    transpose,
    verify_chain_condition,
)


class TestExtraction:
    def test_single_edge_square_code(self):
        cpx = hypergraph_product(build_bipartite(1, 1, [(0, 0)]),
                                 build_bipartite(1, 1, [(0, 0)]))
        code = extract_code(cpx)
        assert (code.n, code.m_x, code.m_z) == (2, 1, 1)
        assert code.hx.row_masks == (0b11,)
        assert code.hz.row_masks == (0b11,)

    def test_toric_shapes(self, toric3_code):
        assert (toric3_code.n, toric3_code.m_x, toric3_code.m_z) == (18, 9, 9)

    def test_left_right_cayley_shapes(self):
        code = extract_code(left_right_cayley(cyclic_group(5), [1], [2]))
        assert (code.n, code.m_x, code.m_z) == (10, 5, 5)

    def test_commuting_condition_everywhere(self, toric3_code, star12_code, incstar13_code):
        for code in (toric3_code, star12_code, incstar13_code):
            assert not any(mat_mul(code.hx, transpose(code.hz)).row_masks)

    def test_weight_formula(self, star12_code, incstar13_code, toric3_code):
        for code in (star12_code, incstar13_code, toric3_code):
            d = code.degrees
            expected = max(d.down + d.right, d.up + d.left,
                           d.up + d.right, d.down + d.left)
            assert code.weight == expected


def loader_refusal(cpx):
    """The message with which the loader refuses a file of the complex."""
    with pytest.raises(ValidationError) as refused:
        complex_from_json(complex_to_json(cpx))
    return str(refused.value)


class TestChainVerdict:
    def test_extract_refuses_a_violating_complex(self):
        # Dropping an edge breaks the chain condition, and the loader's
        # degree check refuses the complex, as it refuses a file of it.
        cpx = toric_complex(3)
        dropped = min(cpx.edges_v10_v11)
        broken = replace(cpx, edges_v10_v11=cpx.edges_v10_v11 - {dropped})
        assert not verify_chain_condition(broken).ok
        message = loader_refusal(broken)
        assert message.startswith("degrees say right = 2")
        with pytest.raises(ValidationError) as refused:
            extract_code(broken)
        assert str(refused.value) == message

    def test_bare_matrices_must_commute(self):
        hx = from_dense([[1, 0, 1]])
        hz = from_dense([[1, 1, 0]])
        with pytest.raises(ValidationError, match="Hx Hz"):
            CssCode(hx=hx, hz=hz, v10_size=1)
        assert CssCode(hx=hx, hz=from_dense([[1, 1, 1]]), v10_size=1).n == 3

    def test_code_on_a_violating_complex_is_refused(self):
        # A code whose matrices are its complex's maps reads the complex's
        # verdict, and so is refused with the loader's message.
        cpx = toric_complex(3)
        broken = replace(cpx, edges_v10_v11=cpx.edges_v10_v11 - {min(cpx.edges_v10_v11)})
        with pytest.raises(ValidationError) as refused:
            CssCode(hx=broken.boundary_1, hz=transpose(boundary_2(broken)),
                    v10_size=broken.v10_size, cpx=broken)
        assert str(refused.value) == loader_refusal(broken)

    def test_complex_verdict_covers_only_its_own_maps(self, toric3_code):
        # Matrices other than the complex's own maps are checked row by row,
        # even when the (valid) complex is attached.
        code = toric3_code
        hz = F2Matrix(code.m_z, code.n, (1,) + code.hz.row_masks[1:])
        with pytest.raises(ValidationError, match="Hx Hz"):
            CssCode(hx=code.hx, hz=hz, v10_size=code.v10_size, cpx=code.cpx)

    def test_one_chain_check_per_complex(self, monkeypatch):
        # The builder's verdict holds by proof: building and extracting twice
        # runs no check and applies Hx to no row.  The multiplied verdict
        # (the oracle) agrees.
        calls = []
        original = qbp.product._check_complex
        monkeypatch.setattr(qbp.product, "_check_complex",
                            lambda cpx, faces: calls.append(cpx) or original(cpx, faces))
        monkeypatch.setattr(gf2, "mat_vec_mask", lambda *a: pytest.fail("CssCode applied Hx"))
        cpx = toric_complex(3)
        extract_code(cpx)
        extract_code(cpx)
        assert calls == []
        monkeypatch.undo()
        assert cpx.chain_check is True and verify_chain_condition(cpx).ok

    def test_a_hand_built_complex_is_checked_once(self, monkeypatch):
        # A complex built field by field runs the loader's checks on first
        # use and keeps the verdict.
        calls = []
        original = qbp.product._check_complex
        monkeypatch.setattr(qbp.product, "_check_complex",
                            lambda cpx, faces: calls.append(faces) or original(cpx, faces))
        built = toric_complex(3)
        cpx = replace(built, provenance="by hand")
        extract_code(cpx)
        extract_code(cpx)
        assert calls == [tuple(sorted(built.faces))]


class TestParams:
    def test_single_edge_square_k0(self):
        cpx = hypergraph_product(build_bipartite(1, 1, [(0, 0)]),
                                 build_bipartite(1, 1, [(0, 0)]))
        params = code_params(extract_code(cpx))
        assert params.k == 0
        assert params.rank_hx == params.rank_hz == 1

    def test_toric_k2(self, toric3_code, toric2_code):
        assert code_params(toric3_code).k == 2
        assert code_params(toric2_code).k == 2

    def test_rate_bound_arithmetic(self):
        # Degree pattern (5,4,4,5): bound (5-4)(5-4)/(5*5 + 4*4) = 1/41.
        d = DegreeProfile(down=5, up=4, right=4, left=5)
        bound = Fraction((d.down - d.up) * (d.left - d.right),
                         d.down * d.left + d.up * d.right)
        assert bound == Fraction(1, 41)

    def test_rate_bound_holds_on_instances(self, toric3_code, star12_code, incstar13_code, match8_code):
        for code in (toric3_code, star12_code, incstar13_code, match8_code):
            params = code_params(code)
            assert Fraction(params.k, params.n) >= params.rate_bound

    def test_k_lower_bound(self, star12_code):
        params = code_params(star12_code)
        assert params.k >= params.n - params.m_x - params.m_z


class TestDistance:
    def test_toric_l3(self, toric3_code):
        assert brute_distance(toric3_code, "z").d == 3
        assert brute_distance(toric3_code, "x").d == 3

    def test_toric_l2(self, toric2_code):
        assert brute_distance(toric2_code, "z").d == 2
        assert brute_distance(toric2_code, "x").d == 2

    def test_k0_reports_no_logicals(self, match8_code):
        report = brute_distance(match8_code, "z")
        assert report.no_logicals and report.d is None

    def test_budget_refusal(self, toric3_code):
        with pytest.raises(OracleUnavailableError):
            brute_distance(toric3_code, "z", budget=512)

    def test_budget_boundary(self, toric3_code):
        # ker(Hx) holds exactly 2^10 vectors: a budget of 2^10 runs both
        # oracles, one less refuses each of them.
        code = toric3_code
        oracles = (lambda b: brute_distance(code, "z", budget=b),
                   lambda b: locally_minimal_distance(code, budget=b))
        for oracle in oracles:
            oracle(1 << 10)
            with pytest.raises(OracleUnavailableError, match="has 2\\^10 vectors"):
                oracle((1 << 10) - 1)

    def test_negative_budget_refused_up_front(self, toric3_code, monkeypatch):
        # Refused before any elimination, with a typed error, not measured
        # against a kernel size.
        code = toric3_code
        monkeypatch.setattr(gf2, "rank", lambda *a: pytest.fail("eliminated"))
        monkeypatch.setattr(gf2, "row_space", lambda *a: pytest.fail("eliminated"))
        fresh = extract_code(code.cpx)
        for oracle in (lambda: brute_distance(fresh, "z", budget=-1),
                       lambda: brute_distance(fresh, "x", budget=-1),
                       lambda: locally_minimal_distance(fresh, budget=-1)):
            with pytest.raises(PreconditionError, match=r"^need budget >= 0, got -1$"):
                oracle()
        monkeypatch.undo()
        with pytest.raises(OracleUnavailableError, match="over the budget of 0"):
            brute_distance(code, "z", budget=0)

    def test_each_side_kernel_is_derived_once_per_code(self, toric3_code, monkeypatch):
        # brute_distance(code, "z") and locally_minimal_distance share one
        # sliced ker(Hx), the X side derives ker(Hz) once too, and a budget
        # below a kernel is refused after that side is cached.
        fresh = extract_code(toric3_code.cpx)
        derived = []
        with_residues = css._with_residues
        monkeypatch.setattr(css, "_with_residues",
                            lambda *args: derived.append(args[1]) or with_residues(*args))
        z = brute_distance(fresh, "z")
        lm = locally_minimal_distance(fresh)
        assert brute_distance(fresh, "z") == z
        assert derived == [fresh.z_stabilizers]
        x = brute_distance(fresh, "x")
        assert brute_distance(fresh, "x") == x
        assert brute_distance(fresh, "z") == z
        assert derived == [fresh.z_stabilizers, fresh.x_stabilizers]
        assert (z.d, lm.d_lm_nontrivial, lm.kernel_dim) == (3, 3, 10)
        assert (x.d, x.kernel_dim) == (3, 10)
        for oracle in (lambda b: brute_distance(fresh, "z", budget=b),
                       lambda b: locally_minimal_distance(fresh, budget=b),
                       lambda b: brute_distance(fresh, "x", budget=b)):
            with pytest.raises(OracleUnavailableError, match="has 2\\^10 vectors"):
                oracle((1 << 10) - 1)
        assert len(derived) == 2

    def test_balanced_product_code_parameters(self):
        # Regression values from the same oracle that the toric family
        # anchors: left-right Cayley products with two generators per side.
        cases = [
            (cyclic_group(8), [1, 2], [1, 4], 16, 2, 4),
            (cyclic_group(6), [1, 2], [1, 3], 12, 2, 3),
        ]
        for group, gens_a, gens_b, n, k, d in cases:
            code = extract_code(left_right_cayley(group, gens_a, gens_b))
            params = code_params(code)
            assert (params.n, params.k) == (n, k)
            assert brute_distance(code, "z").d == d
            assert brute_distance(code, "x").d == d

    def test_nonabelian_product_code(self):
        from qbp.groups import dihedral_group
        code = extract_code(left_right_cayley(dihedral_group(4), [1, 2], [1, 2]))
        params = code_params(code)
        assert (params.n, params.k) == (16, 6)
        assert brute_distance(code, "z").d == 2

    def test_distance_vectors_are_logicals(self, toric2_code):
        # Cross-check: some weight-2 kernel vector exists outside the
        # stabilizers, and no weight-1 vector does.
        code = toric2_code
        span = [0]
        for v in gf2.kernel_masks(code.hx):
            span += [m ^ v for m in span]
        weights = sorted(
            m.bit_count()
            for m in span
            if m and not code.z_stabilizers.contains_mask(m)
        )
        assert weights[0] == 2


class TestNormalizedWeight:
    def test_zero(self, star12_code):
        assert normalized_weight(star12_code, zero_vector(60)) == 0

    def test_single_v10_flip(self, star12_code):
        v = F2Vector.from_support(60, [0])
        assert normalized_weight(star12_code, v) == Fraction(1, 3)

    def test_mixed_arithmetic(self):
        # (|v10|, |v01|) = (2, 3) with degrees (2, 3) gives 1 + 1 = 2.
        cpx = toric_complex(2)
        code = extract_code(cpx)
        object.__setattr__(code, "degrees", DegreeProfile(2, 2, 3, 3))
        v = F2Vector.from_support(8, [0, 1, 4, 5, 6])
        assert normalized_weight(code, v) == 2

    def test_syndrome_normalization(self, star12_code):
        c0 = F2Vector.from_support(72, [0, 1, 2])
        assert normalized_syndrome_weight(star12_code, c0) == Fraction(3, 6)


class TestGreedyFlip:
    # The toric code's four degrees are 2, so its normalized weight is half
    # the Hamming weight and the two order vectors alike.

    def test_already_minimal_unchanged(self, toric3_code):
        v = F2Vector.from_support(18, [0])
        red = greedy_flip_reduce(toric3_code, v)
        assert red.iterations == 0
        assert red.vector == v

    def test_full_column_cancels(self, toric3_code):
        col = F2Vector.from_mask(18, toric3_code.hz.row_masks[4])
        red = greedy_flip_reduce(toric3_code, col)
        assert not red.vector.support
        assert red.iterations == 1

    def test_output_locally_minimal_random(self, toric3_code):
        rng = random.Random(3)
        for _ in range(25):
            sup = [q for q in range(18) if rng.random() < 0.4]
            red = greedy_flip_reduce(toric3_code, F2Vector.from_support(18, sup))
            # Exhaustive post-check over all m_z candidate flips.
            m = red.vector.to_mask()
            for col in toric3_code.hz.row_masks:
                assert (m ^ col).bit_count() >= m.bit_count()

    def test_syndrome_invariant(self, toric3_code):
        rng = random.Random(5)
        for _ in range(10):
            v = F2Vector.from_support(18, [q for q in range(18) if rng.random() < 0.5])
            red = greedy_flip_reduce(toric3_code, v)
            assert gf2.mat_vec(toric3_code.hx, v) == gf2.mat_vec(toric3_code.hx, red.vector)

    def test_normalized_halting_bound(self, star12_code):
        d = star12_code.degrees
        rng = random.Random(7)
        for _ in range(20):
            v = F2Vector.from_support(60, [q for q in range(60) if rng.random() < 0.3])
            red = greedy_flip_reduce(star12_code, v)
            assert red.iterations <= v.weight * max(d.down, d.right) // min(d.down, d.right)

    def test_monotone_strict_decrease(self, star12_code):
        # Each applied flip lowers the normalized weight by at least
        # 1/max(down, right).
        d = star12_code.degrees
        rng = random.Random(9)
        for _ in range(10):
            v = F2Vector.from_support(60, rng.sample(range(60), 12))
            red = greedy_flip_reduce(star12_code, v)
            drop = normalized_weight(star12_code, v) - normalized_weight(star12_code, red.vector)
            assert drop >= Fraction(red.iterations, max(d.down, d.right))


class TestLocallyMinimalDistance:
    def test_k0_matching_has_no_locally_minimal_vectors(self, match8_code):
        # Every kernel vector is a stabilizer and greedy reduction always
        # cancels one column outright, so both quantifiers come back empty.
        report = locally_minimal_distance(match8_code)
        assert report.d_lm_nontrivial is None
        assert report.d_lm_all is None

    def test_stabilizers_included_by_all_quantifier(self, toric3_code):
        # The sum of a wrapped row of Z checks is a weight-6 stabilizer that
        # no single flip improves, so the all-vectors quantifier sees it.
        code = toric3_code
        row = 0
        for col in (0, 1, 2):
            row ^= code.hz.row_masks[col]
        vec = F2Vector.from_mask(18, row)
        assert code.z_stabilizers.contains(vec)
        assert not gf2.mat_vec(code.hx, vec).support
        assert is_locally_minimal(code, vec)
        report = locally_minimal_distance(code)
        assert report.d_lm_all is not None and report.d_lm_all <= vec.weight

    def test_normalized_key_can_skip_the_smallest_logical(self):
        # Qubit 0 is V10, qubits 1 and 2 are V01; down = 1, right = 4 make
        # the key 4|v10| + |v01|.  The weight-1 logical {0} (key 4) is
        # improved by the Hz row {0, 1, 2} to {1, 2} (key 2), so the least
        # nontrivial locally minimal weight is 2 while d_z is 1.
        code = CssCode(from_dense([[0, 1, 1]]), from_dense([[1, 1, 1]]),
                       1, DegreeProfile(1, 1, 4, 1))
        assert brute_distance(code, "z").d == 1
        report = locally_minimal_distance(code)
        assert (report.d_lm_all, report.d_lm_nontrivial) == (2, 2)

    def test_toric_l2(self, toric2_code):
        report = locally_minimal_distance(toric2_code)
        d = brute_distance(toric2_code, "z").d
        assert report.d_lm_nontrivial <= d == 2

    def test_toric_l3_lower_bounds_distance(self, toric3_code):
        d = brute_distance(toric3_code, "z").d
        report = locally_minimal_distance(toric3_code)
        assert report.d_lm_nontrivial is not None
        assert d >= report.d_lm_nontrivial
        assert report.d_lm_all <= report.d_lm_nontrivial


class TestMinimalRepresentative:
    def test_zero_syndrome_zero_vector(self, match8_code):
        rep = minimal_coset_representative(match8_code, zero_vector(8))
        assert not rep.vector.support

    def test_minimal_beats_injection(self, match8_code):
        rng = random.Random(13)
        for _ in range(10):
            err = F2Vector.from_support(16, rng.sample(range(16), 3))
            syn = gf2.mat_vec(match8_code.hx, err)
            rep = minimal_coset_representative(match8_code, syn)
            assert gf2.mat_vec(match8_code.hx, rep.vector) == syn
            assert rep.normalized_weight <= normalized_weight(match8_code, err)
