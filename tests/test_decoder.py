"""Small-set-flip decoder: flippability, queue, decode loop, diagnostics."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbp
from qbp import gf2
from qbp.css import extract_code, minimal_coset_representative
from qbp.decoder import (
    DecoderConfig,
    _index_for,
    decode,
    decode_x,
    flippable,
    guaranteed_correctable_weight,
    preprocess_candidates,
    region_diagnostics,
    size_gates,
)
from qbp.errors import PreconditionError
from qbp.expansion import tree_partition
from qbp.gf2 import F2Vector
from qbp.graphs import build_bipartite
from qbp.groups import cyclic_group, dihedral_group
from qbp.instances import (
    incidence_star_product,
    left_right_cayley,
    star_incidence_product,
    star_product,
    toric_complex,
)
from qbp.product import complex_from_json, complex_to_json, hypergraph_product


def syndrome_of(code, support):
    return gf2.mat_vec(code.hx, F2Vector.from_support(code.n, support))


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


class TestFlippable:
    def test_empty_flip_not_flippable(self, star12_code):
        syn = syndrome_of(star12_code, [0])
        check = flippable(star12_code, syn, 0, [], [], Fraction(1))
        assert not check.flippable and check.changed_count == 0

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


class TestPreprocess:
    def test_zero_syndrome_empty_queue(self, star12_code):
        res = preprocess_candidates(star12_code, F2Vector.zero(72), Fraction(1))
        assert res.queue == ()
        assert res.vertices_scanned == 0
        assert res.subsets_tested == 0

    def test_half_column_error_found(self, star12_code):
        code = star12_code
        x00 = 7
        n10 = [b for a, b in code.cpx.edges_v00_v10 if a == x00]
        err = F2Vector.from_support(code.n, n10)
        syn = gf2.mat_vec(code.hx, err)
        res = preprocess_candidates(code, syn, Fraction(1))
        assert x00 in res.queue

    def test_matches_bruteforce_scan(self, star12_code):
        code = star12_code
        rng = random.Random(4)
        beta = Fraction(1)
        for _ in range(5):
            err = F2Vector.from_support(code.n, rng.sample(range(code.n), 3))
            syn = gf2.mat_vec(code.hx, err)
            res = preprocess_candidates(code, syn, beta)
            assert list(res.queue) == bruteforce_scan(code, syn, beta)[0]

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(sorted(_ORACLE_FAMILIES)),
        beta=st.sampled_from([Fraction(1), Fraction(3, 5), Fraction(0), Fraction(-1, 5)]),
        data=st.data(),
    )
    def test_local_scan_matches_full_scan_oracle(self, family, beta, data):
        # Differential test of the syndrome-local scan (beta > 0) and the
        # full scan (beta <= 0) against the full-V00 oracle, on syndromes of
        # random errors and on arbitrary V11 subsets.
        code = oracle_code(family)
        if data.draw(st.booleans(), label="from_error"):
            support = data.draw(st.sets(st.integers(0, code.n - 1), max_size=6), label="error")
            syn = syndrome_of(code, support)
        else:
            support = data.draw(st.sets(st.integers(0, code.m_x - 1), max_size=6), label="cells")
            syn = F2Vector.from_support(code.m_x, support)
        res = preprocess_candidates(code, syn, beta)
        queue, tested = bruteforce_scan(code, syn, beta)
        assert list(res.queue) == queue
        if beta > 0:
            scanned = vertices_reaching(code.cpx, syn.support)
        else:
            scanned = range(code.cpx.v00_size)
        assert res.vertices_scanned == len(scanned)
        assert res.subsets_tested == sum(tested[x00] for x00 in scanned)


class TestDecode:
    def test_zero_syndrome(self, star12_code):
        res = decode(star12_code, F2Vector.zero(72), DecoderConfig(epsilon=Fraction(0)))
        assert res.outcome == "success"
        assert res.iterations == 0
        assert res.correction.is_zero()

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
            reach = max(len(v) for v in _index_for(star12_code).v00_of_v11)
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
        assert _index_for(code).v00_of_v11 == face_derived_v00_of_v11(cpx)
        tcode = extract_code(cpx.transposed())
        assert _index_for(tcode).v00_of_v11 == face_derived_v00_of_v11(cpx.transposed())

    def test_decoding_ignores_faces(self, star12):
        # The decoder reads only the edge classes, which the loader checks
        # through the chain condition; faces are not verified on load, and
        # wrong faces must not change any decode.
        obj = complex_to_json(star12)
        no_faces = dict(obj, faces=[])
        z00, z10, z01, z11 = obj["faces"][0]
        other = next(f[3] for f in obj["faces"] if f[3] != z11)
        altered = dict(obj, faces=[[z00, z10, z01, other]] + obj["faces"][1:])
        codes = [extract_code(complex_from_json(o)) for o in (obj, no_faces, altered)]
        n = codes[0].n
        rng = random.Random(26)
        errors = [[q] for q in range(n)]
        errors += [rng.sample(range(n), w) for w in (2, 3) for _ in range(30)]
        config = DecoderConfig(epsilon=Fraction(0))
        for support in errors:
            outputs = []
            for code in codes:
                err = F2Vector.from_support(n, support)
                z = decode(code, gf2.mat_vec(code.hx, err), config)
                x = decode_x(code, gf2.mat_vec(code.hz, err), config)
                outputs.append((z.to_json(), z.trace, x.to_json(), x.trace))
            assert outputs[0] == outputs[1] == outputs[2], support

    def test_reach_through_either_edge_class(self):
        # A chain-valid complex without faces whose one check is reached only
        # through V01; its transpose reaches it only through V10.
        obj = {
            "reps_v00": [[0, 0]], "reps_v10": [], "reps_v01": [[0, 0], [0, 1]],
            "reps_v11": [[0, 0]], "edges_v00_v10": [], "edges_v10_v11": [],
            "edges_v00_v01": [[0, 0], [0, 1]], "edges_v01_v11": [[0, 0], [1, 0]],
            "faces": [], "degrees": None,
        }
        code = extract_code(complex_from_json(obj))
        config = DecoderConfig(epsilon=Fraction(0))
        for q in range(code.n):
            err = F2Vector.from_support(code.n, [q])
            z = decode(code, gf2.mat_vec(code.hx, err), config)
            x = decode_x(code, gf2.mat_vec(code.hz, err), config)
            assert z.outcome == x.outcome == "success"
            assert z.preprocess_vertices_scanned == x.preprocess_vertices_scanned == 1
            assert code.z_stabilizers.contains(err ^ z.correction)
            assert code.x_stabilizers.contains(err ^ x.correction)


class TestDecodeX:
    def test_zero_syndrome(self, star12_code):
        res = decode_x(star12_code, F2Vector.zero(12), DecoderConfig(epsilon=Fraction(0)))
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
            if rep.vector.is_zero():
                continue
            if not (rep.v10_weight < gates.v10 and rep.v01_weight < gates.v01):
                continue
            res = preprocess_candidates(code, gf2.mat_vec(code.hx, err), Fraction(1))
            assert res.queue, "no candidate despite an in-gate minimal representative"
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
        cpx = star_incidence_product(7, 2)   # star(7,2) x doubled incidence m=7
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

    def test_partition_invariant_violation_rejected(self, star12):
        p10, p01 = self.partitions_for(star12, [0], [], Fraction(0), Fraction(0))
        with pytest.raises(PreconditionError):
            region_diagnostics(star12, [0, 1], [], p10, p01)


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
            from qbp.css import is_locally_minimal
            if not is_locally_minimal(code, c1, normalized=True):
                continue
            syn = gf2.mat_vec(code.hx, c1)
            if syn.is_zero():
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
