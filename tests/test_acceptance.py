"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance is exact (rational arithmetic or integer equality) except
the regression-slope sanity bound, which is 1.0 + 5% as stated.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import qbp
from qbp import gf2, jsonio
from qbp.cli import cli_dispatch
from qbp.css import (
    brute_distance,
    code_params,
    extract_code,
    locally_minimal_distance,
    normalized_syndrome_weight,
    normalized_weight,
)
from qbp.decoder import (
    DecoderConfig,
    decode,
    guaranteed_correctable_weight,
    region_diagnostics,
    size_gates,
)
from qbp.errors import InternalInvariantError
from qbp.expansion import certify_expansion, check_unique_expander_bound, tree_partition
from qbp.gf2 import F2Vector
from qbp.graphs import regularity
from qbp.groups import cyclic_group
from qbp.harness import ExperimentConfig, iterations_slope, run_simulation
from qbp.instances import (
    bipartite_cycle,
    doubled_complete_incidence,
    incidence_star_product,
    left_right_cayley,
    random_free_action_graph,
    star_graph,
    star_product,
    toric_complex,
)
from qbp.product import balanced_product, hypergraph_product

from fixtures import random_biregular, random_bipartite, strip_timing
from oracles import (
    FlowNetwork,
    greedy_flip_reduce,
    is_locally_minimal,
    max_flow_integer,
    verify_chain_condition,
    verify_tree_partition,
)


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS ({text})")


def test_criterion_01_chain_condition():
    started = time.time()
    rng = random.Random(20260809)
    built = 0
    for _ in range(120):
        a, b = rng.randrange(1, 11), rng.randrange(1, 11)
        x = random_bipartite(a, b, rng.randrange(1, min(a * b, 12) + 1), rng)
        a, b = rng.randrange(1, 11), rng.randrange(1, 11)
        y = random_bipartite(a, b, rng.randrange(1, min(a * b, 12) + 1), rng)
        assert verify_chain_condition(hypergraph_product(x, y)).ok
        built += 1
    for order in range(2, 9):
        group = cyclic_group(order)
        for _ in range(12):
            def draw():
                b0, b1 = rng.randrange(1, 3), rng.randrange(1, 3)
                max_orbits = b0 * b1 * order
                return random_free_action_graph(
                    group, b0, b1, rng.randrange(1, min(4, max_orbits + 1)), rng)
            x, ax = draw()
            y, ay = draw()
            assert verify_chain_condition(balanced_product(x, ax, y, ay)).ok
            built += 1
    elapsed = time.time() - started
    assert built >= 200
    assert elapsed < 10.0
    report(1, f"{built} products verified in {elapsed:.2f}s")


def test_criterion_02_toric_oracle():
    started = time.time()
    for length in (2, 3):
        cpx = toric_complex(length)
        code = extract_code(cpx)
        params = code_params(code)
        assert params.n == 2 * length * length
        assert params.k == 2
        assert brute_distance(code, "x").d == length
        assert brute_distance(code, "z").d == length
    elapsed = time.time() - started
    assert elapsed < 60.0
    report(2, f"[[2L^2, 2, L]] exact for L in {{2, 3}} in {elapsed:.2f}s")


def _biregular_instances():
    return [
        ("toric2", toric_complex(2)),
        ("toric3", toric_complex(3)),
        ("match8", left_right_cayley(cyclic_group(8), [1], [1])),
        ("match5", left_right_cayley(cyclic_group(5), [1], [2])),
        ("star12", star_product(12, 3, 2)),
        ("star6", star_product(6, 2, 2)),
        ("incstar13", incidence_star_product(13, 2)),
        ("starinc7", balanced_product(*star_graph(7, 2), *doubled_complete_incidence(7))),
    ]


def test_criterion_03_rate_bound():
    checked = 0
    for name, cpx in _biregular_instances():
        code = extract_code(cpx)
        params = code_params(code)
        d = cpx.degrees
        bound = Fraction((d.down - d.up) * (d.left - d.right),
                         d.down * d.left + d.up * d.right)
        assert Fraction(params.k, params.n) >= bound, name
        checked += 1
    report(3, f"exact rate bound on {checked}/{checked} biregular instances")


def test_criterion_04_weight_bound():
    checked = 0
    for name, cpx in _biregular_instances():
        code = extract_code(cpx)
        d = cpx.degrees
        expected = max(d.down + d.right, d.up + d.left, d.up + d.right, d.down + d.left)
        assert code.weight == expected, name
        checked += 1
    report(4, f"exact weight formula on {checked}/{checked} biregular instances")


def _independent_expansion_recheck(graph, side, c, epsilon):
    adj = graph.adj0 if side == "0to1" else graph.adj1
    n = graph.v0_size if side == "0to1" else graph.v1_size
    prof = regularity(graph)
    w = prof.w0 if side == "0to1" else prof.w1
    limit = max(0, math.ceil(Fraction(c) * n) - 1)
    for size in range(1, limit + 1):
        for subset in itertools.combinations(range(n), size):
            seen = set()
            for v in subset:
                seen.update(adj[v])
            if len(seen) < (1 - Fraction(epsilon)) * w * size:
                return subset
    return None


def test_criterion_05_expansion_machinery():
    started = time.time()
    rng = random.Random(505)

    # (a) exhaustive certification agrees with the independent recheck.
    shapes = [(8, 8, 2), (10, 10, 3), (12, 8, 2), (14, 14, 3), (9, 6, 2),
              (12, 12, 2), (14, 7, 2), (10, 5, 2), (6, 9, 3), (8, 4, 2)]
    agree = 0
    for i in range(50):
        v0, v1, w0 = shapes[i % len(shapes)]
        graph = random_biregular(v0, v1, w0, rng)
        c = Fraction(rng.randrange(2, 5), v0)
        eps = Fraction(rng.randrange(0, 4), 8)
        cert = certify_expansion(graph, "0to1", c, eps)
        witness = _independent_expansion_recheck(graph, "0to1", c, eps)
        assert (witness is None) == (cert.verdict == "pass")
        if cert.verdict == "fail":
            assert cert.witness == witness
        agree += 1

    # (b) unique-neighbor bound for every eligible subset of certified graphs.
    certified = []
    sg, _ = star_graph(12, 3)
    certified.append((sg, certify_expansion(sg, "0to1", Fraction(1), Fraction(0))))
    mg = left_right_cayley(cyclic_group(8), [1], [1]).factor_x
    certified.append((mg, certify_expansion(mg, "0to1", Fraction(1), Fraction(0))))
    dg, _ = doubled_complete_incidence(13)
    certified.append((dg, certify_expansion(dg, "0to1", Fraction(3, 13), Fraction(1, 14))))
    cyc = bipartite_cycle(3)
    certified.append((cyc, certify_expansion(cyc, "0to1", Fraction(2, 3), Fraction(0))))
    unique_checked = 0
    for graph, cert in certified:
        assert cert.verdict == "pass"
        for size in range(1, cert.max_eligible_size + 1):
            for subset in itertools.combinations(range(cert.v_src_size), size):
                assert check_unique_expander_bound(graph, cert, subset).ok
                unique_checked += 1

    # (c) 500 ownership partitions with all invariants recomputed post hoc.
    partitions = 0
    sg2, _ = star_graph(8, 3)
    while partitions < 180:
        v1 = rng.sample(range(sg2.v1_size), rng.randrange(0, 8))
        part = tree_partition(sg2, v1, Fraction(0), 3)
        assert verify_tree_partition(sg2, v1, Fraction(0), 3, part).all_ok
        partitions += 1
    while partitions < 320:
        v1 = rng.sample(range(dg.v1_size), 1)
        part = tree_partition(dg, v1, Fraction(1, 14), 14)
        assert verify_tree_partition(dg, v1, Fraction(1, 14), 14, part).all_ok
        partitions += 1
    while partitions < 500:
        graph = random_biregular(15, 15, 3, rng)
        v1 = rng.sample(range(15), rng.randrange(1, 4))
        try:
            part = tree_partition(graph, v1, Fraction(1, 3), 3)
        except InternalInvariantError:
            continue        # this draw violates the caller-side hypothesis
        assert verify_tree_partition(graph, v1, Fraction(1, 3), 3, part).all_ok
        partitions += 1

    # (d) max flow equals the brute-force minimum cut.
    flows = 0
    for trial in range(40):
        n_inner = rng.randrange(2, 13) if trial < 36 else 14
        nodes = ["s", "t"] + [f"v{i}" for i in range(n_inner)]
        arcs = []
        for i in range(n_inner):
            if rng.random() < 0.7:
                arcs.append(("s", f"v{i}", rng.randrange(0, 5)))
            if rng.random() < 0.7:
                arcs.append((f"v{i}", "t", rng.randrange(0, 5)))
            for j in range(n_inner):
                if i != j and rng.random() < 0.3:
                    arcs.append((f"v{i}", f"v{j}", rng.randrange(1, 4)))
        net = FlowNetwork(tuple(nodes), tuple(arcs), "s", "t")
        best = None
        inner = nodes[2:]
        for bits in range(1 << len(inner)):
            s_side = {"s"} | {v for k, v in enumerate(inner) if bits >> k & 1}
            cap = sum(c for u, v, c in arcs if u in s_side and v not in s_side)
            best = cap if best is None else min(best, cap)
        assert max_flow_integer(net).value == best
        flows += 1

    elapsed = time.time() - started
    assert elapsed < 120.0
    report(5, f"(a) {agree} graphs, (b) {unique_checked} subsets, "
              f"(c) {partitions} partitions, (d) {flows} networks in {elapsed:.1f}s")


def _ltc_samples(code, gates, rng, count):
    """Greedy-reduced in-gate nonzero errors, `count` of them."""
    produced = 0
    while produced < count:
        w10 = rng.randrange(0, 5)
        w01 = rng.randrange(0, 4)
        if w10 + w01 == 0:
            continue
        support = set(rng.sample(range(code.v10_size), w10))
        support |= {code.v10_size + q for q in rng.sample(range(code.n - code.v10_size), w01)}
        reduced = greedy_flip_reduce(code, F2Vector.from_support(code.n, support)).vector
        if not reduced.support:
            continue
        s10, s01 = code.split_support(reduced)
        if not (len(s10) < gates.v10 and len(s01) < gates.v01):
            continue
        produced += 1
        yield reduced


def test_criterion_06_small_set_syndrome_lower_bound(star12_certs, match8_cert, inc13_cert,
                                                     star13_cert):
    rng = random.Random(606)
    total = 0

    def check(code, c1, epsilon):
        lhs = (Fraction(1, 2) - 6 * Fraction(epsilon)) * normalized_weight(code, c1)
        c0 = gf2.mat_vec(code.hx, c1)
        rhs = normalized_syndrome_weight(code, c0)
        assert lhs <= rhs

    star = star_product(12, 3, 2)
    star_code = extract_code(star)
    star_gates = size_gates(star, *star12_certs)
    for c1 in _ltc_samples(star_code, star_gates, rng, 650):
        check(star_code, c1, Fraction(0))
        total += 1

    match = left_right_cayley(cyclic_group(8), [1], [1])
    match_code = extract_code(match)
    match_gates = size_gates(match, match8_cert, match8_cert)
    for c1 in _ltc_samples(match_code, match_gates, rng, 200):
        check(match_code, c1, Fraction(0))
        total += 1

    incstar = incidence_star_product(13, 2)
    inc_code = extract_code(incstar)
    inc_gates = size_gates(incstar, inc13_cert, star13_cert)
    produced = 0
    while produced < 160:
        v10 = rng.sample(range(inc_code.v10_size), rng.randrange(0, 2))
        v01 = rng.sample(range(inc_code.n - inc_code.v10_size), rng.randrange(0, 2))
        if not v10 and not v01:
            continue
        support = set(v10) | {inc_code.v10_size + q for q in v01}
        c1 = F2Vector.from_support(inc_code.n, support)
        assert is_locally_minimal(inc_code, c1)
        s10, s01 = inc_code.split_support(c1)
        if not (len(s10) < inc_gates.v10 and len(s01) < inc_gates.v01):
            continue
        check(inc_code, c1, Fraction(1, 14))
        produced += 1
        total += 1

    assert total >= 1000
    report(6, f"{total} locally minimal in-gate samples, zero violations")


def test_criterion_07_decoder_correctness(star12_certs, match8_cert):
    started = time.time()
    swept = 0

    star = star_product(12, 3, 2)
    star_code = extract_code(star)
    radius = guaranteed_correctable_weight(star, *star12_certs, Fraction(0))
    assert radius == 3
    config = DecoderConfig(epsilon=Fraction(0), keep_flip_sets=False)
    max_w = math.ceil(radius) - 1
    for w in range(1, max_w + 1):
        for support in itertools.combinations(range(star_code.n), w):
            err = F2Vector.from_support(star_code.n, support)
            res = decode(star_code, gf2.mat_vec(star_code.hx, err), config)
            assert res.outcome == "success"
            assert star_code.z_stabilizers.contains(err ^ res.correction)
            swept += 1

    match = left_right_cayley(cyclic_group(8), [1], [1])
    match_code = extract_code(match)
    radius = guaranteed_correctable_weight(match, match8_cert, match8_cert, Fraction(0))
    assert radius == Fraction(7, 2)
    for w in range(1, math.ceil(radius)):
        for support in itertools.combinations(range(match_code.n), w):
            err = F2Vector.from_support(match_code.n, support)
            res = decode(match_code, gf2.mat_vec(match_code.hx, err), config)
            assert res.outcome == "success"
            assert match_code.z_stabilizers.contains(err ^ res.correction)
            swept += 1

    elapsed = time.time() - started
    assert elapsed < 300.0
    report(7, f"exhaustive in-radius sweep, {swept} errors, 100% success in {elapsed:.1f}s")


def test_criterion_08_decoder_linear_time():
    star_code = extract_code(star_product(12, 3, 2))
    match_code = extract_code(left_right_cayley(cyclic_group(8), [1], [1]))
    records = []
    campaigns = [
        (star_code, 1, 80), (star_code, 2, 80),
        (match_code, 1, 40), (match_code, 2, 40), (match_code, 3, 40),
    ]
    for code, weight, trials in campaigns:
        config = ExperimentConfig(epsilon=Fraction(0), trials=trials,
                                  seed=808 + weight, weight=weight)
        result = run_simulation(code, config)
        d = code.degrees
        for record in result.records:
            assert record.iterations <= record.syndrome_weight
            assert record.max_updated_syndromes <= d.down * d.right
        records.extend(result.records)
    slope = iterations_slope(records)
    assert slope is not None
    assert slope <= 1.0 * 1.05
    report(8, f"{len(records)} trials, iterations <= |c0| and work bounds exact, "
              f"slope {slope:.3f} <= 1.05")


def test_criterion_09_region_diagnostics(star12_certs):
    rng = random.Random(909)
    ran = 0

    def run_configs(cpx, eps_x, eps_y, eps_chain, max10, max01, count):
        nonlocal ran
        code = extract_code(cpx)
        d = cpx.degrees
        done = 0
        while done < count:
            v10 = rng.sample(range(cpx.v10_size), rng.randrange(0, max10 + 1))
            v01 = rng.sample(range(cpx.v01_size), rng.randrange(0, max01 + 1))
            if not v10 and not v01:
                continue
            support = set(v10) | {code.v10_size + q for q in v01}
            c1 = F2Vector.from_support(code.n, support)
            if not is_locally_minimal(code, c1):
                continue
            p10 = tree_partition(cpx.subgraph("v00_v10"), v10, eps_x, d.down)
            p01 = tree_partition(cpx.subgraph("v00_v01"), v01, eps_y, d.right)
            rep = region_diagnostics(cpx, v10, v01, p10, p01, epsilon=eps_chain)
            assert rep.counting_bound_ok
            # At 12 eps_chain >= 1 the chain bound is vacuous and reads None.
            assert rep.chain_ok is (None if 12 * eps_chain >= 1 else True)
            assert rep.syndrome_weight >= rep.unique_total
            done += 1
            ran += 1

    star = star_product(12, 3, 2)
    gates = size_gates(star, *star12_certs)
    run_configs(star, Fraction(0), Fraction(0), Fraction(0),
                int(gates.v10) - 1, int(gates.v01) - 1, 150)

    incstar = incidence_star_product(13, 2)
    run_configs(incstar, Fraction(1, 14), Fraction(0), Fraction(1, 14), 1, 1, 100)

    starinc = balanced_product(*star_graph(7, 2), *doubled_complete_incidence(7))
    # Constraint set forces the chain parameter up to down * eps_y here.
    run_configs(starinc, Fraction(0), Fraction(1, 8), Fraction(2, 8), 1, 1, 60)

    assert ran >= 300
    report(9, f"{ran} in-gate configurations, counting bound and chain 100%")


def test_criterion_10_locally_minimal_lower_bounds_distance():
    from qbp.groups import dihedral_group
    instances = [
        extract_code(toric_complex(2)),
        extract_code(toric_complex(3)),
        extract_code(left_right_cayley(cyclic_group(8), [1, 2], [1, 4])),
        extract_code(left_right_cayley(cyclic_group(6), [1, 2], [1, 3])),
        extract_code(left_right_cayley(dihedral_group(4), [1, 2], [1, 2])),
    ]
    checked = 0
    for code in instances:
        d = brute_distance(code, "z").d
        assert d is not None
        report_lm = locally_minimal_distance(code)
        assert report_lm.d_lm_nontrivial is not None
        assert d >= report_lm.d_lm_nontrivial
        checked += 1
    report(10, f"d >= locally-minimal distance on {checked} oracle-complete cases")


def test_criterion_11_cli_determinism(tmp_path):
    from qbp.product import complex_to_json

    cpx = left_right_cayley(cyclic_group(6), [1], [1])
    path = tmp_path / "cpx.json"
    path.write_text(jsonio.canonical_dumps(complex_to_json(cpx)))
    outputs = set()
    for rep in range(10):
        out = tmp_path / f"run{rep}.json"
        rc = cli_dispatch([
            "simulate", "--complex", str(path), "--error-weight", "2",
            "--trials", "30", "--epsilon", "0", "--seed", "4242",
            "--out", str(out),
        ])
        assert rc == 0
        outputs.add(strip_timing(out.read_text()))
    assert len(outputs) == 1
    report(11, "10/10 byte-identical results outside the timing field")
