"""Expansion certification, unique neighbors, flows, and ownership partitions."""

import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

import qbp
from qbp.errors import BudgetExceededError, InternalInvariantError, PreconditionError
from qbp.expansion import (
    ExpansionCertificate,
    certify_expansion,
    check_unique_expander_bound,
    edge_count_bounds,
    TreePartition,
    tree_partition,
    unique_neighbors,
)
from qbp.graphs import build_bipartite, cayley_bipartite, neighbors, regularity
from qbp.groups import cyclic_group
from qbp.instances import bipartite_cycle, doubled_complete_incidence, star_graph

from fixtures import random_biregular
from oracles import FlowNetwork, max_flow_integer, verify_tree_partition


def k33():
    return build_bipartite(3, 3, [(a, b) for a in range(3) for b in range(3)])


def brute_force_violation(graph, side, c, epsilon):
    """Independent recheck: first violating subset in lexicographic order."""
    import math
    n = graph.v0_size if side == "0to1" else graph.v1_size
    adj = graph.adj0 if side == "0to1" else graph.adj1
    prof = regularity(graph)
    w = prof.w0 if side == "0to1" else prof.w1
    limit = max(0, math.ceil(Fraction(c) * n) - 1)
    for size in range(1, limit + 1):
        for subset in itertools.combinations(range(n), size):
            seen = set()
            for x in subset:
                seen.update(adj[x])
            if len(seen) < (1 - Fraction(epsilon)) * w * size:
                return subset
    return None


def certificate_from_json(obj):
    """The certificate whose `to_json` is obj: c and epsilon from their
    [numerator, denominator] pairs, the witness as a tuple."""
    witness = obj["witness"]
    return ExpansionCertificate(**dict(
        obj, c=Fraction(*obj["c"]), epsilon=Fraction(*obj["epsilon"]),
        witness=None if witness is None else tuple(witness)))


class TestCertify:
    def test_singletons_always_pass(self):
        # With c small enough that only singletons are eligible, any biregular
        # graph passes: a singleton expands to exactly its degree.
        g = k33()
        cert = certify_expansion(g, "0to1", Fraction(2, 3), Fraction(0))
        assert cert.verdict == "pass"
        assert cert.max_eligible_size == 1

    def test_k33_pairs_fail_with_first_witness(self):
        # Pairs see all 3 opposite vertices but need (1-eps)*3*2; the first
        # 2-subset in lexicographic order is the recorded witness.
        cert = certify_expansion(k33(), "0to1", Fraction(9, 10), Fraction(1, 10))
        assert cert.verdict == "fail"
        assert cert.witness == (0, 1)

    def test_cycle_vacuous_small_c(self):
        # c|V0| = 1 leaves no eligible subsets under the strict bound.
        cert = certify_expansion(bipartite_cycle(3), "0to1", Fraction(1, 3), Fraction(0))
        assert cert.verdict == "pass"
        assert cert.subsets_checked == 0

    def test_cycle_singletons(self):
        cert = certify_expansion(bipartite_cycle(3), "0to1", Fraction(2, 3), Fraction(0))
        assert cert.verdict == "pass"
        assert cert.subsets_checked == 3

    def test_budget_refusal(self):
        g = random_biregular(20, 20, 3, random.Random(0))
        with pytest.raises(BudgetExceededError):
            certify_expansion(g, "0to1", Fraction(1, 2), Fraction(1, 4), budget=100)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_negative_budget_refused_up_front(self, mode):
        # Every size of the 3-cycle is proven by counting, so nothing would be
        # charged; the budget is still refused before any work.
        with pytest.raises(PreconditionError, match=r"^need budget >= 0, got -1$"):
            certify_expansion(bipartite_cycle(3), "0to1", Fraction(1), Fraction(1, 2),
                              mode=mode, trials=1, budget=-1)
        cert = certify_expansion(bipartite_cycle(3), "0to1", Fraction(1), Fraction(1, 2),
                                 mode=mode, trials=1, budget=0)
        assert cert.verdict == "pass"

    def test_budget_refusal_names_the_unproven_count(self):
        # The pair bound proves singletons only; sizes 2..9 hold
        # sum C(20, s) = 431,889 subsets, and only those are charged.
        g = random_biregular(20, 20, 3, random.Random(0))
        unproven = sum(math.comb(20, s) for s in range(2, 10))
        assert unproven == 431889
        message = (f"exhaustive certification needs {unproven} subset checks of the sizes the "
                   f"counting bounds leave unproven (2..9), over the budget of {unproven - 1}")
        with pytest.raises(BudgetExceededError, match=re.escape(message)):
            certify_expansion(g, "0to1", Fraction(1, 2), Fraction(1, 4), budget=unproven - 1)

    def test_budget_charges_only_the_unproven_sizes(self):
        # Double counting proves every size of the 60-vertex cycle at
        # epsilon = 1/2: the exhaustive pass enumerates nothing, where it
        # used to refuse 459,312,151 checks over the 2^24 budget.
        cert = certify_expansion(bipartite_cycle(30), "0to1", Fraction(1, 2), Fraction(1, 2))
        assert (cert.mode, cert.verdict, cert.authoritative) == ("exhaustive", "pass", True)
        assert cert.subsets_checked == sum(math.comb(30, s) for s in range(1, 15)) == 459312151
        assert cert.budget == 1 << 24
        sampled = certify_expansion(bipartite_cycle(30), "0to1", Fraction(1, 2), Fraction(1, 2),
                                    mode="sampled", trials=3)
        assert sampled.note == "sampled verdicts are evidence, not proof"
        # At epsilon = 1/3 the bounds prove sizes 1 and 2; the rest is charged.
        with pytest.raises(BudgetExceededError, match="needs 459311686 subset checks"):
            certify_expansion(bipartite_cycle(30), "0to1", Fraction(1, 2), Fraction(1, 3))

    def test_sampled_mode_labelled(self):
        g = random_biregular(20, 20, 3, random.Random(0))
        cert = certify_expansion(g, "0to1", Fraction(1, 4), Fraction(1, 3),
                                 mode="sampled", trials=20, seed=5)
        assert cert.mode == "sampled"
        assert not cert.authoritative
        assert "evidence" in cert.note

    @pytest.mark.parametrize("trials", [0, -5])
    def test_sampled_mode_needs_a_trial(self, trials):
        # Both a proven (epsilon = 1/2, double counting) and an open instance.
        for g, eps in ((bipartite_cycle(3), Fraction(1, 2)), (k33(), Fraction(1, 10))):
            with pytest.raises(PreconditionError, match=f"trials >= 1, got {trials}"):
                certify_expansion(g, "0to1", Fraction(1), eps, mode="sampled", trials=trials)

    def test_exhaustive_agrees_with_brute_force(self):
        rng = random.Random(101)
        shapes = [(8, 8, 2), (9, 6, 2), (10, 10, 3), (12, 8, 2), (14, 14, 3),
                  (6, 9, 3), (12, 12, 2)]
        for i in range(20):
            v0, v1, w0 = shapes[i % len(shapes)]
            g = random_biregular(v0, v1, w0, rng)
            c = Fraction(rng.randrange(2, 5), v0)
            eps = Fraction(rng.randrange(0, 3), 6)
            cert = certify_expansion(g, "0to1", c, eps)
            witness = brute_force_violation(g, "0to1", c, eps)
            if cert.verdict == "pass":
                assert witness is None
            else:
                assert witness == cert.witness

    def test_fail_witness_rechecks(self):
        cert = certify_expansion(k33(), "0to1", Fraction(9, 10), Fraction(1, 10))
        seen = neighbors(k33(), 0, cert.witness)
        assert len(seen) < (1 - cert.epsilon) * cert.w_src * len(cert.witness)

    def test_json_roundtrip(self):
        cert = certify_expansion(k33(), "0to1", Fraction(9, 10), Fraction(1, 10))
        assert certificate_from_json(cert.to_json()) == cert

    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2)], ids=["fail", "pass"])
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_json_roundtrip_through_text(self, mode, eps):
        # `qbp certify` writes `to_json`; its text holds every field exactly.
        cert = certify_expansion(k33(), "1to0", Fraction(9, 10), eps, mode, trials=3, seed=7)
        assert certificate_from_json(json.loads(json.dumps(cert.to_json()))) == cert


class TestUniqueNeighbors:
    def test_singleton_all_unique(self):
        g = k33()
        assert unique_neighbors(g, 0, [1]) == neighbors(g, 0, [1])

    def test_k22_both_vertices_nothing_unique(self):
        g = build_bipartite(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert unique_neighbors(g, 0, [0, 1]) == frozenset()

    def test_cycle_shared_neighbor_excluded(self):
        # Vertices 0 and 1 of the 6-cycle share V1 vertex 1.
        g = bipartite_cycle(3)
        uniq = unique_neighbors(g, 0, [0, 1])
        assert uniq == frozenset({0, 2})

    def test_subset_is_read_as_a_set(self):
        # A repeated member is one vertex, as `neighbors` reads it.
        g = bipartite_cycle(5)
        assert unique_neighbors(g, 0, [0]) == frozenset({0, 1})
        assert unique_neighbors(g, 0, [0, 0]) == unique_neighbors(g, 0, [0])
        assert unique_neighbors(g, 0, [1, 0, 1]) == unique_neighbors(g, 0, [0, 1])

    def test_unique_bound_singleton_margin(self):
        cert = certify_expansion(k33(), "0to1", Fraction(2, 3), Fraction(1, 10))
        check = check_unique_expander_bound(k33(), cert, [2])
        assert check.ok
        assert check.margin == 2 * Fraction(1, 10) * 3

    def test_unique_bound_cycle_exhaustive(self):
        g = bipartite_cycle(3)
        cert = certify_expansion(g, "0to1", Fraction(2, 3), Fraction(0))
        assert cert.verdict == "pass"
        for x in range(3):
            check = check_unique_expander_bound(g, cert, [x])
            assert check.ok and check.unique_count >= 2

    def test_unique_bound_on_certified_random_graphs(self):
        # Monte Carlo over eligible subsets of certified instances.
        rng = random.Random(55)
        done = 0
        while done < 3:
            g = random_biregular(12, 12, 3, rng)
            cert = certify_expansion(g, "0to1", Fraction(1, 4), Fraction(1, 3))
            if cert.verdict != "pass":
                continue
            done += 1
            for _ in range(100):
                size = rng.randrange(1, cert.max_eligible_size + 1)
                subset = rng.sample(range(12), size)
                assert check_unique_expander_bound(g, cert, subset).ok

    def test_oversized_subset_rejected(self):
        cert = certify_expansion(k33(), "0to1", Fraction(2, 3), Fraction(0))
        with pytest.raises(PreconditionError):
            check_unique_expander_bound(k33(), cert, [0, 1])


class TestEdgeCountBounds:
    def test_empty_v0(self):
        res = edge_count_bounds(k33(), [], [0, 1], Fraction(0))
        assert res.bound1_ok and res.bound2_ok and res.edge_count == 0

    def test_v1_equals_neighborhood(self):
        # With v1 = N(v0) the first bound is the expansion inequality itself.
        g = bipartite_cycle(4)
        v0 = [0, 2]
        v1 = neighbors(g, 0, v0)
        res = edge_count_bounds(g, v0, v1, Fraction(1, 4))
        assert res.bound1_ok

    def test_monte_carlo_on_certified_instance(self):
        rng = random.Random(77)
        done = 0
        while done < 2:
            g = random_biregular(12, 9, 3, rng)        # (3,4)-biregular
            cert = certify_expansion(g, "0to1", Fraction(1, 4), Fraction(1, 3))
            if cert.verdict != "pass":
                continue
            done += 1
            for _ in range(100):
                v0 = rng.sample(range(12), rng.randrange(1, cert.max_eligible_size + 1))
                v1 = rng.sample(range(9), rng.randrange(0, 9))
                res = edge_count_bounds(g, v0, v1, Fraction(1, 3))
                assert res.bound1_ok and res.bound2_ok


def brute_force_min_cut(network):
    """Minimum cut by enumerating every source-side subset."""
    inner = [v for v in network.nodes if v not in (network.source, network.sink)]
    best = None
    for bits in range(1 << len(inner)):
        s_side = {network.source}
        for i, v in enumerate(inner):
            if bits >> i & 1:
                s_side.add(v)
        cap = sum(c for u, v, c in network.arcs if u in s_side and v not in s_side)
        best = cap if best is None else min(best, cap)
    return best


class TestMaxFlow:
    def test_single_arc(self):
        net = FlowNetwork(("s", "t"), (("s", "t", 5),), "s", "t")
        assert max_flow_integer(net).value == 5

    def test_star_with_capped_source(self):
        # One owner with three candidate targets but source capacity 2.
        nodes = ("s", "a", "x", "y", "z", "t")
        arcs = (("s", "a", 2), ("a", "x", 1), ("a", "y", 1), ("a", "z", 1),
                ("x", "t", 1), ("y", "t", 1), ("z", "t", 1))
        res = max_flow_integer(FlowNetwork(nodes, arcs, "s", "t"))
        assert res.value == 2
        assert res.cut_capacity == 2

    def test_flow_is_integral_and_conserved(self):
        rng = random.Random(3)
        net = _random_network(10, rng)
        res = max_flow_integer(net)
        outflow = {}
        inflow = {}
        for (u, v), f in res.flow.items():
            assert isinstance(f, int) and f >= 0
            outflow[u] = outflow.get(u, 0) + f
            inflow[v] = inflow.get(v, 0) + f
        for node in net.nodes:
            if node in (net.source, net.sink):
                continue
            assert outflow.get(node, 0) == inflow.get(node, 0)

    def test_against_brute_force_cuts(self):
        rng = random.Random(19)
        for trial in range(30):
            n_inner = rng.randrange(2, 9)
            net = _random_network(n_inner, rng)
            res = max_flow_integer(net)
            assert res.value == brute_force_min_cut(net)

    def test_larger_network_against_brute_force(self):
        rng = random.Random(23)
        net = _random_network(14, rng)       # 16 nodes total
        assert max_flow_integer(net).value == brute_force_min_cut(net)


def _random_network(n_inner, rng):
    nodes = ["s", "t"] + [f"v{i}" for i in range(n_inner)]
    arcs = []
    for i in range(n_inner):
        if rng.random() < 0.7:
            arcs.append(("s", f"v{i}", rng.randrange(0, 5)))
        if rng.random() < 0.7:
            arcs.append((f"v{i}", "t", rng.randrange(0, 5)))
    for i in range(n_inner):
        for j in range(n_inner):
            if i != j and rng.random() < 0.35:
                arcs.append((f"v{i}", f"v{j}", rng.randrange(1, 4)))
    return FlowNetwork(tuple(nodes), tuple(arcs), "s", "t")


class TestTreePartition:
    def test_empty_target(self):
        g = bipartite_cycle(3)
        part = tree_partition(g, [], Fraction(0), 2)
        assert all(not owned for owned in part.assignment.values())

    def test_single_vertex_forced(self):
        # A target with a single neighbor is owned by it and leaves nothing over.
        g, _ = star_graph(4, 2)
        part = tree_partition(g, [5], Fraction(0), 2)
        owners = [x0 for x0, own in part.assignment.items() if own]
        assert owners == [2]
        assert part.assignment[2] == frozenset({5})
        assert all(v == 0 for v in part.leftover.values())

    def test_single_vertex_shared_needs_slack(self):
        # On the cycle each V1 vertex has two neighbors; the non-owner keeps
        # a leftover of 1, legal once epsilon * w0 >= 1.
        g = bipartite_cycle(3)
        part = tree_partition(g, [1], Fraction(1, 2), 2)
        audit = verify_tree_partition(g, [1], Fraction(1, 2), 2, part)
        assert audit.all_ok
        assert sorted(part.leftover.values()) == [0, 1]
        assert 2 not in part.leftover          # not next to the target

    # Hand-made partitions of v1 on bipartite_cycle(4) (adj0: 0 -> {0, 1},
    # 1 -> {1, 2}, 2 -> {2, 3}, 3 -> {0, 3}) at epsilon * w0 = 1, each
    # breaking one invariant: (v1, assignment, leftover, failing audit field).
    BROKEN = {
        "shared": ([0], {0: {0}, 3: {0}}, {}, "disjoint"),
        "unowned": ([0], {}, {0: 1, 3: 1}, "covering"),
        "off_neighborhood": ([0, 2], {1: {0}, 2: {2}}, {0: 1, 3: 1}, "within_neighborhoods"),
        "owner_minus_one": ([0], {-1: {0}}, {0: 1, 3: 1}, "within_neighborhoods"),
        "owner_past_v0": ([0], {4: {0}}, {0: 1, 3: 1}, "within_neighborhoods"),
        "leftover_misstated": ([0], {0: {0}}, {}, "leftover_ok"),
        # tree_partition's own leftovers with entries outside V0 added.
        "leftover_minus_one": ([0], {0: {0}}, {0: 0, 1: 0, 2: 0, 3: 1, -1: 7}, "leftover_ok"),
        "leftover_past_v0": ([0], {0: {0}}, {0: 0, 1: 0, 2: 0, 3: 1, 9: 5}, "leftover_ok"),
        "leftovers_outside_v0": ([0], {0: {0}}, {0: 0, 1: 0, 2: 0, 3: 1, -1: 7, 9: 5},
                                 "leftover_ok"),
    }

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_each_broken_invariant_fails_its_audit(self, case):
        v1, owned, leftover, field = self.BROKEN[case]
        g = bipartite_cycle(4)
        assignment = {x0: frozenset() for x0 in range(4)}
        assignment.update((x0, frozenset(ys)) for x0, ys in owned.items())
        part = TreePartition(assignment, leftover, flow_value=0, threshold=1)
        audit = verify_tree_partition(g, v1, Fraction(1, 2), 2, part)
        flags = {name: getattr(audit, name)
                 for name in ("disjoint", "covering", "within_neighborhoods", "leftover_ok")}
        assert flags == {name: name != field for name in flags}
        assert audit.majorization_ok and not audit.all_ok

    def test_zero_epsilon_forces_zero_leftovers(self):
        g, _ = star_graph(6, 3)
        rng = random.Random(1)
        for _ in range(20):
            v1 = rng.sample(range(18), rng.randrange(0, 6))
            part = tree_partition(g, v1, Fraction(0), 3)
            audit = verify_tree_partition(g, v1, Fraction(0), 3, part)
            assert audit.all_ok
            assert audit.majorization_skipped

    def test_zero_bound_with_positive_epsilon_forces_zero_leftovers(self):
        # epsilon > 0 but epsilon * w0 = 0: the audit needs every leftover to
        # be 0 and skips majorization, as at epsilon = 0.
        g = cayley_bipartite(cyclic_group(4), [1], "right").graph
        part = tree_partition(g, [0], Fraction(1, 2), 0)
        audit = verify_tree_partition(g, [0], Fraction(1, 2), 0, part)
        assert audit.all_ok
        assert audit.majorization_skipped

    def test_three_regular_example(self):
        # (3,3)-regular random graphs, |v1| = 3, epsilon*w0 = 1: all leftovers
        # stay <= 1 whenever the ownership flow saturates.
        rng = random.Random(42)
        ran = 0
        while ran < 25:
            g = random_biregular(15, 15, 3, rng)
            v1 = rng.sample(range(15), 3)
            try:
                part = tree_partition(g, v1, Fraction(1, 3), 3)
            except InternalInvariantError:
                continue          # hypothesis fails on this draw; resample
            ran += 1
            audit = verify_tree_partition(g, v1, Fraction(1, 3), 3, part)
            assert audit.all_ok
            assert max(part.leftover.values()) <= 1

    def test_doubled_incidence_partition(self):
        g, _ = doubled_complete_incidence(13)
        rng = random.Random(8)
        for _ in range(30):
            v1 = rng.sample(range(g.v1_size), 1)
            part = tree_partition(g, v1, Fraction(1, 14), 14)
            audit = verify_tree_partition(g, v1, Fraction(1, 14), 14, part)
            assert audit.all_ok

    def test_unsatisfiable_hypothesis_raises(self):
        # Two owners forced to share one target with zero allowed leftover.
        g = build_bipartite(2, 1, [(0, 0), (1, 0)])
        with pytest.raises(InternalInvariantError):
            tree_partition(g, [0], Fraction(0), 1)
