"""The decoder's flip search and re-test rule against what they replaced.

The flip search walks one center's subset pairs by prefix XORs.  Its oracle
is the earlier walk over two subset tables per center, nested in ascending
(mask10, mask01) order: both must find the same pair, flip mask, changed and
cleared counts and `tested`, and `flippable` must return the same checks.

After a flip the loop re-tests only the flipped vertex and the vertices next
to a newly lit check.  Its oracle is the earlier loop, run on the subset
tables, which re-tests every unqueued vertex next to any check the flip
changed.  Both must give equal results: outcome, correction, iterations,
stale pops, preprocessing counters and every trace step, flip sets included.

Every comparison runs on every family below and epsilon in {0, 1/30,
1/13}, and on both sides except `flippable`, which tests Z flips only.
The loop is also compared on i.i.d. errors with p = 3/100, as in the
bench's dense workload: they make stale pops and re-tests of centers that
reach no lit check, which the flip search answers without a walk.
"""

import functools
import operator
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbp import gf2
from qbp.css import extract_code
from qbp.decoder import (
    DecodeResult,
    DecoderConfig,
    TraceStep,
    _first_flippable,
    _index_for,
    decode,
    decode_x,
)
from qbp.gf2 import F2Vector, bits
from qbp.groups import cyclic_group
from qbp.instances import incidence_star_product, left_right_cayley, star_product, toric_complex

from oracles import FlipCheck, flippable

_FAMILIES = {
    "toric2": lambda: toric_complex(2),
    "toric3": lambda: toric_complex(3),
    "match8": lambda: left_right_cayley(cyclic_group(8), [1], [1]),
    "star12": lambda: star_product(12, 3, 2),
    "incstar13": lambda: incidence_star_product(13, 2),
    # The bench's decode family, left_right_cayley(Z_m, [1, 2], [1, 4]), at m = 32.
    "cayley32": lambda: left_right_cayley(cyclic_group(32), [1, 2], [1, 4]),
}
_EPSILONS = [Fraction(0), Fraction(1, 30), Fraction(1, 13)]
_CAP = 32


@functools.cache
def family_code(name):
    return extract_code(_FAMILIES[name]())


def subset_masks(singles):
    """The XOR of every subset of singles, indexed by the subset's mask."""
    out = [0] * (1 << len(singles))
    for s in range(1, len(out)):
        low = s & -s
        out[s] = out[s ^ low] ^ singles[low.bit_length() - 1]
    return out


@functools.cache
def flip_tables(idx, x00):
    """Subset-indexed check-flip masks for both neighborhoods of x00."""
    return (subset_masks([idx.v11_of_v10[q] for q in idx.n10[x00]]),
            subset_masks([idx.v11_of_v01[q] for q in idx.n01[x00]]))


def table_first_flippable(tables, synd, beta_num, beta_den):
    """The earlier search: a nested walk over both subset tables, in
    ascending (mask10, mask01) order.  Returns (found, tested) with found
    (mask10, mask01, flip_mask, changed, cleared) or None."""
    t10, t01 = tables
    width = len(t01)
    for m10, f10 in enumerate(t10):
        for m01 in range(0 if m10 else 1, width):
            flip = f10 ^ t01[m01]
            changed = flip.bit_count()
            if changed == 0:
                continue
            cleared = (flip & synd).bit_count()
            if cleared * beta_den >= beta_num * changed:
                return (m10, m01, flip, changed, cleared), m10 * width + m01
    return None, len(t10) * width - 1


def table_preprocess(idx, synd, beta):
    """Syndrome-local preprocessing over the subset tables: the queue, the
    vertices scanned and the subset pairs tested, as `_preprocess` returns
    them."""
    candidates = sorted({x00 for z11 in bits(synd) for x00 in idx.v00_of_v11[z11]})
    queue = []
    tested = 0
    for x00 in candidates:
        found, pairs = table_first_flippable(flip_tables(idx, x00), synd, beta.numerator,
                                             beta.denominator)
        tested += pairs
        if found is not None:
            queue.append(x00)
    return queue, len(candidates), tested


def rescan_all_decode(code, syndrome, config, side):
    """The earlier loop on the subset tables: after each flip, every
    unqueued vertex next to a changed check is re-tested, in ascending
    order."""
    idx = _index_for(code, side)
    beta = config.beta
    bn, bd = beta.numerator, beta.denominator
    synd = syndrome.to_mask()
    first, scanned, tested = table_preprocess(idx, synd, beta)
    initial_weight = synd.bit_count()
    queue = deque(first)
    queued = set(first)
    correction = 0
    off10, off01 = idx.offsets
    trace = []
    stale_pops = 0
    iterations = 0
    while synd and queue and iterations < config.iteration_cap:
        x00 = queue.popleft()
        queued.discard(x00)
        found, _ = table_first_flippable(flip_tables(idx, x00), synd, bn, bd)
        if found is None:
            stale_pops += 1
            continue
        m10, m01, flip, changed, cleared = found
        n10_bits = [idx.n10[x00][i] for i in bits(m10)]
        n01_bits = [idx.n01[x00][i] for i in bits(m01)]
        for q in n10_bits:
            correction ^= 1 << (off10 + q)
        for q in n01_bits:
            correction ^= 1 << (off01 + q)
        synd ^= flip
        iterations += 1
        rescan = set()
        for z11 in bits(flip):
            rescan.update(idx.v00_of_v11[z11])
        for y00 in sorted(rescan):
            if y00 in queued:
                continue
            if table_first_flippable(flip_tables(idx, y00), synd, bn, bd)[0] is not None:
                queue.append(y00)
                queued.add(y00)
        trace.append(TraceStep(
            iteration=iterations, x00=x00, n10_size=len(n10_bits), n01_size=len(n01_bits),
            cleared=cleared, created=changed - cleared, syndrome_after=synd.bit_count(),
            updated_syndromes=changed, rescanned_vertices=len(rescan),
            n10=tuple(n10_bits) if config.keep_flip_sets else (),
            n01=tuple(n01_bits) if config.keep_flip_sets else (),
        ))
    if synd == 0:
        outcome = "success"
    elif iterations >= config.iteration_cap:
        outcome = "capped"
    else:
        outcome = "stalled"
    return DecodeResult(
        outcome=outcome, correction=F2Vector.from_mask(code.n, correction),
        iterations=iterations, initial_syndrome_weight=initial_weight, trace=tuple(trace),
        stale_pops=stale_pops, preprocess_vertices_scanned=scanned,
        preprocess_subsets_tested=tested,
    )


def decode_side(code, syndrome, config, side):
    return (decode if side == "z" else decode_x)(code, syndrome, config)


def syndrome_of(code, side, support):
    checks = code.hx if side == "z" else code.hz
    return gf2.mat_vec(checks, F2Vector.from_support(code.n, support))


def draw_syndrome(data, code, side):
    """A syndrome of a drawn error, or a drawn set of checks."""
    if data.draw(st.booleans(), label="from_error"):
        support = data.draw(st.sets(st.integers(0, code.n - 1), max_size=8), label="error")
        return syndrome_of(code, side, support)
    checks = code.m_x if side == "z" else code.m_z
    support = data.draw(st.sets(st.integers(0, checks - 1), max_size=8), label="cells")
    return F2Vector.from_support(checks, support)


def iid_syndrome(code, side, seed):
    """The syndrome of an i.i.d. error with p = 3/100, drawn from one seed."""
    rng = random.Random(seed)
    return syndrome_of(code, side, [q for q in range(code.n) if rng.random() < 0.03])


class TestPrefixWalk:
    # Every family, side and epsilon gets its own draws.  A full walk of an
    # incstar13 V00 center tries 2^16 pairs in each kernel, so a Z draw
    # there, which walks all 13 centers, costs up to half a second.
    @pytest.mark.parametrize("epsilon", _EPSILONS, ids=str)
    @pytest.mark.parametrize("side", ["z", "x"])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_matches_the_table_walk_on_every_center(self, family, side, epsilon, data):
        code = family_code(family)
        idx = _index_for(code, side)
        synd = draw_syndrome(data, code, side).to_mask()
        beta = 1 - 12 * epsilon
        for x00 in range(len(idx.n10)):
            found, tested = _first_flippable(idx.prefixes[x00], idx.ruler, synd,
                                             beta.numerator, beta.denominator)
            old, old_tested = table_first_flippable(flip_tables(idx, x00), synd,
                                                    beta.numerator, beta.denominator)
            assert tested == old_tested
            if old is None:
                assert found is None
            else:
                m10, m01, flip, changed, cleared = old
                c = (m10 << len(idx.n01[x00])) | m01
                assert found == (c, flip, changed, cleared)

    @pytest.mark.parametrize("side", ["z", "x"])
    def test_a_dead_center_is_not_walked(self, side):
        # Every check lit but those the center reaches.  The empty ruler
        # shows that no pair is walked: the first step would index it.
        idx = _index_for(family_code("cayley32"), side)
        prefix = idx.prefixes[0]
        reach = functools.reduce(operator.or_, prefix)
        synd = ((1 << idx.check_count) - 1) & ~reach
        assert reach and synd
        assert _first_flippable(prefix, [], synd, 1, 1) == (None, (1 << len(prefix)) - 1)
        assert _first_flippable(prefix, [], synd, 1, 1) == \
            _first_flippable(prefix, idx.ruler, synd, 1, 1)
        assert _first_flippable([], [], synd, 1, 1) == (None, 0)

    @pytest.mark.parametrize("epsilon", _EPSILONS, ids=str)
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_flippable_matches_the_one_pair_table(self, family, epsilon, data):
        code = family_code(family)
        idx = _index_for(code, "z")
        syn = draw_syndrome(data, code, "z")
        synd = syn.to_mask()
        beta = 1 - 12 * epsilon
        for _ in range(8):
            x00 = data.draw(st.integers(0, len(idx.n10) - 1), label="x00")
            sub10 = data.draw(st.sets(st.sampled_from(idx.n10[x00])), label="n10")
            sub01 = data.draw(st.sets(st.sampled_from(idx.n01[x00])), label="n01")
            mask = 0
            for q in sub10:
                mask ^= idx.v11_of_v10[q]
            for q in sub01:
                mask ^= idx.v11_of_v01[q]
            old, _ = table_first_flippable(([0, mask], [0]), synd,
                                           beta.numerator, beta.denominator)
            expected = FlipCheck(old is not None, mask.bit_count(), (mask & synd).bit_count())
            assert flippable(code, syn, x00, sub10, sub01, beta) == expected


class TestRetestRule:
    # At epsilon = 1/13 (beta < 1/2) a decode may cycle until the cap, so
    # the cap is small: a draw stays cheap and "capped" is covered too.  A
    # Z draw on incstar13 still costs up to a few tenths of a second: its
    # V00 centers have 2^16 flip pairs each, and every pop and re-test of
    # one walks its pairs up to the first flippable one, in both loops.
    # Every family, side and epsilon gets its own draws, as in
    # TestPrefixWalk, so the coverage does not hang on the draw order.
    @pytest.mark.parametrize("epsilon", _EPSILONS, ids=str)
    @pytest.mark.parametrize("side", ["z", "x"])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_matches_the_rescan_all_loop(self, family, side, epsilon, data):
        code = family_code(family)
        syn = draw_syndrome(data, code, side)
        config = DecoderConfig(epsilon=epsilon, iteration_cap=_CAP, keep_flip_sets=True)
        assert decode_side(code, syn, config, side) == rescan_all_decode(code, syn, config, side)

    @pytest.mark.parametrize("epsilon", _EPSILONS, ids=str)
    @pytest.mark.parametrize("side", ["z", "x"])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_iid_errors_match_the_rescan_all_loop(self, family, side, epsilon):
        code = family_code(family)
        config = DecoderConfig(epsilon=epsilon, iteration_cap=_CAP, keep_flip_sets=True)
        for seed in range(4):
            syn = iid_syndrome(code, side, seed)
            assert (decode_side(code, syn, config, side)
                    == rescan_all_decode(code, syn, config, side))

    @pytest.mark.parametrize("side", ["z", "x"])
    def test_iid_errors_make_stale_pops(self, side):
        # The draws above reach the paths the dead-center test shortens.
        code = family_code("cayley32")
        config = DecoderConfig(epsilon=Fraction(1, 30), iteration_cap=_CAP)
        stale = sum(decode_side(code, iid_syndrome(code, side, seed), config, side).stale_pops
                    for seed in range(16))
        assert stale > 0

    @pytest.mark.parametrize("side", ["z", "x"])
    def test_created_checks_are_followed(self, side):
        # At epsilon = 1/13 (beta = 1/13) a flip may light checks; the
        # vertices next to them are the ones the rule must still re-test.
        config = DecoderConfig(epsilon=Fraction(1, 13), iteration_cap=_CAP, keep_flip_sets=True)
        rng = random.Random(13)
        created = 0
        for family in ("star12", "toric3"):
            code = family_code(family)
            for _ in range(20):
                support = rng.sample(range(code.n), rng.randint(2, 8))
                syn = syndrome_of(code, side, support)
                result = decode_side(code, syn, config, side)
                assert result == rescan_all_decode(code, syn, config, side)
                created += sum(1 for step in result.trace if step.created > 0)
        assert created > 0
