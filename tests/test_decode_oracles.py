"""The decode loop's re-test rule against the loop it replaced.

After a flip the loop re-tests only the flipped vertex and the vertices next
to a newly lit check.  The oracle below is the earlier loop, which re-tests
every unqueued vertex next to any check the flip changed.  Both must give
equal results: outcome, correction, iterations, stale pops, preprocessing
counters and every trace step, flip sets included, on every conftest family,
both sides and epsilon in {0, 1/30, 1/13}.
"""

import functools
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
    _bit_indices,
    _first_flippable,
    _index_for,
    _preprocess,
    decode,
    decode_x,
)
from qbp.gf2 import F2Vector
from qbp.groups import cyclic_group
from qbp.instances import incidence_star_product, left_right_cayley, star_product, toric_complex

_FAMILIES = {
    "toric2": lambda: toric_complex(2),
    "toric3": lambda: toric_complex(3),
    "match8": lambda: left_right_cayley(cyclic_group(8), [1], [1]),
    "star12": lambda: star_product(12, 3, 2),
    "incstar13": lambda: incidence_star_product(13, 2),
}
_EPSILONS = [Fraction(0), Fraction(1, 30), Fraction(1, 13)]
_CAP = 32


@functools.cache
def family_code(name):
    return extract_code(_FAMILIES[name]())


def rescan_all_decode(code, syndrome, config, side):
    """The earlier loop: after each flip, every unqueued vertex next to a
    changed check is re-tested, in ascending order."""
    idx = _index_for(code, side)
    beta = config.beta
    bn, bd = beta.numerator, beta.denominator
    synd = syndrome.to_mask()
    pre = _preprocess(idx, synd, beta)
    initial_weight = synd.bit_count()
    queue = deque(pre.queue)
    queued = set(pre.queue)
    correction = 0
    off10, off01 = idx.offsets
    trace = []
    stale_pops = 0
    iterations = 0
    while synd and queue and iterations < config.iteration_cap:
        x00 = queue.popleft()
        queued.discard(x00)
        found, _ = _first_flippable(idx.flip_tables(x00), synd, bn, bd)
        if found is None:
            stale_pops += 1
            continue
        m10, m01, flip, changed, cleared = found
        n10_bits = [idx.n10[x00][i] for i in _bit_indices(m10)]
        n01_bits = [idx.n01[x00][i] for i in _bit_indices(m01)]
        for q in n10_bits:
            correction ^= 1 << (off10 + q)
        for q in n01_bits:
            correction ^= 1 << (off01 + q)
        synd ^= flip
        iterations += 1
        rescan = set()
        for z11 in _bit_indices(flip):
            rescan.update(idx.v00_of_v11[z11])
        for y00 in sorted(rescan):
            if y00 in queued:
                continue
            if _first_flippable(idx.flip_tables(y00), synd, bn, bd)[0] is not None:
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
        stale_pops=stale_pops, preprocess_vertices_scanned=pre.vertices_scanned,
        preprocess_subsets_tested=pre.subsets_tested,
    )


def decode_side(code, syndrome, config, side):
    return (decode if side == "z" else decode_x)(code, syndrome, config)


def syndrome_of(code, side, support):
    checks = code.hx if side == "z" else code.hz
    return gf2.mat_vec(checks, F2Vector.from_support(code.n, support))


class TestRetestRule:
    # At epsilon = 1/13 (beta < 1/2) a decode may cycle until the cap, so
    # the cap is small: a draw stays cheap and "capped" is covered too.  A
    # Z draw on incstar13 still costs up to a few tenths of a second: its
    # V00 centers have 2^16 flip pairs each, too many to cache.
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        side=st.sampled_from(["z", "x"]),
        epsilon=st.sampled_from(_EPSILONS),
        data=st.data(),
    )
    def test_matches_the_rescan_all_loop(self, family, side, epsilon, data):
        code = family_code(family)
        checks = code.m_x if side == "z" else code.m_z
        if data.draw(st.booleans(), label="from_error"):
            support = data.draw(st.sets(st.integers(0, code.n - 1), max_size=8), label="error")
            syn = syndrome_of(code, side, support)
        else:
            support = data.draw(st.sets(st.integers(0, checks - 1), max_size=8), label="cells")
            syn = F2Vector.from_support(checks, support)
        config = DecoderConfig(epsilon=epsilon, iteration_cap=_CAP, keep_flip_sets=True)
        assert decode_side(code, syn, config, side) == rescan_all_decode(code, syn, config, side)

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
