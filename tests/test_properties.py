"""Property tests for the identities the other suites check on fixed samples.

derandomize=True draws the same examples on every run, in CI and locally,
and database=None keeps no example store between runs.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phisigma import sieves
from phisigma.arith import PrimeFactorization, euler_phi, factorize, is_prime, sigma
from phisigma.preimages import (multiplicity, multiplicity_table, phi_preimages,
                                sigma_preimages)
from phisigma.sievelab import _exact_sum
from phisigma.sieves import (BASE_MEMO_ROOT, LOOP_SPLIT, STRIKE, _PERIOD, _base_primes, _block,
                             _primes, _segments, _strike)

SETTINGS = settings(derandomize=True, deadline=None, database=None)

KINDS = st.sampled_from(("phi", "sigma"))
# random targets are mostly odd or sparse and have few preimages; smooth ones
# have many
SMOOTH = st.lists(st.sampled_from((2, 2, 2, 3, 3, 5, 7, 11, 13)),
                  max_size=14).map(math.prod)
TARGETS = st.one_of(st.integers(1, 10 ** 6), SMOOTH)
PREIMAGES = {"phi": (phi_preimages, euler_phi), "sigma": (sigma_preimages, sigma)}


@SETTINGS
@given(TARGETS, KINDS)
def test_count_equals_enumeration(m, kind):
    enumerate_, _ = PREIMAGES[kind]
    assert multiplicity(m, kind) == len(enumerate_(m).solutions)


@SETTINGS
@given(TARGETS, KINDS)
def test_every_preimage_maps_back(m, kind):
    enumerate_, apply = PREIMAGES[kind]
    assert all(apply(x) == m for x in enumerate_(m).solutions)


# A target given by its factorization is not factored again: smooth ones,
# odd ones (no phi-preimage), and configuration-shaped 2**r times 2r
# distinct primes above 2**r + 1, as a configuration's certifier passes it.
def _config_shaped(r, primes):
    f = factorize(1 << r)
    return PrimeFactorization(f.value * math.prod(primes),
                              f.factors + tuple((p, 1) for p in sorted(primes)))


FACTORED = st.one_of(
    TARGETS.map(factorize),
    st.integers(1, 3).flatmap(lambda r: st.lists(
        st.integers((1 << r) + 2, 3000).filter(is_prime), min_size=2 * r, max_size=2 * r,
        unique=True).map(lambda primes: _config_shaped(r, primes))),
)


@settings(SETTINGS, max_examples=60)
@given(FACTORED, KINDS)
def test_a_factored_target_has_the_preimages_of_its_value(f, kind):
    enumerate_, _ = PREIMAGES[kind]
    assert enumerate_(f) == enumerate_(f.value)


@SETTINGS
@given(st.integers(1, 20000).flatmap(
    lambda bound: st.tuples(st.just(bound), st.lists(st.integers(1, bound), min_size=1,
                                                     max_size=8))), KINDS)
def test_table_entry_equals_the_per_target_count(bound_and_ms, kind):
    bound, ms = bound_and_ms
    counts = multiplicity_table(kind, bound)
    assert [int(counts[m]) for m in ms] == [multiplicity(m, kind) for m in ms]


@SETTINGS
@given(st.one_of(st.integers(1, 10 ** 18),
                 st.lists(st.integers(2, 10 ** 6), max_size=6).map(math.prod)))
def test_factorize_multiplies_back(n):
    factors = factorize(n).factors
    assert math.prod(p ** e for p, e in factors) == n
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) and e >= 1 for p, e in factors)


# floats >= 1 over many binades, powers of two and their neighbours, and
# pairs whose sum is a tie halfway between two floats (2**(k+53) + 2**k
# rounds down to even, 2**(k+53) + 2**(k+1) + 2**k up)
BINADES = st.integers(0, 960)
TERMS = st.one_of(
    st.builds(math.ldexp, st.floats(1, 2, exclude_max=True), BINADES).map(lambda v: [v]),
    BINADES.map(lambda k: [2.0 ** k, math.nextafter(2.0 ** k, math.inf),
                           max(1.0, math.nextafter(2.0 ** k, 0))]),
    BINADES.map(lambda k: [2.0 ** (k + 53), 2.0 ** k]),
    BINADES.map(lambda k: [2.0 ** (k + 53) + 2.0 ** (k + 1), 2.0 ** k]),
)


@SETTINGS
@given(st.lists(TERMS, max_size=60).map(lambda runs: [v for run in runs for v in run])
       .flatmap(lambda vals: st.tuples(st.permutations(vals),
                                       st.lists(st.integers(0, len(vals)), max_size=6))))
@example(([2.0 ** 53, 1.0], [1]))
@example(([1.0, 2.0 ** 53 + 2.0], [1, 1]))
@example(([sys.float_info.max, 2.0 ** 969], [1]))  # rounds down to the largest float
def test_exact_sum_is_fsum_bit_for_bit(vals_and_cuts):
    vals, cuts = vals_and_cuts
    blocks = np.split(np.array(vals, dtype=np.float64), sorted(cuts))
    assert _exact_sum(blocks).hex() == math.fsum(vals).hex()


@pytest.mark.parametrize("vals", [
    [1.0, math.inf, 2.0],  # an infinite term
    [sys.float_info.max, sys.float_info.max],  # finite terms past the float range
    [sys.float_info.max, 2.0 ** 970],  # a tie that rounds up past it
])
def test_exact_sum_overflows_where_fsum_does(vals):
    with pytest.raises(OverflowError):
        _exact_sum([np.array(vals[:1]), np.array(vals[1:])])
    if math.inf not in vals:
        with pytest.raises(OverflowError):
            math.fsum(vals)


# The strike's wheel: a segment starts with the wheel pattern at its phase,
# tiled by doubling, so segments that start near a multiple of the period,
# straddle one, or span more than two periods are drawn often.
STRIKE_STARTS = st.one_of(
    st.integers(0, 10 ** 12),
    st.builds(lambda k, d: max(0, k * _PERIOD + d), st.integers(0, 10 ** 6), st.integers(-300, 300)),
)
STRIKE_SIZES = st.one_of(st.integers(1, 600), st.integers(_PERIOD - 64, 2 * _PERIOD + 64))


def _strike_flags(start, size):
    flags = np.empty(size, dtype=bool)
    _strike(flags, start, _base_primes(start + size - 1))
    return flags.tolist()


@settings(SETTINGS, max_examples=60)
@given(STRIKE_STARTS, STRIKE_SIZES)
def test_strike_against_is_prime(start, size):
    assert _strike_flags(start, size) == [is_prime(k) for k in range(start, start + size)]


@pytest.mark.parametrize("start", range(14))  # 0, 1 and the wheel primes
def test_strike_from_below_the_wheel_primes(start):
    for size in [*range(1, 40), _PERIOD + 20]:
        assert _strike_flags(start, size) == [is_prime(k) for k in range(start, start + size)], size


# The strike's three tiers (the loop, the runs of primes up to size / 2, the
# one-hit primes) against a strike that strides every multiple of every base
# prime in a loop.  Both strike with the base primes up to 2**17 only, so
# the loop stays short far from 0: past 2**34 the flags then mark the points
# with no prime factor up to 2**17, not the primes.  Every segment size
# drawn has base primes in the runs and the one-hit tiers, and from
# 17 * LOOP_SPLIT points on in the loop as well.  Segments start anywhere
# in [0, 10**16], below 2**17 (so that they hold base primes themselves),
# and just either side of p*p for the primes at each tier edge.  The
# one-hit tier also steps in chunks of 1000 and 4093 primes, so that a chunk
# boundary falls inside its 8,700 to 12,200 primes here, and p*p is drawn
# near for the primes either side of the first boundary too.
TIER_BASE = _primes(0, 1 << 17, STRIKE)


def _loop_strike(start, size):
    flags = np.ones(size, dtype=bool)
    flags[: max(2 - start, 0)] = False  # 0 and 1
    for p in TIER_BASE.tolist():
        flags[max(p * p, -(-start // p) * p) - start :: p] = False
    return flags.tolist()


@st.composite
def _tier_segments(draw):
    size = draw(st.integers(1 << 10, 1 << 16))
    chunk = draw(st.sampled_from((sieves.WIDE_CHUNK, 1000, 4093)))
    edges = []
    for edge in (size // LOOP_SPLIT, size // 2):
        i = int(TIER_BASE.searchsorted(edge, "right"))
        edges += TIER_BASE[i - 1 : i + 1].tolist()  # the last prime at or below it, the next
    i += chunk  # the first chunk boundary of the one-hit tier, if it has one
    edges += TIER_BASE[i - 1 : i + 1].tolist()
    near_square = st.builds(lambda p, d: max(p * p + d, 0),
                            st.sampled_from(edges), st.integers(-size, size))
    start = draw(st.one_of(st.integers(0, 10 ** 16), st.integers(0, 1 << 17), near_square))
    return start, size, chunk


@settings(SETTINGS, max_examples=150)
@given(_tier_segments())
@example((8807 ** 2 - 10, 1 << 10, 1000))  # the last primes of the first chunk
@example((77417 ** 2 - 100, 1 << 16, 4093))
def test_strike_tiers_against_a_loop_strike(segment):
    start, size, chunk = segment
    flags = np.empty(size, dtype=bool)
    with mock.patch.object(sieves, "WIDE_CHUNK", chunk):
        _strike(flags, start, TIER_BASE)
    assert flags.tolist() == _loop_strike(start, size)


# The stream's segments, from near 0 and near 10**12, with a carry shorter
# and longer than a segment.
@SETTINGS
@given(st.one_of(st.integers(0, 40), st.integers(10 ** 12 - 40, 10 ** 12 + 40)),
       st.integers(1, 300), st.integers(1, 70), st.integers(0, 150))
def test_segments_against_is_prime(lo, width, size, carry):
    hi = lo + width - 1
    ref = [is_prime(k) for k in range(lo, hi + 1)]
    points, primes = [], []
    for start, flags in _segments(lo, hi, size, carry):
        n = flags.size - carry
        assert 1 <= n <= size
        assert flags[:carry].tolist() == [k >= lo and ref[k - lo] for k in range(start - carry, start)]
        assert flags[carry:].tolist() == ref[start - lo : start - lo + n]
        points.extend(range(start, start + n))
        primes.extend(k for k in range(start, start + n) if flags[carry + k - start])
    assert points == list(range(lo, hi + 1))
    got = _primes(lo, hi, size)
    assert got.dtype == np.int64 and got.tolist() == primes


# The tile store against a direct strike: a request below BASE_MEMO_ROOT
# that spans at least STRIKE points reads the tiles, any other strikes.  Each
# expected segment strikes its points from max(lo, start - carry) in one go.
def _struck_segments(lo, hi, size, carry):
    base = _base_primes(hi)
    for start in range(lo, hi + 1, size):
        flags = np.zeros(carry + min(size, hi + 1 - start), dtype=bool)
        first = max(lo, start - carry)
        _strike(flags[first - start + carry :], first, base)
        yield start, flags


T = STRIKE
TOP = BASE_MEMO_ROOT


@pytest.mark.parametrize("lo, hi, size, carry", [
    # lo and hi one point either side of a tile edge
    (T - 1, 3 * T + 1, T, 0), (T + 1, 3 * T - 1, T, 0), (0, 2 * T - 1, T, 0),
    (1, 2 * T + 1, 2 * T, 0), (2 * T - 1, 4 * T - 1, T - 1, 0),
    # carries that cross a tile edge, from 0 and from inside a tile
    (0, 3 * T, T, 70), (5, 4 * T, T, 200), (T + 3, 3 * T, T // 2 + 1, 9),
    (0, 2 * T + 7, T, T + 5), (3 * T - 2, 5 * T, T // 4 + 3, T + 1),
    # spans of STRIKE - 1 (struck), STRIKE and STRIKE + 1 (tiles)
    (3 * T - 5, 4 * T - 7, T, 13), (3 * T - 5, 4 * T - 6, T, 13), (3 * T - 5, 4 * T - 5, T, 13),
    # hi at BASE_MEMO_ROOT - 1 (tiles) and at BASE_MEMO_ROOT (struck)
    (TOP - T - 11, TOP - 1, T, 40), (TOP - T - 11, TOP, T, 40), (TOP - 2 * T - 1, TOP - 1, 2 * T, 0),
])
def test_tiled_segments_against_a_direct_strike(lo, hi, size, carry):
    for (start, flags), (want_start, want) in zip(_segments(lo, hi, size, carry),
                                                    _struck_segments(lo, hi, size, carry),
                                                    strict=True):
        assert start == want_start and flags.dtype == bool
        assert np.array_equal(flags, want), start


@settings(SETTINGS, max_examples=25)
@given(st.integers(0, TOP - T), st.integers(T - 1, 3 * T), st.sampled_from((T, 2 * T, T // 3 + 1)),
       st.integers(0, 3000))
def test_random_tiled_segments_against_a_direct_strike(lo, width, size, carry):
    hi = min(lo + width - 1, TOP - 1)
    for (start, flags), (_, want) in zip(_segments(lo, hi, size, carry),
                                         _struck_segments(lo, hi, size, carry), strict=True):
        assert np.array_equal(flags, want), start


# value windows: from 0, with 7 * stop on both sides of 2**31 (int32 work
# arrays up to a stop of 306,783,378, int64 above), and anywhere below 10**9
INT32_STOP = 306_783_378
BLOCK_WINDOWS = st.one_of(
    st.tuples(st.just(0), st.integers(1, 3000)),
    st.builds(lambda stop, width: (stop - width, stop),
              st.integers(INT32_STOP - 40, INT32_STOP + 40), st.integers(1, 400)),
    st.builds(lambda start, width: (start, start + width),
              st.integers(0, 10 ** 9), st.integers(1, 500)),
)


@SETTINGS
@given(BLOCK_WINDOWS, KINDS)
@example((10 ** 16 - 40, 10 ** 16 + 1), "phi")  # base primes up to 10**8
@example((10 ** 16 - 40, 10 ** 16 + 1), "sigma")
def test_value_block_against_pointwise(window, kind):
    start, stop = window
    ref = euler_phi if kind == "phi" else sigma
    got = _block(kind, start, stop, _base_primes(stop - 1))
    assert got.dtype == np.int64
    assert got.tolist() == [ref(x) if x else 0 for x in range(start, stop)]
