"""Segmented sieve layer checked against per-value arithmetic."""

import bisect
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import sympy

import phisigma.arith
import phisigma.sieves
from phisigma.arith import euler_phi, is_prime, sigma
from phisigma.errors import CapacityError, DomainError
from phisigma.preimages import multiplicity_table
from phisigma.sievelab import count_prime_pairs
from phisigma.sieves import (
    BLOCK_PER_BASE_PRIME,
    DEFAULT_SPAN_CAPACITY,
    LOOP_SPLIT,
    SEGMENT,
    VALUE_BLOCK,
    iter_phi_blocks,
    iter_sigma_blocks,
    phi_table,
    primes_upto,
    sieve_range,
    sigma_table,
)


def test_primes_upto_values():
    got = primes_upto(1000).tolist()
    assert got == list(sympy.sieve.primerange(2, 1001))


def test_primes_upto_tiny():
    assert primes_upto(1).size == 0
    assert primes_upto(2).tolist() == [2]


def test_sieve_range_matches_filter():
    rng = random.Random(11)
    for _ in range(20):
        lo = rng.randrange(0, 10 ** 7)
        hi = lo + rng.randrange(1, 5000)
        assert sieve_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_block_iterators_reject_nonpositive_blocks():
    for fn in (iter_phi_blocks, iter_sigma_blocks):
        for block in (0, -5):
            with pytest.raises(DomainError, match="block size must be positive"):
                list(fn(100, block=block))


def test_sieve_range_far_segment():
    lo = 10 ** 12
    hi = lo + 2000
    assert sieve_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_sieve_range_starts_at_or_below_one():
    assert sieve_range(-5, 10) == [2, 3, 5, 7]
    assert sieve_range(-5, -1) == []
    assert sieve_range(0, 1) == []
    assert sieve_range(-3, 2) == [2]


def test_segment_edges_against_is_prime(monkeypatch):
    # sieve_range shares the strike, so is_prime is the oracle here
    for n in range(SEGMENT - 2, SEGMENT + 3):
        got = primes_upto(n)
        want = [k for k in range(n - 1999, n + 1) if is_prime(k)]
        assert got[got > n - 2000].tolist() == want, n
    for lo in (10 ** 14, 10 ** 16 - 3001):  # an even start and an odd one
        hi = lo + 3000
        assert sieve_range(lo, hi) == [k for k in range(lo, hi + 1) if is_prime(k)], lo
    monkeypatch.setattr(phisigma.sieves, "STRIKE", 64)
    want = [k for k in range(1501) if is_prime(k)]
    for n in range(1501):
        assert primes_upto(n).tolist() == want[: bisect.bisect_right(want, n)], n


def test_small_base_table_cutover(monkeypatch):
    # base primes come from a fixed table while isqrt(n) < 1000, from the
    # sieve itself from n = 10**6 on; 997**2 is struck by the largest alone
    for n in range(10 ** 6 - 1, 10 ** 6 + 2):
        got = primes_upto(n)
        for lo in (n - 1999, 997 ** 2 - 999):
            window = got[(got >= lo) & (got < lo + 2000)].tolist()
            assert window == [k for k in range(lo, lo + 2000) if is_prime(k)], n
    # the table is a copy made on import: patching arith's changes no sieve
    want = primes_upto(10 ** 5).tolist()
    monkeypatch.setattr(phisigma.arith, "_SMALL_PRIMES", (2,))
    assert primes_upto(10 ** 5).tolist() == want


def test_primes_upto_holds_no_flag_per_point():
    # numpy reports its buffers to tracemalloc: the primes to 2e7 (9.7 MB) are
    # held twice while the segments' lists are joined, beside one segment of
    # flags; a flag per point would add 20 MB
    primes_upto(100)  # any first-call imports happen before tracing
    tracemalloc.start()
    try:
        got = primes_upto(2 * 10 ** 7)
        assert tracemalloc.get_traced_memory()[1] < 2 * got.nbytes + 2 * phisigma.sieves.STRIKE
    finally:
        tracemalloc.stop()


def test_base_primes_are_prefixes_of_one_memo(monkeypatch):
    sieves = phisigma.sieves
    want = list(sympy.primerange(2 * 10 ** 6))
    # the memo as on import (the primes below 1000), put back after the test
    monkeypatch.setattr(sieves, "_base", (999, np.array(want[:168], dtype=np.int64)))
    for n in (10 ** 12, 3, 0, 999 ** 2, 10 ** 6, 10 ** 12 + 10 ** 9, 1, 4 * 10 ** 12):
        got = sieves._base_primes(n)
        assert got.dtype == np.int64
        assert got.tolist() == want[: bisect.bisect_right(want, math.isqrt(n))], n
    # a window a little further out takes its base primes from the memo
    sieved = []
    real = sieves.primes_upto
    monkeypatch.setattr(sieves, "primes_upto", lambda n: sieved.append(n) or real(n))
    lo = (3 * 10 ** 6) ** 2  # past the bound of 2.25e6 that 4e12 left
    assert sieve_range(lo, lo + 200) == [k for k in range(lo, lo + 201) if is_prime(k)]
    assert sieve_range(lo + 10 ** 9, lo + 10 ** 9 + 5) == [
        k for k in range(lo + 10 ** 9, lo + 10 ** 9 + 6) if is_prime(k)]
    assert len(sieved) == 1 and sieved[0] >= 3 * 10 ** 6
    # a root above BASE_MEMO_ROOT is sieved for the call and not kept
    bound = sieves._base[0]
    top = sieves.BASE_MEMO_ROOT + 1
    assert sieves._base_primes(top * top)[-1] == sympy.prevprime(top + 1)
    assert sieves._base[0] == bound <= sieves.BASE_MEMO_ROOT


def _direct_flags(x):
    """flags[k] is whether k is prime, for 0 <= k <= x, struck in one go."""
    flags = np.empty(x + 1, dtype=bool)
    phisigma.sieves._strike(flags, 0, phisigma.sieves._base_primes(x))
    return flags


def _pairs(flags, k):
    return int(np.count_nonzero(flags[:-k] & flags[k:]))


def test_tiles_are_struck_once(monkeypatch):
    sieves = phisigma.sieves
    monkeypatch.setattr(sieves, "_tiles", {})
    struck = []
    real = sieves._strike
    monkeypatch.setattr(sieves, "_strike", lambda flags, start, base: (
        struck.append((start, flags.size)), real(flags, start, base)))
    x = 5 * 10 ** 6
    count_prime_pairs(6, x)
    # the five tiles, besides any short strike that sieves their base primes
    tiles = [(start, size) for start, size in struck if size == sieves.STRIKE]
    assert tiles == [(i * sieves.STRIKE, sieves.STRIKE) for i in range(5)]
    struck.clear()
    count_prime_pairs(2, x)
    primes_upto(x)
    assert struck == []  # a second scan from 0 strikes nothing
    primes_upto(10)
    assert struck == [(0, 11)]  # a short span strikes its own points, not a tile
    # a span of STRIKE - 1 points, and any request reaching BASE_MEMO_ROOT,
    # strikes directly and leaves the store as it was
    store = set(sieves._tiles)
    top = sieves.BASE_MEMO_ROOT
    for lo, hi in ((6 * sieves.STRIKE, 7 * sieves.STRIKE - 2), (top - sieves.STRIKE, top)):
        struck.clear()
        assert list(sieves._segments(lo, hi, sieves.STRIKE))
        assert struck and set(sieves._tiles) == store


def test_tile_store_holds_at_most_ten_tiles(monkeypatch):
    sieves = phisigma.sieves
    monkeypatch.setattr(sieves, "_tiles", {})
    primes_upto(sieves.BASE_MEMO_ROOT - 1)
    assert len(sieves._tiles) == 10
    assert sum(tile.nbytes for tile in sieves._tiles.values()) <= 10 * 2 ** 17


def test_writes_into_answers_change_no_later_answer():
    sieves = phisigma.sieves
    x = 3 * 10 ** 6
    flags = _direct_flags(x)
    primes = primes_upto(x)
    assert np.array_equal(primes, np.flatnonzero(flags))
    primes[:] = 0
    for _, seg in sieves._segments(0, x, sieves.STRIKE, carry=30):
        seg ^= True
    assert np.array_equal(primes_upto(x), np.flatnonzero(flags))
    assert count_prime_pairs(30, x) == _pairs(flags, 30)
    with pytest.raises(ValueError):
        sieves._tile(0)[0] = 0  # the tiles themselves are read-only


def test_pair_counts_in_threads(monkeypatch):
    # more threads than cores, switching often, all filling the same empty store
    monkeypatch.setattr(phisigma.sieves, "_tiles", {})
    x = 4 * 10 ** 6 + 17
    flags = _direct_flags(x)
    gaps = ((2, 6, 30), (4, 12, 2), (210, 2, 98), (6, 4, 2))
    got = [[] for _ in gaps]
    start = threading.Barrier(len(gaps), timeout=60)

    def run(i):
        start.wait()
        got[i].extend(count_prime_pairs(k, x) for k in gaps[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(gaps))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[_pairs(flags, k) for k in ks] for ks in gaps]


def test_sieve_range_span_capacity():
    with pytest.raises(CapacityError):
        sieve_range(0, DEFAULT_SPAN_CAPACITY + 10)


def test_phi_table_matches_pointwise():
    table = phi_table(3000)
    for n in range(1, 3001):
        assert table[n] == euler_phi(n), n
    assert table[0] == 0


def test_sigma_table_matches_pointwise():
    table = sigma_table(3000)
    for n in range(1, 3001):
        assert table[n] == sigma(n), n
    assert table[0] == 0


def test_blocks_cover_range_in_order():
    seen = []
    for start, vals in iter_phi_blocks(5000, lo=1, block=512):
        seen.extend(range(start, start + len(vals)))
        for off in (0, len(vals) - 1):
            assert vals[off] == euler_phi(start + off)
    assert seen == list(range(1, 5001))


def test_sigma_blocks_interior_values():
    rng = random.Random(12)
    for start, vals in iter_sigma_blocks(20000, lo=7000, block=4096):
        for _ in range(20):
            off = rng.randrange(len(vals))
            assert vals[off] == sigma(start + off)


def test_blocks_near_zero_start():
    # A block whose range includes 0 and 1 must not loop or mislabel them.
    for start, vals in iter_sigma_blocks(64, lo=1, block=64):
        assert start == 1
        assert vals[0] == 1
    for start, vals in iter_phi_blocks(64, lo=1, block=64):
        assert vals[0] == 1


def _windows_around_prime_powers():
    # starts at 0 and 1, and starts just below, at and just above a prime
    # power, so its strides begin on, just after or just before entry 0
    windows = [(0, 200), (1, 200)]
    for q in (2 ** 10, 3 ** 6, 7 ** 4, 31 ** 2):
        windows += [(q - 3, q + 120), (q, q + 120), (q + 1, q + 120)]
    return windows


def _block_values(blocks):
    starts, vals = [], []
    for start, block in blocks:
        starts.append(start)
        vals.extend(block.tolist())
    return starts, vals


@pytest.mark.parametrize("block", [1, 7, 64, 4096])
def test_value_blocks_match_pointwise(block):
    for lo, hi in _windows_around_prime_powers():
        for it, ref in ((iter_phi_blocks, euler_phi), (iter_sigma_blocks, sigma)):
            starts, vals = _block_values(it(hi, lo=lo, block=block))
            assert starts == list(range(lo, hi + 1, block))
            assert vals == [ref(x) if x else 0 for x in range(lo, hi + 1)], (it, lo, block)


@pytest.mark.parametrize("block", [1, 7, 64, 4096])
def test_value_blocks_above_1e9(block):
    # 2**30 and 3**19 lie in the windows; 31657**2 = 1002165649 does too
    width = 40 if block < 64 else 3000
    for centre in (2 ** 30, 3 ** 19, 31657 ** 2):
        lo, hi = centre - width // 2, centre + width // 2
        for it, ref in ((iter_phi_blocks, euler_phi), (iter_sigma_blocks, sigma)):
            _, vals = _block_values(it(hi, lo=lo, block=block))
            assert vals == [ref(x) for x in range(lo, hi + 1)], (it, centre, block)


def test_default_value_block_sizes():
    assert [len(v) for _, v in iter_sigma_blocks(3 * VALUE_BLOCK)] == [
        VALUE_BLOCK, VALUE_BLOCK, VALUE_BLOCK]
    # far from 0 a block spans at least BLOCK_PER_BASE_PRIME entries per
    # base prime: near 10**12 that is more than this whole window
    lo, width = 10 ** 12, 3 * VALUE_BLOCK
    assert BLOCK_PER_BASE_PRIME * primes_upto(10 ** 6).size > width
    (start, vals), = iter_phi_blocks(lo + width - 1, lo=lo)
    assert start == lo and vals.size == width


def _table_by_block_bincounts(kind, m_bound):
    """The per-block bincount formulation: one full-length bincount per block."""
    counts = np.zeros(m_bound + 1, dtype=np.int64)
    if kind == "phi":
        blocks = iter_phi_blocks(2 * m_bound * m_bound, block=4096)
    else:
        blocks = iter_sigma_blocks(m_bound, block=4096)
    for _, vals in blocks:
        hits = vals[(vals >= 1) & (vals <= m_bound)]
        counts += np.bincount(hits, minlength=m_bound + 1)
    return counts


def test_multiplicity_table_matches_block_bincounts():
    for kind, bounds in (("phi", (1, 2, 37, 300, 1000)), ("sigma", (1, 2, 1000, 300000))):
        for m_bound in bounds:
            got = multiplicity_table(kind, m_bound)
            want = _table_by_block_bincounts(kind, m_bound)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (kind, m_bound)


def _trial_division_primes(lo, hi):
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


def test_sieve_range_around_loop_vector_split():
    # base primes up to the window length run the loop, longer ones the vector step;
    # 17 and 19 sit exactly at width / LOOP_SPLIT, 17, 97 and 997 at width / 2
    for lo in (0, 1, 2, 97, 10 ** 6 - 7, 999_983, 10 ** 7 + 1):
        for width in (1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 30, 31, 32, 400,
                      17 * LOOP_SPLIT, 19 * LOOP_SPLIT, 34, 194, 1994):
            hi = lo + width - 1
            assert sieve_range(lo, hi) == _trial_division_primes(lo, hi), (lo, width)


def test_sieve_range_width_one_windows():
    points = [0, 1, 2, 3, 4, 9, 25, 49, 121, 997 ** 2, 999_983, 999_983 ** 2,
              1_000_003 ** 2, 10 ** 12 + 39, 10 ** 12 + 40]
    for n in points:
        assert sieve_range(n, n) == _trial_division_primes(n, n), n


def test_sieve_range_spans_two_segments(monkeypatch):
    hi = SEGMENT + 5000
    assert sieve_range(3, hi) == primes_upto(hi)[1:].tolist()
    monkeypatch.setattr(phisigma.sieves, "SEGMENT", 64)
    for lo in (0, 1, 60, 4093, 10 ** 6):
        for width in (65, 128, 129, 300):
            hi = lo + width - 1
            assert sieve_range(lo, hi) == _trial_division_primes(lo, hi), (lo, width)
    # base primes above 64 lie in later segments, which they must not strike
    assert sieve_range(0, 5000) == _trial_division_primes(0, 5000)


def test_sigma_blocks_past_six_times_the_value():
    # sigma(n)/n = 6.0174 for n = 2^7 3^3 5^2 7^2 11 13 17 19 23 29, below
    # MAX_SIEVE_POINT: int64 still holds it (Robin's bound gives < 6.7n here)
    n = 130429015516800
    assert sigma(n) > 6 * n
    (start, values), = iter_sigma_blocks(n + 5, lo=n - 5)
    assert start == n - 5
    assert values.tolist() == [sigma(x) for x in range(n - 5, n + 6)]


# The kernel's work arrays are int32 while 7 * stop < 2**31, that is for a
# stop up to 306,783,378 (last entry 306,783,377), and int64 from there on.
INT32_LAST = 306_783_377


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_value_blocks_across_the_int32_switch(block):
    assert 7 * (INT32_LAST + 1) < 2 ** 31 <= 7 * (INT32_LAST + 2)
    width = 40 if block < 64 else 3000
    n = 245_044_800  # 2^6 3^2 5^2 7 11 13 17: sigma(n)/n is about 5.05
    assert 5 * n < sigma(n) < 2 ** 31
    for lo, hi in ((INT32_LAST - width, INT32_LAST), (INT32_LAST + 1 - width, INT32_LAST + 1),
                   (n - width // 2, n + width // 2)):
        for it, ref in ((iter_phi_blocks, euler_phi), (iter_sigma_blocks, sigma)):
            blocks = list(it(hi, lo=lo, block=block))
            assert all(vals.dtype == np.int64 for _, vals in blocks)
            _, vals = _block_values(blocks)
            assert vals == [ref(x) for x in range(lo, hi + 1)], (it, lo, block)
