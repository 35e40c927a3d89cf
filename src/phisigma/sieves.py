"""Batch tables of primes, phi and sigma.

All heavy scans run on numpy arrays in segments, in the style of Bays and
Hudson (BIT 17, 1977), so memory stays bounded regardless of the requested
range.  Two segment sizes serve two kinds of scan:

- One strike serves every prime flag, from 0 (primes_upto, and the pair
  and shifted counts of sievelab) or far from it (sieve_range), through
  one stream, _segments; _primes reads every prime list from it, so no
  list holds a flag per point.  A segment starts as a copy of the wheel of
  2, 3, 5, 7, 11 and 13: one period of 30030 flags, the points prime to
  all six (30 KB, kept as two periods so that any phase is one slice),
  tiled by doubling copies; a wheel with 17 (period 510510) measured the
  same.  Then the base primes p above 13 clear their odd multiples in
  three tiers, by how many of them a segment of n points holds.  Each p up
  to n / LOOP_SPLIT (at least 64 odd multiples) strides by 2p in a Python
  loop.  The primes up to n / 2 lay their strides end to end in one array
  of indices (_runs, built with np.repeat), which one fancy assignment
  strikes.  A prime with 2p longer than the segment hits it at most once,
  so those share one vector step.  Best-of-9 strike times in ms on a
  2-core Xeon, with the loop running up to n / 2 (no middle tier) / n / 16
  / n / 64 / n / 128 / n / 512: 10**5 points at 10**12 took 4.39 / 1.55 /
  1.20 / 1.14 / 1.14, 10**6 points there 28.2 / 6.81 / 4.97 / 4.72 /
  4.63, 4 * 10**6 points at 10**14 118 / 38.4 / 30.5 / 31.9 / 33.7 and at
  10**16 202 / 111 / 103 / 98.7 / 99.3; sending the one-hit primes through
  the index array too took 38.7 and 125 ms at those last two.  The array
  costs about 20 us before its first index, the loop about 0.6 us per
  prime with few multiples (64 such primes took 24-44 us either way at
  2**12 to 2**20 points, best of 300), so fewer than RUN_FLOOR = 64 of
  them stay in the loop (without that floor primes_upto(2000) took 53 us,
  not 26).  So a sieve of one segment from 0 keeps to the loop (its base
  primes end at its root, and fewer than 64 of them exceed n / 128), and
  so does every STRIKE segment of a scan that ends below 8192**2 = 6.7e7.
  The base primes of every sieve are a prefix of one memoised list (see
  _base_primes).
  Scans from 0 strike boolean segments of STRIKE = 2**20 entries, which fit
  in L2.  Best-of times on a 2-core Xeon with 2 MB of L2 per core, at
  segments of 2**20 / 2**21 / 2**22 entries: the strike from 0 to 2e7 took
  39 / 42 / 65 ms, to 1e8 305 / 340 / 398 ms and to 2e8 759 / 725 /
  858 ms; the pairs to 4.97e6 took 9.2 / 12.0 / 14.8 ms (12.2 ms at 2**19).
  Far from 0 every segment still reads every base prime once (the one-hit
  tier alone holds 5.6 million of them near 10**16), so sieve_range keeps
  long segments, SEGMENT = 2**22 entries; SEGMENT is also the value
  blocks' ceiling (below), so it is not tuned for the strike alone.  The
  one-hit primes take their vector step WIDE_CHUNK = 2**17 at a time, so
  the int64 temporaries of their offsets stay at 1 MB each (44 MB each
  near 10**16 in one step), and a window near 10**12 (78,498 base primes)
  still takes one step.  On a 2-core Xeon, best-of-7 strikes of 4 * 10**6
  points with chunks of 2**15 / 2**17 / 2**19 / all took 34.1 / 33.5 /
  39.1 / 39.2 ms at 10**14 and 83.7 / 93.5 / 103 / 119 ms at 10**16;
  sieve_range over those points peaked at 44.9 MB RSS in a fresh process
  at 10**14 (49.7 in one step) and at 117 MB at 10**16 (205).
  Below BASE_MEMO_ROOT = 10**7 a stream reads its flags from a store of
  tiles instead of striking them: tile i holds the flags of [i * STRIKE,
  (i + 1) * STRIKE), packed eight to a byte (128 KB), struck the first time
  a request needs it and kept for the life of the process, so the store
  never exceeds 10 tiles, 1.3 MB.  Only a request that spans at least
  STRIKE points reads it; a shorter one (primes_upto(10)) strikes its own
  points, and so does any request that reaches 10**7.  On a 2-core Xeon a
  tile unpacks in 50-80 us against 0.9 ms to strike it, so a pair count to
  4.97e6 that finds its five tiles struck takes 0.85-0.89 ms, not 4.5-4.9.
- The phi and sigma value blocks come from one kernel with three work
  arrays (the values, the smooth part of each point, and for sigma the value
  of the current prime's part).  It touches each entry once per prime power
  dividing it, so it runs in cache-sized blocks of VALUE_BLOCK = 2**17
  entries (512 KB per int32 array).  The kernel takes p = 2 in one dense
  step, from the lowest set bit of each point, x & -x = 2**j.  The odd base
  primes up to n / _RUN_SPLIT (n the block's length, so up to 128 in a
  2**17 block) stride through the block in a Python loop, one strided
  multiply per power (below).  Every longer prime hits the block at most
  _RUN_SPLIT = 1024 times, too few to pay for a loop step of its own:
  those take one vector step (_value_runs).  Their multiples are laid end
  to end in one array of indices, as the strike's middle tier lays its own
  (_runs).  One np.multiply.at per work array then applies p**e and
  v(p**e), e the exponent of p in the point; the hits that p**2 divides are
  every p-th of a run, so their factors are patched before that, a level
  per power.  Best of 7 on a 2-core Xeon with 2 MB of L2 per core: phi and
  sigma to 4.99e6 took 58 and 73 ms (89 and 115 ms with every base prime in
  the loop).  Splitting at n / 256, n / 512, n / 2048 and n / 4096 took
  63 / 60 / 59 / 61 ms for phi and 83 / 74 / 71 / 71 ms for sigma.  Blocks
  of 2**16, 2**18 and 2**19 took 64, 58 and 68 ms for phi and 77, 84 and
  98 ms for sigma.  Far from 0 nearly every base prime goes through the
  runs (78,498 of them near 10**12), whose per-prime steps cost each block
  its share, so a block is never shorter than BLOCK_PER_BASE_PRIME = 8
  entries per base prime, up to SEGMENT entries.  Best of 5 on 4 * 10**6
  points at 10**12, with 4 / 8 / 16 / 64 entries per base prime (13 / 7 /
  4 / 1 blocks): phi took 168 / 148 / 145 / 164 ms and sigma 192 / 189 /
  204 / 212 ms.  At 10**14 and 10**16 each of these floors gives one
  block: phi took 192 and 576 ms there, sigma 251 and 642 ms.  With every
  base prime in the loop, phi took 400, 2,081 and 5,805 ms at the three
  points and sigma 541, 2,551 and 6,374 ms (best of 2).
  The kernel also takes every other point, with step 2 (ratio_power_sum
  reads phi at the odd points only): the points are np.arange(lo, stop,
  2), and an odd prime power q with r = -lo mod q has its first multiple
  at index (r + q * (r & 1)) >> 1, the i < q with 2i = r (mod q); the run
  tier's deep levels take the same index from r = -k mod p**(j-1), k * p
  the run's first hit.  Multiples of q of one parity lie 2q apart, q
  entries, so the loop and the runs stride as with step 1.  r + q stays
  below 2q, whereas r * (q + 1) / 2, the same index mod q, would pass
  int64 for deep powers near 4e16.  On odd points the dense p = 2 step
  gives sm = val = 1.  A block still holds VALUE_BLOCK entries, so it
  spans twice as many integers: on the odd points to 4.97e6, phi took 46 /
  40 / 44 ms in blocks of 2**16 / 2**17 / 2**18 entries (best of 5).  Best
  of 15 in one run on a 2-core Xeon, whose step-1 times there exceed the
  figures above: phi on the odd points to 4.99e6 took 38 ms against 74 ms
  on every point, sigma 54 against 105 ms.

Both maps are multiplicative and differ only on prime powers, where each
takes one Horner step, v(p) = p + a and v(p**(j+1)) = v(p**j) * p + c, with
(a, c) = (-1, 0) for phi and (1, 1) for sigma (arith._PRIME_POWER_RULE).
The loop's per-prime work runs on strided views (x[off::p]) only, and only
multiplies: a strided int32 multiply costs about 0.6 ns per entry, a
strided division 2.6 ns (numpy's fast division by a scalar needs a dense
array).  So the kernel multiplies up the smooth part, the product of the
base-prime powers dividing x, and divides x by it once, densely, at the
end; for phi, v(p) = p - 1 and the step c = 0 go straight into the values.
An int32 block divides in float64, exact there (x < 2**31, and the
quotient is whole): on a 2**17 block that and the cast back took 0.18 ms,
numpy's integer division 0.25 ms.  What is left of x is its one prime
factor q above sqrt(x), or 1, so one dense step adds a where it exceeds 1
and multiplies it in: a boolean gather and scatter through a mask would
take 35-45% of a block.  x = 0 never enters the work arrays (x & -x would
be 0 there, and x / sm 0 / 0); its value is 0.

No intermediate exceeds max(sigma(x), x + 1): the smooth part divides x.
Points stay below MAX_SIEVE_POINT = 4e16, where Robin's unconditional bound
sigma(n)/n < e**gamma * ln ln n + 0.6483 / ln ln n for n >= 3 (J. Math.
Pures Appl. 63, 1984) gives sigma(x) < 6.7x.  So the work arrays are int64
in general and int32 for a block whose stop (one past its last entry) has
7 * stop < 2**31, which halves their memory traffic; the blocks handed out
are always int64.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .arith import _PRIME_POWER_RULE, _SMALL_PRIMES, exact_int
from .errors import DomainError, shown

SEGMENT = 1 << 22  # sieve_range segment; also the value-block ceiling
STRIKE = 1 << 20  # prime-flag segment for scans from 0, sized for L2 (see above)
LOOP_SPLIT = 128  # base primes up to segment / LOOP_SPLIT stride one by one (see above)
RUN_FLOOR = 64  # fewest base primes that strike through one index array (see above)
WIDE_CHUNK = 1 << 17  # one-hit base primes per vector step (see above)
VALUE_BLOCK = 1 << 17  # value block, sized for L2
BLOCK_PER_BASE_PRIME = 8  # value block floor, per base prime
_RUN_SPLIT = 1024  # value-block base primes above block / _RUN_SPLIT go through runs
DEFAULT_SPAN_CAPACITY = 2 * 10 ** 8
MAX_SIEVE_POINT = DEFAULT_SPAN_CAPACITY ** 2  # keeps base-prime sieves below the span cap


_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_PERIOD = math.prod(_WHEEL_PRIMES)
_WHEEL = np.ones(2 * _PERIOD, dtype=bool)  # two periods (see above)
for _p in _WHEEL_PRIMES:
    _WHEEL[::_p] = False
del _p
# the primes below 14 are the wheel primes, and the wheel is right from 14 on
_HEAD = np.zeros(14, dtype=bool)
_HEAD[list(_WHEEL_PRIMES)] = True


def _strike(flags: np.ndarray, start: int, base: np.ndarray) -> None:
    """Set flags[i] to whether start + i is prime, for the points [start,
    start + flags.size) (start >= 0), given base, the primes up to the root
    of the last (more are harmless; those up to 13 are not read).

    The segment starts as the wheel pattern at the phase of start; below 14
    its head (0, 1 and the wheel primes) is copied from _HEAD.  The base
    primes above the wheel then clear their odd multiples from p*p on."""
    n = flags.size
    phase = start % _PERIOD
    filled = min(n, _PERIOD)
    flags[:filled] = _WHEEL[phase : phase + filled]
    while filled < n:  # whole periods, doubling
        step = min(filled, n - filled)
        flags[filled : filled + step] = flags[:step]
        filled += step
    if start < _HEAD.size:
        flags[: _HEAD.size - start] = _HEAD[start : start + n]
    # the array method: np.searchsorted costs three times as much per call
    lo = int(base.searchsorted(_WHEEL_PRIMES[-1], "right"))
    mid = max(lo, int(base.searchsorted(n // LOOP_SPLIT, "right")))
    split = max(mid, int(base.searchsorted(n // 2, "right")))
    if split - mid < RUN_FLOOR:
        mid = split
    # each p from its first odd multiple >= max(p*p, start)
    for p in base[lo:mid].tolist():
        flags[max(p * p, (-(-start // p) | 1) * p) - start :: 2 * p] = False
    if mid < split:
        _strike_runs(flags, start, base[mid:split])
    # an odd prime with 2p longer than the segment hits it at most once;
    # WIDE_CHUNK of them at a time bound the offsets' temporaries
    for i in range(split, base.size, WIDE_CHUNK):
        first = _first_offsets(base[i : i + WIDE_CHUNK], start)
        flags[first[first < n]] = False


def _first_offsets(primes: np.ndarray, start: int) -> np.ndarray:
    """The offset from start of each prime's first odd multiple >= max(p*p,
    start)."""
    return np.maximum(primes * primes, (-(-start // primes) | 1) * primes) - start


def _strike_runs(flags: np.ndarray, start: int, primes: np.ndarray) -> None:
    """Clear the odd multiples of primes in the segment, as _strike's loop
    would, in one vector step through one array of indices (_runs)."""
    n = flags.size
    first = _first_offsets(primes, start)
    hits = first < n
    first, step = first[hits], 2 * primes[hits]
    flags[_runs(first, step, (n - 1 - first) // step + 1)] = False


def _runs(first: np.ndarray, step: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The runs first[i] + step[i] * t (0 <= t < count[i]) laid end to end in
    one int32 array: np.repeat lays each run's first, step and start in the
    array alongside its entries, and the entry at place j of the array is
    first + step * (j - start).  int32 holds every term, as each entry
    first + step * t, and so step * t, stays below the callers' segment or
    block size (at most DEFAULT_SPAN_CAPACITY < 2**31)."""
    idx = np.arange(int(count.sum()), dtype=np.int32)
    idx -= np.repeat((np.cumsum(count) - count).astype(np.int32), count)
    idx *= np.repeat(step.astype(np.int32), count)
    idx += np.repeat(first.astype(np.int32), count)
    return idx


# Every base list is a prefix of one list of the primes up to a bound, seeded
# with arith's table (the primes below 1000) and sieved afresh, 1/8 past the
# root asked for so that nearby roots hit too, when a larger root comes.  It
# is kept while the bound is at most BASE_MEMO_ROOT = 10**7 (points up to
# 10**14): 664,579 primes, 5.3 MB; the primes up to 2e8, the largest root
# MAX_SIEVE_POINT needs, would be 88 MB.  Two threads may both sieve; either
# result serves, since both hold the same primes.
BASE_MEMO_ROOT = 10 ** 7
# copied once, so a later patch of arith._SMALL_PRIMES changes no sieve
_base = (999, np.array(_SMALL_PRIMES, dtype=np.int64))


def _base_primes(n: int) -> np.ndarray:
    """The primes up to isqrt(n) as an int64 array."""
    global _base
    root = math.isqrt(n)
    bound, primes = _base
    if root > bound:
        bound = max(root, min(root + root // 8, BASE_MEMO_ROOT))
        primes = primes_upto(bound)
        if bound <= BASE_MEMO_ROOT:
            _base = bound, primes
    return primes[: int(primes.searchsorted(root, "right"))]


# The tile store (see the module docstring), keyed by (STRIKE, i) so that a
# patched STRIKE keeps tiles of its own.  A tile's base primes, at most
# isqrt(10 * STRIKE) = 3238 and sieved 1/8 past that, span fewer than STRIKE
# points, so their sieve strikes directly and filling a tile never reads the
# store.  Tiles are read-only; two threads may both strike a tile, and either
# result serves.
_tiles: dict[tuple[int, int], np.ndarray] = {}


def _tile(i: int) -> np.ndarray:
    """Tile i of the store, struck if it is not there yet."""
    tile = _tiles.get((STRIKE, i))
    if tile is None:
        start = i * STRIKE
        flags = np.empty(STRIKE, dtype=bool)
        _strike(flags, start, _base_primes(start + STRIKE - 1))
        tile = np.packbits(flags)
        tile.flags.writeable = False
        _tiles[STRIKE, i] = tile
    return tile


def _tile_flags(a: int, b: int) -> np.ndarray:
    """A new bool array of whether x is prime, for the points [a, b) (a < b,
    b at most the end of the tile that holds BASE_MEMO_ROOT - 1), unpacked
    from the tiles; points below 0 read False."""
    first, stop = a // 8, -(-b // 8)  # bytes of the packed flags, from point 0
    width = STRIKE // 8  # bytes per tile
    parts = [np.zeros(max(-first, 0), dtype=np.uint8)]
    for i in range(max(first, 0) // width, (stop - 1) // width + 1):
        parts.append(_tile(i)[max(first - i * width, 0) : stop - i * width])
    return np.unpackbits(np.concatenate(parts)).view(bool)[a % 8 : a % 8 + b - a]


def _segments(lo: int, hi: int, size: int,
              carry: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, flags) over the points [lo, hi] (0 <= lo <= hi), in
    segments of at most size points.  flags[carry:] holds whether start + i
    is prime, for the segment's points; flags[:carry] repeats the carry
    flags before start, False before lo.

    A request below BASE_MEMO_ROOT that spans at least STRIKE points reads
    the tile store: each segment, carry included, is a new array unpacked
    from the tiles.  Any other request strikes its segments into one
    buffer, overwritten by the next segment, so the caller only reads it."""
    if hi < BASE_MEMO_ROOT and hi - lo >= STRIKE - 1:
        for start in range(lo, hi + 1, size):
            flags = _tile_flags(start - carry, min(start + size, hi + 1))
            flags[: max(lo - start + carry, 0)] = False
            yield start, flags
        return
    base = _base_primes(hi)
    buf = np.zeros(carry + min(size, hi + 1 - lo), dtype=bool)
    for start in range(lo, hi + 1, size):
        n = min(size, hi + 1 - start)
        flags = buf[: carry + n]
        _strike(flags[carry:], start, base)
        yield start, flags
        buf[:carry] = flags[n:]  # numpy copies an overlap (n < carry) first


def _primes(lo: int, hi: int, size: int) -> np.ndarray:
    """The primes in [lo, hi] (0 <= lo <= hi), ascending, as an int64 array,
    read from _segments of at most size points."""
    return np.concatenate([np.flatnonzero(flags) + start
                           for start, flags in _segments(lo, hi, size)])


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array."""
    n = exact_int(n, "prime bound", 0, DEFAULT_SPAN_CAPACITY)
    return _primes(0, n, STRIKE)


def sieve_range(lo: int, hi: int) -> list[int]:
    """Primes in the closed interval [lo, hi], ascending.

    >>> sieve_range(10, 30)
    [11, 13, 17, 19, 23, 29]
    >>> sieve_range(10**12, 10**12 + 100)  # the loop and one-hit tiers of the strike
    [1000000000039, 1000000000061, 1000000000063, 1000000000091]
    >>> window = sieve_range(10**12, 10**12 + 9999)  # and 648 base primes in runs
    >>> len(window), window[-1]
    (335, 1000000009999)
    """
    lo, hi = exact_int(lo, "range start"), exact_int(hi, "range end", most=MAX_SIEVE_POINT)
    if lo > hi:
        raise DomainError(f"empty range [{shown(lo)}, {shown(hi)}]")
    lo = max(lo, 2)
    if lo > hi:
        return []
    exact_int(hi - lo + 1, "sieve span", most=DEFAULT_SPAN_CAPACITY)
    return _primes(lo, hi, SEGMENT).tolist()


def _block(kind: str, start: int, stop: int, base: np.ndarray,
           step: int = 1) -> np.ndarray:
    """phi(x) or sigma(x) for x in range(start, stop, step) (step 1 or 2) as
    int64; entries below 1 are set to 0.  base holds the primes up to the
    root of the last point.

    sm collects the smooth part of each point, the product of the base-prime
    powers p**j dividing it, and val the product of their values v(p**j):
    p = 2 in one dense step, the primes up to n / _RUN_SPLIT in a strided
    loop, the rest through _value_runs.  One dense x / sm then gives the
    cofactor."""
    a, c = _PRIME_POWER_RULE[kind]
    lo = start or step  # x = 0 stays out of the work arrays (phi(0) = sigma(0) = 0)
    n = (stop - lo + step - 1) // step
    # sm is the base-prime part of x, a divisor of x, so sm <= x < stop; fac
    # is v(p**j) or p * v(p**(j-1)) <= v(p**j), and val is v(d) for a
    # divisor d of x, so no intermediate exceeds max(sigma(x), stop) < 7 *
    # stop (Robin's bound, in the module docstring): int32 cannot overflow
    # while 7 * stop < 2**31.
    dtype = np.int32 if 7 * stop < 2 ** 31 else np.int64
    x = np.arange(lo, stop, step, dtype=dtype)
    sm = -x
    sm &= x  # 2**j, the lowest set bit of x
    if c:
        val = sm << 1
        val -= 1  # sigma(2**j) = 2**(j+1) - 1
    else:
        val = sm + 1
        val >>= 1  # phi(2**j) = 2**(j-1), and 1 at j = 0
    top = int(base.searchsorted(math.isqrt(stop - 1), "right"))  # p * p < stop
    mid = min(top, max(1, int(base.searchsorted(n // _RUN_SPLIT, "right"))))
    if c and mid > 1:
        fac = np.empty(n, dtype=dtype)  # sigma of the p-part, on the multiples of p
    for p in base[1:mid].tolist():
        off = _first_hit(-lo % p, p, step)
        if off >= n:
            continue
        sm[off::p] *= p
        if c:
            fac[off::p] = p + a
        else:
            val[off::p] *= p + a
        pe = p * p
        while pe < stop:
            fs = _first_hit(-lo % pe, pe, step)
            if fs < n:
                sm[fs::pe] *= p
                if c:
                    view = fac[fs::pe]
                    view *= p  # Horner: v(p**j) = p * v(p**(j-1)) + c
                    view += c
                else:  # c = 0: v(p**j) = p * v(p**(j-1))
                    val[fs::pe] *= p
            pe *= p
        if c:
            val[off::p] *= fac[off::p]
    for i in range(mid, top, WIDE_CHUNK):
        _value_runs(sm, val, lo, step, base[i : min(i + WIDE_CHUNK, top)], a, c)
    # what is left of x is its one prime factor q above sqrt(x), or 1: one
    # dense division, then v(q) = q + a (a is +1 or -1) in one dense step,
    # not through a mask.  For int32 blocks a float64 division is exact (x <
    # 2**31 and the quotient is whole), and faster than numpy's integer one.
    if dtype is np.int32:
        rem = (x / sm).astype(dtype)
    else:
        rem = x
        rem //= sm
    if a > 0:
        rem += rem > 1
    else:
        rem -= rem > 1
    val *= rem
    if lo > start:
        val = np.concatenate(([0], val))
    return val.astype(np.int64, copy=False)


def _first_hit(r, q, step: int):
    """The index i of the first multiple of q among the points lo + step * i,
    given r = -lo % q (an int or an array): r itself for step 1.  For step 2
    (q odd) it is the i < q with 2 * i = r (mod q), (r + q * (r & 1)) >> 1,
    whose terms stay below 2 * q: r * (q + 1) / 2 would pass int64 for q
    near 4e16."""
    return r if step == 1 else (r + q * (r & 1)) >> 1


def _value_runs(sm: np.ndarray, val: np.ndarray, lo: int, step: int,
                primes: np.ndarray, a: int, c: int) -> None:
    """Multiply into sm and val, the work arrays of the points lo + step * i
    (0 <= i < sm.size, lo >= 1, step 1 or 2), the p-part p**e of each point
    and its value v(p**e), for the odd base primes `primes`, in one vector
    step.

    The multiples of all the primes are one array of indices (_runs), with
    p and v(p) = p + a laid alongside; consecutive hits of p are p entries
    (step * p points) apart.  A hit x = k * p of a run is a multiple of
    p**j (j >= 2) when p**(j-1) divides k, so those hits are every
    p**(j-1)-th entry of the run, runs again over the positions in the
    index array: each level multiplies their factors by p, and their values
    by one Horner step, v(p**j) = p * v(p**(j-1)) + c.  Then one
    np.multiply.at per work array applies the factors; it multiplies
    repeated indices (a point on two runs) once per run."""
    n = sm.size
    first = _first_hit(-lo % primes, primes, step)
    hits = first < n
    primes, first = primes[hits], first[hits]
    count = (n - 1 - first) // primes + 1
    idx = _runs(first, primes, count)
    sm_fac = np.repeat(primes.astype(sm.dtype), count)
    val_fac = sm_fac + a
    # the first hit of each run is k * p, the next (k + step) * p
    k = (lo + step * first) // primes
    at = np.cumsum(count) - count  # where each run starts in idx
    last = lo + step * (n - 1)
    pe = primes  # p**(j-1) at level j = 2, 3, ..., while p**j <= last, as in the loop
    while True:
        off = _first_hit(-k % pe, pe, step)  # the run's first hit that p**j divides
        deep = (off < count) & (pe <= last // primes)
        if not deep.any():
            break
        primes, pe, k, at, count, off = (v[deep] for v in (primes, pe, k, at, count, off))
        deep_count = (count - 1 - off) // pe + 1
        pos = _runs(at + off, pe, deep_count)
        p = np.repeat(primes.astype(sm.dtype), deep_count)
        sm_fac[pos] *= p
        val_fac[pos] = val_fac[pos] * p + c
        pe = pe * primes
    np.multiply.at(sm, idx, sm_fac)
    np.multiply.at(val, idx, val_fac)


def _iter_blocks(kind: str, lo: int, hi: int, block: int | None,
                 step: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """(start, values) blocks of `block` entries over the points range(lo,
    hi + 1, step), step 1 or 2."""
    lo = exact_int(lo, "block range start", 0)
    hi = exact_int(hi, "block range end", most=MAX_SIEVE_POINT)
    if hi < lo:
        raise DomainError(f"bad block range [{shown(lo)}, {shown(hi)}]")
    if block is not None:
        block = exact_int(block, "block size", 1, SEGMENT)
    base = _base_primes(hi)
    if block is None:
        block = min(SEGMENT, max(VALUE_BLOCK, BLOCK_PER_BASE_PRIME * base.size))
    # a generator expression: the checks above run on the call, not on first use
    span = block * step
    return ((start, _block(kind, start, min(start + span, hi + 1), base, step))
            for start in range(lo, hi + 1, span))


def iter_phi_blocks(hi: int, lo: int = 1,
                    block: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, values) blocks covering phi on [lo, hi].

    Blocks hold `block` entries, at most SEGMENT (the last may hold fewer);
    by default VALUE_BLOCK, or more far from 0 (see the module docstring).

    >>> [(start, values.tolist()) for start, values in iter_phi_blocks(10)]
    [(1, [1, 1, 2, 2, 4, 2, 6, 4, 6, 4])]

    Below, 10**12 = 2**12 * 5**12, then 73 * 137 * 99990001 and 2 * 3 *
    166666666667: in blocks this short every odd base prime goes through
    the runs, 5 to its twelfth power.

    >>> [values.tolist() for _, values in iter_phi_blocks(10**12 + 2, lo=10**12)]
    [[400000000000, 979102080000, 333333333332]]
    """
    return _iter_blocks("phi", lo, hi, block)


def iter_sigma_blocks(hi: int, lo: int = 1,
                      block: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, values) blocks covering sigma on [lo, hi], sized as in
    iter_phi_blocks."""
    return _iter_blocks("sigma", lo, hi, block)


def _dense_table(kind: str, n: int) -> np.ndarray:
    n = exact_int(n, "table bound", 0, DEFAULT_SPAN_CAPACITY)
    out = np.zeros(n + 1, dtype=np.int64)
    for start, vals in _iter_blocks(kind, 0, n, None):
        out[start : start + vals.size] = vals
    return out


def phi_table(n: int) -> np.ndarray:
    """Dense phi table for 0 <= x <= n (phi[0] = 0)."""
    return _dense_table("phi", n)


def sigma_table(n: int) -> np.ndarray:
    """Dense sigma table for 0 <= x <= n (sigma[0] = 0)."""
    return _dense_table("sigma", n)
