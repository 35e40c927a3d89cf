"""Batch tables of primes, smallest prime factors, phi and sigma.

All heavy scans run on numpy arrays in segments, in the style of Bays and
Hudson (BIT 17, 1977), so memory stays bounded regardless of the requested
range.  Two segment sizes serve two kinds of scan:

- One strike serves every prime flag, from 0 (_prime_flags, and the pair
  and shifted counts of sievelab, which stream its segments) or far from it
  (sieve_range).  It strikes the evens in one stride and each odd base prime
  p in strides of 2p; one with 2p longer than the segment hits it at most
  once, so those share one vector step.  Its base primes come from a fixed
  table while they are below 1000 (n < 10**6), and from the same sieve above.
  Scans from 0 strike boolean segments of STRIKE = 2**20 entries, which fit
  in L2.  Best-of times on a 2-core Xeon with 2 MB of L2 per core, at
  segments of 2**20 / 2**21 / 2**22 entries: _prime_flags to 2e7 took 39 /
  42 / 65 ms, to 1e8 305 / 340 / 398 ms and to 2e8 759 / 725 / 858 ms; the
  pairs to 4.97e6 took 9.2 / 12.0 / 14.8 ms (12.2 ms at 2**19).
  Far from 0 each segment loops over every base prime (78,498 near 10**12),
  so sieve_range keeps segments of SEGMENT = 2**22 entries.
- The phi and sigma value blocks come from one kernel with three work
  arrays (the values, the unfactored rest, and the value of the current
  prime's part).  It touches each entry once per prime power dividing it,
  so it runs in cache-sized blocks of VALUE_BLOCK = 2**17 entries (512 KB
  per int32 array).  On a 2-core Xeon with 2 MB of L2 per core, phi and
  sigma to 5e6 took 0.18-0.21 s each at that size; 2**18 came within 6%,
  2**19 within 10% and 2**16 within 30%.  Far from 0 the per-block loop
  over the base primes dominates instead (78,498 of them near 10**12), so a
  block is never shorter than BLOCK_PER_BASE_PRIME entries per base prime,
  up to SEGMENT entries.

Both maps are multiplicative and differ only on prime powers, where each
takes one Horner step, v(p) = p + a and v(p**(j+1)) = v(p**j) * p + c, with
(a, c) = (-1, 0) for phi and (1, 1) for sigma (arith._PRIME_POWER_RULE).
The kernel's per-prime work runs on strided views (x[off::p]) only.  What
is left of x after them is its one prime factor q above sqrt(x), or 1, so
one dense step adds a where it exceeds 1 and multiplies it in: a boolean
gather and scatter through a mask would take 35-45% of a block.

No intermediate exceeds max(sigma(x), x + 1).  Points stay below
MAX_SIEVE_POINT = 4e16, where Robin's unconditional bound sigma(n)/n <
e**gamma * ln ln n + 0.6483 / ln ln n for n >= 3 (J. Math. Pures Appl. 63,
1984) gives sigma(x) < 6.7x.  So the work arrays are int64 in general and
int32 for a block whose stop (one past its last entry) has 7 * stop < 2**31,
which halves their memory traffic; the blocks handed out are always int64.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .arith import _PRIME_POWER_RULE, _SMALL_PRIMES, exact_int
from .errors import CapacityError, DomainError

SEGMENT = 1 << 22  # sieve_range segment; also the value-block ceiling
STRIKE = 1 << 20  # prime-flag segment for scans from 0, sized for L2 (see above)
VALUE_BLOCK = 1 << 17  # value block, sized for L2
BLOCK_PER_BASE_PRIME = 64  # value block floor, per base prime
DEFAULT_SPAN_CAPACITY = 2 * 10 ** 8
MAX_SIEVE_POINT = DEFAULT_SPAN_CAPACITY ** 2  # keeps base-prime sieves below the span cap
# copied once, so a later patch of arith._SMALL_PRIMES changes no sieve
_SMALL_ODD_PRIMES = np.array(_SMALL_PRIMES[1:], dtype=np.int64)


def _strike(flags: np.ndarray, start: int, base: np.ndarray) -> None:
    """Set flags[i] to whether start + i is prime, for the points [start,
    start + flags.size) (start >= 0), given base, the odd primes up to the
    root of the last (more are harmless)."""
    flags[:] = True
    flags[: max(0, 2 - start)] = False  # 0 and 1
    flags[max(4, start + start % 2) - start :: 2] = False
    split = int(np.searchsorted(base, flags.size // 2, side="right"))
    # each p from its first odd multiple >= max(p*p, start)
    for p in base[:split].tolist():
        flags[max(p * p, (-(-start // p) | 1) * p) - start :: 2 * p] = False
    # an odd prime with 2p longer than the segment hits it at most once
    if split < base.size:
        wide = base[split:]
        first = np.maximum(wide * wide, (-(-start // wide) | 1) * wide) - start
        flags[first[first < flags.size]] = False


def _base_primes(n: int) -> np.ndarray:
    """The odd primes up to isqrt(n) as an int64 array: from a fixed table
    while isqrt(n) < 1000, else from the sieve itself."""
    root = math.isqrt(n)
    if root < 1000:
        return _SMALL_ODD_PRIMES[: int(np.searchsorted(_SMALL_ODD_PRIMES, root, side="right"))]
    return np.flatnonzero(_prime_flags(root))[1:]


def _prime_flags(n: int) -> np.ndarray:
    """flags[k] is True iff k is prime, for 0 <= k <= n (n >= 0)."""
    flags = np.empty(n + 1, dtype=bool)
    base = _base_primes(n)
    for start in range(0, n + 1, STRIKE):
        _strike(flags[start : start + STRIKE], start, base)
    return flags


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array."""
    n = exact_int(n, "prime bound", 0, DEFAULT_SPAN_CAPACITY)
    return np.flatnonzero(_prime_flags(n)).astype(np.int64, copy=False)


def sieve_range(lo: int, hi: int) -> list[int]:
    """Primes in the closed interval [lo, hi], ascending.

    >>> sieve_range(10, 30)
    [11, 13, 17, 19, 23, 29]
    """
    lo, hi = exact_int(lo, "range start"), exact_int(hi, "range end", most=MAX_SIEVE_POINT)
    if lo > hi:
        raise DomainError(f"empty range [{lo}, {hi}]")
    lo = max(lo, 2)
    if lo > hi:
        return []
    if hi - lo + 1 > DEFAULT_SPAN_CAPACITY:
        raise CapacityError(f"sieve span {hi - lo + 1} exceeds capacity {DEFAULT_SPAN_CAPACITY}")
    base = primes_upto(math.isqrt(hi))[1:]
    out: list[int] = []
    for start in range(lo, hi + 1, SEGMENT):
        flags = np.empty(min(SEGMENT, hi + 1 - start), dtype=bool)
        _strike(flags, start, base)
        out.extend((np.flatnonzero(flags) + start).tolist())
    return out


def spf_table(n: int) -> np.ndarray:
    """Smallest-prime-factor table: spf[x] for 0 <= x <= n, spf[0] = spf[1] = 0."""
    n = exact_int(n, "table bound", 0, DEFAULT_SPAN_CAPACITY)
    spf = np.arange(n + 1, dtype=np.int64)
    spf[4::2] = 2
    # odd primes largest first, so the smallest prime factor is written last
    for p in primes_upto(math.isqrt(n))[:0:-1].tolist():
        spf[p * p :: 2 * p] = p
    spf[:2] = 0
    return spf


def _block(kind: str, start: int, stop: int, base: np.ndarray) -> np.ndarray:
    """phi(x) or sigma(x) for x in [start, stop) as int64; entries below 1 are
    set to 0."""
    a, c = _PRIME_POWER_RULE[kind]
    n = stop - start
    # rem and rem + a stay at most x + 1 <= stop, fac is v(p**j) or
    # p * v(p**(j-1)) <= v(p**j), and val is v(d) for a divisor d of x, so no
    # intermediate exceeds max(sigma(x), stop) < 7 * stop (Robin's bound, in
    # the module docstring): int32 cannot overflow while 7 * stop < 2**31.
    dtype = np.int32 if 7 * stop < 2 ** 31 else np.int64
    val = np.ones(n, dtype=dtype)
    rem = np.arange(start, stop, dtype=dtype)
    if start == 0:
        rem[0] = 1
    fac = np.empty(n, dtype=dtype)  # value of the p-part, on the multiples of p
    for p in base.tolist():
        if p * p >= stop:
            break
        # start every stride at its modulus so the x = 0 entry is never divided
        first = max(p, (start + p - 1) // p * p)
        if first >= stop:
            continue
        off = first - start
        rem[off::p] //= p
        fac[off::p] = p + a
        pe = p * p
        while pe < stop:
            fs = max(pe, (start + pe - 1) // pe * pe)
            if fs < stop:
                rem[fs - start :: pe] //= p
                view = fac[fs - start :: pe]
                view *= p  # Horner: v(p**j) = p * v(p**(j-1)) + c
                if c:
                    view += c
            pe *= p
        val[off::p] *= fac[off::p]
    # rem now holds the one prime factor above sqrt(x), or 1: turn it into
    # v(q) = q + a (a is +1 or -1) in one dense step, not through a mask
    if a > 0:
        rem += rem > 1
    else:
        rem -= rem > 1
    val *= rem
    if start == 0:
        val[0] = 0
    return val.astype(np.int64, copy=False)


def _iter_blocks(kind: str, lo: int, hi: int,
                 block: int | None) -> Iterator[tuple[int, np.ndarray]]:
    lo = exact_int(lo, "block range start", 0)
    hi = exact_int(hi, "block range end", most=MAX_SIEVE_POINT)
    if hi < lo:
        raise DomainError(f"bad block range [{lo}, {hi}]")
    if block is not None:
        block = exact_int(block, "block size", 1)
    base = primes_upto(math.isqrt(hi))
    if block is None:
        block = min(SEGMENT, max(VALUE_BLOCK, BLOCK_PER_BASE_PRIME * base.size))
    # a generator expression: the checks above run on the call, not on first use
    return ((start, _block(kind, start, min(start + block, hi + 1), base))
            for start in range(lo, hi + 1, block))


def iter_phi_blocks(hi: int, lo: int = 1,
                    block: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, values) blocks covering phi on [lo, hi].

    Blocks hold `block` entries (the last may hold fewer); by default
    VALUE_BLOCK, or more far from 0 (see the module docstring).
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
