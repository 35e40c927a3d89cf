"""Complete preimage enumeration for phi and sigma, and multiplicity tables.

Per-target work runs on one engine for both maps, a dynamic program over
the divisors of m (Alekseyev, J. Integer Seq. 19 (2016), Article 16.5.2).
A preimage x of m is a product of prime-power blocks, one per prime of x,
whose block values (phi(p**a) or sigma(p**b)) multiply to m.  The engine
lists each prime's blocks, then fills a 0/1 knapsack over divisor indices
with exact integer counts: how many ways each divisor of m is a product of
block values of distinct primes.  A block value v reads only the live
divisors, those with a nonzero count so far, up to m/v, so the fill costs
the live divisors up to m/v per block, not all divisors >= v.
multiplicity() reads the count for m and enumerates nothing.
phi_preimages() and sigma_preimages() check the same count against
ENUM_CAPACITY before any solution is built, then backtrack from m through
states with a nonzero count only, so no branch is explored that leads to
no solution.  A small cache keeps the last few knapsacks, so enumeration
and counting of one target fill its knapsack once per map.

multiplicity_table() runs the same knapsack over every m <= B at once, in
numpy: the multiplicities are the coefficients of a Dirichlet product over
the primes, one factor (1 + sum of v**-s over the prime's block values v)
per prime.  The only table it holds is the int64 result: each factor is
multiplied in place, its sources swept from the top down so that none is
overwritten before it is read, and below 2**28 the counts accumulate as
int32 in the first half of the result's bytes and are widened in place at
the end.  So a table costs about 8 bytes per entry.  It imports numpy when
it runs, so the per-target paths never load it.  Its capacity is the number
of entries it holds, for either map.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from . import arith
from .errors import CapacityError, shown

if TYPE_CHECKING:
    import numpy as np

SCAN_CAPACITY = 2 * 10 ** 8  # most entries a multiplicity table may hold
ENUM_CAPACITY = 10 ** 7  # most solutions a single preimage enumeration may build
DIVISOR_CAPACITY = arith.DIVISOR_CAPACITY  # held by arith.divisors; also importable from here
_FIRST_CHUNK = 1 << 20  # table entries per step of minimal_m_by_multiplicity
_FIRST_BOUND = 64  # first table bound of minimal_m_with_multiplicity
# Below this table bound B the counts accumulate as int32 in the first half
# of the int64 result's bytes, which halves the memory traffic of the strided
# adds and leaves the upper half's pages untouched until the table is widened
# in place.  int32 is exact there: a sigma-preimage x of m <= B is <= B,
# because sigma(x) >= x; for phi, x/phi(x) < 8 unless x has at least 22
# distinct primes, and then phi(x) >= prod_{p<=79} (p-1) ~ 4.0e29.  So
# x < 8B <= 2**31.
_INT32_BOUND = 2 ** 28
# Entries below this are read from one copy of at most 16 kB of int32 counts,
# both as the sources of a prime's sweep and when the table is widened,
# instead of in halves: halves all the way down took sigma at 1e5 from 1.0 to
# 2.2 ms (best of 9, 2-core Xeon), one small numpy call per value and half.
_SWEEP_FLOOR = 1 << 12

@dataclass(frozen=True)
class PreimageSet:
    """The complete, sorted solution set of phi(x)=target or sigma(x)=target."""

    target: int
    map_kind: str
    solutions: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.solutions)


@dataclass(frozen=True)
class MultiplicityRecord:
    """Smallest m <= scan_bound whose multiplicity equals k, if any."""

    k: int
    map_kind: str
    minimal_m: int | None
    scan_bound: int


def _prime_blocks(m: int, divs: tuple[int, ...], map_kind: str) -> list[list[tuple[int, int]]]:
    """Per prime pi, in ascending order, its blocks (value, pi**b) with value | m.

    phi: p = d+1 prime for a divisor d, values d * p**(a-1).  sigma: every
    (pi, b) with sigma(pi**b) = d for d >= 3; one value may come from several
    primes (sigma(2**4) = sigma(5**2) = 31).
    """
    by_prime: dict[int, list[tuple[int, int]]] = {}
    for d in divs:
        if map_kind == "phi":
            p = d + 1
            if not arith.is_prime(p):
                continue
            value, power = d, p
            while m % value == 0:
                by_prime.setdefault(p, []).append((value, power))
                value *= p
                power *= p
        elif d >= 3:
            for pi, b in arith.prime_power_sigma_all(d):
                by_prime.setdefault(pi, []).append((d, pi ** b))
    return [by_prime[p] for p in sorted(by_prime)]


@lru_cache(maxsize=1 << 8)
def _divisor_list(m: int) -> tuple[int, ...]:
    """The divisors of m, ascending; both maps of one target factor it once.
    Under one map, enumeration and counting also fill its knapsack once
    (the cache of _divisor_dp)."""
    return tuple(arith.divisors(m))


class _DivisorDP:
    """0/1 knapsack over the divisors of m, one item group per prime.

    With the first i primes added, count[k] is the number of ways to write
    divs[k] as a product of block values of distinct primes among them.  The
    per-prime layers are kept in compressed form: the final counts, plus for
    each divisor index k the ascending list uses[k] of the primes whose
    addition raised count[k], which are exactly the primes that can be the
    largest prime of a preimage of divs[k].  Counts never fall as primes are
    added, so divs[k] has a representation using the first i primes iff
    i > uses[k][0], or k == 0 (the empty product).

    A block value v reads only the live divisors d, those whose count is
    already nonzero, up to m // v: v * d divides m iff d divides m // v.  So
    the fill costs the live divisors up to m / v per block, not every
    divisor above v.
    """

    def __init__(self, m: int, map_kind: str):
        divs = _divisor_list(m)
        index = {d: k for k, d in enumerate(divs)}
        self.blocks = _prime_blocks(m, divs, map_kind)
        count = [0] * len(divs)
        count[0] = 1
        live = [0]  # ascending indices k with count[k] > 0
        uses: list[list[int]] = [[] for _ in divs]
        for i, blocks in enumerate(self.blocks):
            added: dict[int, int] = {}
            for value, _ in blocks:
                cofactor = m // value
                for j in live:
                    d = divs[j]
                    if d > cofactor:
                        break
                    if cofactor % d == 0:
                        k = index[value * d]
                        added[k] = added.get(k, 0) + count[j]
            for k, c in added.items():  # applied after reading: one block per prime
                if not count[k]:
                    insort(live, k)
                count[k] += c
                uses[k].append(i)
        self.divs, self.index, self.uses = divs, index, uses
        self.total = count[-1]

    def solutions(self) -> list[int]:
        """Every preimage, unsorted, visiting only states with a nonzero count."""
        divs, index, blocks, uses = self.divs, self.index, self.blocks, self.uses
        # first[k]: the fewest leading primes that can represent divs[k]
        first = [u[0] + 1 if u else len(blocks) + 1 for u in uses]
        first[0] = 0
        out: list[int] = []

        def walk(i: int, k: int, acc: int) -> None:
            if k == 0:
                out.append(acc)
            w = divs[k]
            for j in uses[k]:
                if j >= i:
                    break
                for value, power in blocks[j]:
                    if w % value == 0:
                        rest = index[w // value]
                        if first[rest] <= j:
                            walk(j, rest, acc * power)

        walk(len(blocks), len(divs) - 1, 1)
        return out


# Counting and enumerating one target share its knapsack, whichever runs
# first.  An entry holds the divisors, their index, the blocks and the
# per-divisor prime lists, about 1 kB per divisor (tracemalloc: 0.3 MB at 576
# divisors, 4-5 MB at 5,184, 9 MB at 10,368, 64 MB at 28,224).  Eight entries
# hold both maps of four targets, 40 MB at 5,184 divisors each.
@lru_cache(maxsize=8)
def _divisor_dp(m: int, map_kind: str) -> _DivisorDP | None:
    """The engine for m, or None when m has no preimage for a parity reason;
    m is already gated, so a float never reaches the cache."""
    if map_kind == "phi" and m % 2 and m > 1:
        return None  # phi(x) is even for x >= 3
    return _DivisorDP(m, map_kind)


def _preimages(m: int, map_kind: str) -> PreimageSet:
    m = arith.exact_int(m, "target", 1)
    dp = _divisor_dp(m, map_kind)
    if dp is None:
        return PreimageSet(m, map_kind, ())
    if dp.total > ENUM_CAPACITY:
        raise CapacityError(
            f"{map_kind} has {dp.total} preimages of {shown(m)}, over capacity {ENUM_CAPACITY}")
    return PreimageSet(m, map_kind, tuple(sorted(dp.solutions())))


def phi_preimages(m: int) -> PreimageSet:
    """All x with phi(x) == m.

    >>> phi_preimages(4).solutions
    (5, 8, 10, 12)
    """
    return _preimages(m, "phi")


def sigma_preimages(m: int) -> PreimageSet:
    """All x with sigma(x) == m.

    >>> sigma_preimages(12).solutions
    (6, 11)
    """
    return _preimages(m, "sigma")


def multiplicity(m: int, map_kind: str) -> int:
    """A(m) for map_kind phi, B(m) for map_kind sigma, counted without enumerating."""
    arith._check_kind(map_kind)
    dp = _divisor_dp(arith.exact_int(m, "target", 1), map_kind)
    return 0 if dp is None else dp.total


def multiplicity_table(map_kind: str, m_bound: int) -> np.ndarray:
    """counts[m] = multiplicity of m, for all 0 <= m <= m_bound, as int64.

    The multiplicities are the coefficients of a Dirichlet product over the
    primes, sum A(m) m**-s = prod_p (1 + sum_a phi(p**a)**-s), and likewise
    for sigma.  The table is a 0/1 knapsack over m that multiplies in one
    prime factor at a time, starting from counts[1] = 1 (x = 1):

    - Before p = 2 the counts are that unit alone, so p = 2 adds 1 at each
      of its block values (phi's value 1 makes counts[1] = 2).
    - A later prime p <= isqrt(m_bound) + 1 adds counts[j] to counts[v*j]
      for each of its block values v <= m_bound ((p-1)*p**(a-1), or
      sigma(p**b)), so a preimage uses at most one block of p.  Every v is
      at least 2, so the sources j are swept downward in halves [lo, hi)
      with hi <= 2*lo: a half writes only at 2*lo or above, where every
      source has been read, and the sources below _SWEEP_FLOOR are read
      from one small copy.
    - A larger prime has the single value p-1 or p+1, above sqrt(m_bound),
      so at most one such prime divides any preimage: each m = v*j gains the
      small-prime count of j.

    The result is the only table held.  Below _INT32_BOUND the counts
    accumulate as int32 in the first half of its bytes and are then widened
    in place, from the top down.  The work depends on m_bound only, so
    SCAN_CAPACITY bounds m_bound, for either map, before any work.
    """
    import numpy as np

    from .sieves import STRIKE, _primes

    arith._check_kind(map_kind)
    m_bound = arith.exact_int(m_bound, "table bound", 1, SCAN_CAPACITY)
    try:  # calloc: the pages of the upper half stay unmapped until widening
        out = np.zeros(m_bound + 1, dtype=np.int64)
    except (ValueError, MemoryError):
        raise CapacityError(
            f"table bound {shown(m_bound)} is past what memory can hold") from None
    counts = out.view(np.int32)[: m_bound + 1] if m_bound < _INT32_BOUND else out
    counts[1] = 1
    # the table's own capacity check covers this prime table, which is smaller
    primes = _primes(0, m_bound + 1, STRIKE)
    split = int(np.searchsorted(primes, math.isqrt(m_bound) + 1, side="right"))
    counts[_small_prime_values(2, map_kind, m_bound)] += 1  # values are distinct
    for p in primes[1:split].tolist():
        values = _small_prime_values(p, map_kind, m_bound)
        top = m_bound // values[0] + 1  # sources j < top; p - 1 and p + 1 <= m_bound
        for lo, hi in _halves(top):  # a half writes at 2*lo >= hi or above
            _add_sources(counts, values, lo, counts[lo:hi])
        _add_sources(counts, values, 1, counts[1 : min(top, _SWEEP_FLOOR)].copy())
    values = primes[split:] + arith._PRIME_POWER_RULE[map_kind][0]
    values = values[: np.searchsorted(values, m_bound, side="right")]
    if values.size:
        # every target index v*j lies above this prefix, so it is read unchanged
        base = counts[: m_bound // int(values[0]) + 1]
        for j in np.flatnonzero(base).tolist():
            cut = np.searchsorted(values, m_bound // j, side="right")
            counts[values[:cut] * j] += base[j]  # distinct indices for one j
    del primes, values  # freed before the widening maps the upper half
    if counts is not out:
        # int64 entries [lo, hi) fill bytes [8*lo, 8*hi), at or above the
        # int32 entries [lo, hi) they read, and no entry below lo has been
        # overwritten yet
        for lo, hi in _halves(m_bound + 1):
            out[lo:hi] = counts[lo:hi]
        # copied first: counts[:k] and out[:k] start at the same byte, an
        # overlap numpy does not buffer
        low = counts[:_SWEEP_FLOOR].copy()
        out[: low.size] = low
    return out


def _halves(top: int):
    """Ranges [lo, hi) with hi <= 2*lo that cover [_SWEEP_FLOOR, top), from the top down."""
    hi = top
    while hi > _SWEEP_FLOOR:
        lo = max((hi + 1) // 2, _SWEEP_FLOOR)
        yield lo, hi
        hi = lo


def _add_sources(counts: np.ndarray, values: list[int], lo: int, sources: np.ndarray) -> None:
    """counts[v*j] += sources[j - lo] for each value v and source j >= lo with
    v*j inside counts; sources must not overlap the targets."""
    top = counts.size - 1
    for v in values:
        n = min(sources.size, top // v + 1 - lo)
        if n <= 0:
            break  # values ascend, so no later one reaches a source either
        counts[v * lo : v * (lo + n - 1) + 1 : v] += sources[:n]


def _small_prime_values(p: int, map_kind: str, m_bound: int) -> list[int]:
    """The block values of p up to m_bound, ascending: phi(p**a) or sigma(p**b)."""
    a, c = arith._PRIME_POWER_RULE[map_kind]
    values = []
    v = p + a
    while v <= m_bound:
        values.append(v)
        v = v * p + c
    return values


def minimal_m_by_multiplicity(counts: np.ndarray) -> list[int | None]:
    """first[k] = smallest m >= 1 with counts[m] == k, or None, for every
    0 <= k <= max(counts[1:]), from one pass over a multiplicity_table() result.

    No m has a multiplicity above that maximum, so first answers every k.
    """
    import numpy as np

    values = counts[1:]
    none = values.size + 1
    first = np.full(int(values.max()) + 1, none, dtype=np.int64)
    for lo in range(0, values.size, _FIRST_CHUNK):  # bounds the index array
        chunk = values[lo : lo + _FIRST_CHUNK]
        np.minimum.at(first, chunk, np.arange(lo + 1, lo + 1 + chunk.size))
    return [None if m == none else m for m in first.tolist()]


def minimal_m_with_multiplicity(k: int, map_kind: str, scan_bound: int) -> MultiplicityRecord:
    """Smallest m <= scan_bound with multiplicity exactly k, from tables.

    Builds multiplicity_table() over a prefix of m that starts at m <= 64
    and grows by a factor of 4, so small answers stay cheap; the
    recomputation overhead is bounded by a constant factor.  scan_bound is
    held to SCAN_CAPACITY before any table is built.
    """
    k = arith.exact_int(k, "multiplicity", 0)
    arith._check_kind(map_kind)
    scan_bound = arith.exact_int(scan_bound, "table bound", 1, SCAN_CAPACITY)
    bound = min(_FIRST_BOUND, scan_bound)
    while True:
        first = minimal_m_by_multiplicity(multiplicity_table(map_kind, bound))
        minimal = first[k] if k < len(first) else None
        if minimal is not None:
            return MultiplicityRecord(k, map_kind, minimal, scan_bound)
        if bound == scan_bound:
            return MultiplicityRecord(k, map_kind, None, scan_bound)
        bound = min(bound * 4, scan_bound)
