"""Desk-scale counting experiments: shifted almost primes, prime pairs,
pair-difference products, and ratio power sums with their Euler-product
constants.

Counts are exact; only the normalization ratios and the truncated constant
c(beta) are floating point.  The array functions import numpy and the sieves
when they run, so l_value and lemma3_reference_constant stay pure Python.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import arith
from .errors import CapacityError, DomainError, shown

# ceiling on the bits of x ** alpha.numerator, which the factor-size test builds
_POWER_BITS_CAPACITY = 1 << 16


def _exact_alpha(alpha) -> Fraction:
    """alpha as a Fraction; a float, a string or a bool is refused, not converted."""
    if isinstance(alpha, bool) or not isinstance(alpha, (int, Fraction)):
        raise DomainError(f"alpha must be an integer or a Fraction, got {alpha!r}")
    return Fraction(alpha)


@dataclass(frozen=True)
class AlmostPrimeCount:
    """Count of primes s in (x/2, x] with s = 2u + a, u having at least two
    distinct prime factors, all exceeding x**alpha."""

    x: int
    a: int
    alpha: Fraction
    count: int
    normalized_ratio: float  # count / (x / ln(x)**2)
    reference_constant: float | None


def count_shifted_almost_primes(x: int, alpha: Fraction, a: int) -> AlmostPrimeCount:
    """Exact count, streamed through windows of u = (s - a)/2 in bounded memory.

    The factor-size test is exact: p > x**(num/den) iff p**den > x**num iff
    p > R = iroot(x**num, den).  x**num is built exactly, so an alpha whose
    numerator would take it past _POWER_BITS_CAPACITY bits raises
    CapacityError before any sieving.

    u is rough when its least prime exceeds R.  A composite u has its least
    prime <= isqrt(u), so among the composite u, clearing the multiples of
    the primes up to min(R, isqrt(u_hi)) leaves exactly the rough ones.  Two
    flag streams (sieves._segments) run side by side, over windows of u and
    over the s = 2u + a of each (read at stride 2).  A window counts the u
    with s prime and u composite left after clearing the multiples of those
    primes and the rough prime powers p**j (j >= 2, R < p <= isqrt(u_hi)),
    which have one distinct prime.  No table over [0, x] is built.
    """
    import numpy as np

    from . import sieves

    x = arith.exact_int(x, "x", 16, sieves.DEFAULT_SPAN_CAPACITY)
    alpha = _exact_alpha(alpha)
    a = arith.exact_int(a, "shift")
    if a not in (1, -1):
        raise DomainError(f"shift must be +1 or -1, got {shown(a)}")
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0, 1), got {shown(alpha)}")
    if alpha.numerator * x.bit_length() > _POWER_BITS_CAPACITY:
        raise CapacityError(
            f"x ** {alpha.numerator} would exceed {_POWER_BITS_CAPACITY} bits; "
            f"use an alpha with a smaller numerator")
    rough_bound = arith.iroot(x ** alpha.numerator, alpha.denominator)
    u_lo, u_hi = (x // 2 + 2 - a) // 2, (x - a) // 2  # s = 2u + a in (x/2, x]
    primes = sieves._base_primes(u_hi)
    sifting = primes[primes <= rough_bound].tolist()
    powers = []
    for p in primes[primes > rough_bound].tolist():
        q = p * p
        while q <= u_hi:
            powers.append(q)
            q *= p
    powers = np.array(powers, dtype=np.int64)
    size = sieves.STRIKE
    count = 0
    buf = np.empty(min(size, u_hi + 1 - u_lo), dtype=bool)
    # the last s window has 2n - 1 points for the n of the last u window
    for (u0, u_flags), (_, s_flags) in zip(
            sieves._segments(u_lo, u_hi, size),
            sieves._segments(2 * u_lo + a, 2 * u_hi + a, 2 * size), strict=True):
        hit = np.greater(s_flags[::2], u_flags, out=buf[: u_flags.size])  # s & ~u
        for p in sifting:
            hit[-u0 % p :: p] = False
        hit[powers[(powers >= u0) & (powers < u0 + hit.size)] - u0] = False
        count += int(np.count_nonzero(hit))
    ratio = count / (x / math.log(x) ** 2)
    ref = lemma3_reference_constant(alpha) if alpha == Fraction(1, 8) else None
    return AlmostPrimeCount(x, a, alpha, count, ratio, ref)


def lemma3_reference_constant(alpha: Fraction = Fraction(1, 8)) -> float:
    """The lower-bound constant net of the pair-count upper bound 4.

    With 1/(2*alpha) = 4 the sieve function value is (1/2)*exp(gamma)*ln 3,
    so exp(-gamma)/alpha * f(1/(2*alpha)) - 4 collapses to 4*ln 3 - 4; the
    exp(gamma) factors cancel exactly, so they are not evaluated in floating
    point.
    """
    if _exact_alpha(alpha) != Fraction(1, 8):
        raise DomainError(
            f"only alpha = 1/8 is supported (general sieve-function values are "
            f"out of scope), got {shown(alpha)}")
    return 0.5 / Fraction(1, 8) * math.log(3.0) - 4.0


def count_prime_pairs(k: int, x: int) -> int:
    """Number of primes p <= x - k with p + k also prime.

    One flag stream (sieves._segments) walks [0, x], each segment headed by
    the flags of the k points before it, so the memory is k plus one segment.

    >>> count_prime_pairs(2, 10)
    2
    """
    import numpy as np

    from . import sieves

    k = arith.exact_int(k, "pair gap", 2)
    x = arith.exact_int(x, "x", most=sieves.DEFAULT_SPAN_CAPACITY)
    if k % 2:
        raise DomainError(f"pair gap must be an even integer >= 2, got {shown(k)}")
    if x <= k:
        raise DomainError(f"need x > k, got x={shown(x)}, k={shown(k)}")
    return sum(int(np.count_nonzero(w[:-k] & w[k:]))
               for _, w in sieves._segments(0, x, sieves.STRIKE, carry=k))


def l_value(primes) -> Fraction:
    """Product of |p_g - p_h| / phi(|p_g - p_h|) over unordered pairs, exact.

    >>> l_value((3, 5, 7))
    Fraction(8, 1)
    """
    ps = [arith.exact_int(p, "entry") for p in primes]
    if len(set(ps)) != len(ps):
        raise DomainError("entries must be distinct (a zero difference has no totient)")
    for p in ps:
        if not arith.is_prime(p):
            raise DomainError(f"entry {shown(p)} is not prime")
    # d / phi(d) is the product of p / (p - 1) over the primes p of d, so the
    # value is the product of (p / (p - 1))**c, c the number of differences p
    # divides; factoring each p - 1 once leaves one net exponent per prime
    counts = Counter(p for g, h in combinations(ps, 2)
                     for p in arith.factorize(abs(g - h)).primes())
    net: Counter[int] = Counter()
    for p, c in counts.items():
        net[p] += c
        for q, e in arith.factorize(p - 1).factors:
            net[q] -= e * c
    return Fraction(_product([q ** e for q, e in net.items() if e > 0]),
                    _product([q ** -e for q, e in net.items() if e < 0]))


def _product(factors: list[int]) -> int:
    """The product of factors, multiplied in pairs, level by level, so that
    each multiply joins two numbers of about the same size: a running product
    costs time quadratic in the total bits."""
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = [g * h for g, h in zip(factors[::2], factors[1::2])] + odd
    return factors[0] if factors else 1


def _exact_sum(blocks) -> float:
    """The correctly rounded sum of the finite float64 arrays in `blocks`, the
    float math.fsum returns for the same values, without making a Python float
    of each value.

    Every value is a whole multiple of 2**-1074, so each block's sum scaled
    by 2**1126 is a Python int (_scaled_sum), the blocks' ints add into one,
    and the final int / int division rounds once.  A value that is not
    finite, or a total past the float range, raises OverflowError.
    """
    total = 0
    for block in blocks:
        if block.size:
            total += _scaled_sum(block)
    return total / (1 << 1126)


_BAND = 10  # binary exponents that one int64 grid holds


def _scaled_sum(values) -> int:
    """The sum of the values, a nonempty float64 array of at most 2**26
    entries (a value block holds at most SEGMENT = 2**22), times 2**1126.

    A value v = m * 2**e (np.frexp, 1/2 <= |m| < 1) is a whole multiple of
    2**(e0 - 53) for every e0 <= e, below 2**62 of them while e - e0 <
    _BAND.  So positive values whose exponents span less than _BAND, such as
    the ratio-power terms of beta = 2 in [1, 32), shift onto one int64 grid,
    whose entries split into halves below 2**31 that np.sum adds exactly.
    Other values split m * 2**53 into a 27-bit and a 26-bit whole half, and
    one np.bincount per half, binned by exponent, adds them in float64,
    exactly, as every bin stays below 2**53."""
    import numpy as np

    least, most = values.min(), values.max()  # an infinity, or a NaN, shows here
    if not (math.isfinite(least) and math.isfinite(most)):
        raise OverflowError("a term is not finite")
    if least > 0:
        e0 = math.frexp(least)[1]
        if math.frexp(most)[1] - e0 < _BAND:
            grid = np.ldexp(values, 53 - e0).astype(np.int64)
            total = (int((grid >> 31).sum()) << 31) + int((grid & 0x7FFFFFFF).sum())
            return total << (e0 + 1073)
    m, e = np.frexp(values)
    m *= 2.0 ** 27
    high = np.floor(m)
    m -= high
    m *= 2.0 ** 26  # the low 26 bits, now whole
    least = int(e.min())
    bins = e.astype(np.intp)  # the type np.bincount takes, converted once
    bins -= least
    highs = np.bincount(bins, weights=high).tolist()
    lows = np.bincount(bins, weights=m).tolist()
    return sum(((int(h) << 26) + int(l)) << (least + k + 1073)
               for k, (h, l) in enumerate(zip(highs, lows)))


@dataclass(frozen=True)
class RatioSumReport:
    """Sum of (k/phi(k))**beta for k <= x against the truncated Euler product."""

    beta: float
    x: int
    sum: float
    c_beta: float
    prime_cutoff: int
    tail_factor_bound: float  # multiplying c_beta by this covers the tail


def ratio_power_sum(beta: float, x: int, prime_cutoff: int = 10 ** 5) -> RatioSumReport:
    """Sum the ratio powers by batch phi, exactly and then correctly rounded
    (the float math.fsum gives for the same terms); compute the truncated
    product over primes <= prime_cutoff and a rigorous tail factor.

    phi runs over the odd m <= x only (_ratio_terms).  An even n = 2**k * m
    (m odd, k >= 1) has n / phi(n) = 2m / phi(m), and that float is exactly
    twice the float m / phi(m): n and phi(n) are whole and below 2**53, so
    each division rounds its real quotient once, and doubling a float is
    exact.  So the term of every such n is the same float (2.0 * y) ** beta
    for y = m / phi(m), summed once for each k with m <= x >> k.  It is
    formed only for 2m <= x: for a larger m it is the term of no n <= x,
    and it may overflow where every term of the sum is finite."""
    import numpy as np

    from .sieves import DEFAULT_SPAN_CAPACITY, primes_upto

    if isinstance(beta, bool) or not isinstance(beta, (int, float)):
        raise DomainError(f"beta must be an int or a float, got {beta!r}")
    if not 0 < beta <= sys.float_info.max:  # an int past it has no float
        raise DomainError(f"beta must be positive and finite, got {shown(beta)}")
    beta = float(beta)
    x = arith.exact_int(x, "x", 1, DEFAULT_SPAN_CAPACITY)
    prime_cutoff = arith.exact_int(prime_cutoff, "prime cutoff", 2, DEFAULT_SPAN_CAPACITY)
    try:
        c_beta = 1.0
        for p in primes_upto(prime_cutoff).tolist():
            g = (p / (p - 1.0)) ** beta - 1.0
            c_beta *= 1.0 + g / p
        # tail over p > P:  g(p) <= (beta/(p-1)) * e**(beta/(p-1)), so
        # sum g(p)/p <= beta * e**(beta/P) * sum 1/((p-1)p) <= beta * e**(beta/P) / P
        tail_factor_bound = math.exp(beta * math.exp(beta / prime_cutoff) / prime_cutoff)
        if not (math.isfinite(c_beta) and math.isfinite(tail_factor_bound)):
            raise OverflowError
        with np.errstate(over="ignore"):  # an infinite term makes the sum overflow
            total = _exact_sum(_ratio_terms(beta, x))
    except OverflowError as exc:
        raise DomainError(f"beta = {beta} is too large: c_beta, its tail factor "
                          f"or the sum is not a finite float") from exc
    return RatioSumReport(
        beta=float(beta),
        x=x,
        sum=total,
        c_beta=c_beta,
        prime_cutoff=prime_cutoff,
        tail_factor_bound=tail_factor_bound,
    )


def _ratio_terms(beta: float, x: int):
    """Float64 arrays that hold the terms (n / phi(n))**beta for n <= x, each
    once, from phi on the odd m <= x alone (see ratio_power_sum): a block's
    odd terms, then the even terms of its m <= x // 2 as one array u, whose
    prefix of the m <= x >> k holds the terms of the n = 2**k * m."""
    import numpy as np

    from .sieves import _iter_blocks

    for start, vals in _iter_blocks("phi", 1, x, None, 2):
        y = np.arange(start, start + 2 * vals.size, 2, dtype=np.float64) / vals.astype(np.float64)
        yield y ** beta
        top = x >> 1  # x >> k: n = 2**k * m <= x (m odd) for m <= x >> k
        if start <= top:
            u = (2.0 * y[: (top - start) // 2 + 1]) ** beta
            while start <= top:
                yield u[: (top - start) // 2 + 1]
                top >>= 1
