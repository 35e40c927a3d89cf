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

    Each nonzero value is +-m * 2**e with 2**52 <= m * 2**53 < 2**53
    (np.frexp), and m * 2**53 splits into a 27-bit and a 26-bit whole half.
    One bincount per half, binned by exponent, adds halves below 2**27; an
    array of at most 2**26 values (a value block holds at most SEGMENT =
    2**22) keeps every bin below 2**53, so float64 adds it exactly.  The bins
    go into one Python int, scaled by 2**1126 so that subnormals are whole,
    and the final int / int division rounds once.  A value that is not
    finite, or a total past the float range, raises OverflowError.
    """
    import numpy as np

    total = 0
    for block in blocks:
        if not block.size:
            continue
        if not np.isfinite(block).all():
            raise OverflowError("a term is not finite")
        m, e = np.frexp(block)
        m *= 2.0 ** 27
        high = np.floor(m)
        m -= high
        m *= 2.0 ** 26  # the low 26 bits, now whole
        least = int(e.min())
        bins = e - least
        highs = np.bincount(bins, weights=high).tolist()
        lows = np.bincount(bins, weights=m).tolist()
        for k, (h, l) in enumerate(zip(highs, lows)):
            total += ((int(h) << 26) + int(l)) << (least + k + 1073)
    return total / (1 << 1126)


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
    product over primes <= prime_cutoff and a rigorous tail factor."""
    import numpy as np

    from .sieves import DEFAULT_SPAN_CAPACITY, iter_phi_blocks, primes_upto

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
        terms = ((np.arange(start, start + vals.size, dtype=np.float64)
                  / vals.astype(np.float64)) ** beta
                 for start, vals in iter_phi_blocks(x))
        with np.errstate(over="ignore"):  # an infinite term makes the sum overflow
            total = _exact_sum(terms)
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
