"""Exact integer arithmetic: primality, factorization, multiplicative functions.

Everything here is deterministic.  Primality testing uses Miller-Rabin with
witness sets that are proven complete below known thresholds; above the
largest threshold a Pocklington n-1 proof is constructed instead of
accepting a probabilistic answer.  There is one factoring loop,
_prime_powers: trial division by the primes below 1000, then Brent's rho
with a deterministic trial-division fallback, which refuses (CapacityError)
a cofactor above TRIAL_DIVISION_CEILING.  A rho walk moves to its next
constant only when it cycles; one that spends _RHO_STEP_BUDGET steps raises
CapacityError.  factorize reads all of the loop; the Pocklington proof
leaves it as soon as its factored part is large enough.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityError, DomainError, shown


def exact_int(value, what: str, least: int | None = None, most: int | None = None) -> int:
    """value as an int that can be served: an integer (floats, strings and
    bools are refused, not converted), at least `least` when given
    (DomainError), and at most `most` when given (CapacityError, checked
    before any work).  Every public function passes each of its integer
    arguments through here once, on entry.

    >>> exact_int(7, "entry")
    7
    >>> exact_int(7.0, "entry")
    Traceback (most recent call last):
    phisigma.errors.DomainError: entry must be an integer, got 7.0
    >>> exact_int(0, "table bound", 1)
    Traceback (most recent call last):
    phisigma.errors.DomainError: table bound must be positive, got 0
    >>> exact_int(101, "table bound", 1, 100)
    Traceback (most recent call last):
    phisigma.errors.CapacityError: table bound 101 exceeds capacity 100
    """
    try:
        n = operator.index(value)
    except TypeError:  # also raised by a numpy array of more than one entry
        n = None
    if n is None or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if least is not None and n < least:
        bound = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")
        raise DomainError(f"{what} must be {bound}, got {shown(n)}")
    if most is not None and n > most:
        raise CapacityError(f"{what} {shown(n)} exceeds capacity {shown(most)}")
    return n


def _small_sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(limit + 1) if flags[i]]


_SMALL_PRIMES = tuple(_small_sieve(1000))
_TRIAL_PRIMES = tuple(p for p in _SMALL_PRIMES if p < 100)
# Largest n the trial-division fallback of the factorizer takes on: dividing
# up to its square root, 2**22, takes well under a second.
TRIAL_DIVISION_CEILING = 1 << 44
# Most steps one rho walk may take: 63 walks of 2**19 steps each, the work the
# factorizer once spread over 63 fresh starts.
_RHO_STEP_BUDGET = 63 << 19
# Most divisors divisors() lists, checked before it lists any (20! has
# 41,040; 10**5000 has 25,010,001).  This bounds a list of divisors of a
# per-target m near 3 MB (2.7 MB at 2**16, tracemalloc) and a preimage
# knapsack near 200 MB (extrapolated): its bytes per divisor grow with the
# target (0.8 kB at 10,368 divisors, 2.3 kB at 28,224, whose phi fill took
# 12-24 s on a 2-core Xeon).
DIVISOR_CAPACITY = 1 << 16

# Deterministic witness sets, each complete below its threshold.
_MR_TIERS = (
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)
_MR_PROVEN_BOUND = _MR_TIERS[-1][0]


def _strong_probable_prime(n: int, base: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@lru_cache(maxsize=1 << 16, typed=True)
def is_prime(n: int) -> bool:
    """Decide primality of n deterministically.

    >>> [k for k in range(20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    n = exact_int(n, "primality candidate")  # on a cache miss only
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 100 * 100:
        return True
    if n < _MR_PROVEN_BOUND:
        for bound, bases in _MR_TIERS:
            if n < bound:
                return all(_strong_probable_prime(n, b) for b in bases)
    if not (_strong_probable_prime(n, 2) and _strong_probable_prime(n, 3)):
        return False
    return _pocklington_certified(n)


def _pocklington_certified(n: int) -> bool:
    """Prove primality of n via a factored part of n-1.

    Requires a fully factored divisor F of n-1 with (F+1)^2 > n; then every
    prime divisor of n is 1 mod F, hence exceeds sqrt(n), hence n is prime.
    A Fermat failure along the way disproves primality outright.  F grows
    along _prime_powers(n - 1) and the stream is left once F suffices; it
    cannot run dry first, since F = n-1 at its end.  Each base takes one
    Fermat test, then witnesses every pending prime q of F (in stream order)
    with gcd(a**((n-1)/q) - 1, n) = 1.
    """
    m = n - 1
    pending: list[int] = []  # primes of F, in stream order
    ffpart = 1
    for q, e in _prime_powers(m):
        pending.append(q)
        ffpart *= q ** e
        if (ffpart + 1) ** 2 > n:
            break
    for a in _SMALL_PRIMES:
        if pow(a, m, n) != 1:
            return False
        pending = [q for q in pending if math.gcd(pow(a, m // q, n) - 1, n) != 1]
        if not pending:
            return True
    raise CapacityError(f"no Pocklington witness found for {shown(n)} at prime {pending[0]}")


def _find_nontrivial_factor(n: int) -> int:
    """Return a nontrivial factor of composite n with no factor below 100."""
    for k in range(2, n.bit_length()):
        r = _iroot(n, k)
        if r ** k == n:
            return r
    for c in range(1, 64):
        f = _brent_rho(n, c)
        if f is not None and 1 < f < n:
            return f
    # deterministic fallback, bounded so that it cannot run for hours
    if n > TRIAL_DIVISION_CEILING:
        raise CapacityError(
            f"failed to factor composite {shown(n)}: rho found no factor and trial division "
            f"stops at {TRIAL_DIVISION_CEILING}")
    d = 101
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    raise CapacityError(f"failed to factor composite {shown(n)}")


def _brent_rho(n: int, c: int) -> int | None:
    """A nontrivial factor of n from the walk y -> y*y + c, or None when the
    walk cycles; a walk still running after _RHO_STEP_BUDGET steps raises."""
    y, r, q, g = 2, 1, 1, 1
    x = ys = y
    count = 0
    while g == 1:
        if count > _RHO_STEP_BUDGET:
            raise CapacityError(f"failed to factor composite {shown(n)}: a rho walk found "
                                f"no factor in {_RHO_STEP_BUDGET} steps")
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += 128
        r <<= 1
        count += r
    if g == n:
        g = 1
        for _ in range(1 << 16):
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g if 1 < g < n else None


@dataclass(frozen=True)
class PrimeFactorization:
    """A value together with its factorization into prime powers.

    factors is a tuple of (prime, exponent) pairs with strictly increasing
    primes and positive exponents whose product reconstructs value.  The
    empty tuple is the factorization of 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "value", exact_int(self.value, "factored value", 1))
        object.__setattr__(self, "factors", tuple(
            (exact_int(p, "prime factor"), exact_int(e, "exponent", 1)) for p, e in self.factors))
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or not is_prime(p):
                raise DomainError(f"invalid factor list for {shown(self.value)}")
            prev = p
            prod *= p ** e
        if prod != self.value:
            raise DomainError(f"factor list of {shown(self.value)} multiplies to {shown(prod)}")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _strip(n: int, p: int) -> tuple[int, int]:
    """(n // p**e, e) for the largest e with p**e dividing n (n >= 1, p >= 2).

    Once p divides n, n // p is stripped of p**2 by the same rule, which
    leaves at most one factor p: O(log e) divisions, by p, p**2, p**4, ...
    """
    if n % p:
        return n, 0
    n, e = _strip(n // p, p * p)
    if n % p:
        return n, 2 * e + 1
    return n // p, 2 * e + 2


def _prime_powers(n: int):
    """Yield (p, e) for each prime power p**e exactly dividing n >= 1.

    First the primes below 1000, ascending, until p * p exceeds what is left
    unfound; then the primes of the cofactor, in the order a LIFO stack of
    _find_nontrivial_factor splits yields them, the factor found before the
    part it was split from.  A popped part is first cut to its gcd with the
    unfound rest, so a prime shared by two split parts (p*p*q split into p
    and p*q) is yielded once, with its full exponent, and its other copies
    are stripped from the rest before that is split again.

    >>> list(_prime_powers(720))
    [(2, 4), (3, 2), (5, 1)]
    """
    rem = n
    for p in _SMALL_PRIMES:
        if p * p > rem:
            break
        if rem % p == 0:
            rem, e = _strip(rem, p)
            yield p, e
    stack = [rem]
    while stack:
        c = math.gcd(stack.pop(), rem)
        if c == 1:
            continue
        if is_prime(c):
            rem, e = _strip(rem, c)
            yield c, e
        else:
            d = _find_nontrivial_factor(c)
            stack.extend((c // d, d))


def factorize(n: int) -> PrimeFactorization:
    """Factor a positive integer into prime powers.

    >>> factorize(360).factors
    ((2, 3), (3, 2), (5, 1))
    """
    n = exact_int(n, "factored value", 1)
    return PrimeFactorization(n, tuple(sorted(_prime_powers(n))))


# phi and sigma take their prime-power values by one Horner step:
# v(p) = p + a, v(p**(j+1)) = v(p**j) * p + c, with (a, c) per map.
_PRIME_POWER_RULE = {"phi": (-1, 0), "sigma": (1, 1)}
_KINDS = tuple(_PRIME_POWER_RULE)


def _check_kind(kind: str) -> None:
    """The one check of a map kind; an unhashable kind is refused here, not
    in a cache that hashes it."""
    if kind not in _KINDS:
        raise DomainError(f"kind must be one of {_KINDS}, got {kind!r}")


def euler_phi(f: PrimeFactorization | int) -> int:
    """Euler's totient from a factorization (or an integer, factored here).

    >>> euler_phi(36)
    12
    """
    if not isinstance(f, PrimeFactorization):
        f = factorize(f)
    out = 1
    for p, e in f.factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def sigma(f: PrimeFactorization | int) -> int:
    """Sum of all positive divisors from a factorization.

    >>> sigma(12)
    28
    """
    if not isinstance(f, PrimeFactorization):
        f = factorize(f)
    out = 1
    for p, e in f.factors:
        out *= sigma_prime_power(p, e)
    return out


def divisors(f: PrimeFactorization | int) -> list[int]:
    """All positive divisors in increasing order; their count is held to
    DIVISOR_CAPACITY before any is listed.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    if not isinstance(f, PrimeFactorization):
        f = factorize(f)
    exact_int(math.prod(e + 1 for _, e in f.factors), "divisor count", most=DIVISOR_CAPACITY)
    out = [1]
    for p, e in f.factors:
        out = [d * p ** k for d in out for k in range(e + 1)]
    out.sort()
    return out


def iroot(n: int, k: int) -> int:
    """Integer k-th root: the largest x with x**k <= n."""
    return _iroot(exact_int(n, "radicand", 0), exact_int(k, "root degree", 1))


def _iroot(n: int, k: int) -> int:
    if n == 0:
        return 0
    if n.bit_length() <= k:  # 1 <= n < 2**k, without building 2**k
        return 1
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def sigma_prime_power(p: int, e: int) -> int:
    """sigma(p**e) = 1 + p + ... + p**e, without checking p for primality."""
    p, e = exact_int(p, "prime power base", 2), exact_int(e, "exponent", 0)
    return (p ** (e + 1) - 1) // (p - 1)


def _prime_powers_with_sigma(d: int):
    """Yield each prime power pi**b with sigma(pi**b) == d and b >= 2, by
    ascending b.  For b >= 2 the base is pinned down:
    pi**b < sigma(pi**b) < (pi+1)**b, so pi must equal iroot(d, b).

    Exponents are pruned before any root is taken:
    - pi = 2: sigma(2**b) = 2**(b+1) - 1, so d + 1 must be a power of two.
    - Odd pi: sigma(pi**b) is a sum of b + 1 odd terms, so b + 1 has the
      parity of d; and sigma(pi**b) >= sigma(3**b) = (3**(b+1) - 1)/2, so
      only b with 3**(b+1) <= 2d + 1 (so b < bits(d), tested first) solve.
    pi = 2 comes last: its b has d = 2**(b+1) - 1 < (3**(b+1) - 1)/2, while
    an odd-pi exponent b' has (3**(b'+1) - 1)/2 <= d, so b' < b.
    """
    b = 2 + (d + 1) % 2  # b + 1 has the parity of d
    while b < d.bit_length() and 3 ** (b + 1) <= 2 * d + 1:  # so iroot(d, b) >= 3
        pi = _iroot(d, b)
        if pi ** (b + 1) - 1 == d * (pi - 1) and is_prime(pi):
            yield pi, b
        b += 2
    if d & (d + 1) == 0 and d.bit_length() > 2:
        yield 2, d.bit_length() - 1


def prime_power_sigma_solve(d: int) -> tuple[int, int] | None:
    """Find a prime power pi**b with sigma(pi**b) == d and b >= 2.

    Returns the representation with the smallest exponent, or None.
    """
    d = exact_int(d, "sigma value", 1)
    return next(_prime_powers_with_sigma(d), None)


@lru_cache(maxsize=1 << 16, typed=True)
def prime_power_sigma_all(d: int) -> tuple[tuple[int, int], ...]:
    """All prime powers pi**b (b >= 1) with sigma(pi**b) == d.

    Representations need not be unique: sigma(5**2) == sigma(2**4) == 31.
    """
    d = exact_int(d, "sigma value", 1)  # on a cache miss only
    first = ((d - 1, 1),) if d >= 3 and is_prime(d - 1) else ()
    return first + tuple(_prime_powers_with_sigma(d))
