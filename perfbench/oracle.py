"""Arithmetic the benchmark checks outputs with, written apart from phisigma.

Nothing here imports the package, so a defect in phisigma cannot hide itself
in its own check.  Factoring is trial division by the primes below 1000 and
then by caller-supplied candidate primes, with a Miller-Rabin test and
Pollard-Brent rho for whatever cofactor is left.
"""

from __future__ import annotations

import math

import numpy as np


def prime_flags(n: int) -> np.ndarray:
    """flags[k] is True exactly when k <= n is prime (sieve of Eratosthenes)."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


SMALL_PRIMES = tuple(int(p) for p in np.flatnonzero(prime_flags(1000)))
# Strong-pseudoprime bases 2..41 decide primality below 3.3e24; above that
# the test is probabilistic, which is enough for a cross-check.
_BASES = SMALL_PRIMES[:13]


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The least prime >= n."""
    while not is_probable_prime(n):
        n += 1
    return n


def _rho_factor(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard-Brent)."""
    r = math.isqrt(n)
    if r * r == n:
        return r
    for c in range(1, 20):
        y, g, q, m, power = 2, 1, 1, 64, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            k = 0
            while k < power and g == 1:
                ys = y
                for _ in range(min(m, power - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            power *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho found no factor of {n}")


def factor(n: int, candidates=()) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    candidates are primes likely to divide n; trying them before rho keeps
    products of two large primes cheap to split.
    """
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    if n > 1 and not is_probable_prime(n):
        for p in candidates:
            while n % p == 0:
                n //= p
                out[p] = out.get(p, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        c = stack.pop()
        if is_probable_prime(c):
            out[c] = out.get(c, 0) + 1
        else:
            d = _rho_factor(c)
            stack.extend((d, c // d))
    return out


def phi(n: int, candidates=()) -> int:
    out = 1
    for p, e in factor(n, candidates).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def sigma(n: int, candidates=()) -> int:
    out = 1
    for p, e in factor(n, candidates).items():
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def divisors(factors: dict[int, int]) -> list[int]:
    out = [1]
    for p, e in factors.items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return out


def phi_preimage_count(factors: dict[int, int]) -> int:
    """#{x : phi(x) = m} for m = prod(p**e) > 1, by a count over divisors.

    Every prime p of such an x has p - 1 | m, and p**k contributes
    (p - 1) * p**(k - 1); ways maps each remaining quotient to the number
    of ways to reach it with the primes taken so far.
    """
    m = math.prod(p ** e for p, e in factors.items())
    ways = {m: 1}
    for p in sorted(d + 1 for d in divisors(factors) if is_probable_prime(d + 1)):
        new = dict(ways)
        for rest, count in ways.items():
            block = p - 1
            while rest % block == 0:
                new[rest // block] = new.get(rest // block, 0) + count
                block *= p
        ways = new
    return ways.get(1, 0)


def sigma_preimage_count(factors: dict[int, int]) -> int:
    """#{x : sigma(x) = m} for m = prod(p**e) > 1, by a count over divisors.

    A prime power p**k of such an x contributes a divisor d = sigma(p**k)
    of m; for k >= 2, p**k < d < (p + 1)**k pins p to the k-th root of d.
    """
    m = math.prod(p ** e for p, e in factors.items())
    blocks: dict[int, list[int]] = {}
    for d in divisors(factors):
        if d < 3:
            continue
        if is_probable_prime(d - 1):
            blocks.setdefault(d - 1, []).append(d)
        for k in range(2, d.bit_length()):
            root = math.isqrt(d) if k == 2 else round(d ** (1.0 / k))
            for p in (root - 1, root, root + 1):
                if p >= 2 and (p ** (k + 1) - 1) // (p - 1) == d and is_probable_prime(p):
                    blocks.setdefault(p, []).append(d)
    ways = {m: 1}
    for values in blocks.values():
        new = dict(ways)
        for rest, count in ways.items():
            for d in values:
                if rest % d == 0:
                    new[rest // d] = new.get(rest // d, 0) + count
        ways = new
    return ways.get(1, 0)
