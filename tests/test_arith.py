"""Arithmetic layer checked against sympy and brute force."""

import math
import random
import time

import pytest
import sympy

from phisigma import arith
from phisigma.arith import (
    PrimeFactorization,
    divisors,
    euler_phi,
    factorize,
    iroot,
    is_prime,
    prime_power_sigma_all,
    prime_power_sigma_solve,
    sigma,
    sigma_prime_power,
)
from phisigma.errors import CapacityError


def test_is_prime_small_exhaustive():
    for n in range(-3, 5000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_random_word_sized():
    rng = random.Random(1)
    for _ in range(400):
        n = rng.randrange(2, 1 << 64)
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_beyond_witness_tiers():
    # Above the largest deterministic witness tier the certified path takes
    # over; agreement with sympy on a band of 25-digit values exercises it.
    rng = random.Random(2)
    lo = 10 ** 25
    for _ in range(40):
        n = rng.randrange(lo, 10 * lo) | 1
        assert is_prime(n) == sympy.isprime(n), n
    for k in range(5):
        p = sympy.nextprime(lo + k * 10 ** 20)
        assert is_prime(int(p))


def test_is_prime_structured_form_values():
    # Values shaped like the linear forms the checker probes: 2*d1*d2 +/- 1.
    rng = random.Random(3)
    for _ in range(60):
        d1 = rng.randrange(10 ** 10, 10 ** 12)
        d2 = rng.randrange(10 ** 10, 10 ** 12)
        for s in (1, -1):
            n = 2 * d1 * d2 + s
            assert is_prime(n) == sympy.isprime(n), n


def test_factorize_matches_sympy():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(2, 10 ** 12)
        f = factorize(n)
        assert dict(f.factors) == {int(p): e for p, e in sympy.factorint(n).items()}
        assert math.prod(p ** e for p, e in f.factors) == n


def test_factorize_prime_powers_and_smooth():
    for p in (2, 3, 997, 10 ** 9 + 7):
        for e in (1, 2, 5):
            f = factorize(p ** e)
            assert f.factors == ((p, e),)
    f = factorize(2 ** 10 * 3 ** 5 * 5 ** 3 * 7 * 11)
    assert f.factors == ((2, 10), (3, 5), (5, 3), (7, 1), (11, 1))


def test_strip_matches_one_division_at_a_time():
    rng = random.Random(19)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7, 97, 997, 10 ** 9 + 7))
        n = rng.randrange(1, 10 ** 6) * p ** rng.randrange(71)
        rest, e = n, 0
        while rest % p == 0:
            rest //= p
            e += 1
        assert arith._strip(n, p) == (rest, e), (n, p)


def test_factorize_high_prime_powers_in_few_divisions():
    # by squaring each takes well under a second; one division per factor
    # of p would take tens of seconds
    for n, want in ((3 ** (2 ** 18), ((3, 2 ** 18),)),
                    (2 ** (2 ** 18) * 3, ((2, 2 ** 18), (3, 1)))):
        start = time.perf_counter()
        assert factorize(n).factors == want
        assert time.perf_counter() - start < 5


def test_factorize_primes_shared_by_split_parts():
    # p**2 * q may split into p and p * q: p then turns up in two parts and
    # must be counted once, with its full exponent.
    rng = random.Random(9)
    for _ in range(6):
        p, q, r = (int(sympy.nextprime(rng.randrange(1 << 20, 1 << 28))) for _ in range(3))
        for n in (p ** 2 * q, p ** 3 * q ** 2 * r):
            want = {int(a): e for a, e in sympy.factorint(n).items()}
            assert factorize(n).factors == tuple(sorted(want.items())), n
    n = (2 ** 31 - 1) ** 2 * (2 ** 61 - 1)
    assert factorize(n).factors == ((2 ** 31 - 1, 2), (2 ** 61 - 1, 1))


def test_factorize_splits_off_each_found_prime_before_its_cofactor(monkeypatch):
    # A factor the splitter finds is taken apart before the part it came
    # from, so a found prime leaves with all its powers and is stripped from
    # that part before it is split again.
    real = arith._find_nontrivial_factor
    calls = []
    monkeypatch.setattr(arith, "_find_nontrivial_factor", lambda n: calls.append(n) or real(n))
    rng = random.Random(9)
    for _ in range(6):
        p, q, r = (int(sympy.nextprime(rng.randrange(1 << 20, 1 << 28))) for _ in range(3))
        for n in (p ** 2 * q, p ** 3 * q ** 2 * r):
            calls.clear()
            f = factorize(n)
            assert len(calls) <= len(f.factors), (n, calls)


def test_pocklington_proof_against_sympy_with_a_split_cofactor():
    # n - 1 = 2**k * p**2 * q with 2**k < p**2 * q: the proof must split the
    # cofactor, and meets p and q in the splitter's order.
    rng = random.Random(10)
    primes = 0
    for _ in range(30):
        p, q = (int(sympy.nextprime(rng.randrange(1 << 29, 1 << 31))) for _ in range(2))
        for k in range(1, 87):
            n = (p * p * q << k) + 1
            assert n > arith._MR_PROVEN_BOUND
            want = sympy.isprime(n)
            assert is_prime(n) == want, n
            primes += want
    assert primes >= 20


def test_pocklington_proof_stops_before_splitting_the_cofactor(monkeypatch):
    # n - 1 = 2**k * p * q with 2**k > p * q: the power of 2 alone is a large
    # enough factored part, so the 80-bit cofactor p * q is never split.
    p = int(sympy.prevprime(1 << 40))
    q = int(sympy.prevprime(p))
    k = next(k for k in range(81, 400) if sympy.isprime((p * q << k) + 1))
    n = (p * q << k) + 1

    def refuse(c):
        raise AssertionError(f"asked to split {c}")

    monkeypatch.setattr(arith, "_find_nontrivial_factor", refuse)
    is_prime.cache_clear()
    assert is_prime(n)


def test_factorization_record_validation():
    f = factorize(360)
    assert f.factors == ((2, 3), (3, 2), (5, 1))
    assert f.primes() == (2, 3, 5)
    with pytest.raises(ValueError):
        PrimeFactorization(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(ValueError):
        PrimeFactorization(12, ((2, 2), (3, 0)))  # zero exponent
    with pytest.raises(ValueError):
        PrimeFactorization(10, ((2, 1), (3, 1)))  # value mismatch


def test_euler_phi_brute_force():
    for n in range(1, 300):
        want = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == want, n


def test_sigma_and_divisors_brute_force():
    for n in range(1, 300):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        assert divisors(n) == divs, n
        assert sigma(n) == sum(divs), n


def test_phi_sigma_random_against_sympy():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randrange(1, 10 ** 10)
        assert euler_phi(n) == sympy.totient(n)
        assert sigma(n) == sympy.divisor_sigma(n)


def test_phi_sigma_accept_factorization_objects():
    f = factorize(5040)
    assert euler_phi(f) == euler_phi(5040)
    assert sigma(f) == sigma(5040)
    assert divisors(f) == divisors(5040)


def test_multiplicativity_on_coprime_pairs():
    rng = random.Random(6)
    done = 0
    while done < 80:
        a = rng.randrange(2, 10 ** 6)
        b = rng.randrange(2, 10 ** 6)
        if math.gcd(a, b) != 1:
            continue
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
        assert sigma(a * b) == sigma(a) * sigma(b)
        done += 1


def test_iroot_exact_and_floor():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randrange(2, 12)
        r = rng.randrange(1, 10 ** 6)
        n = r ** k
        assert iroot(n, k) == r
        got = iroot(n + rng.randrange(0, 10 ** 4), k)
        assert got ** k <= n + 10 ** 4
    for n in range(0, 200):
        for k in (2, 3, 5):
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k


def test_sigma_prime_power_formula():
    for p in (2, 3, 5, 101):
        for e in range(1, 8):
            assert sigma_prime_power(p, e) == sum(p ** j for j in range(e + 1))


def _brute_sigma_prime_power_reps(d, min_exp):
    out = []
    b = min_exp
    while 2 ** (b + 1) - 1 <= d:
        if b == 1:
            # sigma(p) = p + 1, so the only candidate is p = d - 1.
            if sympy.isprime(d - 1):
                out.append((d - 1, 1))
        else:
            p = 2
            while sigma_prime_power(p, b) <= d:
                if sympy.isprime(p) and sigma_prime_power(p, b) == d:
                    out.append((p, b))
                p += 1
        b += 1
    return out


def test_prime_power_sigma_solve_brute_force():
    for d in range(2, 5000):
        reps = _brute_sigma_prime_power_reps(d, 2)
        got = prime_power_sigma_solve(d)
        if reps:
            assert got == reps[0], d
        else:
            assert got is None, d


def test_prime_power_sigma_solve_skips_exponent_one(monkeypatch):
    # Condition (ii) solves on divisors of config targets; a primality test
    # of d - 1 there could need a Pocklington proof nobody asked for.
    tested = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or real(n))
    prime_power_sigma_all.cache_clear()  # a cached answer would hide the call
    for d in range(3, 3000):
        tested.clear()
        prime_power_sigma_solve(d)
        assert d - 1 not in tested, d


def test_prime_power_sigma_all_brute_force():
    for d in range(2, 3000):
        want = tuple(_brute_sigma_prime_power_reps(d, 1))
        assert prime_power_sigma_all(d) == want, d


def test_prime_power_sigma_examples():
    assert prime_power_sigma_solve(7) == (2, 2)
    assert prime_power_sigma_solve(13) == (3, 2)
    assert prime_power_sigma_solve(8) is None
    assert prime_power_sigma_all(31) == ((5, 2), (2, 4))


def _every_exponent_sigma_reps(d):
    """The solver before exponent pruning: one root for every b >= 2 with
    2**(b+1) - 1 <= d."""
    out = []
    b = 2
    while (1 << (b + 1)) - 1 <= d:
        pi = arith._iroot(d, b)
        if pi >= 2 and pi ** (b + 1) - 1 == d * (pi - 1) and is_prime(pi):
            out.append((pi, b))
        b += 1
    return out


def test_pruned_sigma_exponents_match_every_exponent_loop():
    rng = random.Random(1515)
    structured = {sigma_prime_power(p, b) for p in (2, 3, 5, 7, 31, 127, 8191, 10007)
                  for b in range(1, 40)}
    randoms = [rng.randrange(1, 10 ** 30) for _ in range(500)]
    for d in [*range(1, 10 ** 5), *sorted(structured), *randoms]:
        want = _every_exponent_sigma_reps(d)
        assert list(arith._prime_powers_with_sigma(d)) == want, d
        if d in structured:
            assert prime_power_sigma_solve(d) == (want[0] if want else None), d
            first = [(d - 1, 1)] if sympy.isprime(d - 1) else []
            assert prime_power_sigma_all(d) == tuple(first + want), d


def test_factoring_fallback_failure_is_capacity_error(monkeypatch):
    # With rho switched off, a prime handed in as composite exhausts trial
    # division; the failure is a CapacityError, still a RuntimeError.
    monkeypatch.setattr(arith, "_brent_rho", lambda n, c: None)
    with pytest.raises(CapacityError, match="failed to factor"):
        arith._find_nontrivial_factor(1_000_003)
    assert issubclass(CapacityError, RuntimeError)
    assert arith._find_nontrivial_factor(1009 * 1013) in (1009, 1013)


def test_trial_division_fallback_ceiling(monkeypatch):
    # The ceiling is checked before trial division starts, so a semiprime far
    # out of trial-division reach fails at once instead of running for hours.
    monkeypatch.setattr(arith, "_brent_rho", lambda n, c: None)
    with pytest.raises(CapacityError, match="^failed to factor"):
        arith._find_nontrivial_factor((2 ** 61 - 1) * (2 ** 89 - 1))
    monkeypatch.setattr(arith, "TRIAL_DIVISION_CEILING", 10 ** 6)
    assert arith._find_nontrivial_factor(991 * 1009) == 991  # 999,919: below it
    with pytest.raises(CapacityError, match="^failed to factor"):
        arith._find_nontrivial_factor(1009 * 1013)  # 1,022,117: above it


def test_rho_walk_over_budget_is_capacity_error(monkeypatch):
    # A walk that finds nothing within its step budget fails at once rather
    # than starting again with the next constant.
    monkeypatch.setattr(arith, "_RHO_STEP_BUDGET", 1 << 10)
    with pytest.raises(CapacityError, match="^failed to factor"):
        arith._find_nontrivial_factor((2 ** 61 - 1) * (2 ** 89 - 1))


def test_iroot_small_values_by_brute_force():
    for n in range(300):
        for k in range(1, 13):
            want = max(x for x in range(n + 1) if x ** k <= n)
            assert iroot(n, k) == want, (n, k)


def test_iroot_exponent_beyond_bit_length_is_immediate():
    # 1 <= n < 2**k has root 1; 2**(k-1) must not be built on the way there
    assert iroot(2 ** 20 - 1, 20) == 1
    assert iroot(2 ** 20, 20) == 2
    assert iroot(1, 1) == 1
    start = time.perf_counter()
    assert iroot(10 ** 6, 10 ** 8) == 1
    assert iroot(3, 10 ** 8 + 1) == 1
    assert time.perf_counter() - start < 0.5
