"""Counting experiments checked against naive enumerations."""

import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import sympy

import phisigma.sieves
from phisigma.arith import euler_phi, iroot, is_prime
from phisigma.errors import CapacityError, DomainError
from phisigma.sievelab import (
    count_prime_pairs,
    count_shifted_almost_primes,
    l_value,
    lemma3_reference_constant,
    ratio_power_sum,
)
from phisigma.sieves import DEFAULT_SPAN_CAPACITY, phi_table, primes_upto, sieve_range


def _naive_shifted_count(x, alpha, a):
    num, den = alpha.numerator, alpha.denominator
    count = 0
    for s in range(x // 2 + 1, x + 1):
        if not sympy.isprime(s):
            continue
        u = (s - a) // 2
        if u < 2:
            continue
        fac = sympy.factorint(u)
        if len(fac) >= 2 and min(fac) ** den > x ** num:
            count += 1
    return count


def test_shifted_count_small_example():
    rec = count_shifted_almost_primes(16, Fraction(1, 8), 1)
    assert rec.count == 1
    assert rec.reference_constant is not None


def test_shifted_count_against_naive():
    for x in (16, 100, 400, 2000):
        for a in (1, -1):
            for alpha in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3)):
                rec = count_shifted_almost_primes(x, alpha, a)
                assert rec.count == _naive_shifted_count(x, alpha, a), (x, a, alpha)
                want_ref = alpha == Fraction(1, 8)
                assert (rec.reference_constant is not None) == want_ref


def test_shifted_count_normalization():
    rec = count_shifted_almost_primes(2000, Fraction(1, 8), -1)
    assert rec.normalized_ratio == rec.count / (2000 / math.log(2000) ** 2)


def test_shifted_count_domain_errors():
    with pytest.raises(DomainError):
        count_shifted_almost_primes(15, Fraction(1, 8), 1)
    with pytest.raises(DomainError):
        count_shifted_almost_primes(100, Fraction(1, 8), 2)
    with pytest.raises(DomainError):
        count_shifted_almost_primes(100, Fraction(9, 8), 1)
    with pytest.raises(CapacityError):
        count_shifted_almost_primes(DEFAULT_SPAN_CAPACITY * 2, Fraction(1, 8), 1)


def test_reference_constant_closed_form():
    got = lemma3_reference_constant()
    assert abs(got - (4 * math.log(3) - 4)) < 1e-12
    assert 0.39 < got < 0.40
    with pytest.raises(DomainError):
        lemma3_reference_constant(Fraction(1, 4))


def test_prime_pairs_examples():
    assert count_prime_pairs(2, 10) == 2  # (3,5), (5,7)
    assert count_prime_pairs(4, 12) == 2  # (3,7), (7,11)


def test_prime_pairs_against_naive():
    for k in (2, 4, 6, 10, 30):
        for x in (k + 2, 50, 341, 1000):
            want = sum(1 for p in sympy.sieve.primerange(2, x - k + 1)
                       if sympy.isprime(p + k))
            assert count_prime_pairs(k, x) == want, (k, x)


def test_prime_pairs_domain_errors():
    for bad_k in (0, 1, 3, -2):
        with pytest.raises(DomainError):
            count_prime_pairs(bad_k, 100)
    with pytest.raises(DomainError):
        count_prime_pairs(4, 4)


def test_l_value_examples():
    assert l_value((3, 5, 7)) == Fraction(8)
    assert l_value((3, 5)) == Fraction(2)
    assert l_value((5,)) == Fraction(1)


def test_l_value_permutation_invariant():
    base = (5, 11, 17, 29)
    want = l_value(base)
    assert want == l_value(tuple(reversed(base)))
    assert want == l_value((17, 5, 29, 11))
    assert isinstance(want, Fraction)


def test_l_value_brute_force():
    ps = (7, 13, 19, 31)
    out = Fraction(1)
    for g in range(4):
        for h in range(g + 1, 4):
            d = abs(ps[g] - ps[h])
            out *= Fraction(d, sympy.totient(d))
    assert l_value(ps) == out


def test_l_value_against_the_product_of_ratios():
    # net prime exponents against the product of the differences over the
    # product of their totients, on seeded sets of small and of wide primes
    small = primes_upto(10 ** 5).tolist()
    for seed in range(6):
        rng = random.Random(seed)
        ps = rng.sample(small, rng.randrange(2, 60))
        if seed % 2:  # primes past the small-prime table, some far apart
            ps = [sympy.nextprime(rng.randrange(10 ** 9, 10 ** 12)) for _ in range(8)] + ps[:8]
        diffs = [abs(g - h) for g in ps for h in ps if g < h]
        want = Fraction(math.prod(diffs), math.prod(map(euler_phi, diffs)))
        assert l_value(ps) == want, seed


def test_l_value_validation():
    with pytest.raises(DomainError):
        l_value((3, 3, 5))
    with pytest.raises(DomainError):
        l_value((3, 4))


def test_ratio_power_sum_tiny_exact():
    rep = ratio_power_sum(1.0, 4)
    assert rep.sum == pytest.approx(6.5, abs=1e-12)


def test_ratio_power_sum_against_table():
    table = phi_table(2000)
    for beta in (1.0, 2.0, 0.5):
        want = math.fsum((k / table[k]) ** beta for k in range(1, 2001))
        rep = ratio_power_sum(beta, 2000)
        assert rep.sum == pytest.approx(want, rel=1e-12)


# The sums of earlier releases, bit for bit: one exponent band (beta = 0.5 and
# 2) and several (beta = 8 and 64) in the exact sum, over the value kernel's
# loop and run tiers.
@pytest.mark.parametrize("beta, x, want", [
    (0.5, 10 ** 5, "0x1.0a9fd9b3ae444p+17"),
    (2.0, 10 ** 5, "0x1.b0a933061b3c2p+18"),
    (8.0, 10 ** 5, "0x1.9ec3e3ad40e3ep+28"),
    (64.0, 10 ** 5, "0x1.b4b4a83be7fb2p+154"),
    (2.0, 10 ** 6, "0x1.0e724b68d82b1p+22"),
])
def test_ratio_power_sum_is_pinned(beta, x, want):
    assert ratio_power_sum(beta, x).sum.hex() == want


def test_ratio_power_sum_bounds_shape():
    rep = ratio_power_sum(1.0, 1000, prime_cutoff=10 ** 4)
    assert rep.tail_factor_bound >= 1.0
    assert rep.c_beta > 1.0
    wider = ratio_power_sum(1.0, 1000, prime_cutoff=10 ** 5)
    # Widening the truncation grows the product and shrinks the tail bound.
    assert wider.c_beta >= rep.c_beta
    assert wider.tail_factor_bound <= rep.tail_factor_bound


def test_ratio_power_sum_domain_errors():
    with pytest.raises(DomainError):
        ratio_power_sum(0.0, 100)
    with pytest.raises(DomainError):
        ratio_power_sum(1.0, 0)
    with pytest.raises(DomainError):
        ratio_power_sum(1.0, 100, prime_cutoff=1)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 700.0, 2000.0, 1e300])
def test_ratio_power_sum_rejects_non_finite_beta_and_results(beta):
    # 2000 overflowed in the power itself, 700 made c_beta infinite; nan and
    # inf went through and came back as nan or inf
    with pytest.raises(DomainError, match="beta"):
        ratio_power_sum(beta, 1000)
    assert math.isfinite(ratio_power_sum(300.0, 1000).c_beta)


def test_ratio_power_sum_rejects_an_infinite_sum(monkeypatch):
    # With no primes in the product c_beta stays 1, so only the sum can
    # overflow: 3**700 is past the float range.  The phi sieve asks for its
    # own, smaller, prime bound and still gets its primes.
    import phisigma.sieves

    real = phisigma.sieves.primes_upto
    monkeypatch.setattr(phisigma.sieves, "primes_upto", lambda n: real(1 if n == 10 ** 5 else n))
    assert ratio_power_sum(2.0, 6).c_beta == 1.0
    with pytest.raises(DomainError, match="the sum is not a finite float"):
        ratio_power_sum(700.0, 6)


def test_ratio_power_sum_rejects_finite_terms_past_the_float_range(monkeypatch):
    # k/phi(k) = 3 at k = 6 and 12: 3**646 is 0.92 of the largest float, so
    # each term is finite and their sum is not.  No primes in the product, as
    # in the test above.
    import phisigma.sieves

    real = phisigma.sieves.primes_upto
    monkeypatch.setattr(phisigma.sieves, "primes_upto", lambda n: real(1 if n == 10 ** 5 else n))
    assert math.isfinite(ratio_power_sum(646.0, 11).sum)
    with pytest.raises(DomainError, match="the sum is not a finite float"):
        ratio_power_sum(646.0, 12)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.7])
def test_ratio_power_sum_is_one_fsum_of_the_terms(beta):
    # The same float expression on one dense array: numpy's elementwise
    # results do not depend on how the range is cut into blocks, or on
    # whether an even n's term is formed from its odd part's.  The first
    # block holds the 2**17 odd m below 2**18, so x = 2**18 + 1 opens a
    # second, and from x = 2**19 + 2 its m have even multiples up to x too.
    top = 2 ** 19 + 3
    ks = np.arange(1, top + 1, dtype=np.float64)
    terms = (ks / phi_table(top)[1:].astype(np.float64)) ** beta
    for x in (1, 2, 3, 2 ** 17 - 1, 2 ** 17, 2 ** 17 + 1, 2 ** 18, 2 ** 18 + 1, 300000,
              2 ** 19 + 1, 2 ** 19 + 2, top):
        assert ratio_power_sum(beta, x).sum == math.fsum(terms[:x].tolist()), x


def test_ratio_power_sum_forms_no_even_term_past_x(monkeypatch):
    # n = 30 = 2 * 15 has 30 / phi(30) = 2 * 15 / phi(15) = 3.75, and 3.75**600
    # is past the float range; below it every term is finite.  So a sum that
    # formed (2 * 15 / phi(15))**600 for x = 29 would overflow.  No primes in
    # the product, as in the two tests above.
    import phisigma.sieves

    real = phisigma.sieves.primes_upto
    monkeypatch.setattr(phisigma.sieves, "primes_upto", lambda n: real(1 if n == 10 ** 5 else n))
    got = ratio_power_sum(600.0, 29).sum
    assert math.isfinite(got) and got == pytest.approx(7.4957e286, rel=1e-4)
    with pytest.raises(DomainError, match="the sum is not a finite float"):
        ratio_power_sum(600.0, 30)


@pytest.mark.parametrize("beta", [True, "abc", None])
def test_ratio_power_sum_refuses_a_beta_that_is_not_a_number(beta, monkeypatch):
    # "abc" raised a bare TypeError and True summed as beta = 1.0
    import phisigma.sieves

    def sieve(*args, **kwargs):
        pytest.fail("sieved before checking beta")

    for name in ("primes_upto", "iter_phi_blocks"):
        monkeypatch.setattr(phisigma.sieves, name, sieve)
    with pytest.raises(DomainError, match="beta must be an int or a float"):
        ratio_power_sum(beta, 100)


def test_ratio_power_sum_integer_beta_is_its_float():
    assert repr(ratio_power_sum(2, 5000)) == repr(ratio_power_sum(2.0, 5000))
    with pytest.raises(DomainError, match="positive and finite"):  # no float holds it
        ratio_power_sum(10 ** 400, 100)


@lru_cache(maxsize=None)
def _prime_factors(u):
    return sympy.primefactors(u)


def _loop_shifted_count(x, alpha, a):
    """The per-prime loop over sympy's prime factors, as an oracle."""
    num, den = alpha.numerator, alpha.denominator
    x_pow = x ** num
    count = 0
    for s in sieve_range(x // 2 + 1, x):
        ps = _prime_factors((s - a) // 2)  # ascending
        if len(ps) >= 2 and ps[0] ** den > x_pow:
            count += 1
    return count


def test_shifted_count_against_loop_every_x():
    for alpha in (Fraction(1, 8), Fraction(1, 3)):
        for a in (1, -1):
            for x in range(16, 3001):
                got = count_shifted_almost_primes(x, alpha, a).count
                assert got == _loop_shifted_count(x, alpha, a), (x, a, alpha)


def test_shifted_count_against_loop_large_x():
    for x in (10 ** 5, 3 * 10 ** 5 + 7):
        for a in (1, -1):
            for alpha in (Fraction(1, 8), Fraction(2, 5)):
                got = count_shifted_almost_primes(x, alpha, a).count
                assert got == _loop_shifted_count(x, alpha, a), (x, a, alpha)


def _prime_flags(x):
    """flags[k] is True iff k is prime, for 0 <= k <= x, from primes_upto."""
    flags = np.zeros(x + 1, dtype=bool)
    flags[primes_upto(x)] = True
    return flags


def test_prime_pairs_against_primes_upto():
    x = 200003
    flags = _prime_flags(x)
    for k in (2, 4, 6, 30, 210):
        assert count_prime_pairs(k, x) == int(np.count_nonzero(flags[: x - k + 1] & flags[k:]))


def test_prime_pairs_stream_against_flags(monkeypatch):
    # 64-point strike segments: gaps of 130 and 200 span more than two of them
    monkeypatch.setattr(phisigma.sieves, "STRIKE", 64)
    for x in range(3, 1501):
        flags = _prime_flags(x)
        for k in (2, 4, 62, 64, 66, 130, 200):
            if k < x:
                want = int(np.count_nonzero(flags[: x - k + 1] & flags[k:]))
                assert count_prime_pairs(k, x) == want, (k, x)


def test_prime_pairs_stream_random():
    rng = random.Random(1616)
    flags = _prime_flags(2 * 10 ** 5)
    for _ in range(200):
        x = rng.randrange(3, 2 * 10 ** 5)
        k = 2 * rng.randrange(1, min(x, 2000) // 2 + 1)
        if k < x:
            want = int(np.count_nonzero(flags[: x - k + 1] & flags[k : x + 1]))
            assert count_prime_pairs(k, x) == want, (k, x)


def test_shifted_count_stream_against_loop(monkeypatch):
    # 64-point strike segments: every x spans several windows of u and of s
    monkeypatch.setattr(phisigma.sieves, "STRIKE", 64)
    for alpha in (Fraction(1, 8), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)):
        for a in (1, -1):
            for x in range(16, 3001):
                got = count_shifted_almost_primes(x, alpha, a).count
                assert got == _loop_shifted_count(x, alpha, a), (x, a, alpha)


def test_shifted_count_drops_rough_prime_powers(monkeypatch):
    # u = 17**2 is rough for x = 1152, alpha = 1/3 (17 > 1152**(1/3)) and
    # s = 2u - 1 = 577 is a prime in (576, 1152], but u has one distinct prime
    x, alpha, a = 1152, Fraction(1, 3), -1
    assert 17 > iroot(x, 3) and is_prime(2 * 17 ** 2 + a) and x // 2 < 2 * 17 ** 2 + a <= x
    want = _loop_shifted_count(x, alpha, a)
    assert count_shifted_almost_primes(x, alpha, a).count == want
    monkeypatch.setattr(phisigma.sieves, "STRIKE", 64)
    assert count_shifted_almost_primes(x, alpha, a).count == want


def test_streamed_counts_hold_segments_not_the_range():
    # numpy reports its buffers to tracemalloc; a table over [0, x] at
    # x = 2e7 would take 20 MB of flags or 80 MB of int64
    calls = (lambda: count_prime_pairs(2, 2 * 10 ** 7),
             lambda: count_shifted_almost_primes(2 * 10 ** 7, Fraction(1, 8), 1))
    count_prime_pairs(2, 100)  # any first-call imports happen before tracing
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            call()
            assert tracemalloc.get_traced_memory()[1] < 8 * 2 ** 20
    finally:
        tracemalloc.stop()


def test_shifted_count_refuses_a_numerator_too_large_to_power():
    # x ** 1000001 would hold 20 million bits; refused before any sieving
    with pytest.raises(CapacityError, match="bits"):
        count_shifted_almost_primes(10 ** 6, Fraction(1000001, 8000000), -1)


def test_shifted_count_tiny_alpha():
    # 200 ** alpha < 2 for both alphas, so every factor qualifies alike
    tiny = count_shifted_almost_primes(200, Fraction(1, 10 ** 8), 1).count
    assert tiny == count_shifted_almost_primes(200, Fraction(1, 9), 1).count
    assert tiny == _naive_shifted_count(200, Fraction(1, 9), 1)


@pytest.mark.parametrize("bad", [3.9, 5.0, True, "7"])
def test_l_value_refuses_non_integers(bad):
    with pytest.raises(DomainError, match="entry must be an integer"):
        l_value((bad, 5, 7))


def test_l_value_accepts_numpy_integers():
    assert l_value(np.array([3, 5, 7], dtype=np.int64)) == Fraction(8)


@pytest.mark.parametrize("alpha", [0.1, "abc", None])
def test_alpha_must_be_a_rational(alpha):
    # 0.1 became a Fraction with a 52-bit numerator and a CapacityError,
    # "abc" a bare ValueError and None a TypeError
    with pytest.raises(DomainError, match="alpha must be an integer or a Fraction"):
        count_shifted_almost_primes(1000, alpha, 1)
    with pytest.raises(DomainError, match="alpha must be an integer or a Fraction"):
        lemma3_reference_constant(alpha)
