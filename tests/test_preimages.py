"""Preimage enumeration checked against batch sieve buckets."""

import random
from collections import defaultdict

import pytest

import phisigma.arith
import phisigma.preimages
from phisigma.arith import divisors, euler_phi, sigma
from phisigma.errors import CapacityError, DomainError
from phisigma.preimages import (
    minimal_m_with_multiplicity,
    multiplicity,
    multiplicity_table,
    phi_preimages,
    sigma_preimages,
)
from phisigma.sieves import iter_phi_blocks, iter_sigma_blocks


def _bucket_preimages(kind, m_bound, x_max):
    """Map m -> sorted preimage list by one scan over a dense table."""
    buckets = defaultdict(list)
    blocks = iter_phi_blocks(x_max) if kind == "phi" else iter_sigma_blocks(x_max)
    for start, vals in blocks:
        for off, v in enumerate(vals.tolist()):
            if 1 <= v <= m_bound:
                buckets[v].append(start + off)
    return buckets


def test_phi_worked_examples():
    assert phi_preimages(4).solutions == (5, 8, 10, 12)
    assert phi_preimages(1).solutions == (1, 2)
    assert phi_preimages(2).solutions == (3, 4, 6)
    assert phi_preimages(3).solutions == ()


def test_sigma_worked_examples():
    assert sigma_preimages(12).solutions == (6, 11)
    assert sigma_preimages(31).solutions == (16, 25)
    assert sigma_preimages(1).solutions == (1,)
    assert sigma_preimages(2).solutions == ()


def test_domain_errors():
    for bad in (0, -1, -12):
        with pytest.raises(DomainError):
            phi_preimages(bad)
        with pytest.raises(DomainError):
            sigma_preimages(bad)
        with pytest.raises(DomainError):
            multiplicity(bad, "phi")
    with pytest.raises(DomainError):
        multiplicity(10, "tau")


def test_phi_odd_arguments_empty():
    for m in range(3, 10 ** 4, 2):
        assert multiplicity(m, "phi") == 0


def test_phi_enumeration_against_bucket_scan():
    m_bound = 300
    buckets = _bucket_preimages("phi", m_bound, 2 * m_bound * m_bound)
    for m in range(1, m_bound + 1):
        got = phi_preimages(m)
        assert list(got.solutions) == buckets.get(m, []), m
        assert got.multiplicity == len(got.solutions)
        assert got.target == m and got.map_kind == "phi"


def test_sigma_enumeration_against_bucket_scan():
    m_bound = 5000
    buckets = _bucket_preimages("sigma", m_bound, m_bound)
    for m in range(1, m_bound + 1):
        got = sigma_preimages(m)
        assert list(got.solutions) == buckets.get(m, []), m



def test_count_matches_enumeration_and_table():
    for kind, bound in (("phi", 300), ("sigma", 5000)):
        table = multiplicity_table(kind, bound)
        enumerate_fn = phi_preimages if kind == "phi" else sigma_preimages
        for m in range(1, bound + 1):
            count = multiplicity(m, kind)
            assert count == len(enumerate_fn(m).solutions) == table[m], (kind, m)


def test_count_matches_enumeration_on_smooth_targets():
    shapes = [(a, b, c) for a in range(1, 16) for b in range(4) for c in range(3)
              if (a + 1) * (b + 1) * (c + 1) * 4 <= 256]
    for a, b, c in shapes:
        m = 2 ** a * 3 ** b * 5 ** c * 7 * 11
        for kind, fn in (("phi", euler_phi), ("sigma", sigma)):
            sols = (phi_preimages if kind == "phi" else sigma_preimages)(m).solutions
            assert multiplicity(m, kind) == len(sols), (kind, m)
            assert all(fn(x) == m for x in sols), (kind, m)


def test_frozen_counts_by_count_path():
    # Values the full enumeration produced before the count path existed.
    assert multiplicity(10 ** 23, "phi") == 15585
    assert multiplicity(10 ** 23, "sigma") == 4665
    assert multiplicity(2 ** 20 * 3 ** 5 * 5 * 7 * 11 * 13, "phi") == 1_447_687


def test_enumeration_capacity_checked_first(monkeypatch):
    monkeypatch.setattr(phisigma.preimages, "ENUM_CAPACITY", 3)
    with pytest.raises(CapacityError):
        phi_preimages(4)  # four solutions
    with pytest.raises(CapacityError):
        phi_preimages(2 ** 20 * 3 ** 5 * 5 * 7 * 11 * 13)  # 1,447,687 solutions
    assert phi_preimages(2).solutions == (3, 4, 6)
    assert sigma_preimages(12).solutions == (6, 11)
    assert multiplicity(4, "phi") == 4  # counting is not capped


def test_solutions_sorted_distinct():
    rng = random.Random(21)
    for _ in range(60):
        m = rng.randrange(1, 40000)
        for fn in (phi_preimages, sigma_preimages):
            sols = fn(m).solutions
            assert list(sols) == sorted(set(sols)), (fn.__name__, m)


def test_multiplicity_table_first_rows():
    table = multiplicity_table("phi", 10)
    assert table.tolist() == [0, 2, 3, 0, 4, 0, 4, 0, 5, 0, 2]


def test_multiplicity_table_matches_per_value():
    for kind, bound in (("phi", 200), ("sigma", 1500)):
        table = multiplicity_table(kind, bound)
        for m in range(1, bound + 1):
            assert table[m] == multiplicity(m, kind), (kind, m)


def test_multiplicity_table_capacity_guard():
    with pytest.raises(CapacityError):
        multiplicity_table("phi", 10 ** 5)


def test_minimal_m_examples():
    rec = minimal_m_with_multiplicity(0, "phi", 100)
    assert rec.minimal_m == 3 and rec.k == 0 and rec.map_kind == "phi"
    assert minimal_m_with_multiplicity(1, "sigma", 100).minimal_m == 1
    assert minimal_m_with_multiplicity(2, "sigma", 100).minimal_m == 12
    assert minimal_m_with_multiplicity(3, "phi", 100).minimal_m == 2


def test_minimal_m_absent_reports_none():
    # No m <= 512 has exactly one totient preimage.
    rec = minimal_m_with_multiplicity(1, "phi", 512)
    assert rec.minimal_m is None
    assert rec.scan_bound == 512


def test_minimal_m_rejects_bad_arguments():
    with pytest.raises(DomainError):
        minimal_m_with_multiplicity(-1, "phi", 100)
    with pytest.raises(DomainError):
        minimal_m_with_multiplicity(2, "phi", 0)


def test_minimal_m_phi_starts_small(monkeypatch):
    bounds = []
    real = phisigma.preimages.multiplicity_table

    def counted(map_kind, m_bound, *args):
        bounds.append(m_bound)
        return real(map_kind, m_bound, *args)

    monkeypatch.setattr(phisigma.preimages, "multiplicity_table", counted)
    rec = minimal_m_with_multiplicity(3, "phi", 5000)
    assert rec.minimal_m == 2 and rec.scan_bound == 5000
    assert bounds == [64]  # one table, scanning x <= 8192


def test_minimal_m_phi_equals_full_table_scan():
    table = multiplicity_table("phi", 1420)
    for k in range(14):
        hits = [m for m in range(1, 1421) if table[m] == k]
        want = hits[0] if hits else None
        assert minimal_m_with_multiplicity(k, "phi", 1420).minimal_m == want, k


def test_one_factorization_per_target(monkeypatch):
    calls = []
    real = phisigma.arith.factorize
    monkeypatch.setattr(phisigma.arith, "factorize", lambda n: calls.append(n) or real(n))
    phisigma.preimages._divisor_list.cache_clear()
    m = 2 ** 6 * 3 ** 3 * 5 * 7
    phi_preimages(m)
    sigma_preimages(m)
    assert multiplicity(m, "phi") == len(phi_preimages(m).solutions)
    assert multiplicity(m, "sigma") == len(sigma_preimages(m).solutions)
    assert calls == [m]
    assert phisigma.preimages._divisor_list(m) == tuple(divisors(m))
