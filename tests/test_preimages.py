"""Preimage enumeration checked against batch sieve buckets."""

import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from collections import defaultdict

import numpy as np
import pytest

import phisigma.arith
import phisigma.preimages
from phisigma.arith import divisors, euler_phi, sigma
from phisigma.errors import CapacityError, DomainError
from phisigma.preimages import (
    SCAN_CAPACITY,
    minimal_m_by_multiplicity,
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


def test_multiplicity_table_capacity_guard(monkeypatch):
    # one ceiling for both maps: the table's bound, checked before any work
    for kind in ("phi", "sigma"):
        with pytest.raises(CapacityError, match=f"table bound {SCAN_CAPACITY + 1} exceeds"):
            multiplicity_table(kind, SCAN_CAPACITY + 1)
    # the module constant is read at call time
    monkeypatch.setattr(phisigma.preimages, "SCAN_CAPACITY", 100)
    for kind in ("phi", "sigma"):
        with pytest.raises(CapacityError, match="table bound 101 exceeds capacity 100"):
            multiplicity_table(kind, 101)
    assert multiplicity_table("phi", 100).shape == (101,)


def test_minimal_m_checks_capacity_before_any_table(monkeypatch):
    calls = []
    monkeypatch.setattr(phisigma.preimages, "multiplicity_table",
                        lambda *args: calls.append(args))
    for kind in ("phi", "sigma"):
        with pytest.raises(CapacityError, match=f"table bound {SCAN_CAPACITY + 1} exceeds"):
            minimal_m_with_multiplicity(10 ** 5, kind, SCAN_CAPACITY + 1)
    assert calls == []


def test_default_capacity_admits_phi_table_to_20000():
    # 2 * 20000**2 = 8e8 > SCAN_CAPACITY: the ceiling is on B, not on an x-range
    table = multiplicity_table("phi", 20000)
    rng = random.Random(8)
    for m in list(range(1, 301)) + [rng.randrange(301, 20001) for _ in range(200)]:
        assert table[m] == multiplicity(m, "phi"), m


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


def _count_fills(monkeypatch):
    """Record (m, map_kind) for every knapsack built from now on, from an empty cache."""
    built = []

    class Counted(phisigma.preimages._DivisorDP):
        def __init__(self, m, map_kind):
            built.append((m, map_kind))
            super().__init__(m, map_kind)

    monkeypatch.setattr(phisigma.preimages, "_DivisorDP", Counted)
    phisigma.preimages._divisor_dp.cache_clear()
    return built


def test_one_knapsack_fill_per_target_and_map(monkeypatch):
    built = _count_fills(monkeypatch)
    m = 2 ** 7 * 3 ** 3 * 5 * 7 * 11  # 256 divisors
    sols = phi_preimages(m).solutions
    assert multiplicity(m, "phi") == len(sols)
    assert built == [(m, "phi")]
    count = multiplicity(m, "sigma")
    assert count == len(sigma_preimages(m).solutions)
    assert built == [(m, "phi"), (m, "sigma")]
    assert phi_preimages(m).solutions == sols  # solutions() leaves the cached knapsack intact
    with pytest.raises(DomainError):
        multiplicity(float(m), "phi")  # the gate runs before the cache
    assert multiplicity(np.int64(m), "sigma") == count
    assert len(built) == 2
    assert 0 < phisigma.preimages._divisor_dp.cache_info().maxsize <= 64


def test_capacity_checked_on_a_cached_knapsack(monkeypatch):
    built = _count_fills(monkeypatch)
    m = 2 ** 4 * 3 ** 2 * 5 * 7 * 13
    count = multiplicity(m, "phi")
    monkeypatch.setattr(phisigma.preimages, "ENUM_CAPACITY", count - 1)
    with pytest.raises(CapacityError):
        phi_preimages(m)
    assert built == [(m, "phi")]


def test_counts_match_enumeration_after_eviction(monkeypatch):
    built = _count_fills(monkeypatch)
    m = 2 ** 4 * 3 ** 2 * 5 * 7 * 13
    count = multiplicity(m, "sigma")
    for k in range(1, phisigma.preimages._divisor_dp.cache_info().maxsize + 1):
        multiplicity(2 * k, "sigma")
    assert len(sigma_preimages(m).solutions) == count
    assert built.count((m, "sigma")) == 2  # evicted, then filled again


class _ScanDP:
    """The scan-every-divisor knapsack, the slow reference for _DivisorDP:
    each block value v scans every divisor >= v, and the walk slices
    uses[k] per node."""

    def __init__(self, m, map_kind):
        divs = phisigma.preimages._divisor_list(m)
        index = {d: k for k, d in enumerate(divs)}
        self.blocks = phisigma.preimages._prime_blocks(m, divs, map_kind)
        count = [0] * len(divs)
        count[0] = 1
        uses = [[] for _ in divs]
        for i, blocks in enumerate(self.blocks):
            added = {}
            for value, _ in blocks:
                for k in range(index[value], len(divs)):
                    w = divs[k]
                    if w % value == 0:
                        c = count[index[w // value]]
                        if c:
                            added[k] = added.get(k, 0) + c
            for k, c in added.items():
                count[k] += c
                uses[k].append(i)
        self.divs, self.index, self.uses = divs, index, uses
        self.total = count[-1]

    def solutions(self):
        divs, index, blocks, uses = self.divs, self.index, self.blocks, self.uses
        first = [u[0] + 1 if u else len(blocks) + 1 for u in uses]
        first[0] = 0
        out = []

        def walk(i, k, acc):
            if k == 0:
                out.append(acc)
            w = divs[k]
            for j in uses[k][:bisect_left(uses[k], i)]:
                for value, power in blocks[j]:
                    if w % value == 0:
                        rest = index[w // value]
                        if first[rest] <= j:
                            walk(j, rest, acc * power)

        walk(len(blocks), len(divs) - 1, 1)
        return out


def _differential_targets():
    rng = random.Random(1819)
    # m = 1 and 2 (phi(2) = 1: a value-1 block at divisor 1), and targets
    # built on sigma(2**4) = sigma(5**2) = 31
    yield from (1, 2, 31, 62, 31 * 3 * 5 * 7, 2 ** 5 * 31 ** 2)
    yield from (rng.randrange(1, 2 * 10 ** 6) for _ in range(80))
    # inverse-ladder shapes: 2**a * 3**b * 5**c times k of 7..19, 96-256 divisors
    for a in range(3, 13):
        for b in range(4):
            for c in range(3):
                k = rng.randrange(1, 4)
                if 96 <= (a + 1) * (b + 1) * (c + 1) * 2 ** k <= 256:
                    yield 2 ** a * 3 ** b * 5 ** c * math.prod(rng.sample((7, 11, 13, 17, 19), k))
    # configuration-shaped 2**r * t, t a product of 2r distinct odd primes
    primes = [p for p in range(3, 5000) if phisigma.arith.is_prime(p)]
    for r in (1, 2, 2, 3, 3, 4):
        yield 2 ** r * math.prod(rng.sample(primes, 2 * r))


def test_live_divisor_fill_matches_the_full_scan():
    for m in _differential_targets():
        for kind in ("phi", "sigma"):
            got, want = phisigma.preimages._DivisorDP(m, kind), _ScanDP(m, kind)
            assert got.total == want.total, (m, kind)
            assert got.uses == want.uses, (m, kind)
            assert sorted(got.solutions()) == sorted(want.solutions()), (m, kind)
    assert sorted(phisigma.preimages._DivisorDP(1, "phi").solutions()) == [1, 2]
    assert sorted(phisigma.preimages._DivisorDP(2, "phi").solutions()) == [3, 4, 6]


def test_a_cached_knapsack_stays_small():
    # 2,640 divisors: about 1.3 MB per map; a per-divisor edge list for the
    # walk would about double it
    m = 2 ** 10 * 3 ** 4 * 5 ** 2 * 7 * 11 * 13 * 17
    for kind in ("phi", "sigma"):
        phisigma.preimages._DivisorDP(m, kind)  # fills the divisor and primality caches
        tracemalloc.start()
        try:
            dp = phisigma.preimages._DivisorDP(m, kind)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert dp.total and size < 1_600_000, (kind, size)


class _Listed(Exception):
    """Raised by a patched divisor or block lister: the gate let the call in."""


def _listed(*args, **kwargs):
    raise _Listed


def test_divisor_count_past_its_ceiling_is_refused_before_any_listing(monkeypatch):
    monkeypatch.setattr(phisigma.preimages, "_prime_blocks", _listed)
    phisigma.preimages._divisor_list.cache_clear()
    phisigma.preimages._divisor_dp.cache_clear()
    cap = phisigma.preimages.DIVISOR_CAPACITY
    primes = cap.bit_length() - 1
    assert cap == 1 << primes  # the product of that many primes sits at the ceiling
    # arith.divisors holds the count: listing the cap + 1 divisors of 2**cap
    # would take about 270 MB
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as exc:
            multiplicity(2 ** cap, "phi")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"divisor count {cap + 1} exceeds capacity {cap}"
    assert peak < 1 << 20
    with pytest.raises(CapacityError, match="divisor count 160801 exceeds"):
        sigma_preimages(10 ** 400)
    with pytest.raises(_Listed):
        multiplicity(math.prod(phisigma.arith._SMALL_PRIMES[:primes]), "sigma")


def _sieved_table(kind, m_bound, x_max=None):
    """Multiplicity table by sieving phi or sigma over every x the bound
    allows (x <= 2*m_bound**2 for phi, x <= m_bound for sigma, unless x_max
    is given) and one bincount."""
    if x_max is None:
        x_max = 2 * m_bound * m_bound if kind == "phi" else m_bound
    blocks = iter_phi_blocks(x_max) if kind == "phi" else iter_sigma_blocks(x_max)
    hits = [vals[vals <= m_bound] for _, vals in blocks]
    return np.bincount(np.concatenate(hits), minlength=m_bound + 1)


def _assert_table(kind, m_bound, want):
    got = multiplicity_table(kind, m_bound)
    assert got.dtype == np.int32 and got.shape == (m_bound + 1,), (kind, m_bound)
    assert got[0] == 0 and np.array_equal(got, want), (kind, m_bound)


@pytest.mark.parametrize("kind, top", [("phi", 300), ("sigma", 3000)])
def test_table_equals_sieve_at_every_bound(kind, top):
    # every preimage of m <= B lies in the sieve for B, so one sieve at the
    # top bound holds the answer for every smaller bound as a prefix
    sieved = _sieved_table(kind, top)
    for m_bound in range(1, top + 1):
        _assert_table(kind, m_bound, sieved[: m_bound + 1])


def test_table_equals_sieve_around_prime_squares():
    # the knapsack splits its primes at isqrt(B) + 1
    rs = {r + d for p in (2, 3, 5, 7, 11, 13, 31, 37, 211) for r in (p - 1, p, p + 1)
          for d in (0, 1)}
    for kind, r_max in (("phi", 40), ("sigma", 225)):
        bounds = sorted({r * r + e for r in rs if r <= r_max for e in (-1, 0, 1)} - {0})
        sieved = _sieved_table(kind, bounds[-1])
        for m_bound in bounds:
            _assert_table(kind, m_bound, sieved[: m_bound + 1])


def test_table_prefix_property():
    rng = random.Random(5)
    for kind, top in (("phi", 3000), ("sigma", 10 ** 6)):
        big = multiplicity_table(kind, top)
        for m_bound in [1, 2, 3, 4, top - 1] + [rng.randrange(1, top) for _ in range(8)]:
            assert np.array_equal(multiplicity_table(kind, m_bound), big[: m_bound + 1]), m_bound


def test_table_wide_counts_path():
    # the counts are int32 at every bound (exact while SCAN_CAPACITY <= 2**28,
    # test_scan_capacity_keeps_int32_counts_exact)
    table = multiplicity_table("phi", 40000)
    assert table.dtype == np.int32 and table.shape == (40001,)
    assert np.array_equal(table[:301], _sieved_table("phi", 300))
    assert np.array_equal(table, multiplicity_table("phi", 10 ** 5)[:40001])
    # and a shorter table is a prefix of it
    assert np.array_equal(multiplicity_table("phi", 30000), table[:30001])


def test_scan_capacity_keeps_int32_counts_exact():
    # the premise of the proof beside SCAN_CAPACITY: every preimage x of
    # m <= B is below 8B <= 2**31, so no count of a table overflows int32
    assert phisigma.preimages.SCAN_CAPACITY <= 2 ** 28


@pytest.mark.parametrize("kind, firsts", [("phi", (2, 4, 6)), ("sigma", (4, 6, 8))])
def test_table_sweep_floors_agree_with_the_sieve(kind, firsts):
    # Bounds near 4096 times the first block value (p - 1 or p + 1 for p =
    # 3, 5, 7), and near one and two times 4096, where an earlier fill
    # switched between two ways of reading a prime's sources.
    floor = 1 << 12
    bounds = sorted({floor * v + d for v in firsts for d in (-1, 0, 1)}
                    | {c * floor + d for c in (1, 2) for d in (-2, -1, 0, 1)})
    # below 92160 = prod_{p <= 17} (p - 1), a phi preimage has at most six
    # distinct primes, so x / phi(x) <= 2 * 3/2 * 5/4 * 7/6 * 11/10 * 13/12 < 6
    top = bounds[-1]
    assert top < 92160
    sieved = _sieved_table(kind, top, 6 * top if kind == "phi" else None)
    for b in bounds:
        got = multiplicity_table(kind, b)
        assert got.dtype == np.int32 and np.array_equal(got, sieved[: b + 1]), b


# SHA-256 of the little-endian int64 bytes of both tables at 10**6, taken
# from the earlier fill, which read each prime's sources from a full copy and
# converted its int32 counts with astype
_DIGESTS_AT_A_MILLION = {
    "phi": "f90886194191d28517193b7893cbc580a2253209c05bcbfb90f33110e3acc280",
    "sigma": "3c4f30cd89edf0019770958d9d2be2970dd8af751001e41f6c8aa15de4ba7440",
}


def test_table_bytes_are_pinned_at_a_million():
    for kind, digest in _DIGESTS_AT_A_MILLION.items():
        table = multiplicity_table(kind, 10 ** 6)
        assert table.dtype == np.int32, kind
        assert hashlib.sha256(table.astype("<i8").tobytes()).hexdigest() == digest, kind


# A child's ru_maxrss starts from its parent's resident size at the fork
# (Linux carries it across exec), so a child of a large test run would read
# its baseline from there; VmHWM is the peak of the child's own memory.
_RSS_PROBE = """
def peak_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
import numpy as np
import phisigma.preimages
base = peak_kb()
table = phisigma.preimages.multiplicity_table("sigma", 4 * 10 ** 6)
print(table.dtype, (peak_kb() - base) * 1024 / table.size)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_table_holds_one_int32_buffer():
    # the int32 result is the only table: 4 B per entry plus the primes, not
    # an int64 result its counts are widened into (about 9 B)
    proc = subprocess.run([sys.executable, "-c", _RSS_PROBE], capture_output=True,
                          text=True, check=True)
    dtype, per_entry = proc.stdout.split()
    assert dtype == "int32"
    assert float(per_entry) <= 8, per_entry


def test_table_past_memory_is_a_capacity_error(monkeypatch):
    monkeypatch.setattr(phisigma.preimages, "SCAN_CAPACITY", 10 ** 60)
    with pytest.raises(CapacityError, match=r"^table bound 10{50} "):
        multiplicity_table("phi", 10 ** 50)


def test_minimal_m_phi_equals_sieved_table_scan():
    sieved = _sieved_table("phi", 1420)
    for k in range(14):
        hits = np.flatnonzero(sieved[1:] == k)
        want = int(hits[0]) + 1 if hits.size else None
        assert minimal_m_with_multiplicity(k, "phi", 1420).minimal_m == want, k


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_minimal_m_by_multiplicity_matches_per_k_scan(monkeypatch, chunk):
    monkeypatch.setattr(phisigma.preimages, "_FIRST_CHUNK", chunk)
    for kind, bound in (("phi", 300), ("sigma", 2000)):
        counts = multiplicity_table(kind, bound)
        first = minimal_m_by_multiplicity(counts)
        assert len(first) == counts[1:].max() + 1
        for k in range(len(first)):
            hits = [m for m in range(1, bound + 1) if counts[m] == k]
            assert first[k] == (hits[0] if hits else None), (kind, k)


def test_sigma_preimages_past_a_hard_rho_split():
    # Proving a candidate prime here splits the cofactor
    # 2859729959624793296771012251 = 9774465577523 * 292571490169337; walks
    # that restarted after 2**19 steps each gave up on it.
    m = 8 * 74411 * 198301 * 488381 * 631867 * 680749 * 942041
    got = sigma_preimages(m).solutions
    assert got == (23361082565035663195043057201559979,)
    assert sigma(got[0]) == m
