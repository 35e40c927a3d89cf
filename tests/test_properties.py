"""Property tests for the identities the other suites check on fixed samples.

derandomize=True draws the same examples on every run, in CI and locally,
and database=None keeps no example store between runs.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from phisigma.arith import euler_phi, factorize, is_prime, sigma
from phisigma.preimages import (multiplicity, multiplicity_table, phi_preimages,
                                sigma_preimages)

SETTINGS = settings(derandomize=True, deadline=None, database=None)

KINDS = st.sampled_from(("phi", "sigma"))
# random targets are mostly odd or sparse and have few preimages; smooth ones
# have many
SMOOTH = st.lists(st.sampled_from((2, 2, 2, 3, 3, 5, 7, 11, 13)),
                  max_size=14).map(math.prod)
TARGETS = st.one_of(st.integers(1, 10 ** 6), SMOOTH)
PREIMAGES = {"phi": (phi_preimages, euler_phi), "sigma": (sigma_preimages, sigma)}


@SETTINGS
@given(TARGETS, KINDS)
def test_count_equals_enumeration(m, kind):
    enumerate_, _ = PREIMAGES[kind]
    assert multiplicity(m, kind) == len(enumerate_(m).solutions)


@SETTINGS
@given(TARGETS, KINDS)
def test_every_preimage_maps_back(m, kind):
    enumerate_, apply = PREIMAGES[kind]
    assert all(apply(x) == m for x in enumerate_(m).solutions)


@SETTINGS
@given(st.integers(1, 20000).flatmap(
    lambda bound: st.tuples(st.just(bound), st.lists(st.integers(1, bound), min_size=1,
                                                     max_size=8))), KINDS)
def test_table_entry_equals_the_per_target_count(bound_and_ms, kind):
    bound, ms = bound_and_ms
    counts = multiplicity_table(kind, bound)
    assert [int(counts[m]) for m in ms] == [multiplicity(m, kind) for m in ms]


@SETTINGS
@given(st.one_of(st.integers(1, 10 ** 18),
                 st.lists(st.integers(2, 10 ** 6), max_size=6).map(math.prod)))
def test_factorize_multiplies_back(n):
    factors = factorize(n).factors
    assert math.prod(p ** e for p, e in factors) == n
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) and e >= 1 for p, e in factors)
