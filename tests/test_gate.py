"""The argument gate: every public integer parameter is an exact int or a
DomainError, and an argument past its ceiling is a CapacityError raised
before any work, whatever the caches already hold."""

import contextlib
from fractions import Fraction

import numpy as np
import pytest

import phisigma
import phisigma.configs as configs
from phisigma import arith, preimages, sievelab, sieves
from phisigma.errors import CapacityError, DomainError

SIGMA_R2_MATRIX = ((564089, 128339), (505493, 165383))

# Every public callable in phisigma.__all__ with an integer parameter: its
# name, valid arguments, and the positions of its integer parameters.
# Result records (PreimageSet, SearchStats, ...) are outputs, not inputs.
SWEEP = [
    ("PrimeFactorization", (12, ((2, 2), (3, 1))), (0,)),
    ("divisors", (12,), (0,)),
    ("euler_phi", (12,), (0,)),
    ("factorize", (12,), (0,)),
    ("iroot", (100, 3), (0, 1)),
    ("is_prime", (7,), (0,)),
    ("prime_power_sigma_all", (31,), (0,)),
    ("prime_power_sigma_solve", (31,), (0,)),
    ("sigma", (12,), (0,)),
    ("sigma_prime_power", (5, 2), (0, 1)),
    ("minimal_m_with_multiplicity", (2, "phi", 100), (0, 2)),
    ("multiplicity", (12, "sigma"), (0,)),
    ("multiplicity_table", ("phi", 100), (1,)),
    ("phi_preimages", (4,), (0,)),
    ("sigma_preimages", (12,), (0,)),
    ("PrimeConfig", ("sigma", SIGMA_R2_MATRIX, 1), (2,)),
    ("build_config", (SIGMA_R2_MATRIX, "sigma", 1), (2,)),
    ("condition_index_set", (3,), (0,)),
    ("corollary3_plan", (6,), (0,)),
    ("enumerate_matchings", (3,), (0,)),
    ("search_config", ("sigma", 2, 2, 10 ** 4, 10, 0, 1), (1, 2, 3, 4, 5, 6)),
    ("theorem2_search", (2, 1, 2, 10 ** 4, 10, 0), (0, 1, 2, 3, 4, 5)),
    ("count_prime_pairs", (2, 100), (0, 1)),
    ("count_shifted_almost_primes", (1000, Fraction(1, 8), 1), (0, 2)),
    ("ratio_power_sum", (2.0, 100, 100), (1, 2)),
    ("iter_phi_blocks", (100, 1, 10), (0, 1, 2)),
    ("iter_sigma_blocks", (100, 1, 10), (0, 1, 2)),
    ("phi_table", (100,), (0,)),
    ("primes_upto", (100,), (0,)),
    ("sieve_range", (10, 30), (0, 1)),
    ("sigma_table", (100,), (0,)),
]


@pytest.mark.parametrize("name, args, positions", SWEEP, ids=[row[0] for row in SWEEP])
def test_every_integer_parameter_refuses_floats_strings_and_bools(name, args, positions):
    fn = getattr(phisigma, name)
    assert name in phisigma.__all__
    fn(*args)  # the valid call runs, and warms any cache the bad calls could hit
    for pos in positions:
        for bad in (7.0, "7", True):
            call = args[:pos] + (bad,) + args[pos + 1:]
            with pytest.raises(DomainError, match="must be an integer"):
                fn(*call)


def test_the_sweep_covers_every_public_callable_with_an_integer_parameter():
    # names with no integer parameter: a config, a path, a rational alpha,
    # or integers inside a sequence (l_value's primes, checked entry by entry)
    no_int = {"certify", "check_condition_i", "check_condition_ii", "check_condition_iii",
              "load_config", "save_config", "verify", "lemma3_reference_constant",
              "l_value"}
    records = {"AlmostPrimeCount", "Certificate", "MultiplicityRecord", "PreimageSet",
               "RatioSumReport", "SearchStats", "VerificationReport"}
    errors = {"CapacityError", "CertificationError", "DomainError"}
    callables = {name for name in phisigma.__all__
                 if callable(getattr(phisigma, name)) and not name.startswith("__")}
    assert {row[0] for row in SWEEP} == callables - no_int - records - errors


def test_a_cached_int_does_not_answer_for_a_float():
    assert phisigma.is_prime(7)
    with pytest.raises(DomainError):
        phisigma.is_prime(7.0)


def test_a_cached_base_value_does_not_admit_a_float():
    configs._base_multiplicity("phi", 4)
    with pytest.raises(DomainError):
        configs.build_config([[101, 103], [107, 109]], "phi", base_m=4.0)
    assert configs.build_config([[101, 103], [107, 109]], "phi", base_m=4).base_m == 4


def test_no_gate_on_a_cache_hit_or_per_loop_step(monkeypatch):
    gated = []
    real = arith.exact_int
    monkeypatch.setattr(arith, "exact_int", lambda *args: gated.append(args[1]) or real(*args))
    for _ in range(2):  # the first round may miss the caches
        gated.clear()
        arith.is_prime(1000003)
        arith.prime_power_sigma_all(31)
    assert gated == []
    # 18 exponents (even b from 2 to 36), one root each, and no solution: no is_prime call either
    assert arith.prime_power_sigma_solve(2 ** 60 + 1) is None
    assert gated == ["sigma value"]
    gated.clear()
    assert arith._find_nontrivial_factor(1000003 * 1000033) in (1000003, 1000033)
    assert gated == []


def test_a_cached_numpy_int_does_not_answer_for_a_float():
    assert arith.is_prime(np.int64(7))
    with pytest.raises(DomainError):
        arith.is_prime(7.0)
    assert arith.prime_power_sigma_all(np.int64(31)) == ((5, 2), (2, 4))
    with pytest.raises(DomainError):
        arith.prime_power_sigma_all(31.0)


class _Work(Exception):
    """Raised by a patched first step of the work: the gate let the call in."""


def _work(*args, **kwargs):
    raise _Work


SPAN, POINT = sieves.DEFAULT_SPAN_CAPACITY, sieves.MAX_SIEVE_POINT
TABLE_CEILING = 1000

# One row per argument whose ceiling the gate holds: the call with the
# argument v, the argument's name in the error, its ceiling, the first step
# of the work (patched to raise _Work), and whether a call at the ceiling
# reaches that step before anything costly (a dense table at the ceiling
# allocates first).  The multiplicity tables' SCAN_CAPACITY is patched to
# TABLE_CEILING, so that a table at its ceiling is small.
CEILINGS = [
    ("primes_upto", lambda v: sieves.primes_upto(v), "prime bound", SPAN, "_primes", True),
    ("sieve_range", lambda v: sieves.sieve_range(v - 10, v), "range end", POINT,
     "primes_upto", True),
    ("phi_table", lambda v: sieves.phi_table(v), "table bound", SPAN, "primes_upto", False),
    ("iter_phi_blocks", lambda v: sieves.iter_phi_blocks(v, v), "block range end", POINT,
     "primes_upto", True),
    ("count_shifted_almost_primes",
     lambda v: sievelab.count_shifted_almost_primes(v, Fraction(1, 8), 1), "x", SPAN,
     "_base_primes", True),
    ("count_prime_pairs", lambda v: sievelab.count_prime_pairs(2, v), "x", SPAN,
     "_base_primes", True),
    ("ratio_power_sum", lambda v: sievelab.ratio_power_sum(2.0, v), "x", SPAN,
     "primes_upto", True),
    ("ratio_power_sum_cutoff", lambda v: sievelab.ratio_power_sum(2.0, 100, v),
     "prime cutoff", SPAN, "primes_upto", True),
    ("multiplicity_table", lambda v: preimages.multiplicity_table("phi", v),
     "table bound", TABLE_CEILING, "_primes", True),
    ("minimal_m_with_multiplicity",
     lambda v: preimages.minimal_m_with_multiplicity(2, "sigma", v), "table bound",
     TABLE_CEILING, "_primes", True),
]


@pytest.mark.parametrize("call, what, ceiling, first_step, cheap",
                         [row[1:] for row in CEILINGS], ids=[row[0] for row in CEILINGS])
def test_an_argument_past_its_ceiling_is_refused_before_any_work(
        monkeypatch, call, what, ceiling, first_step, cheap):
    monkeypatch.setattr(preimages, "SCAN_CAPACITY", TABLE_CEILING)
    monkeypatch.setattr(sieves, first_step, _work)
    with pytest.raises(CapacityError, match="exceeds capacity") as exc:
        call(ceiling + 1)
    assert str(exc.value) == f"{what} {ceiling + 1} exceeds capacity {ceiling}"
    if cheap:
        with pytest.raises(_Work):
            call(ceiling)


def test_an_integer_past_the_str_digit_limit_is_named_by_its_size():
    huge = 10 ** 5000  # past str's default limit of 4,300 digits
    with pytest.raises(CapacityError, match="^x a number of 16610 bits exceeds capacity 5$"):
        arith.exact_int(huge, "x", most=5)
    with pytest.raises(CapacityError, match="^range end a number of 16610 bits exceeds"):
        sieves.sieve_range(10, huge)
    with pytest.raises(CapacityError, match="^range end a number of 16610 bits exceeds"):
        configs.search_config("sigma", 2, 2, huge, 10)
    with pytest.raises(DomainError, match="^pool bound 1000 is below the 2"):
        configs.search_config("sigma", huge, 2, 1000, 10)
    with pytest.raises(CapacityError, match="^divisor count 25010001 exceeds capacity 65536$"):
        arith.divisors(huge)


@pytest.mark.parametrize("name, args, positions", SWEEP, ids=[row[0] for row in SWEEP])
def test_every_integer_parameter_refuses_a_huge_negative_with_a_message(name, args, positions):
    # a result, or a DomainError or CapacityError whose message could be formed
    fn = getattr(phisigma, name)
    for pos in positions:
        with contextlib.suppress(DomainError, CapacityError):
            fn(*args[:pos], -10 ** 5000, *args[pos + 1:])


def test_a_ceiling_is_checked_when_its_argument_is_gated():
    # an odd gap and an x past its ceiling: x is gated before the gap's parity
    with pytest.raises(CapacityError, match="x 300000000 exceeds capacity"):
        sievelab.count_prime_pairs(3, 3 * 10 ** 8)
