"""Preimages of Euler's phi and the divisor sum sigma, multiplicity-forcing
prime configurations with exhaustive certification, and desk-scale sieve
counting experiments.

The numpy-backed modules, sieves and sievelab, and configs, which only the
configuration commands need, are resolved with the names they export on
first access (PEP 562), so importing the package loads neither numpy nor
the configuration code.
"""

from importlib import import_module as _import_module

from .arith import (PrimeFactorization, divisors, euler_phi, factorize, iroot,
                    is_prime, prime_power_sigma_all, prime_power_sigma_solve,
                    sigma, sigma_prime_power)
from .errors import CapacityError, CertificationError, DomainError
from .preimages import (MultiplicityRecord, PreimageSet,
                        minimal_m_with_multiplicity, multiplicity,
                        multiplicity_table, phi_preimages, sigma_preimages)

__version__ = "0.1.0"

_LAZY = {
    "configs": ("Certificate", "PrimeConfig", "SearchStats", "VerificationReport",
                "build_config", "certify", "check_condition_i",
                "check_condition_ii", "check_condition_iii",
                "condition_index_set", "corollary3_plan", "enumerate_matchings",
                "load_config", "save_config", "search_config", "theorem2_search",
                "verify"),
    "sievelab": ("AlmostPrimeCount", "RatioSumReport", "count_prime_pairs",
                 "count_shifted_almost_primes", "l_value",
                 "lemma3_reference_constant", "ratio_power_sum"),
    "sieves": ("iter_phi_blocks", "iter_sigma_blocks", "phi_table",
               "primes_upto", "sieve_range", "sigma_table"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")  # also binds it here
    if name in _LAZY_HOME:
        return getattr(__getattr__(_LAZY_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})


__all__ = [name for name in __dir__() if not name.startswith("_")]
