"""Configuration checks, search, and certification."""

import math
import random

import pytest
import sympy

import phisigma.arith
import phisigma.configs as configs
import phisigma.preimages
import phisigma.sieves
from phisigma.configs import (
    Certificate,
    DEFAULT_BUDGET,
    PrimeConfig,
    build_config,
    certify,
    check_condition_i,
    check_condition_ii,
    check_condition_iii,
    condition_index_set,
    config_from_payload,
    config_to_payload,
    corollary3_plan,
    enumerate_matchings,
    form_value,
    load_config,
    save_config,
    search_config,
    theorem2_search,
    verify,
)
from phisigma.errors import CapacityError, CertificationError, DomainError
from phisigma.preimages import multiplicity, phi_preimages, sigma_preimages

# Matrices recovered by the default searches; frozen so the checker and
# certifier run against known-good data without re-searching.
SIGMA_R2_MATRIX = ((564089, 128339), (505493, 165383))
SIGMA_R2_TARGET = 24208745495466589560196
SIGMA_R2_SOLUTIONS = (24208745495150259165769, 24208745495154600426217)
PHI_R2_MATRIX = ((488603, 450001), (780851, 403141))
PHI_R2_TARGET = 276856509362331113646292


def test_build_worked_example():
    cfg = build_config([[11, 13], [17, 19]], "sigma")
    assert cfg.q == (13, 19)
    assert cfg.t == 11 * 13 * 17 * 19
    assert cfg.target == 4 * cfg.t
    assert cfg.predicted_multiplicity == 2
    assert form_value(cfg, 1, 1) == 2 * 11 * 13 - 1
    assert form_value(cfg, 2, 1) == 2 * 17 * 13 - 1


def test_build_validation():
    with pytest.raises(DomainError):
        build_config([[11, 13], [17, 15]], "sigma")  # 15 not prime
    with pytest.raises(DomainError):
        build_config([[11, 13], [11, 19]], "sigma")  # duplicate entry
    with pytest.raises(DomainError):
        build_config([[11, 13], [17]], "sigma")  # ragged rows
    with pytest.raises(DomainError):
        build_config([[3, 13], [17, 19]], "sigma")  # 3 not above 2**r + 1
    with pytest.raises(DomainError):
        build_config([[11, 13], [17, 19]], "tau")
    with pytest.raises(DomainError):
        build_config([[11, 13], [17, 19]], "sigma", base_m=3)
    with pytest.raises(DomainError):
        build_config([[11, 13], [17, 19]], "phi", base_m=3)  # no phi preimage


def test_condition_index_set_shape():
    for r in range(1, 9):
        s = condition_index_set(r)
        assert len(s) == 3 * r - 2
        assert len(set(s)) == len(s)
        for i, j in s:
            assert i == 1 or j == 1 or i == j
    for i in range(1, 5):
        for j in range(1, 5):
            member = (i == 1 or j == 1 or i == j)
            assert ((i, j) in condition_index_set(4)) == member


def test_condition_index_set_is_the_row_major_filter():
    for r in range(1, 60):
        want = tuple((i, j) for i in range(1, r + 1) for j in range(1, r + 1)
                     if i == 1 or j == 1 or i == j)
        assert condition_index_set(r) == want, r


def test_condition_ii_witness_example():
    # 13 divides 4 * t and equals sigma(3**2), so the divisor check trips.
    cfg = build_config([[11, 13], [17, 19]], "sigma")
    res = check_condition_ii(cfg)
    assert not res.passed
    assert res.witness == (3, 2, 13)


def test_condition_ii_phi_kind_vacuous():
    cfg = build_config([[11, 13], [17, 19]], "phi")
    res = check_condition_ii(cfg)
    assert res.passed and res.witness is None
    assert res.note


def test_frozen_sigma_config_verifies_and_certifies():
    cfg = build_config(SIGMA_R2_MATRIX, "sigma")
    report = verify(cfg)
    assert report.overall
    assert report.cond_i.values_distinct
    assert report.cond_iii.exempted > 0
    cert = certify(cfg)
    assert cert.target == SIGMA_R2_TARGET
    assert cert.predicted_multiplicity == 2
    assert cert.observed_preimages.solutions == SIGMA_R2_SOLUTIONS
    assert len(cert.matchings) == 2


def test_frozen_phi_config_verifies_and_certifies():
    cfg = build_config(PHI_R2_MATRIX, "phi")
    report = verify(cfg)
    assert report.overall
    cert = certify(cfg)
    assert cert.target == PHI_R2_TARGET
    assert cert.predicted_multiplicity == 4
    assert cert.observed_preimages.multiplicity == 4


def test_condition_forms_are_certified_factors():
    # Every solution of the certified sigma target factors through one
    # matching's form primes, which is the stated shape of the construction.
    cfg = build_config(SIGMA_R2_MATRIX, "sigma")
    products = sorted(
        math.prod(form_value(cfg, i + 1, per[i] + 1) for i in range(cfg.r))
        for per in enumerate_matchings(cfg.r))
    assert tuple(products) == SIGMA_R2_SOLUTIONS


def test_exemption_is_load_bearing():
    # The composite demand exempts form values by numeric equality; the
    # exempted values really are prime, so dropping the exemption must
    # reject every configuration that passes the primality condition.
    for matrix, kind in ((SIGMA_R2_MATRIX, "sigma"), (PHI_R2_MATRIX, "phi")):
        cfg = build_config(matrix, kind)
        assert check_condition_i(cfg).passed
        res = check_condition_iii(cfg)
        assert res.passed
        assert res.exempted >= 1
        exempt = {form_value(cfg, i, j) for i, j in condition_index_set(cfg.r)}
        assert all(sympy.isprime(v) for v in exempt)
        # replay the quantifier with no exemption: some pair must hit a prime
        sign = 1 if kind == "phi" else -1
        d1s = [d for d in sympy.divisors(cfg.t) if d > 1]
        d2s = sympy.divisors((1 << (cfg.r - 1)) * cfg.base_m)
        assert any(sympy.isprime(2 * d1 * d2 + sign) for d1 in d1s for d2 in d2s)


def test_failure_witnesses_replay():
    # Re-evaluating a reported witness reproduces the reported failure.
    cfg = build_config([[11, 13], [17, 19]], "sigma")
    pi, b, d = check_condition_ii(cfg).witness
    assert sum(pi ** j for j in range(b + 1)) == d
    assert ((1 << cfg.r) * cfg.t) % d == 0
    assert d > 1 << cfg.r
    d1, d2 = check_condition_iii(cfg).witness
    assert cfg.t % d1 == 0 and d1 > 1
    assert ((1 << (cfg.r - 1)) * cfg.base_m) % d2 == 0
    v = 2 * d1 * d2 - 1
    assert sympy.isprime(v)
    assert v not in {form_value(cfg, i, j) for i, j in condition_index_set(cfg.r)}


def test_matchings_structure():
    for r in range(1, 8):
        ms = enumerate_matchings(r)
        assert len(ms) == r
        allowed = {(i - 1, j - 1) for i, j in condition_index_set(r)}
        for per in ms:
            assert sorted(per) == list(range(r))
            assert all((i, per[i]) in allowed for i in range(r))


def test_matchings_against_exhaustive_filter():
    from itertools import permutations

    for r in range(1, 7):
        allowed = {(i - 1, j - 1) for i, j in condition_index_set(r)}
        brute = [p for p in permutations(range(r))
                 if all((i, p[i]) in allowed for i in range(r))]
        assert list(enumerate_matchings(r)) == brute


def test_certify_requires_verified_config():
    cfg = build_config([[11, 13], [17, 19]], "sigma")
    with pytest.raises(DomainError):
        certify(cfg)


def test_certify_detects_wrong_enumeration(monkeypatch):
    cfg = build_config(SIGMA_R2_MATRIX, "sigma")
    real = sigma_preimages(cfg.target)
    fake = type(real)(real.target, real.map_kind, real.solutions[:1])
    monkeypatch.setattr(configs, "sigma_preimages", lambda m: fake)
    with pytest.raises(CertificationError) as info:
        certify(cfg)
    assert info.value.predicted == 2
    assert info.value.observed == 1
    assert info.value.target == cfg.target


def test_search_is_deterministic():
    a_cfg, a_stats = search_config("sigma", 2, 2, 10 ** 5, 50_000, seed=9)
    b_cfg, b_stats = search_config("sigma", 2, 2, 10 ** 5, 50_000, seed=9)
    assert (a_cfg is None) == (b_cfg is None)
    if a_cfg is not None:
        assert a_cfg.matrix == b_cfg.matrix
    assert a_stats == b_stats


def test_search_exhausted_budget_reports_stats():
    cfg, stats = search_config("sigma", 2, 2, 10 ** 5, 40, seed=0)
    assert cfg is None
    assert not stats.found
    assert stats.probes >= 40
    assert stats.rounds >= 1


def test_search_rejects_bad_arguments():
    with pytest.raises(DomainError):
        search_config("tau", 2, 2, 10 ** 5, 1000)
    with pytest.raises(DomainError):
        search_config("sigma", 1, 2, 10 ** 5, 1000)
    with pytest.raises(DomainError):
        search_config("sigma", 2, 1, 10 ** 5, 1000)


def test_search_finds_certifiable_sigma_config():
    cfg, stats = search_config("sigma", 2, 2, 10 ** 6, DEFAULT_BUDGET, seed=0)
    assert stats.found and cfg is not None
    assert cfg.matrix == SIGMA_R2_MATRIX
    assert certify(cfg).predicted_multiplicity == 2


def test_payload_round_trip(tmp_path):
    for matrix, kind in ((SIGMA_R2_MATRIX, "sigma"), (PHI_R2_MATRIX, "phi")):
        cfg = build_config(matrix, kind)
        payload = config_to_payload(cfg)
        assert payload["lemma"] == ("2" if kind == "sigma" else "1")
        assert payload["r"] == 2 and payload["n"] == 2
        back = config_from_payload(payload)
        assert back == cfg
        path = tmp_path / f"{kind}.json"
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg


def test_payload_cross_checks():
    cfg = build_config(SIGMA_R2_MATRIX, "sigma")
    payload = config_to_payload(cfg)
    payload["r"] = 3
    with pytest.raises(DomainError):
        config_from_payload(payload)
    payload = config_to_payload(cfg)
    payload["lemma"] = "7"
    with pytest.raises(DomainError):
        config_from_payload(payload)



def test_payload_rejects_float_entry():
    payload = config_to_payload(build_config(SIGMA_R2_MATRIX, "sigma"))
    payload["matrix"][0][0] = 564089.0
    with pytest.raises(DomainError, match="integer"):
        config_from_payload(payload)


def test_payload_rejects_string_entry():
    payload = config_to_payload(build_config(SIGMA_R2_MATRIX, "sigma"))
    payload["matrix"][0][1] = "128339"
    with pytest.raises(DomainError, match="integer"):
        config_from_payload(payload)


def test_payload_rejects_bool_base_m():
    payload = config_to_payload(build_config(PHI_R2_MATRIX, "phi"))
    payload["base_m"] = True
    with pytest.raises(DomainError, match="base_m"):
        config_from_payload(payload)


def test_search_pool_below_floor():
    with pytest.raises(DomainError, match="below the 2\\^r floor"):
        search_config("sigma", 40, 2, 10 ** 4, 100)


def test_theorem2_trivial_rank():
    l, cert, stats = theorem2_search(2, 1)
    assert l == 1
    assert cert.config is None
    assert cert.target == 2
    assert cert.predicted_multiplicity == 3
    assert cert.observed_preimages.solutions == (3, 4, 6)
    assert stats.found


def test_theorem2_scales_multiplicity():
    l, cert, stats = theorem2_search(2, 2)
    assert l == 160252180677284429049124
    assert cert.target == 2 * l
    assert cert.predicted_multiplicity == 6
    assert cert.observed_preimages.multiplicity == 6
    assert multiplicity(cert.target, "phi") == 6


def test_theorem2_rejects_unattained_base():
    with pytest.raises(DomainError):
        theorem2_search(3, 2)  # no x has totient 3


def test_theorem2_checks_the_search_floors_for_every_r():
    # r = 1 needs no search, but takes the same arguments as r = 2
    for r in (1, 2):
        with pytest.raises(DomainError, match="n must be at least 2, got -5"):
            theorem2_search(1, r, n=-5, pool_bound=-1, budget=-1)
        with pytest.raises(DomainError, match="budget must be nonnegative, got -1"):
            theorem2_search(1, r, n=2, budget=-1)


def test_corollary3_plan_values():
    plan = corollary3_plan(6)
    assert plan.prime_factor == 2
    assert plan.multiplier_r == 3
    assert plan.base_m == 1
    assert plan.base_multiplicity == 2
    assert plan.invocation == "theorem2 --m 1 --r 3"
    assert corollary3_plan(4).multiplier_r == 2
    assert corollary3_plan(2).multiplier_r == 1
    assert corollary3_plan(10).multiplier_r == 5
    # theorem2's default pool 10^6 lies above 2^19 + 1 but not 2^20 + 1
    assert configs.DEFAULT_POOL == 10 ** 6
    assert corollary3_plan(38).invocation == "theorem2 --m 1 --r 19"
    assert corollary3_plan(40).invocation == "theorem2 --m 1 --r 20 --pool 2097152"


def test_corollary3_plan_rejects_odd_or_small():
    for bad in (0, 1, 3, 7):
        with pytest.raises(DomainError):
            corollary3_plan(bad)


def test_corollary3_plan_names_an_unprintable_r_by_its_size():
    with pytest.raises(CapacityError, match=r"^plan multiplier r is a number of 16609 bits"):
        corollary3_plan(10 ** 5000)
    # the largest r whose pool 2^(r+1) the CLI reads: 4,300 digits
    r = configs._MAX_PLAN_R
    assert len(str(2 ** (r + 1))) == 4300
    assert corollary3_plan(2 * r).invocation == f"theorem2 --m 1 --r {r} --pool {2 ** (r + 1)}"
    for big in (r + 1, 10 ** 4300 - 1):
        with pytest.raises(CapacityError, match=f"^plan multiplier r is {big}: its pool 2"):
            corollary3_plan(2 * big)


def _random_config(rng, rs=(2, 3), ns=(2, 3)):
    r = rng.choice(rs)
    n = rng.choice(ns)
    kind = rng.choice(("phi", "sigma"))
    base_m = rng.choice((1, 1, 2, 4)) if kind == "phi" else 1
    lo = (1 << r) * base_m + 2
    picked = set()
    while len(picked) < r * n:
        c = rng.randrange(lo, 10 ** 4)
        p = sympy.nextprime(c)
        if p < 10 ** 4:
            picked.add(int(p))
    cells = sorted(picked)
    rng.shuffle(cells)
    matrix = tuple(tuple(cells[i * n : (i + 1) * n]) for i in range(r))
    return build_config(matrix, kind, base_m=base_m)


def _oracle_cond_i(cfg):
    vals = []
    for i, j in condition_index_set(cfg.r):
        v = 2 * cfg.matrix[i - 1][0] * cfg.q[j - 1] + (1 if cfg.kind == "phi" else -1)
        if not sympy.isprime(v):
            return False
        vals.append(v)
    flat = {p for row in cfg.matrix for p in row}
    return len(set(vals)) == len(vals) and not (set(vals) & flat)


def test_checker_against_oracle_seeded_sample():
    rng = random.Random(99)
    for _ in range(60):
        cfg = _random_config(rng)
        assert check_condition_i(cfg).passed == _oracle_cond_i(cfg), cfg.matrix


def test_prime_config_stores_only_what_it_cannot_derive():
    import dataclasses

    assert [f.name for f in dataclasses.fields(PrimeConfig) if f.init] == [
        "kind", "matrix", "base_m"]
    cfg = PrimeConfig("phi", PHI_R2_MATRIX, 1)
    assert cfg == build_config(PHI_R2_MATRIX, "phi")
    assert cfg.base_k == multiplicity(1, "phi")
    assert (cfg.r, cfg.n) == (2, 2)
    assert cfg.q == tuple(row[1] for row in PHI_R2_MATRIX)
    assert cfg.t == math.prod(p for row in PHI_R2_MATRIX for p in row)
    assert PrimeConfig("sigma", SIGMA_R2_MATRIX, 1).base_k is None
    with pytest.raises(TypeError):
        PrimeConfig("sigma", SIGMA_R2_MATRIX, 1, None)
    with pytest.raises(DomainError, match="at least 2x2"):
        PrimeConfig("sigma", (), 1)


# (search arguments, expected matrix or None, expected SearchStats fields);
# any change to sampling, probing or assembly order moves these.
SEARCH_PINS = [
    (("phi", 3, 2, 10 ** 6, 30000, 0, 1),
     ((299521, 189353), (166471, 655103), (730111, 866513)),
     dict(probes=15177, rounds=4, assembled=223, cond_i_rejects=0,
          cond_ii_rejects=0, cond_iii_rejects=222, found=True)),
    (("phi", 2, 2, 10 ** 5, 30000, 0, 2),
     ((44483, 12373), (82787, 11173)),
     dict(probes=3484, rounds=1, assembled=50, cond_i_rejects=0,
          cond_ii_rejects=0, cond_iii_rejects=49, found=True)),
    (("sigma", 3, 2, 10 ** 5, 30000, 1, 1),
     None,
     dict(probes=30000, rounds=9, assembled=669, cond_i_rejects=0,
          cond_ii_rejects=0, cond_iii_rejects=669, found=False)),
]


@pytest.mark.parametrize("args, matrix, stats", SEARCH_PINS)
def test_search_results_are_pinned(args, matrix, stats):
    kind, r, n, pool, budget, seed, base_m = args
    cfg, got = search_config(kind, r, n, pool, budget, seed=seed, base_m=base_m)
    assert (cfg.matrix if cfg is not None else None) == matrix
    assert vars(got) == stats


@pytest.mark.parametrize("kind, base_m, message", [
    ("tau", 1, "kind must be one of"),
    ("sigma", 3, "sigma kind fixes base_m = 1"),
    ("phi", 0, "base value must be positive, got 0"),
    ("phi", 3, "base value 3 has no phi-preimage"),
])
def test_kind_and_base_rules_agree_everywhere(kind, base_m, message):
    errors = []
    for call in (lambda: build_config(SIGMA_R2_MATRIX, kind, base_m=base_m),
                 lambda: search_config(kind, 2, 2, 10 ** 5, 1000, base_m=base_m)):
        with pytest.raises(DomainError) as info:
            call()
        errors.append(str(info.value))
    if kind == "phi":
        with pytest.raises(DomainError) as info:
            theorem2_search(base_m, 2, budget=1000)
        errors.append(str(info.value))
    assert errors[0].startswith(message)
    assert len(set(errors)) == 1, errors


def test_payload_rejects_unhashable_lemma():
    payload = config_to_payload(build_config(SIGMA_R2_MATRIX, "sigma"))
    payload["lemma"] = ["2"]
    with pytest.raises(DomainError, match="lemma"):
        config_from_payload(payload)


def test_search_counts_base_multiplicity_once(monkeypatch):
    calls = []
    monkeypatch.setattr(configs, "multiplicity",
                        lambda m, kind: calls.append(m) or multiplicity(m, kind))
    configs._base_multiplicity.cache_clear()
    cfg, stats = search_config("phi", 2, 2, 10 ** 5, 20000, seed=0, base_m=2)
    configs._base_multiplicity.cache_clear()  # holds no count from the patched function
    assert stats.assembled > 1 and cfg is not None
    assert calls == [2]


def test_an_unhashable_kind_is_refused_before_any_cache():
    with pytest.raises(DomainError, match="^kind must be one of"):
        build_config(SIGMA_R2_MATRIX, ["phi"])
    with pytest.raises(DomainError, match="^kind must be one of"):
        search_config(["sigma"], 2, 2, 10 ** 5, 100)
    with pytest.raises(DomainError, match="^kind must be one of"):
        multiplicity(12, ["sigma"])


def test_forms_are_one_derivation_and_pairwise_distinct():
    # check_condition_i reports distinct values without scanning for
    # duplicates; this holds for every valid matrix, of either kind
    rng = random.Random(2020)
    for _ in range(200):
        cfg = _random_config(rng, rs=range(2, 7), ns=range(2, 5))
        assert list(cfg.forms) == list(condition_index_set(cfg.r))
        assert all(v == form_value(cfg, i, j) for (i, j), v in cfg.forms.items())
        assert len(set(cfg.forms.values())) == 3 * cfg.r - 2
        assert check_condition_i(cfg).values_distinct


def test_form_value_gates_its_indices():
    cfg = build_config([[11, 13], [17, 19]], "sigma")
    for i, j in ((0, 1), (3, 1), (1, 0), (-1, -1)):
        with pytest.raises(DomainError, match=r"^form index must lie in 1\.\.2, got"):
            form_value(cfg, i, j)
    for bad in (1.0, True):
        with pytest.raises(DomainError, match="form index must be an integer"):
            form_value(cfg, bad, 1)
    assert [form_value(cfg, i, j) for i, j in condition_index_set(2)] == [
        2 * 11 * 13 - 1, 2 * 11 * 19 - 1, 2 * 17 * 13 - 1, 2 * 17 * 19 - 1]


# k = 2 * q with q a product of two primes near 2**100: factoring k by rho
# takes tens of seconds, but an even k needs no factoring, and an r this
# large is refused by its size (its pool 2^(r+1) has no printable form)
HARD_Q = (2 ** 100 + 277) * (2 ** 101 + 81)


def test_corollary3_plan_factors_nothing(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(phisigma.arith, "factorize", refuse)
    with pytest.raises(CapacityError, match=f"^plan multiplier r is {HARD_Q}: its pool"):
        corollary3_plan(2 * HARD_Q)
    r = configs._MAX_PLAN_R
    plan = corollary3_plan(2 * r)
    assert (plan.k, plan.prime_factor, plan.multiplier_r, plan.base_m,
            plan.base_multiplicity) == (2 * r, 2, r, 1, 2)


# A 2x8 matrix of primes above 10^6: its sigma target 4 * t has
# 3 * 2^16 divisors, and condition (ii) took 33 s to list them before the
# divisor count was held to DIVISOR_CAPACITY.
WIDE_PRIMES = [int(p) for p in sympy.primerange(10 ** 6, 10 ** 6 + 400)][:16]
WIDE_2X8_MATRIX = (tuple(WIDE_PRIMES[:8]), tuple(WIDE_PRIMES[8:]))


def test_conditions_hold_the_target_divisor_count_before_listing(monkeypatch):
    def refuse(*args):
        raise AssertionError("divisors listed")

    sigma = build_config(WIDE_2X8_MATRIX, "sigma")
    phi = build_config(WIDE_2X8_MATRIX, "phi", base_m=2)
    monkeypatch.setattr(phisigma.arith, "divisors", refuse)
    for check, cfg, count in ((check_condition_ii, sigma, 3 << 16),
                              (check_condition_iii, sigma, 3 << 16),
                              (check_condition_iii, phi, 4 << 16)):
        with pytest.raises(CapacityError,
                           match=f"^divisor count {count} exceeds capacity 65536$"):
            check(cfg)
    assert check_condition_ii(phi).passed  # the phi kind lists no divisor in (ii)


def test_divisor_ceiling_is_exact_on_the_readme_configs(monkeypatch):
    # 2x2 targets, 4 * t (times base_m = 1 for phi), have 3 * 2^4 = 48 divisors
    for matrix, kind in ((SIGMA_R2_MATRIX, "sigma"), (PHI_R2_MATRIX, "phi")):
        cfg = build_config(matrix, kind)
        monkeypatch.setattr(phisigma.arith, "DIVISOR_CAPACITY", 48)
        assert verify(cfg).overall
        monkeypatch.setattr(phisigma.arith, "DIVISOR_CAPACITY", 47)
        with pytest.raises(CapacityError, match="^divisor count 48 exceeds capacity 47$"):
            verify(cfg)


def test_search_holds_the_divisor_count_before_sieving(monkeypatch):
    def refuse(*args):
        raise AssertionError("pool sieved")

    monkeypatch.setattr(phisigma.sieves, "sieve_range", refuse)
    with pytest.raises(CapacityError, match="^divisor count 196608 exceeds capacity 65536$"):
        search_config("sigma", 2, 8, 10 ** 6, 1000)
    # r * n past the ceiling's bits: 2^(r*n) is not formed
    with pytest.raises(CapacityError, match="^divisor count at least 2\\^a number of "):
        search_config("sigma", 2, 10 ** 5000, 10 ** 6, 1000)
