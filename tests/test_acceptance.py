"""Acceptance checks for the package: one numbered criterion per test.

Each test prints a single [criterion NN] PASS/FAIL line.  Expected values
marked as frozen were computed once by the stated independent oracle and
must reproduce exactly.
"""

import json
import math
import random
import subprocess
import sys
import time
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import product

import sympy

from phisigma import cli
from phisigma.configs import (
    build_config,
    certify,
    check_condition_i,
    check_condition_ii,
    check_condition_iii,
    condition_index_set,
    enumerate_matchings,
    form_value,
    search_config,
)
from phisigma.errors import DomainError
from phisigma.preimages import (
    minimal_m_with_multiplicity,
    phi_preimages,
    sigma_preimages,
)
from phisigma.sievelab import (
    count_prime_pairs,
    count_shifted_almost_primes,
    l_value,
    lemma3_reference_constant,
    ratio_power_sum,
)
from phisigma.sieves import iter_phi_blocks, iter_sigma_blocks

# Frozen values.  Sources: the sigma minimal-m row was derived by an
# independent divisor-addition sieve (sig[d::d] += d over d <= 1e6) and
# matches the production batch scan; the pinned shifted-almost-prime count
# was derived by a sympy.factorint walk over the primes in (5e5, 1e6].
FROZEN_SIGMA_MIN_M = {1: 1, 2: 12, 3: 24, 4: 96, 5: 72, 6: 168, 7: 240, 8: 336}
FROZEN_SHIFTED_COUNT_1E6 = 5065

# Known-good configurations (recovered by the default seeded searches) used
# as planted fallbacks if a search comes back empty.
PLANTED_SIGMA_MATRIX = ((564089, 128339), (505493, 165383))
PLANTED_PHI_MATRIX = ((488603, 450001), (780851, 403141))


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _cli_json(*args):
    """Run one CLI command in-process and parse its JSON payload."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, json.loads(buf.getvalue())


def test_criterion_01_inverse_phi_oracle():
    t0 = time.monotonic()
    m_bound = 5000
    x_max = 2 * m_bound * m_bound
    buckets = defaultdict(list)
    for start, vals in iter_phi_blocks(x_max):
        for off in (vals <= m_bound).nonzero()[0].tolist():
            buckets[int(vals[off])].append(start + off)
    # spot-check the scan itself against per-value totients
    rng = random.Random(101)
    for _ in range(300):
        x = rng.randrange(1, x_max)
        assert sympy.totient(x) > m_bound or x in buckets[sympy.totient(x)]
    bad = None
    for m in range(1, m_bound + 1):
        want = [x for x in buckets.get(m, []) if x <= 2 * m * m]
        if list(phi_preimages(m).solutions) != want:
            bad = m
            break
    elapsed = time.monotonic() - t0
    code, payload = _cli_json("inverse", "phi", "4")
    ok = bad is None and code == 0 and payload["solutions"] == [5, 8, 10, 12]
    ok = ok and elapsed < 120
    _report(1, ok, f"inverse phi equals brute-force sets for m <= {m_bound} "
                   f"({elapsed:.1f}s)" + (f"; first mismatch m={bad}" if bad else ""))


def test_criterion_02_inverse_sigma_oracle():
    t0 = time.monotonic()
    m_bound = 10 ** 5
    buckets = defaultdict(list)
    for start, vals in iter_sigma_blocks(m_bound):
        for off in (vals <= m_bound).nonzero()[0].tolist():
            buckets[int(vals[off])].append(start + off)
    bad = None
    for m in range(1, m_bound + 1):
        if list(sigma_preimages(m).solutions) != buckets.get(m, []):
            bad = m
            break
    elapsed = time.monotonic() - t0
    code, payload = _cli_json("inverse", "sigma", "12")
    ok = bad is None and code == 0 and payload["solutions"] == [6, 11]
    ok = ok and elapsed < 60
    _report(2, ok, f"inverse sigma equals one batch-sieve pass for m <= {m_bound} "
                   f"({elapsed:.1f}s)" + (f"; first mismatch m={bad}" if bad else ""))


def test_criterion_03_sigma_minimal_witnesses():
    t0 = time.monotonic()
    got = {}
    for k in range(1, 9):
        rec = minimal_m_with_multiplicity(k, "sigma", 10 ** 6)
        got[k] = rec.minimal_m
    elapsed = time.monotonic() - t0
    code, payload = _cli_json("min-m", "--map", "sigma", "--k", "1", "--bound", "1e6")
    ok = (got == FROZEN_SIGMA_MIN_M
          and got[1] == 1
          and sigma_preimages(1).multiplicity == 1
          and code == 0 and payload["minimal_m"] == 1
          and elapsed < 60)
    _report(3, ok, f"minimal sigma witnesses for k=1..8 match frozen row {got} "
                   f"({elapsed:.1f}s)")


def test_criterion_04_matching_count():
    t0 = time.monotonic()
    got = [len(enumerate_matchings(r)) for r in range(1, 9)]
    elapsed = time.monotonic() - t0
    ok = got == list(range(1, 9)) and elapsed < 1.0
    _report(4, ok, f"exhaustive matching counts for r=1..8 are {got} ({elapsed:.2f}s)")


# -- criterion 5: independent re-implementations of the three conditions --

def _oracle_divisors(primes, extra_two_exp):
    """All divisors of 2**extra_two_exp * prod(primes), each prime squarefree."""
    out = []
    for e in range(extra_two_exp + 1):
        for bits in product((0, 1), repeat=len(primes)):
            d = 1 << e
            for p, b in zip(primes, bits):
                if b:
                    d *= p
            out.append(d)
    return sorted(set(out))


def _oracle_cond_i(cfg):
    sign = 1 if cfg.kind == "phi" else -1
    vals = []
    for i, j in condition_index_set(cfg.r):
        v = 2 * cfg.matrix[i - 1][0] * cfg.q[j - 1] + sign
        if not sympy.isprime(v):
            return False
        vals.append(v)
    flat = {p for row in cfg.matrix for p in row}
    return len(set(vals)) == len(vals) and not (set(vals) & flat)


def _oracle_cond_ii(cfg):
    if cfg.kind == "phi":
        return True
    flat = [p for row in cfg.matrix for p in row]
    for d in _oracle_divisors(flat, cfg.r):
        if d <= 1 << cfg.r:
            continue
        b = 2
        while 2 ** (b + 1) - 1 <= d:
            root, exact = sympy.integer_nthroot(d, b)
            for pi in (root - 1, root, root + 1):
                if pi >= 2 and sympy.isprime(pi):
                    if (pi ** (b + 1) - 1) // (pi - 1) == d:
                        return False
            b += 1
    return True


def _oracle_cond_iii(cfg):
    sign = 1 if cfg.kind == "phi" else -1
    listed = {2 * cfg.matrix[i - 1][0] * cfg.q[j - 1] + sign
              for i, j in condition_index_set(cfg.r)}
    flat = [p for row in cfg.matrix for p in row]
    cof = (1 << (cfg.r - 1)) * cfg.base_m
    d2s = [d for d in range(1, cof + 1) if cof % d == 0]
    for d1 in _oracle_divisors(flat, 0):
        if d1 == 1:
            continue
        for d2 in d2s:
            v = 2 * d1 * d2 + sign
            if v in listed:
                continue
            if sympy.isprime(v):
                return False
    return True


def _random_config(rng):
    r = rng.choice((2, 3))
    n = rng.choice((2, 3))
    kind = rng.choice(("phi", "sigma"))
    base_m = rng.choice((1, 1, 2, 4)) if kind == "phi" else 1
    lo = (1 << r) * base_m + 2
    picked = set()
    while len(picked) < r * n:
        p = int(sympy.nextprime(rng.randrange(lo, 10 ** 4)))
        if p < 10 ** 4:
            picked.add(p)
    cells = sorted(picked)
    rng.shuffle(cells)
    matrix = tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(r))
    return build_config(matrix, kind, base_m=base_m)


def test_criterion_05_checker_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(505)
    trials = 1000
    mismatch = None
    agree_i = agree_ii = agree_iii = 0
    for _ in range(trials):
        cfg = _random_config(rng)
        got = (check_condition_i(cfg).passed,
               check_condition_ii(cfg).passed,
               check_condition_iii(cfg).passed)
        want = (_oracle_cond_i(cfg), _oracle_cond_ii(cfg), _oracle_cond_iii(cfg))
        if got != want:
            mismatch = (cfg.matrix, cfg.kind, got, want)
            break
        agree_i += 1
        agree_ii += 1
        agree_iii += 1
    elapsed = time.monotonic() - t0
    ok = mismatch is None and agree_i == trials
    _report(5, ok, f"checker agrees with direct quantifier oracle on {trials} "
                   f"seeded matrices ({elapsed:.1f}s)"
                   + (f"; mismatch {mismatch}" if mismatch else ""))


def test_criterion_06_certification_soundness():
    t0 = time.monotonic()
    details = []
    ok = True

    sig_cfg, sig_stats = search_config("sigma", 2, 2, 10 ** 6, 200_000, seed=0)
    if sig_cfg is None:
        ok = ok and sig_stats.probes >= 200_000 and sig_stats.rounds >= 1
        details.append(f"sigma search absent (probes={sig_stats.probes}, "
                       f"rounds={sig_stats.rounds}, cond_i_rejects="
                       f"{sig_stats.cond_i_rejects}); planted config used")
        sig_cfg = build_config(PLANTED_SIGMA_MATRIX, "sigma")
    cert = certify(sig_cfg)
    ok = ok and cert.observed_preimages.multiplicity == sig_cfg.r == 2
    products = sorted(
        math.prod(form_value(sig_cfg, i + 1, per[i] + 1) for i in range(sig_cfg.r))
        for per in enumerate_matchings(sig_cfg.r))
    ok = ok and tuple(products) == cert.observed_preimages.solutions
    details.append(f"sigma r=2 certified B={cert.observed_preimages.multiplicity} "
                   f"with matching-product solutions")

    phi_cfg, phi_stats = search_config("phi", 2, 2, 10 ** 6, 200_000, seed=0)
    if phi_cfg is None:
        ok = ok and phi_stats.probes >= 200_000 and phi_stats.rounds >= 1
        details.append(f"phi search absent (probes={phi_stats.probes}); "
                       f"planted config used")
        phi_cfg = build_config(PLANTED_PHI_MATRIX, "phi")
    cert = certify(phi_cfg)
    ok = ok and cert.observed_preimages.multiplicity == 2 * phi_cfg.r == 4
    details.append(f"phi r=2 base m=1 certified A={cert.observed_preimages.multiplicity}")

    elapsed = time.monotonic() - t0
    _report(6, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_07_reference_constant():
    code, payload = _cli_json("lemma3-constant", "--alpha", "1/8")
    got = payload["constant"]
    ok = (code == 0
          and abs(got - (4 * math.log(3) - 4)) < 1e-12
          and got > 0.39
          and got == lemma3_reference_constant(Fraction(1, 8)))
    _report(7, ok, f"reference constant {got!r} equals 4*ln3 - 4 and exceeds 0.39")


def test_criterion_08_shifted_count_equivalence():
    t0 = time.monotonic()
    x_top = 10 ** 4
    # independent data: primality flags and factorizations from sympy
    prime_flags = [False] * (x_top + 2)
    for p in sympy.sieve.primerange(2, x_top + 1):
        prime_flags[p] = True
    min_p = [0] * (x_top // 2 + 2)
    omega = [0] * (x_top // 2 + 2)
    for u in range(2, x_top // 2 + 2):
        fac = sympy.factorint(u)
        min_p[u] = min(fac)
        omega[u] = len(fac)
    alpha = Fraction(1, 8)
    num, den = alpha.numerator, alpha.denominator
    bad = None
    for x in range(16, x_top + 1):
        x_pow = x ** num
        for a in (1, -1):
            naive = 0
            for s in range(x // 2 + 1, x + 1):
                if not prime_flags[s]:
                    continue
                u = (s - a) // 2
                if u >= 2 and omega[u] >= 2 and min_p[u] ** den > x_pow:
                    naive += 1
            if count_shifted_almost_primes(x, alpha, a).count != naive:
                bad = (x, a)
                break
        if bad:
            break
    pinned = count_shifted_almost_primes(10 ** 6, alpha, -1)
    elapsed = time.monotonic() - t0
    ok = bad is None and pinned.count == FROZEN_SHIFTED_COUNT_1E6
    _report(8, ok, f"sieved shifted-almost-prime counts match the naive oracle "
                   f"for all x <= {x_top}, both shifts, and the pinned count at "
                   f"x=1e6 is {pinned.count} ({elapsed:.1f}s)"
                   + (f"; first mismatch {bad}" if bad else ""))


def test_criterion_09_ratio_sum_inequality():
    t0 = time.monotonic()
    bad = None
    for beta in (1.0, 2.0):
        for x in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            rep = ratio_power_sum(beta, x, prime_cutoff=10 ** 5)
            upper = rep.c_beta * rep.tail_factor_bound * x
            if not (x <= rep.sum <= upper):
                bad = (beta, x, rep.sum)
                break
        if bad:
            break
    elapsed = time.monotonic() - t0
    ok = bad is None and elapsed < 30
    _report(9, ok, f"x <= sum (k/phi(k))**beta <= c(beta)*tail*x on the full "
                   f"beta/x grid ({elapsed:.1f}s)"
                   + (f"; violated at {bad}" if bad else ""))


def test_criterion_10_l_value_and_pair_counts():
    t0 = time.monotonic()
    ok = l_value((3, 5, 7)) == 8
    ok = ok and count_prime_pairs(2, 10) == 2
    ok = ok and count_prime_pairs(4, 12) == 2
    x_top = 10 ** 4
    primes = list(sympy.sieve.primerange(2, x_top + 1))
    prime_set = set(primes)
    bad = None
    for k in range(2, 101, 2):
        steps = [p for p in primes if p <= x_top - k and p + k in prime_set]
        for x in range(k + 1, x_top + 1):
            if count_prime_pairs(k, x) != bisect_right(steps, x - k):
                bad = (k, x)
                break
        if bad:
            break
    elapsed = time.monotonic() - t0
    ok = ok and bad is None
    _report(10, ok, f"l_value((3,5,7))=8 and pair counts equal naive enumeration "
                    f"for all even k <= 100, x <= {x_top} ({elapsed:.1f}s)"
                    + (f"; first mismatch {bad}" if bad else ""))


def test_criterion_11_byte_identical_determinism():
    t0 = time.monotonic()
    commands = (
        ("search-config", "--lemma", "2", "--r", "2", "--pool", "1e6",
         "--budget", "200000", "--seed", "0"),
        ("theorem2", "--m", "1", "--r", "2", "--seed", "0"),
        ("sieve-count", "--x", "1e4", "--a", "-1", "--alpha", "1/8"),
        ("ratio-sum", "--beta", "2", "--x", "1e4"),
        ("table", "--map", "sigma", "--k", "1..6", "--bound", "1e4"),
    )
    bad = None
    for args in commands:
        runs = [subprocess.run([sys.executable, "-m", "phisigma.cli", *args],
                               capture_output=True) for _ in range(2)]
        if (runs[0].stdout, runs[0].stderr, runs[0].returncode) != \
           (runs[1].stdout, runs[1].stderr, runs[1].returncode):
            bad = args
            break
        if runs[0].returncode != 0:
            bad = args + ("nonzero exit",)
            break
    elapsed = time.monotonic() - t0
    ok = bad is None
    _report(11, ok, f"{len(commands)} seeded commands re-run byte-identical "
                    f"({elapsed:.1f}s)" + (f"; differed: {bad}" if bad else ""))
