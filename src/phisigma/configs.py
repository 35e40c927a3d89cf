"""Prime configurations that force prescribed multiplicities of phi and sigma.

A configuration is an r x n matrix of distinct primes p[i][j] with row
cofactors q_i = p[i][1] * ... * p[i][n-1] (all but the first column) and
total product t.  Writing a = +1 for the phi kind and a = -1 for sigma,
the required prime forms are 2 * p[i][0] * q_j + a over the index pairs
(i, j) with i = 1, j = 1, or i = j.  A configuration passing all three condition
checks pins the preimage count of its target exactly:

  phi kind:   phi-multiplicity of 2**r * t * base_m is r * base_k,
              where base_k is the phi-multiplicity of base_m;
  sigma kind: sigma-multiplicity of 2**r * t is r.

PrimeConfig stores the kind, the matrix and base_m, and computes base_k once;
r, n, q, t and the forms are derived from the matrix, the forms once for the
checks and the certifier; they are pairwise distinct by construction.  The
index pairs admit exactly r perfect matchings of rows onto columns, the
identity and the transpositions of row 1 with another row, so they are
written down, not searched for.  The certifier re-derives the count by
exhaustive preimage enumeration and refuses to emit a certificate on any
disagreement.  The checks and the certifier read the target's factorization,
known by construction (PrimeConfig.factors); forming it holds the divisor
count to DIVISOR_CAPACITY, which that enumeration meets, as the search and
the plan do before they build anything.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from math import prod

from . import arith
from .errors import CapacityError, CertificationError, DomainError, shown
from .preimages import PreimageSet, multiplicity, phi_preimages, sigma_preimages

LEMMA_KINDS = {"1": "phi", "2": "sigma"}  # config-file "lemma" -> kind
DEFAULT_BUDGET = 200_000
DEFAULT_POOL = 10 ** 6  # theorem2_search's pool bound
R_CAPACITY = 1 << 10  # most rows listed; enumerate_matchings(2**10): 0.08 s, 32 MB (2-core Xeon)


def _form_sign(kind: str) -> int:
    return 1 if kind == "phi" else -1


@lru_cache(maxsize=256, typed=True)  # a search builds many configs on one base value
def _base_multiplicity(kind: str, base_m: int) -> int | None:
    """base_k: the phi-multiplicity of base_m for the phi kind, and None for
    sigma, which fixes base_m = 1.  Callers check the kind first."""
    if kind == "sigma":
        if base_m != 1:
            raise DomainError("sigma kind fixes base_m = 1")
        return None
    k = multiplicity(base_m, "phi")
    if k == 0:
        raise DomainError(f"base value {shown(base_m)} has no phi-preimage")
    return k


@dataclass(frozen=True)
class PrimeConfig:
    """Validated r x n matrix of distinct primes above 2**r * base_m + 1.

    Stores only what cannot be derived: the kind, the matrix and the base
    value base_m (1 for sigma).  base_k, the phi-multiplicity of base_m
    (None for sigma), is computed on construction; r and n are read off the
    matrix, and the row cofactors q, the product t and the condition forms
    are computed on first use.
    """

    kind: str
    matrix: tuple[tuple[int, ...], ...]
    base_m: int
    base_k: int | None = field(init=False)

    def __post_init__(self):
        arith._check_kind(self.kind)
        object.__setattr__(self, "base_m", arith.exact_int(self.base_m, "base value", 1))
        object.__setattr__(self, "base_k", _base_multiplicity(self.kind, self.base_m))
        if self.r < 2 or self.n < 2:
            raise DomainError(f"matrix must be at least 2x2, got {self.r}x{self.n}")
        if any(len(row) != self.n for row in self.matrix):
            raise DomainError("matrix rows must all have the same length")
        entries = [p for row in self.matrix for p in row]
        if len(set(entries)) != len(entries):
            raise DomainError("matrix entries must be pairwise distinct")
        bound = (1 << self.r) * self.base_m + 1
        for p in entries:
            if p <= bound:
                raise DomainError(f"entry {shown(p)} must exceed {shown(bound)}")
            if not arith.is_prime(p):
                raise DomainError(f"entry {shown(p)} is not prime")

    @property
    def r(self) -> int:
        return len(self.matrix)

    @property
    def n(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @cached_property
    def q(self) -> tuple[int, ...]:
        return tuple(prod(row[1:]) for row in self.matrix)

    @cached_property
    def t(self) -> int:
        return prod(p for row in self.matrix for p in row)

    @cached_property
    def forms(self) -> dict[tuple[int, int], int]:
        """The form value of each condition index pair, in index-set order."""
        return {(i, j): form_value(self, i, j) for i, j in condition_index_set(self.r)}

    @property
    def target(self) -> int:
        return (1 << self.r) * self.t * self.base_m

    @property
    def factors(self) -> arith.PrimeFactorization:
        """The target's factorization, 2**r * base_m's then each matrix entry
        (all above 2**r * base_m + 1), its divisor count held at each read."""
        head = _hold_divisors(self.r, self.n, self.base_m)
        entries = tuple(sorted((p, 1) for row in self.matrix for p in row))
        return arith.PrimeFactorization(self.target, head.factors + entries)

    @property
    def predicted_multiplicity(self) -> int:
        return self.r if self.base_k is None else self.r * self.base_k


def build_config(matrix, kind: str, base_m: int = 1) -> PrimeConfig:
    """Validate a matrix of primes; base_k is computed from base_m."""
    rows = tuple(tuple(arith.exact_int(p, "matrix entry") for p in row) for row in matrix)
    return PrimeConfig(kind, rows, base_m)


def condition_index_set(r: int) -> tuple[tuple[int, int], ...]:
    """The (i, j) pairs (1-based) whose forms must be prime: i=1, j=1 or i=j,
    in row-major order: row 1 whole, then (i, 1) and (i, i) for each i > 1."""
    r = arith.exact_int(r, "r", 1, R_CAPACITY)
    return tuple((1, j) for j in range(1, r + 1)) + tuple(
        pair for i in range(2, r + 1) for pair in ((i, 1), (i, i)))


def form_value(cfg: PrimeConfig, i: int, j: int) -> int:
    """The condition form 2 * p[i][0] * q_j + a for 1-based row i, column j."""
    for index in (i, j):
        if not 1 <= arith.exact_int(index, "form index") <= cfg.r:
            raise DomainError(f"form index must lie in 1..{cfg.r}, got {shown(index)}")
    return 2 * cfg.matrix[i - 1][0] * cfg.q[j - 1] + _form_sign(cfg.kind)


@dataclass(frozen=True)
class FormCheck:
    i: int
    j: int
    value: int
    prime: bool


@dataclass(frozen=True)
class ConditionIResult:
    passed: bool
    forms: tuple[FormCheck, ...]
    values_distinct: bool
    duplicate_value: int | None
    matrix_overlap: int | None


@dataclass(frozen=True)
class ConditionIIResult:
    passed: bool
    witness: tuple[int, int, int] | None  # (pi, b, divisor)
    note: str


@dataclass(frozen=True)
class ConditionIIIResult:
    passed: bool
    witness: tuple[int, int] | None  # (d1, d2)
    examined: int
    exempted: int


@dataclass(frozen=True)
class VerificationReport:
    cond_i: ConditionIResult
    cond_ii: ConditionIIResult
    cond_iii: ConditionIIIResult

    @property
    def overall(self) -> bool:
        return self.cond_i.passed and self.cond_ii.passed and self.cond_iii.passed


def check_condition_i(cfg: PrimeConfig) -> ConditionIResult:
    """Primality of every required form, and no form value equal to a matrix
    entry.  The values are pairwise distinct by construction, so values_distinct
    is True and duplicate_value None: p[i][0] * q_j has the distinct primes
    {p[i][0]} and row j past column 0 (not empty, as n >= 2).  Equal values at
    (i, j) and (k, l) with i != k would put p[i][0] in another cell; so i = k,
    and q_j = q_l forces j = l."""
    forms = tuple(FormCheck(i, j, v, arith.is_prime(v)) for (i, j), v in cfg.forms.items())
    entries = {p for row in cfg.matrix for p in row}
    overlap = next((f.value for f in forms if f.value in entries), None)
    passed = all(f.prime for f in forms) and overlap is None
    return ConditionIResult(passed, forms, True, None, overlap)


def _hold_divisors(r: int, n: int, base_m: int) -> arith.PrimeFactorization:
    """Hold the divisor count of the target 2**r * t * base_m of an r x n
    configuration to arith.DIVISOR_CAPACITY, and return the factorization of
    2**r * base_m it reads.  The r*n matrix primes are distinct and exceed
    2**r * base_m, so the count is 2**(r*n) times the divisor count of
    2**r * base_m; 2**(r*n) is formed only below the ceiling."""
    capacity = arith.DIVISOR_CAPACITY
    if r * n >= capacity.bit_length():
        raise CapacityError(
            f"divisor count at least 2^{shown(r * n)} exceeds capacity {capacity}")
    head = arith.factorize(base_m << r)
    rest = prod(e + 1 for _, e in head.factors)
    arith.exact_int(rest << (r * n), "divisor count", most=capacity)
    return head


def check_condition_ii(cfg: PrimeConfig) -> ConditionIIResult:
    """sigma kind: no divisor d > 2**r of 2**r * t may be sigma of a prime
    power pi**b with b >= 2.  The phi kind has no such demand."""
    if cfg.kind == "phi":
        return ConditionIIResult(
            True, None,
            "no prime-power divisor demand for the phi kind; the form values "
            "are distinct by construction (see condition (i))")
    threshold = 1 << cfg.r
    for d in arith.divisors(cfg.factors):
        if d <= threshold:
            continue
        hit = arith.prime_power_sigma_solve(d)
        if hit is not None:
            pi, b = hit
            return ConditionIIResult(False, (pi, b, d), "")
    return ConditionIIResult(True, None, "")


def check_condition_iii(cfg: PrimeConfig) -> ConditionIIIResult:
    """2*d1*d2 + a must be composite for every d1 | t with d1 > 1 and every
    d2 | 2**(r-1) * base_m, except values literally listed by condition (i)."""
    t_fact = arith.PrimeFactorization(cfg.t, cfg.factors.factors[-cfg.r * cfg.n:])
    sign = _form_sign(cfg.kind)
    exempt = set(cfg.forms.values())
    d2s = arith.divisors((1 << (cfg.r - 1)) * cfg.base_m)
    examined = 0
    exempted = 0
    for d1 in arith.divisors(t_fact):
        if d1 == 1:
            continue
        for d2 in d2s:
            examined += 1
            v = 2 * d1 * d2 + sign
            if v in exempt:
                exempted += 1
                continue
            if arith.is_prime(v):
                return ConditionIIIResult(False, (d1, d2), examined, exempted)
    return ConditionIIIResult(True, None, examined, exempted)


def verify(cfg: PrimeConfig) -> VerificationReport:
    """Run all three condition checks."""
    return VerificationReport(
        cond_i=check_condition_i(cfg),
        cond_ii=check_condition_ii(cfg),
        cond_iii=check_condition_iii(cfg),
    )


def enumerate_matchings(r: int) -> tuple[tuple[int, ...], ...]:
    """Perfect matchings of rows onto columns along allowed edges.

    Edges are the condition index pairs; a matching is returned as a tuple
    sigma with sigma[i] the 0-based column matched to row i.  Row i > 1 may
    only take column 1 or its own, so once row 1 takes column j the rest is
    forced: there are exactly r matchings, the identity (j = 1) and the
    transpositions of rows 1 and j, listed in lexicographic order.
    """
    r = arith.exact_int(r, "r", 1, R_CAPACITY)
    return tuple(tuple(j if i == 0 else 0 if i == j else i for i in range(r))
                 for j in range(r))


@dataclass(frozen=True)
class Certificate:
    """A verified configuration together with the enumerated preimage set."""

    config: PrimeConfig | None
    target: int
    predicted_multiplicity: int
    observed_preimages: PreimageSet
    matchings: tuple[tuple[int, ...], ...]


def certify(cfg: PrimeConfig) -> Certificate:
    """Exhaustively enumerate the target's preimages and check the prediction.

    Also checks the predicted structure: every solution is the product of
    the form primes along one matching, times a preimage of base_m (for the
    sigma kind base_m = 1, whose one preimage is 1).  Raises
    CertificationError on any disagreement.
    """
    report = verify(cfg)
    if not report.overall:
        raise DomainError("certify requires a configuration passing all condition checks")
    matchings = enumerate_matchings(cfg.r)
    products = [prod(cfg.forms[i + 1, j + 1] for i, j in enumerate(per)) for per in matchings]
    target = cfg.target
    predicted = cfg.predicted_multiplicity
    preimages_of = phi_preimages if cfg.kind == "phi" else sigma_preimages
    expected = sorted(P * w for P in products for w in preimages_of(cfg.base_m).solutions)
    observed = preimages_of(cfg.factors)
    if list(observed.solutions) != expected:
        raise CertificationError(
            f"target {target}: predicted {predicted} structured solutions, "
            f"observed {len(observed.solutions)}",
            predicted=predicted,
            observed=len(observed.solutions),
            target=target,
            solutions=observed.solutions)
    return Certificate(cfg, target, predicted, observed, matchings)


@dataclass
class SearchStats:
    """Near-miss accounting for a configuration search."""

    probes: int = 0
    rounds: int = 0
    assembled: int = 0
    cond_i_rejects: int = 0
    cond_ii_rejects: int = 0
    cond_iii_rejects: int = 0
    found: bool = False


_FLOOR_BITS = 14_000  # 2^14000 has 4,215 digits, within str's default limit of 4,300


def _below_floor(pool_bound: int, r: int, base_m: int) -> str:
    """Why a pool bound of at most 2^r * base_m + 1 is refused: the floor by
    its value while 2^r has at most _FLOOR_BITS bits, by its formula past that."""
    head = f"pool bound {shown(pool_bound)} is below the 2^r floor"
    if r > _FLOOR_BITS:
        return f"{head}: matrix primes must exceed 2^{shown(r)} * base_m + 1"
    lower = (1 << r) * base_m + 1
    return (f"{head} {shown(lower + 1)}: matrix primes must exceed "
            f"2^{r} * base_m + 1 = {shown(lower)}")


def search_config(kind: str, r: int, n: int, pool_bound: int, budget: int,
                  seed: int = 0, base_m: int = 1) -> tuple[PrimeConfig | None, SearchStats]:
    """Seeded search for a configuration passing all three conditions.

    The budget counts primality probes of candidate condition forms, so a
    run is reproducible across machines.  Rounds draw a fresh sample of
    first-column candidates and q-cofactor candidates, probe the bipartite
    compatibility relation (condition (i) forms), and assemble matrices
    whose required forms are all prime before running the remaining checks.
    Returns (config, stats); config is None when the budget runs out.
    """
    arith._check_kind(kind)
    base_m = arith.exact_int(base_m, "base value", 1)
    _base_multiplicity(kind, base_m)
    r, n = arith.exact_int(r, "r", 2), arith.exact_int(n, "n", 2)
    pool_bound = arith.exact_int(pool_bound, "pool bound")
    budget, seed = arith.exact_int(budget, "budget", 0), arith.exact_int(seed, "seed")
    # 2^r alone exceeds a pool bound of at most r bits: refused before 2^r is formed
    lower = (1 << r) * base_m + 1 if r < pool_bound.bit_length() else None
    if lower is None or pool_bound <= lower:
        raise DomainError(_below_floor(pool_bound, r, base_m))
    _hold_divisors(r, n, base_m)
    from .sieves import sieve_range  # numpy loads only for a search

    sign = _form_sign(kind)
    pool = sieve_range(lower + 1, pool_bound)
    stats = SearchStats()
    if len(pool) < r * n:
        raise DomainError(
            f"prime pool ({len(pool)} primes in ({lower}, {pool_bound}]) cannot fill "
            f"an {r}x{shown(n)} matrix")
    rng = random.Random(seed)
    n_cols = min(64, len(pool) // 2)
    n_qs = min(48, max(r, (len(pool) - n_cols) // (n - 1)))

    while stats.probes < budget:
        stats.rounds += 1
        sample = rng.sample(pool, min(len(pool), n_cols + n_qs * (n - 1)))
        cols = sample[:n_cols]
        rest = sample[n_cols:]
        q_tuples = [tuple(sorted(rest[i * (n - 1):(i + 1) * (n - 1)]))
                    for i in range(len(rest) // (n - 1))]
        q_vals = [prod(qt) for qt in q_tuples]
        masks = []
        for qv in q_vals:
            mask = 0
            for b, p in enumerate(cols):
                if stats.probes >= budget:
                    return None, stats
                stats.probes += 1
                if arith.is_prime(2 * p * qv + sign):
                    mask |= 1 << b
            masks.append(mask)
        cfg = _assemble_and_check(kind, r, base_m, cols, q_tuples, masks, stats, budget)
        if cfg is not None:
            stats.found = True
            return cfg, stats
    return None, stats


def _assemble_and_check(kind, r, base_m, cols, q_tuples, masks, stats, budget):
    """Try to place r first-column primes against r q-cofactors.

    Row 1's prime must be compatible with every chosen q; every row's prime
    must be compatible with q_1; row i's prime with q_i.  Greedy assignment
    from the compatibility bitmasks; on success the full checker stack runs.
    """
    idx_order = range(len(q_tuples))
    for j1 in idx_order:
        # a q sharing no column with q_1 empties inter_all: skip it up front
        partners = [j for j in idx_order if j != j1 and masks[j1] & masks[j]]
        for others in combinations(partners, r - 1):
            if stats.probes >= budget:
                return None
            js = (j1,) + others
            inter_all = masks[j1]
            for j in others:
                inter_all &= masks[j]
            if not inter_all:
                continue
            used = inter_all & -inter_all  # the chosen columns, as bits
            chosen = [used.bit_length() - 1]
            for j in others:
                avail = masks[j1] & masks[j] & ~used
                if not avail:
                    break
                low = avail & -avail
                chosen.append(low.bit_length() - 1)
                used |= low
            if len(chosen) < r:
                continue
            matrix = [(cols[chosen[i]],) + q_tuples[js[i]] for i in range(r)]
            stats.assembled += 1
            cfg = build_config(matrix, kind, base_m=base_m)
            rep_i = check_condition_i(cfg)
            if not rep_i.passed:
                stats.cond_i_rejects += 1
                continue
            rep_iii = check_condition_iii(cfg)
            stats.probes += rep_iii.examined - rep_iii.exempted
            if not rep_iii.passed:
                stats.cond_iii_rejects += 1
                continue
            rep_ii = check_condition_ii(cfg)
            if not rep_ii.passed:
                stats.cond_ii_rejects += 1
                continue
            return cfg
    return None


def theorem2_search(m: int, r: int, n: int = 2, pool_bound: int = DEFAULT_POOL,
                    budget: int = DEFAULT_BUDGET, seed: int = 0,
                    ) -> tuple[int | None, Certificate | None, SearchStats]:
    """Find a multiplier l with phi-multiplicity(l * m) = r * multiplicity(m).

    Searches phi-kind configurations with base value m; on success
    l = 2**r * t and the certificate covers the claim.  r = 1 is satisfied
    by l = 1 with no search.
    """
    m = arith.exact_int(m, "base value", 1)
    k = _base_multiplicity("phi", m)
    r, n = arith.exact_int(r, "r", 1), arith.exact_int(n, "n", 2)
    pool_bound = arith.exact_int(pool_bound, "pool bound")
    budget, seed = arith.exact_int(budget, "budget", 0), arith.exact_int(seed, "seed")
    if r == 1:
        cert = Certificate(None, m, k, phi_preimages(m), ())
        return 1, cert, SearchStats(found=True)
    cfg, stats = search_config("phi", r, n, pool_bound, budget, seed, base_m=m)
    if cfg is None:
        return None, None, stats
    cert = certify(cfg)
    return (1 << cfg.r) * cfg.t, cert, stats


@dataclass(frozen=True)
class ScalePlan:
    """Decomposition of an even k into a base multiplicity times a multiplier."""

    k: int
    prime_factor: int
    multiplier_r: int
    base_m: int
    base_multiplicity: int
    invocation: str


def corollary3_plan(k: int) -> ScalePlan:
    """Plan phi-multiplicity k = 2 * r for an even k over base m = 1, the least
    value of phi-multiplicity 2: phi(1) = phi(2) = 1 < phi(n) for n > 2.

    The r x 2 target's divisor count is held as theorem2 holds it, so a k
    whose invocation would exit over capacity (k >= 14) is refused here;
    below that, 2^r + 1 <= 65 stays under theorem2's default pool.

    >>> corollary3_plan(6).invocation
    'theorem2 --m 1 --r 3'
    """
    k = arith.exact_int(k, "k", 2)
    if k % 2:
        raise DomainError(f"plan requires an even k >= 2, got {shown(k)}")
    r = k // 2
    _hold_divisors(r, 2, 1)
    return ScalePlan(
        k=k,
        prime_factor=2,
        multiplier_r=r,
        base_m=1,
        base_multiplicity=2,
        invocation=f"theorem2 --m 1 --r {r}",
    )


def config_to_payload(cfg: PrimeConfig) -> dict:
    """The file form of a configuration."""
    payload = {
        "lemma": {kind: lemma for lemma, kind in LEMMA_KINDS.items()}[cfg.kind],
        "r": cfg.r,
        "n": cfg.n,
        "matrix": [list(row) for row in cfg.matrix],
    }
    if cfg.kind == "phi":
        payload["base_m"] = cfg.base_m
    return payload


def config_from_payload(payload: dict) -> PrimeConfig:
    """Validate and build a configuration from its file form."""
    if not isinstance(payload, dict):
        raise DomainError("config file must hold a single object")
    lemma = payload.get("lemma")
    if not isinstance(lemma, str) or lemma not in LEMMA_KINDS:
        raise DomainError(f'config "lemma" must be "1" or "2", got {lemma!r}')
    kind = LEMMA_KINDS[lemma]
    matrix = payload.get("matrix")
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise DomainError('config "matrix" must be a list of rows')
    base_m = arith.exact_int(payload.get("base_m", 1), 'config "base_m"')
    cfg = build_config(matrix, kind, base_m=base_m)
    for key in ("r", "n"):
        if key in payload and (arith.exact_int(payload[key], f'config "{key}"')
                               != getattr(cfg, key)):
            raise DomainError(
                f'config "{key}" is {payload[key]}, matrix implies {getattr(cfg, key)}')
    return cfg


def load_config(path: str) -> PrimeConfig:
    """Read a config file.  Text that is not UTF-8 or not JSON, or that holds
    an integer too long to convert or nesting too deep to parse, raises
    DomainError; OSError (missing file, a directory) passes through."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DomainError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_payload(payload)


def save_config(cfg: PrimeConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_payload(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
