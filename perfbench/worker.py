"""One pass of a perfbench workload, in a fresh interpreter.

run.py starts this file once per pass, and a few more times with
--setup-only to sample set-up time.  It imports phisigma from src/, builds
the pass's inputs from the seed, runs the workload's operations in order,
timing each call, checks each output outside the timed region, and prints
one JSON line.  With --trace the package's public functions are wrapped
first (tracer.py) and the per-layer aggregates are added to that line.

Usage (normally through run.py):
    python3 perfbench/worker.py --workload inverse-ladder --seed 0 \
        --spawned-at <time.monotonic() of the parent> [--trace] [--smoke]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_ROOT = ROOT / ".perfbench-tmp"
DEFAULT_SEED = 0
POOL = 10 ** 6

# Sievelab outputs for the default seed at full size, frozen from phisigma
# 0.1.0 (numpy 2.4, x86-64).  Other seeds are checked against bounds and
# against the benchmark's own sieve instead.
FROZEN = {
    "ratio_power_sum": 22101484.041986935,
    "count_shifted_almost_primes": {"-1": 21572, "1": 21743},
    "count_prime_pairs": {"16": 32109, "26": 35205, "32": 31987, "42": 77172, "46": 33606,
                          "48": 64340, "52": 35071, "60": 85508, "62": 33390, "64": 32152,
                          "82": 32993, "86": 32832},
}


def digest(data) -> str:
    """Short hash of an output; arrays are hashed in place, not copied."""
    if not isinstance(data, (bytes, np.ndarray)):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()[:16]


class Pass:
    """Inputs, operations and check state of one pass."""

    def __init__(self, workload: str, seed: int, pass_index: int, smoke: bool, traced: bool):
        self.seed = seed
        self.first = pass_index == 0  # the pass later passes are compared with
        self.smoke = smoke
        self.traced = traced
        self.rng = random.Random(f"{workload}:{seed}")
        self.check_rng = random.Random(f"check:{workload}:{seed}:{pass_index}")
        self.ops: list[tuple] = []  # (label, run, check)
        self.shared: dict = {}  # outputs one check needs from an earlier op
        self.bytes_out = 0
        self.children: list[dict] = []  # trace dumps of CLI child processes
        self.tmp: Path | None = None

    def op(self, label, run, check):
        self.ops.append((label, run, check))


# ---------------------------------------------------------------- inverse-ladder

SMOOTH_EXTRA = (7, 11, 13, 17, 19)


def _rungs():
    """Shapes (a, b, c, k) of 2**a * 3**b * 5**c times k primes of SMOOTH_EXTRA.

    Every other shape with 96 to 256 divisors, in order of divisor count.
    The seed picks which k extra primes each rung gets; that moves a rung's
    cost by 10-15%, and over the 72 rungs the ladder's cost by about 3%, so the
    targets change with the seed while the work stays nearly the same.
    """
    shapes = [(a, b, c, k) for a in range(3, 13) for b in range(4) for c in range(3)
              for k in range(1, 4) if 96 <= (a + 1) * (b + 1) * (c + 1) * 2 ** k <= 256]
    shapes.sort(key=lambda s: ((s[0] + 1) * (s[1] + 1) * (s[2] + 1) * 2 ** s[3], s))
    return tuple(shapes[::2])


RUNGS = _rungs()
SMOKE_RUNGS = RUNGS[:3]
SAMPLED_SOLUTIONS = 16  # solutions per target and map mapped back by the oracle


def _distinct_primes(rng, lo, hi, count):
    out: set[int] = set()
    while len(out) < count:
        p = oracle.next_prime(rng.randrange(lo, hi))
        if p <= hi:
            out.add(p)
    return sorted(out)


def _rough_prime_cap(r):
    """Largest c below POOL with 2**r * c**(2r) under the proven Miller-Rabin bound."""
    c = min(POOL, int(((tracing.MR_PROVEN_BOUND - 1) >> r) ** (1 / (2 * r))))
    while c ** (2 * r) << r >= tracing.MR_PROVEN_BOUND:
        c -= 1
    return c


def ladder_targets(rng, smoke):
    """[(m, {prime: exponent})] for the ladder: smooth rungs, then the rough slice."""
    targets = []
    for a, b, c, k in SMOKE_RUNGS if smoke else RUNGS:
        factors = {2: a, 3: b, 5: c}
        factors.update((p, 1) for p in rng.sample(SMOOTH_EXTRA, k))
        targets.append(factors)
    # Rough slice: configuration-shaped 2**r * t, and two primes of 1e8..1e11.
    # Rho's cost grows with the square root of the smaller prime, so that one
    # is kept within a factor of two to keep the slice's cost steady.
    # The configuration-shaped targets stay below the proven Miller-Rabin
    # bound.  Above it is_prime proves d - 1 or d + 1 prime by Pocklington,
    # which factors n - 1 with rho, and for some seeds that does not finish
    # in minutes (NOTES.md, "A defect the benchmark steps around").
    for r in (2,) if smoke else (2, 3, 3):
        cap = _rough_prime_cap(r)
        targets.append({2: r, **{p: 1 for p in _distinct_primes(rng, (1 << r) + 2, cap, 2 * r)}})
    for _ in range(1 if smoke else 3):
        p = oracle.next_prime(rng.randrange(10 ** 8, 2 * 10 ** 8))
        q = oracle.next_prime(rng.randrange(10 ** 10, 10 ** 11))
        targets.append({2: rng.randrange(1, 5), p: 1, q: 1})
    return [(math.prod(p ** e for p, e in f.items()), f) for f in targets]


def build_inverse_ladder(ps, pas: Pass):
    counts = pas.shared
    for m, factors in ladder_targets(pas.rng, pas.smoke):
        for kind in ("phi", "sigma"):
            pas.op(f"{kind}_preimages", lambda m=m, kind=kind: getattr(ps, f"{kind}_preimages")(m),
                   lambda res, m=m, f=factors, kind=kind: _check_preimages(pas, res, m, f, kind))
        for kind in ("phi", "sigma"):
            pas.op(f"multiplicity_{kind}", lambda m=m, kind=kind: ps.multiplicity(m, kind),
                   lambda res, m=m, kind=kind: (res == counts[(m, kind)], digest(res), res, None))


def _candidate_primes(m, factors):
    """Primes p with p - 1 or p + 1 dividing m, and the primes of m: every
    large prime of a phi- or sigma-preimage of m is among them, except
    squares and higher powers, which the oracle splits itself."""
    near = {d + s for d in oracle.divisors(factors) for s in (1, -1) if d + s > 1000}
    return sorted(set(factors) | {p for p in near if oracle.is_probable_prime(p)})


def _check_preimages(pas, res, m, factors, kind):
    sols = res.solutions
    ok = res.target == m and res.map_kind == kind
    ok = ok and all(x < y for x, y in zip(sols, sols[1:])) and (not sols or sols[0] >= 1)
    cap = 2 * m * m if kind == "phi" else m
    ok = ok and (not sols or sols[-1] <= cap)
    count = oracle.phi_preimage_count if kind == "phi" else oracle.sigma_preimage_count
    ok = ok and len(sols) == count(factors)  # none missing
    fn = oracle.phi if kind == "phi" else oracle.sigma
    sample = set(pas.check_rng.sample(sols, min(SAMPLED_SOLUTIONS, len(sols))))
    sample.update(sols[:1] + sols[-1:])
    candidates = _candidate_primes(m, factors) if any(x > 10 ** 12 for x in sample) else ()
    ok = ok and all(fn(x, candidates) == m for x in sample)
    pas.shared[(m, kind)] = len(sols)
    return ok, digest(sols), len(sols), None


# ---------------------------------------------------------------- batch-tables

def build_batch_tables(ps, pas: Pass):
    # Per pass: two ops of ~1 s (the sigma table, the ratio sum), four of
    # ~0.4 s (the phi table and its minimal-m scan, the two shifted counts),
    # two sieve windows, twelve prime-pair counts of ~0.03 s and three quick
    # sigma minimal-m scans.  op_p50_ms then falls inside the pair counts and
    # op_tail_ms inside the 0.4 s group, whether a run makes three passes or
    # five, instead of on the edge between two groups.
    rng = pas.rng
    big = 2 * 10 ** 4 if pas.smoke else 5 * 10 ** 6
    jitter = big // 100
    sigma_bound = big - rng.randrange(jitter)
    phi_bound = 60 if pas.smoke else 1400 + rng.randrange(50)  # scans 3.9e6 to 4.2e6
    ratio_x = big - rng.randrange(jitter)
    # 6e6 makes a shifted count cost about what the phi table costs
    almost_xs = {a: 6 * big // 5 - rng.randrange(jitter) for a in (-1, 1)}
    pairs_x = big - rng.randrange(jitter)
    gaps = sorted(rng.sample(range(2, 101, 2), 12))
    sigma_ks = sorted(rng.sample(range(2, 9), 3))
    phi_k = rng.randrange(2, 8 if pas.smoke else 14)
    window = 10 ** 3 if pas.smoke else 10 ** 5
    windows = [10 ** 12 + rng.randrange(10 ** 10) for _ in range(2)]
    frozen = FROZEN if pas.seed == DEFAULT_SEED and not pas.smoke else None
    shared = pas.shared

    def sigma_table(counts):
        shared["sigma"] = counts
        return _check_table(pas, ps, counts, "sigma", sigma_bound), digest(counts), sigma_bound, None

    def phi_table(counts):
        shared["phi"] = counts
        return _check_table(pas, ps, counts, "phi", phi_bound), digest(counts), 2 * phi_bound ** 2, None

    def min_m(rec, kind, k, last):
        m = rec.minimal_m
        counts = shared.pop(kind, None) if last else shared.get(kind)  # free the table after its last use
        ok = m is not None and counts is not None and m < counts.size
        ok = ok and counts[m] == k and k not in counts[1:m].tolist()
        # the values a scan must cover to be sure of the answer
        work = (m if kind == "sigma" else 2 * m * m) if m else 0
        return ok, digest((m, rec.scan_bound)), work, None

    def ratio_sum(rep):
        ok = rep.x == ratio_x and rep.sum >= ratio_x
        ok = ok and abs(rep.sum / ratio_x / rep.c_beta - 1) < 0.02
        if frozen:
            ok = ok and math.isclose(rep.sum, frozen["ratio_power_sum"], rel_tol=1e-12)
        return ok, digest((rep.sum, rep.c_beta)), ratio_x, None

    def almost(rep, a):
        x = almost_xs[a]
        flags = _prime_flags(shared, max(almost_xs.values()))
        primes_in_range = int(flags[x // 2 + 1 : x + 1].sum())
        ok = rep.x == x and rep.a == a and 0 < rep.count < primes_in_range
        if frozen:
            ok = ok and rep.count == frozen["count_shifted_almost_primes"][str(a)]
        return ok, digest(rep.count), x, None

    def pairs(count, k):
        flags = _prime_flags(shared, max(almost_xs.values()))
        ok = count == int((flags[: pairs_x - k + 1] & flags[k : pairs_x + 1]).sum())
        if frozen:
            ok = ok and count == frozen["count_prime_pairs"][str(k)]
        return ok, digest(count), pairs_x, None

    def primes_window(found, lo):
        hi = lo + window - 1
        ok = found == sorted(set(found)) and all(lo <= p <= hi for p in found)
        if pas.first:  # later passes must match this one's digest
            ok = ok and found == _window_primes(lo, hi)
        return ok, digest(found), window, None

    pas.op("multiplicity_table_sigma", lambda: ps.multiplicity_table("sigma", sigma_bound), sigma_table)
    for k in sigma_ks:
        pas.op("minimal_m_sigma", lambda k=k: ps.minimal_m_with_multiplicity(k, "sigma", big // 10),
               lambda rec, k=k: min_m(rec, "sigma", k, k == sigma_ks[-1]))
    pas.op("multiplicity_table_phi", lambda: ps.multiplicity_table("phi", phi_bound), phi_table)
    pas.op("minimal_m_phi", lambda: ps.minimal_m_with_multiplicity(phi_k, "phi", phi_bound),
           lambda rec: min_m(rec, "phi", phi_k, True))
    pas.op("ratio_power_sum", lambda: ps.ratio_power_sum(2.0, ratio_x), ratio_sum)
    for a, x in almost_xs.items():
        pas.op("count_shifted_almost_primes",
               lambda a=a, x=x: ps.count_shifted_almost_primes(x, Fraction(1, 8), a),
               lambda rep, a=a: almost(rep, a))
    for k in gaps:
        pas.op("count_prime_pairs", lambda k=k: ps.count_prime_pairs(k, pairs_x),
               lambda count, k=k: pairs(count, k))
    for lo in windows:
        pas.op("sieve_range", lambda lo=lo: ps.sieve_range(lo, lo + window - 1),
               lambda found, lo=lo: primes_window(found, lo))


def _check_table(pas, ps, counts, kind, bound):
    """Batch counts against per-target enumeration at seeded sample points."""
    if counts.shape != (bound + 1,) or counts[0] != 0:
        return False
    rng = pas.check_rng
    fn = oracle.sigma if kind == "sigma" else oracle.phi
    points = [rng.randrange(1, bound + 1) for _ in range(6)]
    while len(points) < 12:  # values that are hit at least once
        value = fn(rng.randrange(1, bound // 4 if kind == "sigma" else 2 * bound))
        if value <= bound:
            points.append(value)
    enumerate_fn = ps.sigma_preimages if kind == "sigma" else ps.phi_preimages
    return all(counts[m] == len(enumerate_fn(m).solutions) for m in points)


def _prime_flags(shared, n):
    if "flags" not in shared:
        shared["flags"] = oracle.prime_flags(n)
    return shared["flags"]


def _window_primes(lo, hi):
    """Primes in [lo, hi] by the benchmark's own segmented sieve."""
    flags = np.ones(hi - lo + 1, dtype=bool)
    for p in np.flatnonzero(oracle.prime_flags(math.isqrt(hi))).tolist():
        first = max(p * p, -(-lo // p) * p)
        flags[first - lo :: p] = False
    return (np.flatnonzero(flags) + lo).tolist()


# ---------------------------------------------------------------- config-pipeline

# Base values m whose r = 2 phi-kind search finds a configuration within a
# few thousand probes; multiples of 3 (6, 12, 18, 24) rarely find one at all.
PHI_BASES = (1, 2, 4)


def build_config_pipeline(ps, pas: Pass):
    rng = pas.rng
    smoke = pas.smoke
    # 6 fast phi chains, 8 sigma chains and 8 slow searches: the median op
    # falls inside the sigma r = 2 group and the tail inside the slow group,
    # not on a boundary between groups, where it would jump between runs.
    plan = []  # (label, kind, r, budget, base_m, must_find)
    for _ in range(1 if smoke else 8):
        plan.append(("chain_sigma_r2", "sigma", 2, 200_000, 1, True))
    for _ in range(1 if smoke else 6):
        plan.append(("chain_phi_r2", "phi", 2, 200_000, rng.choice(PHI_BASES), True))
    for _ in range(1 if smoke else 4):
        plan.append(("chain_sigma_r3", "sigma", 3, 3_000 if smoke else 20_000, 1, False))
    for label, kind, r, budget, base_m, must_find in plan:
        seed = rng.randrange(2 ** 31)
        pas.op(label, lambda a=(kind, r, budget, seed, base_m): _chain(ps, *a),
               lambda res, b=budget, f=must_find: _check_chain(res, b, f))
    for _ in range(1 if smoke else 3):
        m, seed, budget = rng.choice(PHI_BASES), rng.randrange(2 ** 31), 3_000 if smoke else 20_000
        pas.op("theorem2_search", lambda m=m, s=seed, b=budget: _theorem2(ps, m, s, b),
               lambda res, m=m, b=budget: _check_theorem2(res, m, b))
    # r = 4 runs to its probe budget whatever the seed: 6000 probes is one
    # full round of masks and assemblies plus part of a second
    seed = rng.randrange(2 ** 31)
    pas.op("search_sigma_r4", lambda: _chain(ps, "sigma", 4, 6_000, seed, 1),
           lambda res: _check_chain(res, 6_000, False))


def _chain(ps, kind, r, budget, seed, base_m):
    start = time.perf_counter()
    cfg, stats = ps.search_config(kind, r, 2, POOL, budget, seed=seed, base_m=base_m)
    search_s = time.perf_counter() - start
    if cfg is None:
        return None, stats, None, None, search_s
    return cfg, stats, ps.verify(cfg), ps.certify(cfg), search_s


def _stats_key(stats):
    return (stats.probes, stats.rounds, stats.assembled, stats.cond_i_rejects,
            stats.cond_ii_rejects, stats.cond_iii_rejects, stats.found)


def _check_chain(res, budget, must_find):
    cfg, stats, report, cert, search_s = res
    if cfg is None:
        ok = not must_find and stats.probes >= budget
        key = None
    else:
        observed = cert.observed_preimages.multiplicity
        ok = report.overall and cert.predicted_multiplicity == observed == cfg.predicted_multiplicity
        key = (cfg.kind, cfg.matrix, cfg.base_m)
    return ok, digest((key, _stats_key(stats))), stats.probes, search_s


def _theorem2(ps, m, seed, budget):
    start = time.perf_counter()
    res = ps.theorem2_search(m, 3, budget=budget, seed=seed)
    return res, time.perf_counter() - start


def _check_theorem2(res, m, budget):
    (l, cert, stats), search_s = res
    if l is None:
        ok = stats.probes >= budget
        key = None
    else:
        observed = cert.observed_preimages.multiplicity
        ok = cert.predicted_multiplicity == observed and l == (1 << 3) * cert.config.t
        ok = ok and cert.target == l * m
        key = (l, cert.config.matrix)
    return ok, digest((key, _stats_key(stats))), stats.probes, search_s


# ---------------------------------------------------------------- cli-readme

def _payload(out: bytes) -> dict:
    return json.loads(out.splitlines()[0])


def _rows(out: bytes) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def _sigma_table_rows(rows):
    by_k = {row["k"]: row["minimal_m"] for row in rows}
    return sorted(by_k) == [1, 2, 3, 4, 5, 6] and by_k[2] == 12 and by_k[3] == 24


def _certificate_ok(p):
    return p["predicted_multiplicity"] == p["observed_multiplicity"] == len(p["solutions"])


# Every command of the README's command-line section, in README order, with
# the value the README states or implies for it.
README = (
    (["inverse", "phi", "4"], lambda out: _payload(out)["solutions"] == [5, 8, 10, 12]),
    (["inverse", "sigma", "12"], lambda out: _payload(out)["solutions"] == [6, 11]),
    (["multiplicity", "sigma", "12"], lambda out: _payload(out)["multiplicity"] == 2),
    (["table", "--map", "sigma", "--k", "1..6", "--bound", "1e6"],
     lambda out: _sigma_table_rows(_rows(out))),
    (["min-m", "--map", "sigma", "--k", "2", "--bound", "1e6"],
     lambda out: _payload(out)["minimal_m"] == 12),
    (["search-config", "--lemma", "2", "--r", "2", "--pool", "1e6", "--budget", "200000",
      "--seed", "0", "--out", "cfg.json"],
     lambda out: _payload(out)["found"] and _payload(out)["report"]["overall"]),
    (["verify-config", "cfg.json"], lambda out: _payload(out)["overall"]),
    (["certify", "cfg.json"],
     lambda out: _certificate_ok(_payload(out)) and _payload(out)["predicted_multiplicity"] == 2),
    (["theorem2", "--m", "1", "--r", "3"],
     lambda out: not _payload(out)["found"] or _certificate_ok(_payload(out)["certificate"])),
    (["corollary3-plan", "--k", "6"],
     lambda out: _payload(out)["invocation"] == "theorem2 --m 1 --r 3"),
    (["sieve-count", "--x", "1e6", "--a", "-1", "--alpha", "1/8"],
     lambda out: _payload(out)["count"] > 0),
    (["prime-pairs", "--k", "2", "--x", "10"], lambda out: _payload(out)["count"] == 2),
    (["l-value", "3", "5", "7"],
     lambda out: (_payload(out)["numerator"], _payload(out)["denominator"]) == (8, 1)),
    (["ratio-sum", "--beta", "2", "--x", "1e6"],
     lambda out: abs(_payload(out)["sum"] / 1e6 - 4.431) < 5e-4),
    (["lemma3-constant", "--alpha", "1/8"],
     lambda out: math.isclose(_payload(out)["constant"], 4 * math.log(3) - 4)),
)


def build_cli_readme(ps, pas: Pass):
    bound = 200 if pas.smoke else 10 ** 5 + pas.rng.randrange(1000)
    stream = ["table", "--map", "sigma", "--bound", str(bound)]
    for argv, expect in README:
        pas.op(argv[0], lambda argv=argv: _run_cli(pas, argv),
               lambda res, expect=expect: _check_cli(pas, res, expect))
    pas.op("table_stream_json", lambda: _run_cli(pas, stream),
           lambda res: _check_cli(pas, res, lambda out: _check_stream(pas, ps, out, bound)))
    pas.op("table_stream_csv", lambda: _run_cli(pas, stream + ["--format", "csv"]),
           lambda res: _check_cli(pas, res, lambda out: _check_stream_csv(pas, out)))


def _run_cli(pas: Pass, argv):
    if pas.traced:
        trace_file = pas.tmp / "trace.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--cli-child", str(trace_file), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "phisigma.cli", *argv]
    proc = subprocess.run(cmd, cwd=pas.tmp, capture_output=True, timeout=120)
    if pas.traced and proc.returncode == 0:
        pas.children.append(json.loads(trace_file.read_text()))
    return proc


def _check_cli(pas: Pass, proc, expect):
    pas.bytes_out += len(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    ok = proc.returncode == 0 and expect(proc.stdout)
    return ok, digest(proc.stdout), len(proc.stdout), None


def _check_stream(pas, ps, out, bound):
    rows = _rows(out)
    pas.shared["stream"] = [row["multiplicity"] for row in rows]
    ok = [row["m"] for row in rows] == list(range(1, bound + 1))
    points = [pas.check_rng.randrange(1, bound + 1) for _ in range(8)]
    return ok and all(rows[m - 1]["multiplicity"] == len(ps.sigma_preimages(m).solutions)
                      for m in points)


def _check_stream_csv(pas, out):
    lines = out.decode().splitlines()
    body = [line.split(",") for line in lines[1:]]
    return lines[0] == "m,multiplicity" and [int(c) for _, c in body] == pas.shared.get("stream")


def cli_startup_s() -> float:
    """Median round trip of `phisigma --help` as a subprocess."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "phisigma.cli", "--help"],
                       capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cli_child(trace_path: str, argv: list[str]) -> int:
    """Run one CLI command in this process under the tracer, stdout captured."""
    import phisigma.cli

    tr = tracing.Tracer()
    tracing.install(tr)
    tr.start()
    captured = io.StringIO()
    real = sys.stdout
    sys.stdout = captured
    try:
        code = phisigma.cli.main(argv)
    finally:
        sys.stdout = real
    real.write(captured.getvalue())
    real.flush()
    Path(trace_path).write_text(json.dumps(tr.dump()))
    return code


# ---------------------------------------------------------------- one pass

WORKLOADS = {
    "inverse-ladder": build_inverse_ladder,
    "batch-tables": build_batch_tables,
    "config-pipeline": build_config_pipeline,
    "cli-readme": build_cli_readme,
}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_pass(args) -> dict:
    import phisigma as ps

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
    pas = Pass(args.workload, args.seed, args.pass_index, args.smoke, args.trace)
    WORKLOADS[args.workload](ps, pas)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        return {"setup_s": setup_s}
    TMP_ROOT.mkdir(exist_ok=True)
    ops = []
    errors = []
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        pas.tmp = Path(tmp)
        if tr is not None:
            tr.start()
        for label, run, check in pas.ops:
            start = time.perf_counter()
            try:
                result = run()
            except Exception as exc:  # a raising op counts as failed, the pass goes on
                result, error = None, f"{label}: {exc!r}"
            else:
                error = None
            elapsed = time.perf_counter() - start
            ok, dig, work, work_time = False, None, 0, None
            if error is None:
                with tr.untraced() if tr is not None else contextlib.nullcontext():
                    try:
                        ok, dig, work, work_time = check(result)
                    except Exception as exc:
                        error = f"{label} check: {exc!r}"
            if error is None and not ok:
                error = f"{label}: output check failed"
            if error is not None:
                errors.append(error)
            ops.append([label, elapsed, bool(ok), dig, work,
                        elapsed if work_time is None else work_time])
        layers = None
        if tr is not None:
            dump = tr.dump()
            for child in pas.children:
                tracing.merge(dump, child)
            startup = cli_startup_s() if args.workload == "cli-readme" else 0.0
            layers = tracing.layer_metrics(dump, startup, pas.bytes_out)
    return {"setup_s": setup_s, "ops": ops, "errors": errors[:20],
            "peak_rss_mb": peak_rss_mb(), "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cli-child", metavar="TRACE_FILE")
    parser.add_argument("cli_argv", nargs="*")
    args = parser.parse_args(argv)
    if args.cli_child:
        return cli_child(args.cli_child, args.cli_argv)
    if args.workload is None or args.spawned_at is None:
        parser.error("--workload and --spawned-at are required")
    result = run_pass(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
