"""Spans around phisigma's public functions, recorded from outside the package.

install() wraps every public function of the six layers and rebinds the
wrapper under every name that held the original, including the names that
`from .sieves import ...` copies into preimages, configs and sievelab.  Module
globals are looked up at call time, so calls between layers and recursive
calls inside a layer (is_prime from the Pocklington path, say) are seen too.

Spans are kept as aggregates, not as a log: a 1M-call enumeration would
otherwise hold a million records.  Each open span tracks the time its
children cover; when it closes, its duration is added to its name's total
and its duration minus that child time to its name's self time.  A layer's
self time is the sum over its functions.  Cache counts come from
cache_info() deltas of the lru_cache functions, minus what the benchmark's
own checks caused while tracing was off.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("arith", "sieves", "preimages", "configs", "sievelab", "cli")
CACHED = ("arith.is_prime", "arith.prime_power_sigma_all")
BLOCK_GENERATORS = ("sieves.iter_phi_blocks", "sieves.iter_sigma_blocks")
# Miller-Rabin with the primes up to 37 as witnesses is proven correct below
# this bound; arith.is_prime builds a Pocklington proof above it.
MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, seconds covered by children]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.paused = False
        self._cached = {}  # name -> original lru_cache function
        self._cache_base: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------ wrapping

    def _stats(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn):
        stats = self._stats(name)
        stack = self.stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                result = hook(tracer, args, result, stack[-1][0] if stack else None)
            return result

        return traced

    def _blocks(self, gen):
        """Re-yield (start, values) blocks, timing each step as a span."""
        stats = self._stats("sieves.block")
        stack = self.stack
        clock = time.perf_counter
        while True:
            frame = ["sieves.block", 0.0]
            stack.append(frame)
            start = clock()
            try:
                item = next(gen, None)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if item is None:
                return
            stats[0] += 1
            self.counts["sieves.block_values"] += int(item[1].size)
            yield item

    # ------------------------------------------------------------ control

    def start(self) -> None:
        """Take the cache baselines; call after install, before the first op."""
        for name, fn in self._cached.items():
            info = fn.cache_info()
            self._cache_base[name] = (info.hits, info.misses)

    @contextmanager
    def untraced(self):
        """Run the benchmark's own checks without spans or cache counts."""
        before = {name: fn.cache_info() for name, fn in self._cached.items()}
        self.paused = True
        try:
            yield
        finally:
            self.paused = False
            for name, fn in self._cached.items():
                info = fn.cache_info()
                self.counts[name + ".excluded_hits"] += info.hits - before[name].hits
                self.counts[name + ".excluded_misses"] += info.misses - before[name].misses

    def cache_deltas(self) -> dict[str, list[int]]:
        out = {}
        for name, fn in self._cached.items():
            info = fn.cache_info()
            hits0, misses0 = self._cache_base[name]
            out[name] = [info.hits - hits0 - self.counts[name + ".excluded_hits"],
                         info.misses - misses0 - self.counts[name + ".excluded_misses"]]
        return out

    def dump(self) -> dict:
        """Aggregates in JSON form, for merging across processes."""
        return {"stats": self.stats, "counts": dict(self.counts),
                "cache": self.cache_deltas()}


def install(tracer: Tracer) -> None:
    """Replace every public phisigma function, under every binding, by a traced one."""
    import phisigma
    import phisigma.cli  # not imported by the package itself

    modules = {layer: getattr(phisigma, layer) for layer in LAYERS}
    replace = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in CACHED:
                tracer._cached[name] = obj
            replace[id(obj)] = (obj, tracer.wrap(name, obj))
    for mod in (phisigma, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


# ---------------------------------------------------------------- hooks
# A hook sees (tracer, args, result, parent span name) and returns the
# result, which lets the block generators hand back a timed generator.

def _wide_prime_probe(tracer, args, result, parent):
    if args and args[0] >= MR_PROVEN_BOUND:
        tracer.counts["arith.is_prime.wide_calls"] += 1
    return result


def _solutions(tracer, args, result, parent):
    tracer.counts["preimages.solutions"] += len(result.solutions)
    return result


def _table_under_min_m(tracer, args, result, parent):
    if parent == "preimages.minimal_m_with_multiplicity":
        tracer.counts["preimages.minimal_m.tables"] += 1
    return result


def _search_stats(tracer, args, result, parent):
    stats = result[1]
    tracer.counts["configs.search.probes"] += stats.probes
    tracer.counts["configs.search.assembled"] += stats.assembled
    return result


def _cond_iii(tracer, args, result, parent):
    tracer.counts["configs.cond_iii.reached"] += 1
    tracer.counts["configs.cond_iii.passed"] += bool(result.passed)
    return result


def _timed_blocks(tracer, args, result, parent):
    return tracer._blocks(result)


_HOOKS = {
    "arith.is_prime": _wide_prime_probe,
    "preimages.phi_preimages": _solutions,
    "preimages.sigma_preimages": _solutions,
    "preimages.multiplicity_table": _table_under_min_m,
    "configs.search_config": _search_stats,
    "configs.check_condition_iii": _cond_iii,
    **{name: _timed_blocks for name in BLOCK_GENERATORS},
}


# ---------------------------------------------------------------- metrics

def merge(into: dict, part: dict) -> None:
    """Add the dump() of another process into a dump()."""
    for name, (calls, total, self_s) in part["stats"].items():
        row = into["stats"].setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += self_s
    for name, value in part["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
    for name, (hits, misses) in part["cache"].items():
        row = into["cache"].setdefault(name, [0, 0])
        row[0] += hits
        row[1] += misses


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: dict, startup_s: float, bytes_out: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    stats = dump["stats"]
    counts = dump["counts"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def hit_ratio(name):
        hits, misses = dump["cache"].get(name, (0, 0))
        return _ratio(hits, hits + misses)

    search_s = total_s("configs.search_config")
    out = {
        "arith.is_prime.calls": (calls("arith.is_prime"), "count"),
        "arith.is_prime.hit_ratio": (hit_ratio("arith.is_prime"), "1"),
        "arith.is_prime.wide_calls": (counts.get("arith.is_prime.wide_calls", 0), "count"),
        "arith.is_prime.self_s": (self_s("arith.is_prime"), "s"),
        "arith.factorize.calls": (calls("arith.factorize"), "count"),
        "arith.factorize.self_s": (self_s("arith.factorize"), "s"),
        "arith.divisors.calls": (calls("arith.divisors"), "count"),
        "arith.divisors.self_s": (self_s("arith.divisors"), "s"),
        "arith.prime_power_sigma_all.calls": (calls("arith.prime_power_sigma_all"), "count"),
        "arith.prime_power_sigma_all.hit_ratio": (hit_ratio("arith.prime_power_sigma_all"), "1"),
        "arith.prime_power_sigma_solve.calls": (calls("arith.prime_power_sigma_solve"), "count"),
        "arith.prime_power_sigma_solve.self_s": (self_s("arith.prime_power_sigma_solve"), "s"),
        "arith.iroot.calls": (calls("arith.iroot"), "count"),
        "sieves.blocks": (calls("sieves.block"), "count"),
        "sieves.block_self_s": (self_s("sieves.block"), "s"),
        "sieves.block_values_per_s": (
            _ratio(counts.get("sieves.block_values", 0), self_s("sieves.block")), "1/s"),
        "sieves.sieve_range.self_s": (self_s("sieves.sieve_range"), "s"),
        "sieves.primes_upto.self_s": (self_s("sieves.primes_upto"), "s"),
        "sieves.spf_table.self_s": (self_s("sieves.spf_table"), "s"),
        "preimages.phi_preimages.self_s": (self_s("preimages.phi_preimages"), "s"),
        "preimages.sigma_preimages.self_s": (self_s("preimages.sigma_preimages"), "s"),
        "preimages.solutions": (counts.get("preimages.solutions", 0), "count"),
        "preimages.multiplicity_table.self_s": (self_s("preimages.multiplicity_table"), "s"),
        "preimages.minimal_m.rescans": (
            max(0, counts.get("preimages.minimal_m.tables", 0)
                - calls("preimages.minimal_m_with_multiplicity")), "count"),
        "configs.search.probes": (counts.get("configs.search.probes", 0), "count"),
        "configs.search.probes_per_s": (
            _ratio(counts.get("configs.search.probes", 0), search_s), "1/s"),
        "configs.search.assembled": (counts.get("configs.search.assembled", 0), "count"),
        "configs.search.assemblies_per_s": (
            _ratio(counts.get("configs.search.assembled", 0), search_s), "1/s"),
        "configs.cond_iii.pass_ratio": (
            _ratio(counts.get("configs.cond_iii.passed", 0),
                   counts.get("configs.cond_iii.reached", 0)), "1"),
        "configs.check_condition_i.self_s": (self_s("configs.check_condition_i"), "s"),
        "configs.check_condition_ii.self_s": (self_s("configs.check_condition_ii"), "s"),
        "configs.check_condition_iii.self_s": (self_s("configs.check_condition_iii"), "s"),
        "configs.certify.self_s": (self_s("configs.certify"), "s"),
        "sievelab.count_shifted_almost_primes.self_s": (
            self_s("sievelab.count_shifted_almost_primes"), "s"),
        "sievelab.ratio_power_sum.self_s": (self_s("sievelab.ratio_power_sum"), "s"),
        "sievelab.count_prime_pairs.self_s": (self_s("sievelab.count_prime_pairs"), "s"),
        "cli.startup_s": (startup_s, "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(row[2] for name, row in stats.items() if name.startswith(layer + ".")), "s")
    return out
