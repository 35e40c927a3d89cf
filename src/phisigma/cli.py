"""Command-line surface: one subcommand per library operation.

Exit codes: 0 success (including "absent" search results), 2 invalid
input, 3 capacity exceeded, 4 certification failure.  Output is JSON
objects (one per line for row streams) or CSV with a header row; payloads
carry no timestamps, so identical invocations produce identical bytes.

No module imported here loads numpy at import time, so only the commands
that sieve or build tables pay for it; inverse, multiplicity, verify-config,
certify, l-value, lemma3-constant and --help never load it.  Likewise the
configs module loads only in the commands that use configurations or plans.
Row streams are written ROW_CHUNK rows at a time, each chunk rendered with
one join, so memory stays bounded however long the table is.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial

from . import preimages, sievelab
from .errors import CapacityError, CertificationError, DomainError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_CERTIFICATION = 4

ROW_CHUNK = 1 << 16  # rows per write of a streamed table


_NATURAL = re.compile(r"[0-9]+(\.[0-9]+)?([eE][0-9]+)?")
_NATURAL_MAX_DIGITS = 4300  # Python's default limit for int <-> str conversion


def _natural(text: str) -> int:
    """Nonnegative integer argument, also accepting exact forms like 1e6 or 2.5e3."""
    if text.startswith("-"):
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    if not _NATURAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    value = Decimal(text)  # exact, unlike float: 1e23 stays 10**23
    if value.adjusted() >= _NATURAL_MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"too large: {text!r}")
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _shift(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"shift must be +1 or -1, got {text!r}")
    if value not in (1, -1):
        raise argparse.ArgumentTypeError(f"shift must be +1 or -1, got {text!r}")
    return value


def _k_range(text: str) -> tuple[int, int]:
    """Parse 'a..b' (or a single integer) into an inclusive range."""
    if ".." in text:
        left, right = text.split("..", 1)
        lo, hi = _natural(left), _natural(right)
    else:
        lo = hi = _natural(text)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _cell(value) -> str:
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, sort_keys=True)
    if value is None:
        return ""
    return str(value)


def _emit_record(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        keys = sorted(payload)
        writer = csv.writer(out)
        writer.writerow(keys)
        writer.writerow([_cell(payload[k]) for k in keys])


def _row_ranges(lo: int, hi: int):
    """lo..hi inclusive, as consecutive ranges of at most ROW_CHUNK values."""
    return (range(a, min(a + ROW_CHUNK, hi + 1)) for a in range(lo, hi + 1, ROW_CHUNK))


def _emit_rows(chunks, fieldnames, fmt: str, out) -> None:
    """Stream a table given as chunks of columns, one sequence per field in
    fieldnames order, each chunk rendered with one join and written at once.

    Bytes match one json.dumps(row, sort_keys=True) line per row, or
    csv.writer rows of _cell values under a header.  A column of plain ints
    is formatted as is; any other column goes through json.dumps or _cell.
    """
    if fmt == "json":
        order = sorted(range(len(fieldnames)), key=fieldnames.__getitem__)
        template = "{{" + ", ".join(f"{json.dumps(fieldnames[i])}: {{{i}}}" for i in order) + "}}\n"
        cell = partial(json.dumps, sort_keys=True)

        def render(columns):
            return "".join(map(template.format, *columns))
    else:
        out.write(_csv_text([fieldnames]))
        cell = _cell

        def render(columns):
            return _csv_text(zip(*columns))
    for columns in chunks:
        out.write(render([col if set(map(type, col)) <= {int} else list(map(cell, col))
                          for col in columns]))


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------- payloads

def _preimage_payload(ps) -> dict:
    return {
        "map": ps.map_kind,
        "target": ps.target,
        "solutions": list(ps.solutions),
        "multiplicity": ps.multiplicity,
    }


def _cond_i_payload(res) -> dict:
    return {
        "passed": res.passed,
        "forms": [{"i": f.i, "j": f.j, "value": f.value, "prime": f.prime}
                  for f in res.forms],
        "values_distinct": res.values_distinct,
        "duplicate_value": res.duplicate_value,
        "matrix_overlap": res.matrix_overlap,
    }


def _cond_ii_payload(res) -> dict:
    witness = None
    if res.witness is not None:
        pi, b, d = res.witness
        witness = {"pi": pi, "b": b, "divisor": d}
    return {"passed": res.passed, "witness": witness, "note": res.note}


def _cond_iii_payload(res) -> dict:
    witness = None
    if res.witness is not None:
        d1, d2 = res.witness
        witness = {"d1": d1, "d2": d2}
    return {"passed": res.passed, "witness": witness,
            "examined_pairs": res.examined, "exempted_pairs": res.exempted}


def _report_payload(report) -> dict:
    return {
        "cond_i": _cond_i_payload(report.cond_i),
        "cond_ii": _cond_ii_payload(report.cond_ii),
        "cond_iii": _cond_iii_payload(report.cond_iii),
        "overall": report.overall,
    }


def _stats_payload(stats) -> dict:
    return {
        "probes": stats.probes,
        "rounds": stats.rounds,
        "assembled": stats.assembled,
        "cond_i_rejects": stats.cond_i_rejects,
        "cond_ii_rejects": stats.cond_ii_rejects,
        "cond_iii_rejects": stats.cond_iii_rejects,
        "found": stats.found,
    }


def _certificate_payload(cert) -> dict:
    from . import configs

    return {
        "config": configs.config_to_payload(cert.config) if cert.config else None,
        "target": cert.target,
        "predicted_multiplicity": cert.predicted_multiplicity,
        "observed_multiplicity": cert.observed_preimages.multiplicity,
        "solutions": list(cert.observed_preimages.solutions),
        "matchings": [list(m) for m in cert.matchings],
    }


# ---------------------------------------------------------------- commands

def _cmd_inverse(args) -> int:
    if args.map == "phi":
        ps = preimages.phi_preimages(args.m)
    else:
        ps = preimages.sigma_preimages(args.m)
    _emit_record({"command": "inverse", **_preimage_payload(ps)}, args.format, sys.stdout)
    return EXIT_OK


def _cmd_multiplicity(args) -> int:
    count = preimages.multiplicity(args.m, args.map)
    _emit_record({"command": "multiplicity", "map": args.map, "target": args.m,
                  "multiplicity": count}, args.format, sys.stdout)
    return EXIT_OK


def _cmd_table(args) -> int:
    counts = preimages.multiplicity_table(args.map, args.bound,
                                          scan_capacity=args.capacity)
    if args.k is None:
        fields = ("m", "multiplicity")
        chunks = ((ms, counts[ms.start:ms.stop].tolist())
                  for ms in _row_ranges(1, args.bound))
    else:
        first = preimages.minimal_m_by_multiplicity(counts)
        fields = ("k", "minimal_m", "scan_bound")
        chunks = ((ks, [first[k] if k < len(first) else None for k in ks],
                   [args.bound] * len(ks))
                  for ks in _row_ranges(*args.k))
    _emit_rows(chunks, fields, args.format, sys.stdout)
    return EXIT_OK


def _cmd_min_m(args) -> int:
    rec = preimages.minimal_m_with_multiplicity(args.k, args.map, args.bound,
                                                scan_capacity=args.capacity)
    _emit_record({
        "command": "min-m",
        "map": rec.map_kind,
        "k": rec.k,
        "minimal_m": rec.minimal_m,
        "scan_bound": rec.scan_bound,
        "found": rec.minimal_m is not None,
    }, args.format, sys.stdout)
    return EXIT_OK


def _cmd_verify_config(args) -> int:
    from . import configs

    cfg = configs.load_config(args.file)
    report = configs.verify(cfg)
    _emit_record({
        "command": "verify-config",
        "config": configs.config_to_payload(cfg),
        **_report_payload(report),
    }, args.format, sys.stdout)
    return EXIT_OK


def _cmd_search_config(args) -> int:
    from . import configs

    kind = "phi" if args.lemma == "1" else "sigma"
    budget = configs.DEFAULT_BUDGET if args.budget is None else args.budget
    cfg, stats = configs.search_config(kind, args.r, args.n, args.pool, budget,
                                       seed=args.seed, base_m=args.base_m)
    payload = {"command": "search-config", "found": cfg is not None,
               "stats": _stats_payload(stats)}
    if cfg is not None:
        payload["config"] = configs.config_to_payload(cfg)
        payload["report"] = _report_payload(configs.verify(cfg))
        if args.out:
            configs.save_config(cfg, args.out)
    _emit_record(payload, args.format, sys.stdout)
    return EXIT_OK


def _cmd_certify(args) -> int:
    from . import configs

    cfg = configs.load_config(args.file)
    cert = configs.certify(cfg)
    _emit_record({"command": "certify", **_certificate_payload(cert)},
                 args.format, sys.stdout)
    return EXIT_OK


def _cmd_theorem2(args) -> int:
    from . import configs

    budget = configs.DEFAULT_BUDGET if args.budget is None else args.budget
    l, cert, stats = configs.theorem2_search(args.m, args.r, n=args.n,
                                             pool_bound=args.pool,
                                             budget=budget, seed=args.seed)
    payload = {"command": "theorem2", "base_m": args.m, "r": args.r,
               "found": l is not None, "stats": _stats_payload(stats)}
    if l is not None:
        payload["l"] = l
        payload["certificate"] = _certificate_payload(cert)
    _emit_record(payload, args.format, sys.stdout)
    return EXIT_OK


def _cmd_corollary3_plan(args) -> int:
    from . import configs

    plan = configs.corollary3_plan(args.k, table_bound=args.bound)
    _emit_record({
        "command": "corollary3-plan",
        "k": plan.k,
        "prime_factor": plan.prime_factor,
        "multiplier_r": plan.multiplier_r,
        "base_m": plan.base_m,
        "base_multiplicity": plan.base_multiplicity,
        "invocation": plan.invocation,
    }, args.format, sys.stdout)
    return EXIT_OK


def _cmd_sieve_count(args) -> int:
    report = sievelab.count_shifted_almost_primes(args.x, args.alpha, args.a)
    _emit_record({
        "command": "sieve-count",
        "x": report.x,
        "a": report.a,
        "alpha": _fraction_str(report.alpha),
        "count": report.count,
        "normalized_ratio": report.normalized_ratio,
        "reference_constant": report.reference_constant,
    }, args.format, sys.stdout)
    return EXIT_OK


def _cmd_prime_pairs(args) -> int:
    count = sievelab.count_prime_pairs(args.k, args.x)
    _emit_record({"command": "prime-pairs", "k": args.k, "x": args.x,
                  "count": count}, args.format, sys.stdout)
    return EXIT_OK


def _cmd_l_value(args) -> int:
    value = sievelab.l_value(args.primes)
    _emit_record({
        "command": "l-value",
        "primes": list(args.primes),
        "numerator": value.numerator,
        "denominator": value.denominator,
        "value": float(value),
    }, args.format, sys.stdout)
    return EXIT_OK


def _cmd_ratio_sum(args) -> int:
    report = sievelab.ratio_power_sum(args.beta, args.x, prime_cutoff=args.cutoff)
    _emit_record({
        "command": "ratio-sum",
        "beta": report.beta,
        "x": report.x,
        "sum": report.sum,
        "c_beta": report.c_beta,
        "prime_cutoff": report.prime_cutoff,
        "tail_factor_bound": report.tail_factor_bound,
    }, args.format, sys.stdout)
    return EXIT_OK


def _cmd_lemma3_constant(args) -> int:
    value = sievelab.lemma3_reference_constant(args.alpha)
    _emit_record({
        "command": "lemma3-constant",
        "alpha": _fraction_str(Fraction(args.alpha)),
        "constant": value,
    }, args.format, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phisigma",
        description="Preimage enumeration for phi and sigma, multiplicity-forcing "
                    "prime configurations, and sieve counting experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = add("inverse", _cmd_inverse, "enumerate all x with phi(x)=m or sigma(x)=m")
    p.add_argument("map", choices=("phi", "sigma"))
    p.add_argument("m", type=_natural)

    p = add("multiplicity", _cmd_multiplicity, "count the preimages of m")
    p.add_argument("map", choices=("phi", "sigma"))
    p.add_argument("m", type=_natural)

    p = add("table", _cmd_table, "multiplicity histogram, or minimal m per k with --k")
    p.add_argument("--map", choices=("phi", "sigma"), required=True)
    p.add_argument("--bound", type=_natural, required=True)
    p.add_argument("--k", type=_k_range, default=None, metavar="A..B")
    p.add_argument("--capacity", type=_natural, default=preimages.SCAN_CAPACITY)

    p = add("min-m", _cmd_min_m, "smallest m whose multiplicity is exactly k")
    p.add_argument("--map", choices=("phi", "sigma"), required=True)
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--bound", type=_natural, required=True)
    p.add_argument("--capacity", type=_natural, default=preimages.SCAN_CAPACITY)

    p = add("verify-config", _cmd_verify_config, "run all condition checks on a config file")
    p.add_argument("file")

    p = add("search-config", _cmd_search_config, "seeded search for a passing configuration")
    p.add_argument("--lemma", choices=("1", "2"), required=True)
    p.add_argument("--r", type=_natural, required=True)
    p.add_argument("--n", type=_natural, default=2)
    p.add_argument("--pool", type=_natural, required=True)
    p.add_argument("--base-m", type=_natural, default=1)
    p.add_argument("--budget", type=_natural, default=None)  # configs.DEFAULT_BUDGET
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--out", default=None, help="write the found config to this file")

    p = add("certify", _cmd_certify, "certify a verified config by exhaustive enumeration")
    p.add_argument("file")

    p = add("theorem2", _cmd_theorem2, "find l with phi-multiplicity(l*m) = r * multiplicity(m)")
    p.add_argument("--m", type=_natural, required=True)
    p.add_argument("--r", type=_natural, required=True)
    p.add_argument("--n", type=_natural, default=2)
    p.add_argument("--pool", type=_natural, default=10 ** 6)
    p.add_argument("--budget", type=_natural, default=None)  # configs.DEFAULT_BUDGET
    p.add_argument("--seed", type=_natural, default=0)

    p = add("corollary3-plan", _cmd_corollary3_plan, "decompose an even k into base times multiplier")
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--bound", type=_natural, default=1000)

    p = add("sieve-count", _cmd_sieve_count, "count shifted almost primes in (x/2, x]")
    p.add_argument("--x", type=_natural, required=True)
    p.add_argument("--alpha", type=_rational, default=Fraction(1, 8))
    p.add_argument("--a", type=_shift, required=True)

    p = add("prime-pairs", _cmd_prime_pairs, "count primes p <= x-k with p+k prime")
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--x", type=_natural, required=True)

    p = add("l-value", _cmd_l_value, "product of |p_g-p_h|/phi(|p_g-p_h|) over pairs")
    p.add_argument("primes", type=_natural, nargs="+")

    p = add("ratio-sum", _cmd_ratio_sum, "sum of (k/phi(k))**beta against the truncated product")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x", type=_natural, required=True)
    p.add_argument("--cutoff", type=_natural, default=10 ** 5)

    p = add("lemma3-constant", _cmd_lemma3_constant, "the alpha=1/8 reference constant")
    p.add_argument("--alpha", type=_rational, default=Fraction(1, 8))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CertificationError as exc:
        _emit_record({
            "command": args.command,
            "certification_failed": True,
            "predicted": exc.predicted,
            "observed": exc.observed,
            "target": exc.target,
            "solutions": list(exc.solutions),
        }, getattr(args, "format", "json"), sys.stdout)
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
