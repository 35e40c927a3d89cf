"""Command-line surface: one table of subcommands over the library.

_COMMANDS lists each subcommand once: its name, its help line, its argument
specs in --help order (after the shared --format) and a handler.
build_parser reads the table, and main runs the handler and writes what it
returns: a payload dict as one record with "command" added, or
(chunks, fieldnames) as a row stream.

Payloads derive from the library's result dataclasses.  _fields gives one
key per field, converts nested dataclasses alike, writes fractions as
"n/d", and renames the three fields whose key differs (map_kind -> map,
examined -> examined_pairs, exempted -> exempted_pairs).  Handlers add the
derived keys (multiplicity, found, overall) and turn witness tuples into
objects.  Commands with no result dataclass spell out their few keys.

Exit codes: 0 success (including "absent" search results), 2 invalid
input (an unreadable config file or --out path too), 3 capacity exceeded,
4 certification failure, 141 (silently) when the reader closes stdout
early.  Output is JSON objects (one per line for row streams) or CSV with
a header row; payloads carry no timestamps, so identical invocations
produce identical bytes.

No module imported here loads numpy at import time, so only the commands
that sieve or build tables pay for it; inverse, multiplicity, verify-config,
certify, corollary3-plan, l-value, lemma3-constant and --help never load
it.  Likewise the configs module loads only in the handlers that use
configurations or plans.  Row streams are written ROW_CHUNK rows at a time,
each chunk rendered with one join, so memory stays bounded however long the
table is.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from . import preimages, sievelab
from .arith import exact_int
from .errors import CapacityError, CertificationError, DomainError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_CERTIFICATION = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

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
    """One payload as a one-row stream: the bytes of json.dumps(payload,
    sort_keys=True), or a csv header and row in sorted key order."""
    keys = sorted(payload)
    _emit_rows([[[payload[k]] for k in keys]], keys, fmt, out)


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

# result field -> payload key, where the two differ
_RENAMES = {"map_kind": "map", "examined": "examined_pairs", "exempted": "exempted_pairs"}
# witness tuple -> object keys, by the report field holding it
_WITNESS_KEYS = {"cond_ii": ("pi", "b", "divisor"), "cond_iii": ("d1", "d2")}


def _fields(obj) -> dict:
    """A result dataclass as a payload: one key per field, renamed by
    _RENAMES, nested dataclasses (alone or in tuples) converted alike and
    fractions written "n/d".  Other values are kept as they are (json and
    _cell write tuples as lists); dataclasses.asdict would deep-copy each
    one, about 1.7 s per million solutions on CPython 3.11."""
    payload = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            value = _fields(value)
        elif isinstance(value, tuple) and value and dataclasses.is_dataclass(value[0]):
            value = [_fields(item) for item in value]
        elif isinstance(value, Fraction):
            value = _fraction_str(value)
        payload[_RENAMES.get(field.name, field.name)] = value
    return payload


def _report(report) -> dict:
    payload = _fields(report)
    for cond, keys in _WITNESS_KEYS.items():
        witness = payload[cond]["witness"]
        if witness is not None:
            payload[cond]["witness"] = dict(zip(keys, witness))
    return {**payload, "overall": report.overall}


def _certificate(cert) -> dict:
    payload = _fields(cert)
    del payload["observed_preimages"]
    payload["config"] = _configs().config_to_payload(cert.config) if cert.config else None
    payload["observed_multiplicity"] = cert.observed_preimages.multiplicity
    payload["solutions"] = cert.observed_preimages.solutions
    return payload


# ---------------------------------------------------------------- handlers
#
# Library functions are looked up on their modules at call time, so a
# patched module attribute is what runs.

def _configs():
    from . import configs  # loaded only by the commands that use configurations

    return configs


def _budget(args, configs) -> int:
    return configs.DEFAULT_BUDGET if args.budget is None else args.budget


def _inverse(args) -> dict:
    find = preimages.phi_preimages if args.map == "phi" else preimages.sigma_preimages
    ps = find(args.m)
    return {**_fields(ps), "multiplicity": ps.multiplicity}


def _table(args):
    if args.k is not None:  # one row per k, held to the table's capacity
        exact_int(args.k[1] - args.k[0] + 1, "k range size", most=preimages.SCAN_CAPACITY)
    counts = preimages.multiplicity_table(args.map, args.bound)
    if args.k is None:
        return (((ms, counts[ms.start:ms.stop].tolist()) for ms in _row_ranges(1, args.bound)),
                ("m", "multiplicity"))
    first = preimages.minimal_m_by_multiplicity(counts)
    return (((ks, [first[k] if k < len(first) else None for k in ks], [args.bound] * len(ks))
             for ks in _row_ranges(*args.k)),
            ("k", "minimal_m", "scan_bound"))


def _min_m(args) -> dict:
    rec = preimages.minimal_m_with_multiplicity(args.k, args.map, args.bound)
    return {**_fields(rec), "found": rec.minimal_m is not None}


def _verify_config(args) -> dict:
    configs = _configs()
    cfg = configs.load_config(args.file)
    return {"config": configs.config_to_payload(cfg), **_report(configs.verify(cfg))}


def _search_config(args) -> dict:
    configs = _configs()
    cfg, stats = configs.search_config(configs.LEMMA_KINDS[args.lemma], args.r, args.n,
                                       args.pool, _budget(args, configs),
                                       seed=args.seed, base_m=args.base_m)
    payload = {"found": cfg is not None, "stats": _fields(stats)}
    if cfg is not None:
        payload["config"] = configs.config_to_payload(cfg)
        payload["report"] = _report(configs.verify(cfg))
        if args.out:
            configs.save_config(cfg, args.out)
    return payload


def _certify(args) -> dict:
    configs = _configs()
    return _certificate(configs.certify(configs.load_config(args.file)))


def _theorem2(args) -> dict:
    configs = _configs()
    l, cert, stats = configs.theorem2_search(args.m, args.r, n=args.n, pool_bound=args.pool,
                                             budget=_budget(args, configs), seed=args.seed)
    payload = {"base_m": args.m, "r": args.r, "found": l is not None, "stats": _fields(stats)}
    if l is not None:
        payload["l"] = l
        payload["certificate"] = _certificate(cert)
    return payload


def _l_value(args) -> dict:
    value = sievelab.l_value(args.primes)
    if max(value.numerator, value.denominator) >= 10 ** _NATURAL_MAX_DIGITS:
        raise CapacityError(f"l-value terms exceed {_NATURAL_MAX_DIGITS} digits")
    try:
        approx = float(value)
    except OverflowError:
        raise CapacityError("l-value exceeds the float range") from None
    return {"primes": args.primes, "numerator": value.numerator,
            "denominator": value.denominator, "value": approx}


# ---------------------------------------------------------------- command table

class _Command(NamedTuple):
    name: str
    help: str
    handler: Callable
    args: tuple  # (name or flag, add_argument keywords), after the shared --format


_MAP = {"choices": ("phi", "sigma")}
_MAP_REQUIRED = {**_MAP, "required": True}
_NAT = {"type": _natural}
_NAT_REQUIRED = {"type": _natural, "required": True}
_ALPHA = ("--alpha", {"type": _rational, "default": Fraction(1, 8)})
_N = ("--n", {**_NAT, "default": 2})
_BUDGET = ("--budget", _NAT)  # None stands for configs.DEFAULT_BUDGET, see _budget
_SEED = ("--seed", {**_NAT, "default": 0})

_COMMANDS = (
    _Command("inverse", "enumerate all x with phi(x)=m or sigma(x)=m", _inverse,
             (("map", _MAP), ("m", _NAT))),
    _Command("multiplicity", "count the preimages of m",
             lambda args: {"map": args.map, "target": args.m,
                           "multiplicity": preimages.multiplicity(args.m, args.map)},
             (("map", _MAP), ("m", _NAT))),
    _Command("table", "multiplicity histogram, or minimal m per k with --k", _table,
             (("--map", _MAP_REQUIRED), ("--bound", _NAT_REQUIRED),
              ("--k", {"type": _k_range, "metavar": "A..B"}))),
    _Command("min-m", "smallest m whose multiplicity is exactly k", _min_m,
             (("--map", _MAP_REQUIRED), ("--k", _NAT_REQUIRED), ("--bound", _NAT_REQUIRED))),
    _Command("verify-config", "run all condition checks on a config file", _verify_config,
             (("file", {}),)),
    _Command("search-config", "seeded search for a passing configuration", _search_config,
             # the keys of configs.LEMMA_KINDS, spelled out so --help needs no configs
             (("--lemma", {"choices": ("1", "2"), "required": True}), ("--r", _NAT_REQUIRED),
              _N, ("--pool", _NAT_REQUIRED), ("--base-m", {**_NAT, "default": 1}), _BUDGET,
              _SEED, ("--out", {"help": "write the found config to this file"}))),
    _Command("certify", "certify a verified config by exhaustive enumeration", _certify,
             (("file", {}),)),
    _Command("theorem2", "find l with phi-multiplicity(l*m) = r * multiplicity(m)", _theorem2,
             (("--m", _NAT_REQUIRED), ("--r", _NAT_REQUIRED), _N,
              # configs.DEFAULT_POOL, spelled out so --help needs no configs
              ("--pool", {**_NAT, "default": 10 ** 6}), _BUDGET, _SEED)),
    _Command("corollary3-plan", "decompose an even k into base times multiplier",
             lambda args: _fields(_configs().corollary3_plan(args.k)),
             (("--k", _NAT_REQUIRED),)),
    _Command("sieve-count", "count shifted almost primes in (x/2, x]",
             lambda args: _fields(sievelab.count_shifted_almost_primes(args.x, args.alpha,
                                                                       args.a)),
             (("--x", _NAT_REQUIRED), _ALPHA,
              ("--a", {"type": int, "choices": (1, -1), "required": True}))),
    _Command("prime-pairs", "count primes p <= x-k with p+k prime",
             lambda args: {"k": args.k, "x": args.x,
                           "count": sievelab.count_prime_pairs(args.k, args.x)},
             (("--k", _NAT_REQUIRED), ("--x", _NAT_REQUIRED))),
    _Command("l-value", "product of |p_g-p_h|/phi(|p_g-p_h|) over pairs", _l_value,
             (("primes", {**_NAT, "nargs": "+"}),)),
    _Command("ratio-sum", "sum of (k/phi(k))**beta against the truncated product",
             lambda args: _fields(sievelab.ratio_power_sum(args.beta, args.x,
                                                           prime_cutoff=args.cutoff)),
             (("--beta", {"type": float, "required": True}), ("--x", _NAT_REQUIRED),
              ("--cutoff", {**_NAT, "default": 10 ** 5}))),
    _Command("lemma3-constant", "the alpha=1/8 reference constant",
             lambda args: {"alpha": _fraction_str(args.alpha),
                           "constant": sievelab.lemma3_reference_constant(args.alpha)},
             (_ALPHA,)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phisigma",
        description="Preimage enumeration for phi and sigma, multiplicity-forcing "
                    "prime configurations, and sieve counting experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        p.set_defaults(handler=command.handler)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for name, spec in command.args:
            p.add_argument(name, **spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.handler(args)
        if isinstance(result, dict):
            _emit_record({"command": args.command, **result}, args.format, sys.stdout)
        else:
            _emit_rows(*result, args.format, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return EXIT_OK
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
        }, args.format, sys.stdout)
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except BrokenPipeError:
        # the reader stopped early: nothing to report, and what is still
        # buffered goes to devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
