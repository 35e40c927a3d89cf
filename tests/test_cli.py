"""Command-line surface: payloads, formats, and the exit-code contract."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import phisigma.arith
import phisigma.configs
import phisigma.preimages
import phisigma.sievelab
import phisigma.sieves
from phisigma import cli
from phisigma.configs import build_config, config_to_payload, save_config
from phisigma.preimages import multiplicity_table, sigma_preimages

SIGMA_R2_MATRIX = ((564089, 128339), (505493, 165383))


def run_main(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_proc(*args):
    proc = subprocess.run([sys.executable, "-m", "phisigma.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_inverse_phi_payload(capsys):
    code, out, _ = run_main(capsys, "inverse", "phi", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == [5, 8, 10, 12]
    assert payload["multiplicity"] == 4
    assert payload["map"] == "phi" and payload["target"] == 4
    # one sorted-key JSON object per line
    assert out.count("\n") == 1
    assert list(payload) == sorted(payload)


def test_inverse_sigma_payload(capsys):
    code, out, _ = run_main(capsys, "inverse", "sigma", "12")
    assert code == 0
    assert json.loads(out)["solutions"] == [6, 11]


def test_inverse_empty_set_is_success(capsys):
    code, out, _ = run_main(capsys, "inverse", "phi", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == [] and payload["multiplicity"] == 0


def test_inverse_rejects_nonpositive(capsys):
    code, _, err = run_main(capsys, "inverse", "phi", "0")
    assert code == 2
    assert err.strip()


def test_multiplicity_payload(capsys):
    code, out, _ = run_main(capsys, "multiplicity", "sigma", "12")
    assert code == 0
    assert json.loads(out)["multiplicity"] == 2


def test_table_streams_rows(capsys):
    code, out, _ = run_main(capsys, "table", "--map", "phi",
                            "--k", "1..3", "--bound", "100")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["k"] for r in rows] == [1, 2, 3]
    assert [r["minimal_m"] for r in rows] == [None, 1, 2]


def test_min_m_found_and_absent(capsys):
    code, out, _ = run_main(capsys, "min-m", "--map", "sigma",
                            "--k", "2", "--bound", "1e3")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True and payload["minimal_m"] == 12
    code, out, _ = run_main(capsys, "min-m", "--map", "phi",
                            "--k", "1", "--bound", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is False and payload["minimal_m"] is None


def test_csv_format(capsys):
    code, out, _ = run_main(capsys, "inverse", "phi", "4", "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header.split(",")[0] == "command"
    assert "\"[5, 8, 10, 12]\"" in row


def test_natural_accepts_scientific(capsys):
    code, out, _ = run_main(capsys, "prime-pairs", "--k", "2", "--x", "1e2")
    assert code == 0
    assert json.loads(out)["x"] == 100



def test_natural_parses_scientific_exactly(capsys):
    # through float, 1e23 became 99999999999999991611392 (A = 55)
    code, out, _ = run_main(capsys, "multiplicity", "phi", "1e23")
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == 10 ** 23
    assert payload["multiplicity"] == 15585
    code, out, _ = run_main(capsys, "prime-pairs", "--k", "2", "--x", "1e6")
    assert code == 0
    assert json.loads(out)["x"] == 10 ** 6


def test_natural_rejects_negative_and_fractional():
    for args in (("inverse", "phi", "-4"),
                 ("prime-pairs", "--k", "2", "--x", "-10"),
                 ("multiplicity", "sigma", "2.5e0")):
        with pytest.raises(SystemExit) as info:
            cli.main(list(args))
        assert info.value.code == 2


def test_inverse_over_enumeration_capacity(capsys, monkeypatch):
    monkeypatch.setattr(phisigma.preimages, "ENUM_CAPACITY", 3)
    code, out, err = run_main(capsys, "inverse", "phi", "4")
    assert code == 3
    assert out == "" and "capacity" in err.lower()
    code, out, _ = run_main(capsys, "multiplicity", "phi", "4")
    assert code == 0 and json.loads(out)["multiplicity"] == 4


def test_search_pool_below_floor_exit_code(capsys):
    code, out, err = run_main(capsys, "search-config", "--lemma", "2", "--r", "40",
                              "--pool", "1e4")
    assert code == 2 and out == ""
    assert "pool bound 10000 is below the 2^r floor 1099511627778" in err


@pytest.mark.parametrize("argv", [
    ("search-config", "--lemma", "2", "--r", "1e6", "--pool", "1e3"),
    ("theorem2", "--m", "1", "--r", "1e6", "--pool", "1e3"),
    ("search-config", "--lemma", "2", "--r", "18446744073709551616", "--pool", "1e3"),
    ("theorem2", "--m", "1", "--r", "1e24"),
])
def test_an_r_past_the_pool_bound_is_refused_before_2_to_the_r(capsys, argv):
    # 2^r of a million digits, of 2^64 bits or of 10^24 bits is never formed
    start = time.perf_counter()
    code, out, err = run_main(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "is below the 2^r floor: matrix primes must exceed 2^" in err


def test_table_k_range_is_held_to_the_capacity(capsys, monkeypatch):
    monkeypatch.setattr(phisigma.preimages, "multiplicity_table", None)  # never built
    code, out, err = run_main(capsys, "table", "--map", "sigma", "--bound", "3", "--k", "0..1e12")
    assert (code, out) == (3, "")
    assert err == "capacity error: k range size 1000000000001 exceeds capacity 200000000\n"
    monkeypatch.setattr(phisigma.preimages, "SCAN_CAPACITY", 100)
    code, out, err = run_main(capsys, "table", "--map", "sigma", "--bound", "3", "--k", "0..100")
    assert (code, out) == (3, "")
    assert err == "capacity error: k range size 101 exceeds capacity 100\n"


def test_table_past_memory_is_a_capacity_error(capsys, monkeypatch):
    # numpy refuses 1e50 + 1 entries before any page is touched
    monkeypatch.setattr(phisigma.preimages, "SCAN_CAPACITY", 10 ** 60)
    code, out, err = run_main(capsys, "table", "--map", "phi", "--bound", "1e50")
    assert (code, out) == (3, "")
    assert err.startswith("capacity error: table bound 1" + "0" * 50 + " ")


@pytest.mark.parametrize("argv", [
    ("table", "--map", "phi", "--bound", "100"),
    ("min-m", "--map", "phi", "--k", "2", "--bound", "100"),
])
def test_the_table_capacity_is_no_flag(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--capacity", "5"])
    out = capsys.readouterr()
    assert (info.value.code, out.out) == (2, "")
    assert "unrecognized arguments: --capacity 5" in out.err


@pytest.mark.parametrize("command", ["verify-config", "certify"])
@pytest.mark.parametrize("field,value", [("entry", 564089.0), ("entry", "128339"),
                                         ("base_m", True)])
def test_config_file_fields_must_be_integers(tmp_path, capsys, command, field, value):
    if field == "base_m":
        payload = config_to_payload(build_config([[11, 13], [17, 19]], "phi"))
        payload["base_m"] = value
    else:
        payload = config_to_payload(build_config(SIGMA_R2_MATRIX, "sigma"))
        payload["matrix"][0][0] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_main(capsys, command, str(path))
    assert code == 2 and out == ""
    assert "must be an integer" in err


def test_verify_config_reports_failure_as_data(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_config(build_config([[11, 13], [17, 19]], "sigma"), str(path))
    code, out, _ = run_main(capsys, "verify-config", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] is False
    assert payload["cond_ii"]["witness"] == {"pi": 3, "b": 2, "divisor": 13}
    assert payload["cond_iii"]["witness"] == {"d1": 11, "d2": 2}


def test_certify_rejects_unverified_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_config(build_config([[11, 13], [17, 19]], "sigma"), str(path))
    code, _, err = run_main(capsys, "certify", str(path))
    assert code == 2
    assert "condition" in err


def test_certify_missing_file(capsys):
    code, _, err = run_main(capsys, "certify", "/nonexistent/cfg.json")
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("command", ["verify-config", "certify"])
@pytest.mark.parametrize("content", [None, b"\xff{}", b"[" * 100000 + b"]" * 100000,
                                     b'{"lemma": "2", "matrix": [[' + b"9" * 5000 + b"]]}"],
                         ids=["directory", "not-utf8", "too-deep", "long-integer"])
def test_unreadable_config_file_exit_code(tmp_path, capsys, command, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
    code, out, err = run_main(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_unwritable_out_exit_code(tmp_path, capsys):
    code, out, err = run_main(capsys, "search-config", "--lemma", "1", "--r", "2",
                              "--pool", "1000", "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno 21] Is a directory")


@pytest.mark.parametrize("beta", ["nan", "inf", "2000"])
def test_ratio_sum_non_finite_beta_exit_code(capsys, beta):
    code, out, err = run_main(capsys, "ratio-sum", "--beta", beta, "--x", "1000")
    assert code == 2 and out == ""
    assert err.startswith("error: beta") and len(err.splitlines()) == 1


def test_search_verify_certify_round_trip(tmp_path, capsys):
    path = tmp_path / "found.json"
    code, out, _ = run_main(capsys, "search-config", "--lemma", "2", "--r", "2",
                            "--pool", "1e6", "--budget", "200000",
                            "--seed", "0", "--out", str(path))
    assert code == 0
    found = json.loads(out)
    assert found["found"] is True
    assert found["config"]["matrix"] == [list(r) for r in SIGMA_R2_MATRIX]
    assert found["report"]["overall"] is True
    assert found["stats"]["probes"] > 0

    code, out, _ = run_main(capsys, "verify-config", str(path))
    assert code == 0
    assert json.loads(out)["overall"] is True

    code, out, _ = run_main(capsys, "certify", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted_multiplicity"] == 2
    assert payload["observed_multiplicity"] == 2
    assert payload["target"] == 24208745495466589560196
    assert payload["solutions"] == [24208745495150259165769, 24208745495154600426217]


def test_search_absent_is_success(capsys):
    code, out, _ = run_main(capsys, "search-config", "--lemma", "2", "--r", "2",
                            "--pool", "1e5", "--budget", "40", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is False
    assert payload["stats"]["probes"] >= 40


def test_theorem2_payload(capsys):
    code, out, _ = run_main(capsys, "theorem2", "--m", "1", "--r", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["l"] == 1
    assert payload["certificate"]["observed_multiplicity"] == 2


def test_corollary3_plan_payload(capsys):
    code, out, _ = run_main(capsys, "corollary3-plan", "--k", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["invocation"] == "theorem2 --m 1 --r 3"
    code, _, err = run_main(capsys, "corollary3-plan", "--k", "7")
    assert code == 2


def test_corollary3_plan_has_no_bound_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["corollary3-plan", "--k", "6", "--bound", "1000"])
    out = capsys.readouterr()
    assert (info.value.code, out.out) == (2, "")
    assert "unrecognized arguments: --bound 1000" in out.err


def test_corollary3_plan_of_a_hard_even_k_factors_nothing(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    q = (2 ** 100 + 277) * (2 ** 101 + 81)  # two primes: rho needs tens of seconds
    monkeypatch.setattr(phisigma.arith, "factorize", refuse)
    code, out, err = run_main(capsys, "corollary3-plan", "--k", str(2 * q))
    # refused by the divisor count 2^(2r) alone
    assert (code, out) == (3, "")
    assert err == f"capacity error: divisor count at least 2^{2 * q} exceeds capacity 65536\n"


@pytest.mark.parametrize("k", [14, 40, 60])
def test_corollary3_plan_refuses_a_k_whose_invocation_must_exit_3(capsys, k):
    # an r x 2 target has 2^(2r) * (r + 1) divisors, from r = 7 on over the
    # ceiling certify meets: the plan exits 3 with the error that theorem2
    # gives for that r over a pool past its 2^r floor
    start = time.perf_counter()
    plan = run_main(capsys, "corollary3-plan", "--k", str(k))
    assert time.perf_counter() - start < 1
    r = k // 2
    search = run_main(capsys, "theorem2", "--m", "1", "--r", str(r), "--pool", str(2 ** (r + 1)))
    assert plan == search
    assert plan[:2] == (3, "")
    assert re.fullmatch(r"capacity error: divisor count (at least 2\^)?\d+ exceeds capacity 65536\n",
                        plan[2])


@pytest.mark.parametrize("command", ["verify-config", "certify"])
def test_a_config_past_the_divisor_ceiling_exits_3_at_once(tmp_path, capsys, command):
    # a 2x8 sigma target has 3 * 2^16 divisors; condition (ii) took 33 s to
    # list them before the count was held to the ceiling
    primes = phisigma.sieves.sieve_range(10 ** 6, 10 ** 6 + 400)[:16]
    path = tmp_path / "cfg.json"
    save_config(build_config([primes[:8], primes[8:]], "sigma"), str(path))
    start = time.perf_counter()
    code, out, err = run_main(capsys, command, str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "capacity error: divisor count 196608 exceeds capacity 65536\n"


@pytest.mark.parametrize("value, message", [
    (Fraction(10 ** cli._NATURAL_MAX_DIGITS), "l-value terms exceed 4300 digits"),
    (Fraction(1, 10 ** cli._NATURAL_MAX_DIGITS), "l-value terms exceed 4300 digits"),
    (Fraction(10 ** 400), "l-value exceeds the float range"),
])
def test_l_value_past_its_limits_is_a_capacity_error(capsys, monkeypatch, value, message):
    monkeypatch.setattr(phisigma.sievelab, "l_value", lambda primes: value)
    for fmt in ("json", "csv"):
        code, out, err = run_main(capsys, "l-value", "3", "5", "--format", fmt)
        assert (code, out, err) == (3, "", f"capacity error: {message}\n")


def test_l_value_at_the_digit_limit_is_emitted(capsys, monkeypatch):
    value = Fraction(10 ** cli._NATURAL_MAX_DIGITS - 1, 10 ** (cli._NATURAL_MAX_DIGITS - 1))
    monkeypatch.setattr(phisigma.sievelab, "l_value", lambda primes: value)
    code, out, _ = run_main(capsys, "l-value", "3", "5")
    payload = json.loads(out)
    assert code == 0 and Fraction(payload["numerator"], payload["denominator"]) == value


def test_l_value_of_the_odd_primes_to_173_is_a_capacity_error(capsys):
    primes = [str(p) for p in range(3, 174) if phisigma.arith.is_prime(p)]
    assert len(primes) == 39
    code, out, err = run_main(capsys, "l-value", *primes)
    assert (code, out, err) == (3, "", "capacity error: l-value exceeds the float range\n")


def test_capacity_exit_code(capsys, monkeypatch):
    # the ceiling is the table's bound for either map, checked before any work
    code, out, _ = run_main(capsys, "table", "--map", "phi", "--k", "1..1", "--bound", "1e5")
    assert code == 0 and json.loads(out) == {"k": 1, "minimal_m": None, "scan_bound": 100000}
    for argv in (("table", "--map", "phi", "--bound", "3e8"),
                 ("table", "--map", "sigma", "--bound", "3e8"),
                 ("min-m", "--map", "phi", "--k", "2", "--bound", "3e8")):
        code, out, err = run_main(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("capacity error: table bound 300000000 exceeds capacity"), argv
    monkeypatch.setattr(phisigma.preimages, "SCAN_CAPACITY", 100)
    for argv in (("table", "--map", "phi", "--bound", "101"),
                 ("min-m", "--map", "sigma", "--k", "2", "--bound", "101")):
        code, out, err = run_main(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("capacity error: table bound 101 exceeds capacity 100"), argv


def test_divisor_count_capacity_exit_code(capsys):
    for argv in (("inverse", "phi", "1e400"), ("multiplicity", "sigma", "1e300")):
        code, out, err = run_main(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("capacity error: divisor count "), argv
        assert err.rstrip().endswith(f"exceeds capacity {phisigma.preimages.DIVISOR_CAPACITY}")


def test_sieve_count_alpha_numerator_capacity_exit_code(capsys):
    code, out, err = run_main(capsys, "sieve-count", "--x", "1e6", "--a", "-1",
                              "--alpha", "1000001/8000000")
    assert code == 3 and out == ""
    assert err.startswith("capacity error:")


@pytest.mark.parametrize("args, read", [
    (("table", "--map", "sigma", "--bound", "300000"), 100),  # fails mid-stream
    (("inverse", "phi", "4"), 0),  # one buffered record, fails at its flush
])
def test_closed_stdout_exits_quietly(args, read):
    # a reader that stops early is neither invalid input nor worth a message;
    # stdout is block-buffered, as it is by default on a pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "phisigma.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_certification_failure_exit_code(tmp_path, capsys, monkeypatch):
    cfg = build_config(SIGMA_R2_MATRIX, "sigma")
    path = tmp_path / "good.json"
    save_config(cfg, str(path))
    real = sigma_preimages(cfg.target)
    fake = type(real)(real.target, real.map_kind, real.solutions[:1])
    monkeypatch.setattr(phisigma.configs, "sigma_preimages", lambda m: fake)
    code, out, err = run_main(capsys, "certify", str(path))
    assert code == 4
    payload = json.loads(out)
    assert payload["predicted"] == 2 and payload["observed"] == 1
    assert payload["target"] == cfg.target
    assert err.strip()


def test_argparse_errors_exit_two():
    for args in (("sieve-count", "--x", "1e3", "--a", "3", "--alpha", "1/8"),
                 ("inverse", "tau", "4"),
                 ("no-such-command",)):
        with pytest.raises(SystemExit) as info:
            cli.main(list(args))
        assert info.value.code == 2


def test_repeated_runs_byte_identical():
    args = ("search-config", "--lemma", "2", "--r", "2",
            "--pool", "1e5", "--budget", "50000", "--seed", "9")
    first = run_proc(*args)
    second = run_proc(*args)
    assert first == second
    assert first[0] == 0
    third = run_proc("lemma3-constant")
    fourth = run_proc("lemma3-constant")
    assert third == fourth


def test_unfinished_primality_proof_exit_code(capsys, monkeypatch):
    # n = 8r + 1 with r prime lies above the proven Miller-Rabin bound, so
    # multiplicity(phi, n - 1) asks for a Pocklington proof of n.  With 2 as
    # the only witness the proof cannot be completed: n = 1 (mod 8) makes 2
    # a quadratic residue, so 2**((n-1)/2) = 1 (mod n).
    r = 430000000000000000016111
    n = 8 * r + 1
    monkeypatch.setattr(phisigma.arith, "_SMALL_PRIMES", (2,))
    code, out, err = run_main(capsys, "multiplicity", "phi", str(n - 1))
    assert code == 3 and out == ""
    assert err.startswith("capacity error: no Pocklington witness")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_trial_division_ceiling_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(phisigma.arith, "_brent_rho", lambda n, c: None)
    monkeypatch.setattr(phisigma.arith, "TRIAL_DIVISION_CEILING", 10 ** 6)
    code, out, err = run_main(capsys, "multiplicity", "sigma", str(2 * 1009 * 1013))
    assert code == 3 and out == ""
    assert err.startswith("capacity error: failed to factor")


def _old_rows(rows, fieldnames, fmt):
    """One json.dumps(row, sort_keys=True) line per row, or csv.writer rows of
    _cell values under a header."""
    if fmt == "json":
        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([cli._cell(row[k]) for k in fieldnames])
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bound", [1, 4, 5])
def test_table_rows_byte_identical(capsys, monkeypatch, fmt, bound):
    monkeypatch.setattr(cli, "ROW_CHUNK", 4)  # bound 5 crosses a chunk boundary
    code, out, _ = run_main(capsys, "table", "--map", "sigma", "--bound", str(bound),
                            "--format", fmt)
    assert code == 0
    counts = multiplicity_table("sigma", bound)
    rows = [{"m": m, "multiplicity": int(counts[m])} for m in range(1, bound + 1)]
    assert out == _old_rows(rows, ["m", "multiplicity"], fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_k_rows_byte_identical(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "ROW_CHUNK", 4)
    code, out, _ = run_main(capsys, "table", "--map", "phi", "--k", "0..9",
                            "--bound", "30", "--format", fmt)
    assert code == 0
    counts = multiplicity_table("phi", 30)
    rows = []
    for k in range(10):
        hits = [m for m in range(1, 31) if counts[m] == k]
        rows.append({"k": k, "minimal_m": hits[0] if hits else None, "scan_bound": 30})
    assert any(row["minimal_m"] is None for row in rows)
    assert out == _old_rows(rows, ["k", "minimal_m", "scan_bound"], fmt)


# SHA-256 of the stdout of four table commands, taken while the tables were
# int64; a numpy scalar reaching the json template or the csv writer would
# change the bytes
_TABLE_STREAM_DIGESTS = [
    (("--map", "sigma", "--bound", "100000"),
     "bd1aab7c9ae307b4992acafebc832996f4370d4d650a1b5ef3dbb29abdaef839"),
    (("--map", "sigma", "--bound", "100000", "--format", "csv"),
     "56b71a00f44547a927b11f08fbf074950b5d7d79e5a4a7a5f55e091fe1ed59e9"),
    (("--map", "phi", "--k", "1..600", "--bound", "2e6"),
     "d9c63998f5564064ccd49afb08163438681d0394bd22ad2d0b467f5cd970c5f5"),
    (("--map", "phi", "--k", "1..600", "--bound", "2e6", "--format", "csv"),
     "af51ee5ed195e47238099ba82976ef3d77c46efc53ba7cfd38960ab10b862b6d"),
]


@pytest.mark.parametrize("args, digest", _TABLE_STREAM_DIGESTS,
                         ids=["sigma-json", "sigma-csv", "phi-k-json", "phi-k-csv"])
def test_table_stream_bytes_are_pinned(capsys, args, digest):
    code, out, _ = run_main(capsys, "table", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _PassCounter(np.ndarray):
    """A table that counts the numpy operations that read it."""

    passes = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _PassCounter.passes += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _PassCounter) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_table_k_range_reads_table_a_fixed_number_of_times(capsys, monkeypatch):
    real = phisigma.preimages.multiplicity_table
    monkeypatch.setattr(phisigma.preimages, "multiplicity_table",
                        lambda *args, **kw: real(*args, **kw).view(_PassCounter))
    passes = {}
    for ks in ("2", "0..400"):
        _PassCounter.passes = 0
        code, out, _ = run_main(capsys, "table", "--map", "sigma", "--bound", "5000", "--k", ks)
        assert code == 0
        passes[ks] = _PassCounter.passes
    assert passes["0..400"] == passes["2"] > 0  # not one pass per k
    counts = real("sigma", 5000)
    rows = []
    for k in range(401):
        hits = np.flatnonzero(counts[1:] == k)
        rows.append({"k": k, "minimal_m": int(hits[0]) + 1 if hits.size else None,
                     "scan_bound": 5000})
    assert rows[-1]["minimal_m"] is None
    assert [json.loads(row) for row in out.splitlines()] == rows


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_row_writer_non_int_cells(fmt):
    # Cells the tables do not produce today still follow the per-row rules:
    # bool, float, None, lists, dicts and strings that csv must quote.
    fields = ["z", "a", "b"]
    rows = [{"z": 1, "a": True, "b": None},
            {"z": 2, "a": 0.5, "b": [1, 2]},
            {"z": 3, "a": 'say "hi", twice', "b": {"y": 1, "x": False}}]
    columns = [[row[f] for row in rows] for f in fields]
    chunks = [[col[lo:lo + 2] for col in columns] for lo in (0, 2)]
    out = io.StringIO()
    cli._emit_rows(chunks, fields, fmt, out)
    assert out.getvalue() == _old_rows(rows, fields, fmt)


# Every public name the package exported when all its modules were imported
# eagerly, by defining module.
PUBLIC_NAMES = {
    "arith": ["PrimeFactorization", "divisors", "euler_phi", "factorize", "iroot",
              "is_prime", "prime_power_sigma_all", "prime_power_sigma_solve",
              "sigma", "sigma_prime_power"],
    "configs": ["Certificate", "PrimeConfig", "SearchStats", "VerificationReport",
                "build_config", "certify", "check_condition_i", "check_condition_ii",
                "check_condition_iii", "condition_index_set", "corollary3_plan",
                "enumerate_matchings", "load_config",
                "save_config", "search_config", "theorem2_search", "verify"],
    "errors": ["CapacityError", "CertificationError", "DomainError"],
    "preimages": ["MultiplicityRecord", "PreimageSet", "minimal_m_with_multiplicity",
                  "multiplicity", "multiplicity_table", "phi_preimages",
                  "sigma_preimages"],
    "sievelab": ["AlmostPrimeCount", "RatioSumReport", "count_prime_pairs",
                 "count_shifted_almost_primes", "l_value",
                 "lemma3_reference_constant", "ratio_power_sum"],
    "sieves": ["iter_phi_blocks", "iter_sigma_blocks", "phi_table", "primes_upto",
               "sieve_range", "sigma_table"],
}

NUMPY_FREE_SCRIPT = """
import contextlib, io, sys
from phisigma import cli

def run(*runs):
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code == 0, argv

run(["inverse", "phi", "4"], ["inverse", "sigma", "12"], ["multiplicity", "sigma", "12"],
    ["l-value", "3", "5", "7"], ["lemma3-constant"], ["--help"])
assert "phisigma.configs" not in sys.modules, "configs was loaded"
run(["verify-config", CFG], ["certify", CFG], ["corollary3-plan", "--k", "6"])
assert "numpy" not in sys.modules, "numpy was loaded"
"""


def test_numpy_free_commands_and_public_names(tmp_path):
    import phisigma

    path = tmp_path / "cfg.json"
    save_config(build_config(SIGMA_R2_MATRIX, "sigma"), str(path))
    script = f"CFG = {str(path)!r}\n" + NUMPY_FREE_SCRIPT
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

    star: dict = {}
    exec("from phisigma import *", star)
    for module, names in PUBLIC_NAMES.items():
        mod = getattr(phisigma, module)
        assert mod is sys.modules[f"phisigma.{module}"]
        for name in names:
            assert getattr(phisigma, name) is getattr(mod, name), name
            assert star[name] is getattr(mod, name), name
            assert name in dir(phisigma)


# ------------------------------------------------------- every payload, by name

def _report_keys(report) -> dict:
    i, ii, iii = report.cond_i, report.cond_ii, report.cond_iii
    return {
        "cond_i": {"passed": i.passed,
                   "forms": [{"i": f.i, "j": f.j, "value": f.value, "prime": f.prime}
                             for f in i.forms],
                   "values_distinct": i.values_distinct,
                   "duplicate_value": i.duplicate_value,
                   "matrix_overlap": i.matrix_overlap},
        "cond_ii": {"passed": ii.passed,
                    "witness": None if ii.witness is None
                    else dict(zip(("pi", "b", "divisor"), ii.witness)),
                    "note": ii.note},
        "cond_iii": {"passed": iii.passed,
                     "witness": None if iii.witness is None
                     else dict(zip(("d1", "d2"), iii.witness)),
                     "examined_pairs": iii.examined,
                     "exempted_pairs": iii.exempted},
        "overall": report.overall,
    }


def _stats_keys(stats) -> dict:
    return {"probes": stats.probes, "rounds": stats.rounds, "assembled": stats.assembled,
            "cond_i_rejects": stats.cond_i_rejects, "cond_ii_rejects": stats.cond_ii_rejects,
            "cond_iii_rejects": stats.cond_iii_rejects, "found": stats.found}


def _certificate_keys(cert) -> dict:
    return {"config": config_to_payload(cert.config) if cert.config else None,
            "target": cert.target,
            "predicted_multiplicity": cert.predicted_multiplicity,
            "observed_multiplicity": len(cert.observed_preimages.solutions),
            "solutions": list(cert.observed_preimages.solutions),
            "matchings": [list(m) for m in cert.matchings]}


def _expect_inverse(_):
    ps = phisigma.preimages.phi_preimages(4)
    return (["inverse", "phi", "4"],
            {"command": "inverse", "map": "phi", "target": 4,
             "solutions": list(ps.solutions), "multiplicity": len(ps.solutions)})


def _expect_multiplicity(_):
    return (["multiplicity", "sigma", "12"],
            {"command": "multiplicity", "map": "sigma", "target": 12,
             "multiplicity": phisigma.preimages.multiplicity(12, "sigma")})


def _expect_table(_):
    counts = multiplicity_table("sigma", 30)
    return (["table", "--map", "sigma", "--bound", "30"],
            [{"m": m, "multiplicity": int(counts[m])} for m in range(1, 31)])


def _expect_min_m(_):
    rec = phisigma.preimages.minimal_m_with_multiplicity(2, "sigma", 1000)
    return (["min-m", "--map", "sigma", "--k", "2", "--bound", "1000"],
            {"command": "min-m", "map": "sigma", "k": 2, "minimal_m": rec.minimal_m,
             "scan_bound": 1000, "found": rec.minimal_m is not None})


def _expect_verify_config(paths):
    cfg = phisigma.configs.load_config(paths["bad"])
    return (["verify-config", paths["bad"]],
            {"command": "verify-config", "config": config_to_payload(cfg),
             **_report_keys(phisigma.configs.verify(cfg))})


def _expect_search_config(_):
    cfg, stats = phisigma.configs.search_config("sigma", 2, 2, 10 ** 6, 200000, seed=0)
    return (["search-config", "--lemma", "2", "--r", "2", "--pool", "1e6",
             "--budget", "200000", "--seed", "0"],
            {"command": "search-config", "found": True, "stats": _stats_keys(stats),
             "config": config_to_payload(cfg),
             "report": _report_keys(phisigma.configs.verify(cfg))})


def _expect_certify(paths):
    cert = phisigma.configs.certify(phisigma.configs.load_config(paths["good"]))
    return (["certify", paths["good"]], {"command": "certify", **_certificate_keys(cert)})


def _expect_theorem2(_):
    l, cert, stats = phisigma.configs.theorem2_search(1, 2, n=2, pool_bound=10 ** 6,
                                                      budget=phisigma.configs.DEFAULT_BUDGET)
    return (["theorem2", "--m", "1", "--r", "2"],
            {"command": "theorem2", "base_m": 1, "r": 2, "found": True,
             "stats": _stats_keys(stats), "l": l, "certificate": _certificate_keys(cert)})


def _expect_corollary3_plan(_):
    plan = phisigma.configs.corollary3_plan(6)
    return (["corollary3-plan", "--k", "6"],
            {"command": "corollary3-plan", "k": plan.k, "prime_factor": plan.prime_factor,
             "multiplier_r": plan.multiplier_r, "base_m": plan.base_m,
             "base_multiplicity": plan.base_multiplicity, "invocation": plan.invocation})


def _expect_sieve_count(_):
    report = phisigma.sievelab.count_shifted_almost_primes(10 ** 4, Fraction(1, 8), 1)
    return (["sieve-count", "--x", "1e4", "--a", "1"],
            {"command": "sieve-count", "x": 10 ** 4, "a": 1, "alpha": "1/8",
             "count": report.count, "normalized_ratio": report.normalized_ratio,
             "reference_constant": report.reference_constant})


def _expect_prime_pairs(_):
    return (["prime-pairs", "--k", "2", "--x", "100"],
            {"command": "prime-pairs", "k": 2, "x": 100,
             "count": phisigma.sievelab.count_prime_pairs(2, 100)})


def _expect_l_value(_):
    value = phisigma.sievelab.l_value([3, 5, 11])
    return (["l-value", "3", "5", "11"],
            {"command": "l-value", "primes": [3, 5, 11], "numerator": value.numerator,
             "denominator": value.denominator, "value": float(value)})


def _expect_ratio_sum(_):
    report = phisigma.sievelab.ratio_power_sum(2.0, 1000, prime_cutoff=100)
    return (["ratio-sum", "--beta", "2", "--x", "1000", "--cutoff", "100"],
            {"command": "ratio-sum", "beta": 2.0, "x": 1000, "sum": report.sum,
             "c_beta": report.c_beta, "prime_cutoff": 100,
             "tail_factor_bound": report.tail_factor_bound})


def _expect_lemma3_constant(_):
    return (["lemma3-constant", "--alpha", "2/16"],
            {"command": "lemma3-constant", "alpha": "1/8",
             "constant": phisigma.sievelab.lemma3_reference_constant(Fraction(1, 8))})


EXPECTED_PAYLOADS = {
    "inverse": _expect_inverse, "multiplicity": _expect_multiplicity,
    "table": _expect_table, "min-m": _expect_min_m,
    "verify-config": _expect_verify_config, "search-config": _expect_search_config,
    "certify": _expect_certify, "theorem2": _expect_theorem2,
    "corollary3-plan": _expect_corollary3_plan, "sieve-count": _expect_sieve_count,
    "prime-pairs": _expect_prime_pairs, "l-value": _expect_l_value,
    "ratio-sum": _expect_ratio_sum, "lemma3-constant": _expect_lemma3_constant,
}


def test_every_subcommand_has_a_payload_test():
    assert set(EXPECTED_PAYLOADS) == set(cli.build_parser()._subparsers._group_actions[0].choices)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(EXPECTED_PAYLOADS))
def test_payload_keys_and_values(tmp_path, capsys, command, fmt):
    paths = {"good": str(tmp_path / "good.json"), "bad": str(tmp_path / "bad.json")}
    save_config(build_config(SIGMA_R2_MATRIX, "sigma"), paths["good"])
    save_config(build_config([[11, 13], [17, 19]], "sigma"), paths["bad"])
    argv, expected = EXPECTED_PAYLOADS[command](paths)
    code, out, err = run_main(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    if isinstance(expected, list):  # a row stream
        assert out == _old_rows(expected, list(expected[0]), fmt)
    else:
        assert out == _old_rows([expected], sorted(expected), fmt)
