"""Command-line surface: payloads, formats, and the exit-code contract."""

import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

import phisigma.arith
import phisigma.configs
import phisigma.preimages
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


def test_capacity_exit_code(capsys):
    code, _, err = run_main(capsys, "table", "--map", "phi",
                            "--k", "1..1", "--bound", "1e5")
    assert code == 3
    assert "capacity" in err.lower()


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
                "count_matchings", "enumerate_matchings", "load_config",
                "save_config", "search_config", "theorem2_search", "verify"],
    "errors": ["CapacityError", "CertificationError", "DomainError"],
    "preimages": ["MultiplicityRecord", "PreimageSet", "minimal_m_with_multiplicity",
                  "multiplicity", "multiplicity_table", "phi_preimages",
                  "sigma_preimages"],
    "sievelab": ["AlmostPrimeCount", "RatioSumReport", "count_prime_pairs",
                 "count_shifted_almost_primes", "l_value",
                 "lemma3_reference_constant", "ratio_power_sum"],
    "sieves": ["iter_phi_blocks", "iter_sigma_blocks", "phi_table", "primes_upto",
               "sieve_range", "sigma_table", "spf_table"],
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
run(["verify-config", CFG], ["certify", CFG])
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
