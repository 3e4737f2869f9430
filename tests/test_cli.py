import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cyclrc import cli, constructions, linalg
from cyclrc.cli import main
from cyclrc.constructions import verify_certificate
from cyclrc.cyclic import CyclicCode

GRID = str(resources.files("cyclrc").joinpath("golden/search_nondividing.json"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_optimal_exit0(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--family", "C44", "--q", "19", "--n", "18",
        "--t", "1", "--b", "1", "--m", "5", "--tail", "8", "--delta", "4",
        "--format", "pretty",
    )
    assert code == 0
    assert "[18, 8, 8]" in out and "(7, 4)-locality" in out and "optimal" in out
    assert "generator:" in out and "defining exponents:" in out


def test_construct_not_optimal_exit2(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--family", "T48", "--q", "31", "--n", "30",
        "--delta", "2", "--m", "2", "--format", "pretty",
    )
    assert code == 2
    assert "not optimal" in out


PRETTY = json.loads((Path(__file__).resolve().parent / "data" / "construct_pretty.json").read_text(encoding="utf-8"))


# recorded stdout and exit code of `construct --format pretty`: an open
# distance, an inexact anchor dual, shift covers, a group size that does not
# divide n and a missing bound value, at exits 0 and 2
@pytest.mark.parametrize("name", sorted(PRETTY))
def test_construct_pretty_output_is_recorded(capsys, name):
    rec = PRETTY[name]
    assert run_cli(capsys, *rec["argv"].split()) == (rec["exit"], rec["stdout"], "")


def test_construct_hypothesis_violation_exit1(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--family", "C52", "--case", "1", "--q", "64",
        "--n", "65", "--r", "2", "--delta", "4", "--i", "1", "--ell", "3",
    )
    assert code == 1
    assert "floor((r-1)/2)" in err


@pytest.mark.parametrize("extra,clause", [
    (["--r", "5", "--m", "3"], "P49 reads no r, m"),
    (["--tail", "9"], "P49 reads no tails"),
    (["--case", "1", "--j", "0"], "P49 reads no j, case"),
])
def test_construct_refuses_fields_the_family_does_not_read(capsys, extra, clause):
    # the request is copied into the certificate as given, so an ignored
    # field would certify a value the code does not have
    code, out, err = run_cli(capsys, "construct", "--family", "P49", "--q", "19", "--n", "18",
                             "--delta", "4", *extra)
    assert code == 1 and out == ""
    assert clause in err and "Traceback" not in err


def test_construct_negative_length_exit1(capsys):
    code, out, err = run_cli(capsys, "construct", "--family", "C42", "--q", "11", "--n", "-10",
                             "--delta", "2", "--r", "4", "--ell", "-4")
    assert code == 1 and out == ""
    assert "hypothesis violated" in err and "n >= 1" in err


def test_construct_nonprime_field_exit1(capsys):
    code, out, err = run_cli(
        capsys, "construct", "--family", "C56", "--q", "6", "--n", "7",
        "--delta", "2", "--m", "2",
    )
    assert code == 1
    assert out == ""
    assert "NonPrime: 6 is not a prime power" in err and "Traceback" not in err


def test_construct_missing_flag_exit1(capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "C44", "--q", "19")
    assert code == 1
    assert "usage" in err.lower()


def test_construct_json_deterministic(capsys, tmp_path):
    argv = ["construct", "--family", "P49", "--q", "19", "--n", "18",
            "--delta", "4", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    cert = json.loads(out1)
    assert cert["schema"] == 1
    assert cert["optimality"]["optimal"] is True
    assert cert["locality"]["dA_perp"] == 9 and cert["locality"]["dB"] == 4


def test_verify_roundtrip_and_tamper(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys, "construct", "--family", "C44", "--q", "19", "--n", "18",
        "--t", "1", "--m", "5", "--tail", "8", "--delta", "3",
        "--format", "json", "-o", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "disagree" not in out

    cert = json.loads(path.read_text())
    cert["code"]["k"] = cert["code"]["k"] + 1
    path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "disagree" in out and "dimension" in out


C42_ARGV = ["construct", "--family", "C42", "--q", "19", "--n", "18", "--delta", "2", "--r", "2"]


def _tamper_schema(cert):
    cert["schema"] = 7


def _tamper_modulus(cert):
    cert["field"]["ambient_modulus"] = [1, 1]


def _tamper_word(cert):
    cert["locality"]["evidence"]["h0_word"] = [1] * 18


def _tamper_word_and_support(cert):
    cert["locality"]["evidence"]["h0_word"] = [1] + [0] * 17
    cert["locality"]["evidence"]["h0_support"] = [0]


def _tamper_groups(cert):
    cert["locality"]["groups"] = [list(range(18))]


@pytest.mark.parametrize("tamper,line", [
    (_tamper_schema, "schema"),
    (_tamper_modulus, "field"),
    (_tamper_word, "locality evidence"),
    pytest.param(_tamper_word_and_support, "locality evidence: h0_word is not orthogonal to the anchor code",
                 id="_tamper_word_and_support-locality evidence"),
    (_tamper_groups, "locality evidence"),
])
def test_verify_checks_schema_field_and_evidence(capsys, tmp_path, tamper, line):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, *C42_ARGV, "--i", "0", "--ell", "0", "--format", "json", "-o", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and "disagree" not in out
    assert {ln.split(None, 1)[1].split(":")[0] for ln in out.splitlines()} >= {"schema", "field", "locality evidence"}
    cert = json.loads(path.read_text())
    tamper(cert)
    path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert any(ln.startswith("disagree") and ln.split(None, 1)[1].startswith(line) for ln in out.splitlines())


@pytest.mark.parametrize("argv", [
    C42_ARGV,
    ["construct", "--family", "C59", "--q", "17", "--n", "18", "--delta", "3", "--r", "1", "--case", "1"],
])
def test_construct_defaults_i_and_ell_to_zero(capsys, argv):
    # a request without --i/--ell builds the code of the explicit --i 0 --ell 0 request
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and "Traceback" not in err
    code0, out0, _ = run_cli(capsys, *argv, "--i", "0", "--ell", "0", "--format", "json")
    assert code0 == 0
    got, want = json.loads(out)["optimality"], json.loads(out0)["optimality"]
    assert [got[key] for key in ("k", "d_exact", "r", "delta")] == [want[key] for key in ("k", "d_exact", "r", "delta")]
    assert "i" not in got["request"] and "ell" not in got["request"]


RECORDED_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "certificates.json"


# n24_case1 settles its anchor dual by the support climb over GF(23^2); the
# other two take the zero-core scan's word path, over GF(19) and GF(2^8)
@pytest.mark.parametrize("name,argv", [
    ("n24_case1", ["--family", "C52", "--q", "23", "--n", "24", "--delta", "4",
                   "--r", "3", "--i", "1", "--ell", "1", "--case", "1"]),
    ("n18_single_tail_delta2", ["--family", "C44", "--q", "19", "--n", "18", "--delta", "2",
                                "--b", "1", "--t", "1", "--m", "5", "--tail", "8"]),
    ("n17_nondividing_delta3", ["--family", "C511", "--q", "16", "--n", "17", "--delta", "3",
                                "--b", "1", "--t", "0", "--m", "6"]),
])
def test_construct_certificate_matches_recorded_digest(tmp_path, name, argv):
    # a fresh process, so no cache warmed by earlier tests skips the oracle
    path = tmp_path / "cert.json"
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from cyclrc.cli import main; sys.exit(main(sys.argv[1:]))",
         "construct", *argv, "--format", "json", "-o", str(path)],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    recorded = json.loads(RECORDED_DIGESTS.read_text())[name]["sha256"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded


def test_every_corpus_certificate_matches_recorded_digest():
    # the digests and exits the certify benchmark pins, built in one process:
    # a change of the certificate assembly that moves a byte fails here
    from cyclrc.constructions import ConstructionRequest, build
    from cyclrc.golden import load_corpus

    got = {}
    for entry in load_corpus()["entries"]:
        if entry["kind"] == "family":
            cert = build(ConstructionRequest.from_dict(entry["request"])).certificate
            text = json.dumps(cert, indent=2, sort_keys=True) + "\n"
            got[entry["name"]] = {"construct_exit": 0 if cert["optimality"]["optimal"] else 2,
                                  "sha256": hashlib.sha256(text.encode()).hexdigest()}
    assert got == json.loads(RECORDED_DIGESTS.read_text())


# n^2 = 2047^2 is above the budget floor, so the O(n^2) bound scan of the
# distance cannot run at --budget 1e6
T48_N2047 = ["--family", "T48", "--q", "2048", "--n", "2047", "--delta", "2", "--m", "1"]


def test_construct_budget_too_small_exit1(capsys):
    code, out, err = run_cli(capsys, "construct", *T48_N2047, "--budget", "1e6")
    assert code == 1 and out == ""
    assert err.startswith("BudgetTooSmall: budget 1000000 cannot cover")
    assert "Traceback" not in err


def test_construct_open_optimality_is_a_budget_error_exit1(capsys):
    # the anchor dual of this C46 request is open at the default budget, so
    # the statement's optimality is only inconclusive: a budget error, not
    # an internal one
    code, out, err = run_cli(capsys, "construct", "--family", "C46", "--q", "107", "--n", "106",
                             "--delta", "2", "--t", "1", "--m", "4", "--tail", "61")
    assert (code, out) == (1, "")
    assert err == ("BudgetExceededInconclusive: single-root-tail family not certified optimal "
                   "at distance None (expected 5 or 6)\n")


def test_search_budget_too_small_reported_per_point(capsys, tmp_path):
    grid = tmp_path / "large.json"
    grid.write_text(json.dumps({"grids": [{"family": "T48", "q": 2048, "n": 2047, "delta": 2, "m": 1}]}))
    code, out, err = run_cli(capsys, "search", "--grid", str(grid), "--budget", "1e6")
    assert code == 1
    assert err.startswith("BudgetTooSmall: budget 1000000 cannot cover") and '"n": 2047' in err
    assert "Traceback" not in err
    assert out.strip() == "family,q,n,r,delta,k,d,optimal,divides"


@pytest.fixture(scope="module")
def t41_n1023(tmp_path_factory):
    """The certificate of T41 q=1024 n=1023 m=1 tail=5 delta=2, a high-rate
    code (n - k = 2) whose h0 has 1022 coordinates, as a file."""
    path = tmp_path_factory.mktemp("t41") / "cert.json"
    assert main(["construct", "--family", "T41", "--q", "1024", "--n", "1023", "--delta", "2", "--m", "1",
                 "--tail", "5", "--format", "json", "-o", str(path)]) in (0, 2)
    return path


def test_verify_budget_too_small_is_not_malformed(capsys, t41_n1023):
    # a well-formed certificate whose n^2 exceeds the budget: the budget is
    # named, the certificate is not called malformed
    code, out, err = run_cli(capsys, "verify", str(t41_n1023), "--budget", "1e6")
    assert code == 1 and out == ""
    assert err.startswith("BudgetTooSmall: budget 1000000 cannot cover") and "malformed" not in err
    assert "Traceback" not in err


# n^2 = 16383^2 is above the default budget of 1e8
T48_N16383 = {"family": "T48", "q": 16384, "n": 16383, "delta": 2, "m": 1}


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_budget_below_n2_refused_before_any_context(capsys, tmp_path, monkeypatch, command):
    # the refusal comes before the O(n^2) work of building the code
    def no_context(q, n):
        raise AssertionError(f"context built for q={q} n={n}")

    monkeypatch.setattr(constructions, "cyc_context", no_context)
    if command == "construct":
        argv = [arg for key, value in T48_N16383.items() for arg in (f"--{key}", str(value))]
    else:
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"locality": {}, "optimality": {"request": T48_N16383}}))
        argv = [str(cert)]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 1 and out == ""
    assert err.startswith("BudgetTooSmall: budget 100000000 cannot cover")


def test_verify_runs_no_elimination(monkeypatch, t41_n1023):
    # locality is read off h0's translate rows, as construct does, and the
    # run code's distance proves their erasure tolerance, so verify runs no
    # elimination at all: neither a Gauss-Jordan stack nor a prefix walk
    cert = json.loads(t41_n1023.read_text(encoding="utf-8"))
    rows = []

    def recording(F, mats, real=linalg.gauss_jordan):
        rows.append(np.shape(mats)[1])
        return real(F, mats)

    def recording_walk(F, A, *args, real=linalg.prefix_walk):
        rows.append(np.shape(A)[0])
        return real(F, A, *args)

    monkeypatch.setattr(linalg, "gauss_jordan", recording)
    monkeypatch.setattr(linalg, "prefix_walk", recording_walk)
    report = verify_certificate(cert)
    assert {status for _, status, _ in report} == {"agree"}
    assert rows == []


def test_construct_and_verify_form_no_generator_matrix(capsys, monkeypatch, tmp_path, t41_n1023):
    # orthogonality to a cyclic code is read off its generator polynomial, so
    # neither construct nor verify forms a k x n generator matrix, and no
    # product has an operand with more rows than max(n - k, |A|)
    cert_path = tmp_path / "t48.json"
    gen_calls, operand_rows = [], []

    def recording_gen(code, real=CyclicCode.generator_matrix):
        gen_calls.append(code)
        return real(code)

    def recording_mul(F, A, B, real=linalg.mat_mul):
        operand_rows.extend((np.shape(A)[0], np.shape(B)[0]))
        return real(F, A, B)

    monkeypatch.setattr(CyclicCode, "generator_matrix", recording_gen)
    monkeypatch.setattr(linalg, "mat_mul", recording_mul)
    for argv, path in [(["construct", *T48_N2047, "--format", "json", "-o", str(cert_path)], cert_path),
                       (["verify", str(cert_path)], cert_path), (["verify", str(t41_n1023)], t41_n1023)]:
        operand_rows.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 2) and "Traceback" not in err
        cert = json.loads(path.read_text(encoding="utf-8"))
        bound = max(cert["code"]["n"] - cert["code"]["k"], len(cert["locality"]["evidence"]["anchor_exponents"]))
        assert not gen_calls, argv
        assert max(operand_rows, default=0) <= bound, argv


def test_verify_malformed_exit1(capsys, tmp_path):
    # invalid JSON, and bytes that are not UTF-8
    path = tmp_path / "broken.json"
    for content in (b"{not json", b"\xff\xfe"):
        path.write_bytes(content)
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and err.startswith("malformed certificate:")
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, line", [
    (["verify"], "malformed certificate: "),
    (["search", "--grid"], "invalid grid config: "),
    (["table"], "cannot read results: "),
])
def test_deeply_nested_json_exit1(capsys, tmp_path, argv, line):
    # nesting deeper than the JSON decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.startswith(line) and "Traceback" not in err


def test_search_headline_grid(capsys):
    code, out, _ = run_cli(capsys, "search", "--grid", GRID)
    assert code == 0
    # byte-identical to the recorded grid output
    assert out == (Path(__file__).parent / "data" / "search_nondividing.csv").read_bytes().decode()
    lines = out.strip().splitlines()
    assert lines[0] == "family,q,n,r,delta,k,d,optimal,divides"
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    nondiv_optimal = [r for r in rows if r["optimal"] == "True" and r["divides"] == "False"]
    assert len(nondiv_optimal) >= 5
    assert any(r["n"] == "18" and r["k"] == "12" and r["d"] == "6" and r["r"] == "9" for r in rows)
    assert any(r["n"] == "17" and r["k"] == "8" and r["d"] == "8" and r["r"] == "7" for r in rows)


def test_search_empty_grid(capsys, tmp_path):
    grid = tmp_path / "empty.json"
    grid.write_text(json.dumps({"grids": []}))
    code, out, _ = run_cli(capsys, "search", "--grid", str(grid))
    assert code == 0
    assert out.strip() == "family,q,n,r,delta,k,d,optimal,divides"


def test_search_bad_point_reported_and_grid_continues(capsys, tmp_path):
    grid = tmp_path / "mixed.json"
    grid.write_text(json.dumps({"grids": [{"family": "C56", "q": [6, 13], "n": 7, "m": 2, "delta": [2]}]}))
    code, out, err = run_cli(capsys, "search", "--grid", str(grid))
    assert code == 1
    assert "NonPrime: 6 is not a prime power" in err and '"q": 6' in err
    assert "Traceback" not in err
    assert out.splitlines() == ["family,q,n,r,delta,k,d,optimal,divides", "C56,13,7,4,2,4,4,False,False"]


def test_search_invalid_grid(capsys, tmp_path):
    grid = tmp_path / "bad.json"
    grid.write_text("[]")
    code, _, err = run_cli(capsys, "search", "--grid", str(grid))
    assert code == 1 and "invalid grid" in err


def test_search_grid_point_with_negative_n_is_skipped(capsys, tmp_path):
    grid = tmp_path / "negative.json"
    grid.write_text(json.dumps({"grids": [{"family": "C42", "q": 11, "n": -10, "delta": 2, "r": 4, "ell": -4}]}))
    code, out, err = run_cli(capsys, "search", "--grid", str(grid))
    assert code == 0 and out.strip() == "family,q,n,r,delta,k,d,optimal,divides"
    assert "skipped 1 grid points" in err


# a T51 request whose fields validate but whose anchor x run is not closed
# under multiplication by q = 4 mod 5
T51_OPEN = {"family": "T51", "q": 4, "n": 5, "delta": 2, "m": 1, "tail": 2}


def test_construct_open_product_closure_exit1(capsys):
    argv = [f"--{key}={value}" for key, value in T51_OPEN.items()]
    code, out, err = run_cli(capsys, "construct", *argv)
    assert (code, out) == (1, "")
    assert err == "hypothesis violated: anchor x run closed under multiplication by q mod n\n"


def test_search_skips_open_product_closure_and_builds_the_rest(capsys, tmp_path):
    grid = tmp_path / "closure.json"
    grid.write_text(json.dumps({"grids": [T51_OPEN, {"family": "T48", "q": 31, "n": 30, "delta": 2, "m": 2}]}))
    code, out, err = run_cli(capsys, "search", "--grid", str(grid))
    assert code == 0
    assert out.splitlines() == ["family,q,n,r,delta,k,d,optimal,divides", "T48,31,30,20,2,23,6,False,False"]
    assert err == "skipped 1 grid points with violated hypotheses\n"


def test_verify_open_product_closure_request_disagrees(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    assert main(["construct", "--family", "C56", "--q", "13", "--n", "7", "--m", "2", "--delta", "2",
                 "--format", "json", "-o", str(cert_path)]) in (0, 2)
    cert = json.loads(cert_path.read_text())
    cert["optimality"]["request"] = {"family": "T51", "q": 4, "n": 5, "delta": 2, "m": 1, "tails": [2], "b": 1,
                                     "t": 0}
    cert_path.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", str(cert_path))
    assert (code, err) == (1, "")
    assert out == "disagree     request: hypothesis violated: anchor x run closed under multiplication by q mod n\n"


@pytest.mark.parametrize("block,detail", [
    ({"q": 19, "n": 18, "delta": 2, "m": 2}, "without a string family"),
    ({"family": "C56", "q": 13, "n": 7, "m": 2, "delta": "x"}, "delta must be an integer"),
    ({"family": "C56", "q": 13, "n": 7, "m": 2, "delta": [2, True]}, "delta must be an integer"),
    ({"family": "T41", "q": 19, "n": 18, "delta": 2, "m": 2, "tail": [[4, "6"]]}, "tail must be an integer"),
    ({"family": "C56", "q": 13, "n": 7, "m": 2, "delta": 2, "bogus": 1}, "unknown grid keys ['bogus']"),
    ({"family": "T41", "q": 19, "n": 18, "delta": 2, "m": 2, "tails": [4]}, "unknown grid keys ['tails']"),
    ({"family": "T41"}, "missing grid keys ['q', 'n', 'delta']"),
])
def test_search_refuses_malformed_block_before_any_build(capsys, tmp_path, monkeypatch, block, detail):
    def no_build(*args, **kwargs):
        raise AssertionError("built a point of a refused grid")

    monkeypatch.setattr("cyclrc.cli.build", no_build)
    grid = tmp_path / "malformed.json"
    good = {"family": "C56", "q": 13, "n": 7, "m": 2, "delta": 2}
    grid.write_text(json.dumps({"grids": [good, block]}))
    code, out, err = run_cli(capsys, "search", "--grid", str(grid))
    assert code == 1 and out == ""
    assert err.startswith("invalid grid config: ") and detail in err


def test_search_tail_lists_expand_as_tail_sets(capsys, tmp_path):
    # a list of tails is an axis; a list inside it is one point with several tails
    grid = tmp_path / "tails.json"
    grid.write_text(json.dumps({"grids": [{"family": "T41", "q": 19, "n": 18, "t": 1, "m": 5, "delta": 4,
                                           "tail": [8, [8, 12]]}]}))
    code, out, _ = run_cli(capsys, "search", "--grid", str(grid))
    assert code == 0
    assert [ln.split(",")[5] for ln in out.splitlines()[1:]] == ["8", "5"]  # k falls by delta-1 per tail


@pytest.mark.parametrize("command", ["construct", "search", "table"])
def test_unwritable_output_exit1_without_traceback(capsys, tmp_path, command):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grids": [{"family": "C56", "q": 13, "n": 7, "m": 2, "delta": 2}]}))
    rows = tmp_path / "rows.json"
    rows.write_text("[]")
    argv = {
        "construct": ["construct", "--family", "C56", "--q", "13", "--n", "7", "--m", "2", "--delta", "2"],
        "search": ["search", "--grid", str(grid)],
        "table": ["table", str(rows)],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / "no_such_dir" / "out"))
    assert code == 1 and out == ""
    assert err.startswith("cannot write output: ") and "Traceback" not in err


def test_table_renders_rows(capsys, tmp_path):
    rows = tmp_path / "rows.json"
    code, _, _ = run_cli(capsys, "search", "--grid", GRID, "--format", "json", "-o", str(rows))
    assert code == 0
    code, out, _ = run_cli(capsys, "table", str(rows))
    assert code == 0
    assert out.splitlines()[0].split()[:3] == ["family", "q", "n"]
    assert "C511" in out


def test_table_certificate_row_is_the_construct_csv_row(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    argv = ["construct", "--family", "C44", "--q", "19", "--n", "18", "--t", "1", "--m", "5", "--tail", "8",
            "--delta", "4"]
    assert run_cli(capsys, *argv, "--format", "json", "-o", str(cert))[0] == 0
    _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    code, out, _ = run_cli(capsys, "table", str(cert))
    assert code == 0
    assert [ln.split() for ln in out.splitlines()] == [ln.split(",") for ln in csv_out.splitlines()]


@pytest.mark.parametrize("doc", [[1], [{"optimality": {}}], "x", 5, [None]])
def test_table_unreadable_results_exit1(capsys, tmp_path, doc):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "table", str(path))
    assert code == 1 and out == ""
    assert err.startswith("cannot read results: ")


def test_budget_floor_rejected(capsys):
    for budget in ("10", "1e400", "inf"):
        code, _, err = run_cli(
            capsys, "construct", "--family", "P49", "--q", "19", "--n", "18",
            "--delta", "4", "--budget", budget,
        )
        assert code == 1
        assert "budget must be finite and at least" in err


@pytest.mark.parametrize("q", ["4^-1", "1^5", "0^3", "2^21", "1048583^2", "2^999999999"])
def test_field_size_power_rejected(capsys, q):
    code, out, err = run_cli(capsys, "construct", "--family", "C56", "--q", q, "--n", "7",
                             "--delta", "2", "--m", "2")
    assert code == 1 and out == ""
    assert "argument --q" in err and "need p >= 2, m >= 1" in err


def test_field_size_above_cap_refused_before_factoring(capsys):
    # q = 2^61 - 1 passes validation (18 | q-1); trial division of it was
    # still running after 20 s, so the cap must come first
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "--family", "P49", "--q", str(2**61 - 1),
                             "--n", "18", "--delta", "2")
    assert code == 1 and out == ""
    assert "SizeCapExceeded" in err and "Traceback" not in err
    assert time.perf_counter() - start < 5


def test_corrupted_corpus_identified(tmp_path):
    from cyclrc.golden import run_corpus

    bad = tmp_path / "corpus.json"
    for text in ('{"schema": 1', '{"schema": 1, "entries": ["name kind expect"]}'):
        bad.write_text(text)
        results = run_corpus(path=str(bad))
        assert len(results) == 1 and not results[0].ok
        assert results[0].check == "well-formed golden data" and "corpus.json" in results[0].detail


def test_verify_sandwich_certificate(capsys, tmp_path):
    # a non-optimal build whose distance stays a sandwich still verifies
    path = tmp_path / "sandwich.json"
    code, _, _ = run_cli(
        capsys, "construct", "--family", "T51", "--q", "64", "--n", "65",
        "--delta", "4", "--t", "49", "--m", "33",
        "--tail", "36", "--tail", "41", "--tail", "46",
        "--tail", "51", "--tail", "56", "--tail", "61",
        "--format", "json", "-o", str(path),
    )
    assert code == 2
    cert = json.loads(path.read_text())
    assert cert["optimality"]["d_exact"] is None
    assert (cert["optimality"]["d_lower"], cert["optimality"]["d_upper"]) == (36, 39)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and "disagree" not in out


@pytest.mark.parametrize("exact,exit_code", [(37, 2), (37.0, 1), (40, 1)])
def test_verify_distance_settled_at_a_larger_budget(capsys, tmp_path, exact, exit_code):
    # a distance inside this budget's sandwich [36, 39], settled by a method
    # this budget cannot run, is inconclusive; one outside it, or a float,
    # disagrees
    path = tmp_path / "sandwich.json"
    run_cli(capsys, "construct", "--family", "T51", "--q", "64", "--n", "65", "--delta", "4", "--t", "49",
            "--m", "33", *(f"--tail={t}" for t in (36, 41, 46, 51, 56, 61)), "--format", "json", "-o", str(path))
    cert = json.loads(path.read_text())
    cert["optimality"].update(d_lower=exact, d_exact=exact, distance_method="zero_core")
    path.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == exit_code and "Traceback" not in err
    status = "inconclusive" if exit_code == 2 else "disagree"
    assert [ln.split()[:2] for ln in out.splitlines() if not ln.startswith("agree")] == [[status, "distance:"]]


P49_ARGV = ["construct", "--family", "P49", "--q", "19", "--n", "18", "--delta", "4", "--t", "0", "--b", "1"]
T48_ARGV = ["construct", "--family", "T48", "--q", "31", "--n", "30", "--delta", "2", "--m", "2"]
C44_ARGV = ["construct", "--family", "C44", "--q", "19", "--n", "18", "--delta", "4", "--t", "1", "--m", "5",
            "--tail", "8"]


def _set(path, value):
    def tamper(cert):
        *head, last = path
        for key in head:
            cert = cert[key]
        cert[last] = value(cert[last]) if callable(value) else value
    return tamper


def _edits(*tampers):
    def tamper(cert):
        for t in tampers:
            t(cert)
    return tamper


@pytest.mark.parametrize("argv,tamper", [
    # the singleton-like hint of a claimed r = 1 used to invert the distance sandwich
    (P49_ARGV, _set(("optimality", "r"), 1)),
    # a group outside the coordinates used to crash the punctured scan
    (P49_ARGV, _set(("locality", "groups"), lambda g: g + [[0, 99]])),
    # r = 8 puts the Singleton-like bound at 11, above d = 8
    (P49_ARGV, _edits(_set(("optimality", "r"), 8), _set(("locality", "r"), 8))),
    (T48_ARGV, _edits(_set(("locality", "r"), 1), _set(("optimality", "k"), 99),
                      _set(("optimality", "divides"), lambda b: not b), _set(("optimality", "d_claim"), 1))),
    (C42_ARGV + ["--i", "0", "--ell", "0"],
     _edits(_set(("locality", "dA_perp"), 99), _set(("locality", "evidence", "run_exponents"), [5]),
            _set(("locality", "evidence", "dual_lower"), 42))),
    # h0_word[0] is 1; the generator product casts to int64, which read 1.5 and true as 1
    (C44_ARGV, _set(("locality", "evidence", "h0_word", 0), 1.5)),
    (C44_ARGV, _set(("locality", "evidence", "h0_word", 0), True)),
], ids=["p49_r1", "p49_group_out_of_range", "p49_r8", "t48_four_edits", "c42_dual_and_run",
        "c44_h0_float", "c44_h0_bool"])
def test_verify_edited_certificate_exit1_without_traceback(capsys, tmp_path, argv, tamper):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, *argv, "--format", "json", "-o", str(path))
    assert code in (0, 2)
    cert = json.loads(path.read_text())
    tamper(cert)
    path.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and "Traceback" not in err
    assert "malformed certificate" in err or any(ln.startswith("disagree") for ln in out.splitlines())


def test_verify_refuses_a_heavier_dual_word_than_the_pinned_distance(capsys, tmp_path):
    # h0 plus its shift by one is a dual word of weight 18 of the P410 anchor
    # code; the certificate the shared assembly makes of it (r = 15, dual
    # bounds 18, exact) is consistent in every leaf, and only the pinned dual
    # distance 2*delta+1 = 9 refutes it
    import numpy as np

    from cyclrc.constructions import ConstructionRequest, _assemble, _certificate, _optimality, build
    from cyclrc.locality import locality_record

    request = ConstructionRequest(family="P410", q=19, n=18, delta=4)
    res = build(request)
    h0 = np.array(res.certificate["locality"]["evidence"]["h0_word"])
    req, anchor, run = _assemble(request)
    loc = locality_record(anchor, run, res.code.field.vadd(h0, np.roll(h0, 1)), True, req.delta)
    assert (loc["dA_perp"], loc["r"], loc["evidence"]["dual_lower"]) == (18, 15, 18)
    cert, broken = _certificate(request, req, res.code, loc, _optimality(res.code, req, loc, 10**9))
    assert [claim for claim, _, _ in broken] == ["anchor dual bounds"]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and "Traceback" not in err
    assert [ln.split(":")[0].split(None, 1) for ln in out.splitlines() if ln.startswith("disagree")] == [
        ["disagree", "anchor dual bounds"]]


# the three digest-pinned requests, the P49 one and a non-optimal T48 one
PERTURBED = {
    "n24_case1": dict(family="C52", q=23, n=24, delta=4, r=3, i=1, ell=1, case=1),
    "n18_single_tail_delta2": dict(family="C44", q=19, n=18, delta=2, t=1, m=5, tails=(8,)),
    "n17_nondividing_delta3": dict(family="C511", q=16, n=17, delta=3, m=6),
    "p49": dict(family="P49", q=19, n=18, delta=4),
    "t48": dict(family="T48", q=31, n=30, delta=2, m=2),
}


def perturbations(node, path=()):
    """(path, value) for each edit: int +-1, to float and to bool; bool
    flipped and to int; string changed; each scalar wrapped in a list; one
    extra key in each record; and the same on the first entry of each list."""
    if isinstance(node, dict):
        yield path + ("proof",), "trust me"
        for key in sorted(node):
            yield from perturbations(node[key], path + (key,))
        return
    if isinstance(node, list):
        if node:
            yield from perturbations(node[0], path + (0,))
        return
    if isinstance(node, bool):
        yield path, not node
        yield path, int(node)
    elif isinstance(node, int):
        yield path, node + 1
        yield path, node - 1
        yield path, float(node)
        yield path, bool(node)
    elif isinstance(node, str):
        yield path, node + "x"
    yield path, [node]


@pytest.mark.parametrize("name", sorted(PERTURBED))
def test_verify_rejects_every_perturbed_leaf(capsys, tmp_path, name):
    from cyclrc.constructions import ConstructionRequest, build

    text = json.dumps(build(ConstructionRequest(**PERTURBED[name])).certificate)
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert run_cli(capsys, "verify", str(path))[0] == 0
    passed = []
    for leaf, value in perturbations(json.loads(text)):
        cert = json.loads(text)
        _set(leaf, value)(cert)
        path.write_text(json.dumps(cert))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert "Traceback" not in err
        if code == 0:
            passed.append(f"{'.'.join(map(str, leaf))} = {value!r}")
    assert not passed, f"verify accepted perturbed certificates: {passed}"


USAGE = "usage: cyclrc [-h] {construct,verify,search,table,selftest} ..."
# well formed for argparse, but a value starting with "-" is left to it
DEFERRED = [[*C42_ARGV, "--t", "-3"], [*C42_ARGV, "-o", "-"]]
# argv that end in help, a usage error, a handler's error or a flag form only
# argparse reads, each with its exit and a piece of its output; each prints and
# exits the same whether `main` tries the option table first or goes straight
# to argparse
PARSER_CASES = [
    (["--help"], 0, USAGE),
    (["-h"], 0, USAGE),
    *(([command, "-h"], 0, f"usage: cyclrc {command} [-h]") for command in cli.COMMANDS),
    ([], 1, "cyclrc: error: the following arguments are required: command\n"),
    (["bogus"], 1, "cyclrc: error: argument command: invalid choice: 'bogus'"),
    (["verify", "a", "b"], 1, f"{USAGE}\ncyclrc: error: unrecognized arguments: b\n"),
    (["verify", "missing.json"], 1, "malformed certificate: "),
    (["construct", "--family", "C42"], 1, "error: the following arguments are required: --q, --n, --delta"),
    ([*C42_ARGV, "--budget", "1e3"], 1, "error: argument --budget: budget must be finite"),
    ([*C42_ARGV[:4], "5^0", *C42_ARGV[5:]], 1, "error: argument --q: 5^0: need p >= 2"),
    ([*C42_ARGV[:4], "abc", *C42_ARGV[5:]], 1, "error: argument --q: abc: need an integer or p^m\n"),
    ([*C42_ARGV[:4], "5^x", *C42_ARGV[5:]], 1, "error: argument --q: 5^x: need an integer or p^m\n"),
    ([*C42_ARGV, "--budget", "abc"], 1, "error: argument --budget: abc: not a number\n"),
    *((argv, 0, '"request": {') for argv in DEFERRED),
]


@pytest.mark.parametrize("argv,exit,piece", [
    pytest.param(*case, id=" ".join(case[0]) or "(empty)") for case in PARSER_CASES
])
def test_one_subcommand_parser_prints_as_the_full_parser(capsys, monkeypatch, argv, exit, piece):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    first = run_cli(capsys, *argv)
    assert first[0] == exit and piece in first[1] + first[2]
    assert "_field_size" not in first[2] and "_budget" not in first[2]
    monkeypatch.setattr(cli, "_match", lambda argv: None)
    assert run_cli(capsys, *argv) == first


@pytest.mark.parametrize("argv", DEFERRED, ids=" ".join)
def test_matcher_defers_values_starting_with_a_dash(argv):
    assert cli._match(argv) is None
    assert cli.build_parser().parse_args(argv).family == "C42"


# option strings of every subcommand, forms only argparse reads, and values
# that argparse reads in more than one way or refuses
ANY_FLAG = sorted({name for _, arguments in cli.OPTIONS.values() for names, _ in arguments for name in names}
                  | {"-h", "--help", "--fam", "--q=19", "-o-"})
VALUES = ["", "-3", "-", "--", "5^3", "1e9", "nan", "19", "2", "C42", "json", "pretty", "x.json", "1e7"]
# each subcommand's well-formed arguments, in chunks that may come in any order
WELL_FORMED = {
    "construct": [C42_ARGV[i:i + 2] for i in range(1, len(C42_ARGV), 2)],
    "verify": [["cert.json"]],
    "search": [["--grid", "grid.json"]],
    "table": [["rows.json"]],
    "selftest": [],
}


@st.composite
def cli_argv(draw):
    """A subcommand's well-formed chunks, some repeated, mixed with flags and
    values, shuffled, with up to two tokens cut off the end."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", "-h"]))
    base = WELL_FORMED.get(command, [])
    own = [name for names, _ in cli.OPTIONS.get(command, ("", ()))[1] for name in names if name[0] == "-"]
    flag = st.sampled_from(own) | st.sampled_from(ANY_FLAG) if own else st.sampled_from(ANY_FLAG)
    extra = st.tuples(flag, st.sampled_from(VALUES)).map(list) | st.sampled_from(ANY_FLAG + VALUES).map(
        lambda token: [token])
    chunks = [*base, *draw(st.lists(st.sampled_from(base), max_size=2) if base else st.just([])),
              *draw(st.lists(extra, max_size=3))]
    tokens = [token for chunk in draw(st.permutations(chunks)) for token in chunk]
    return [command, *tokens[:len(tokens) - draw(st.integers(0, 2))]]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argv())
def test_matcher_agrees_with_argparse(argv):
    ns = cli._match(argv)
    if ns is None:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"matched argv that argparse refuses: {argv}")
    assert vars(ns) == vars(expected)


@pytest.mark.parametrize("argv", [
    C42_ARGV,
    [*C42_ARGV, "--tail", "3", "--tail", "4", "--format", "csv", "-o", "out.csv", "--budget", "1e9"],
    ["verify", "--budget", "1e7", "cert.json"],
    ["search", "--grid", "grid.json", "--format", "json", "--output", "rows.json"],
    ["table", "rows.json", "-o", "table.txt"],
    ["selftest"],
    ["selftest", "--golden-only", "--budget", "1e7"],
], ids=" ".join)
def test_matcher_reads_well_formed_argv(argv):
    assert vars(cli._match(argv)) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["search", "--grid", "grid.json", "--format", "pretty"],
    [*C42_ARGV[:2], "C43", *C42_ARGV[3:]],
    [*C42_ARGV, "--format"],
    [*C42_ARGV, "extra"],
    ["table"],
], ids=" ".join)
def test_matcher_leaves_usage_errors_to_argparse(capsys, argv):
    assert cli._match(argv) is None
    assert run_cli(capsys, *argv)[0] == 1


def test_well_formed_calls_add_no_parser(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cert.json"
    added = []
    real = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert run_cli(capsys, *C42_ARGV, "--format", "json", "-o", str(path))[0] == 0
    assert run_cli(capsys, "verify", str(path))[0] == 0
    assert added == []
    assert run_cli(capsys, "bogus")[0] == 1
    assert added == list(cli.COMMANDS)


def test_well_formed_calls_import_no_argparse_gettext_or_csv(tmp_path):
    path = tmp_path / "cert.json"
    script = (
        "import sys\n"
        "from cyclrc.cli import main\n"
        f"for argv in ({[*C42_ARGV, '--format', 'json', '-o', str(path)]!r}, ['verify', {str(path)!r}]):\n"
        "    code = main(argv)\n"
        "    loaded = sorted({'argparse', 'gettext', 'csv'} & set(sys.modules))\n"
        "    if code or loaded:\n"
        "        sys.exit(f'{argv[0]}: exit {code}, loaded {loaded}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_main_calls_the_handlers_as_module_attributes(capsys, monkeypatch):
    # a tracer that wraps cmd_construct or cmd_verify in the module sees the call
    calls = []
    monkeypatch.setattr(cli, "cmd_construct", lambda args: calls.append(("construct", args.family)) or 0)
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(("verify", args.certificate)) or 2)
    assert run_cli(capsys, *C42_ARGV) == (0, "", "")
    assert run_cli(capsys, "verify", "cert.json") == (2, "", "")
    assert calls == [("construct", "C42"), ("verify", "cert.json")]


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cert.json"
    assert run_cli(capsys, *C42_ARGV, "--format", "json", "-o", str(path))[0] == 0
    expected = run_cli(capsys, "verify", str(path))
    monkeypatch.setattr(sys, "argv", ["cyclrc", "verify", str(path)])
    code = main()
    out = capsys.readouterr()
    assert (code, out.out, out.err) == expected
    assert code == 0 and "agree" in out.out
