import hashlib
import json

import pytest

from braidrep import horo, suites
from braidrep.cli import build_parser, main
from braidrep.cyclo import CycloNum
from braidrep.linalg import matrix_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gram_human(capsys):
    code, out, _ = run_cli(capsys, "gram", "--d", "5", "--kappa", "1,1,1,1,1", "--k", "1")
    assert code == 0
    assert "eps0      = 1" in out
    assert "dimension = 3" in out
    assert "signature = (0, 3)" in out


def test_gram_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "gram", "--d", "6", "--kappa", "2,3,4", "--k", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eps0"] == 0
    gram = matrix_from_json(doc["gram"])
    assert gram.rows == gram.cols == 2
    assert gram.conj_transpose() == -gram


def test_gram_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "gram", "--d", "3", "--kappa", "3,1,1", "--k", "1")
    assert code == 2
    assert "ExponentDivisible" in err


def test_gram_not_primitive(capsys):
    code, _, err = run_cli(capsys, "gram", "--d", "4", "--kappa", "1,1,1", "--k", "2")
    assert code == 2
    assert "NotPrimitive" in err


def test_rep_empty_word_is_identity(capsys):
    code, out, _ = run_cli(
        capsys, "rep", "--d", "5", "--kappa", "1,1,2,1", "--k", "1", "--word", "", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    m = matrix_from_json(doc["matrix"])
    assert all(
        (str(m.entry(i, j)) == "1") == (i == j) for i in range(m.rows) for j in range(m.cols)
    )


def test_rep_det_and_full_twist(capsys):
    code, out, _ = run_cli(
        capsys, "rep", "--d", "5", "--kappa", "1,1,2,1", "--k", "1",
        "--word", "A(1,2)", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["det"] == ["0", "0", "1", "0"]  # q^{k_1+k_2} = zeta^2

    code, out, _ = run_cli(
        capsys, "rep", "--d", "5", "--kappa", "1,1,2,1", "--k", "1",
        "--word", "FT(1,3) T(3)^-1", "--json",
    )
    doc = json.loads(out)
    m = matrix_from_json(doc["matrix"])
    ident = m.identity(m.d, m.rows)
    assert m == ident


def test_rep_det_is_det_of_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "rep", "--d", "7", "--kappa", "1,2,3,4,1", "--k", "3",
        "--word", "A(1,3)^-1 T(2) FT(2,4)^-1 A(2,5) T(4)^-1", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["det"] == [str(c) for c in matrix_from_json(doc["matrix"]).det().coeffs]


def test_rep_quotient_requires_eps0(capsys):
    code, _, err = run_cli(
        capsys, "rep", "--d", "5", "--kappa", "1,1,1", "--k", "1",
        "--word", "A(1,2)", "--quotient",
    )
    assert code == 2
    assert "NotDegenerate" in err


def test_density_command(capsys):
    code, out, _ = run_cli(capsys, "density", "--d", "7", "--kappa", "1,1,1,1,1,1", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "maximal"


def test_arithmeticity_command(capsys):
    code, out, _ = run_cli(capsys, "arithmeticity", "--d", "12", "--kappa", "7,5,4,4,4", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "unknown"
    code, out, _ = run_cli(capsys, "arithmeticity", "--d", "5", "--kappa", "1,1,3,2,2,1", "--json")
    doc = json.loads(out)
    assert doc["verdict"] == "arithmetic"
    assert doc["witness"] == [1, 2, 3]


def test_horo_command(capsys):
    code, out, _ = run_cli(
        capsys, "horo", "--d", "5", "--kappa", "1,1,3,2,2,1", "--m", "3", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["ranks"] == {"lower": 4, "upper": 4, "center": 2}
    assert doc["witnesses"]["lower"]


def test_horo_bad_m(capsys):
    code, _, err = run_cli(capsys, "horo", "--d", "5", "--kappa", "1,1,3,2,2,1", "--m", "4")
    assert code == 2
    assert "BadM" in err


def test_horo_no_witness(capsys):
    # n = 4, m = 2: m < 3 and n - m < 3, so neither witness exists
    code, _, err = run_cli(capsys, "horo", "--d", "3", "--kappa", "1,2,1,2", "--m", "2")
    assert code == 2
    assert "BadM" in err


def test_horo_maxlen_negative(capsys):
    code, _, err = run_cli(
        capsys, "horo", "--d", "5", "--kappa", "1,1,3,2,2,1", "--m", "3", "--maxlen", "-1"
    )
    assert code == 2
    assert "InvalidParameter" in err


def test_horo_maxlen_zero(capsys):
    code, out, _ = run_cli(
        capsys, "horo", "--d", "5", "--kappa", "1,1,3,2,2,1", "--m", "3",
        "--maxlen", "0", "--json",
    )
    assert code == 1  # rank targets are missed at maxlen 0
    doc = json.loads(out)
    assert doc["ranks"]["lower"] == 1
    assert doc["ranks"]["upper"] == 1


def test_horo_maxlen_at_limit(capsys):
    code, out, _ = run_cli(
        capsys, "horo", "--d", "5", "--kappa", "1,1,3,2,2,1", "--m", "3", "--maxlen", "8", "--json",
    )
    assert code == 0
    assert json.loads(out)["ranks"] == {"lower": 4, "upper": 4, "center": 2}


def test_horo_maxlen_above_limit(capsys):
    code, out, err = run_cli(
        capsys, "horo", "--d", "5", "--kappa", "1,1,3,2,2,1", "--m", "3", "--maxlen", "9"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: InvalidParameter") and "Traceback" not in err


def test_horo_json_is_pinned(capsys):
    # SHA-256 of documents recorded from earlier code: both witnesses (the exact
    # Fraction-based Q side), then the lower witness only and the upper witness
    # only (the per-witness branches of horo_report)
    cases = [
        ("11", "1,1,9,1,1,1,1,1,6", "3",
         "524ff0d58dae8e35c41f6102f0c303a2615feddfe201230c233b7348a4752ceb"),
        ("5", "1,1,3,2,3", "3",
         "af81137e0f4d15829986f23ca06664486c13e444a109fe5a4ee7044b37563cd0"),
        ("5", "2,3,1,1,1,2", "2",
         "d14eba36110923758a4b268bfe154df5ec3e48be72995dc65d2e1cfb19f81a56"),
    ]
    for d, kappa, m, digest in cases:
        code, out, _ = run_cli(capsys, "horo", "--d", d, "--kappa", kappa, "--m", m, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (d, kappa, m)


def test_horo_orbit_off_its_block_exits_2(capsys, monkeypatch):
    # an orbit action that leaves the part's block breaks a named invariant
    monkeypatch.setattr(horo, "_row_action",
                        lambda fc, lam, c_inv, x: (CycloNum.one(fc.ctx.d),) * len(x))
    code, out, err = run_cli(capsys, "horo", "--d", "5", "--kappa", "1,1,3,2,2,1", "--m", "3")
    assert code == 2
    assert err.startswith("error: ConstraintViolation: ") and "Traceback" not in err


def test_verify_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "lantern", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "lantern", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_all_within_budget(capsys):
    import time

    start = time.monotonic()
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "1")
    elapsed = time.monotonic() - start
    assert code == 0
    assert "total:" in out and " 0 failed" in out
    assert elapsed < 300


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def _tally(out):
    """The human verify report: per-suite (name, status, passed, failed) and
    the totals line."""
    lines = [line for line in out.splitlines() if not line.startswith("  FAIL")]
    rows = []
    for line in lines[:-1]:
        name, status, passed, _, failed, _ = line.replace(",", "").split()
        rows.append((name, status, int(passed), int(failed)))
    return rows, lines[-1]


def test_verify_json_totals_equal_the_tally(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "3")
    jcode, jout, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "3", "--json")
    assert jcode == code == 0
    doc = json.loads(jout)
    rows, total = _tally(out)
    assert total == (f"total: {doc['passed']} passed, {doc['failed']} failed"
                     f" (seed={doc['seed']}, size={doc['size']})")
    assert rows == [(s["suite"], "PASS" if not s["failed"] else "FAIL", s["passed"], s["failed"])
                    for s in doc["suites"]]
    assert [s["suite"] for s in doc["suites"]] == list(suites.SUITE_NAMES)
    for s in doc["suites"]:
        assert sum(v["passed"] for v in s["invariants"].values()) == s["passed"]


def test_verify_json_failure_exit_code(capsys, monkeypatch):
    def failing(names, seed, size):
        rep = suites.SuiteReport("forms")
        rep.check(True, "holds")
        rep.check(False, "breaks", "detail")
        return [rep]

    monkeypatch.setattr(suites, "run_suites", failing)
    code, out, _ = run_cli(capsys, "verify", "--suite", "forms")
    jcode, jout, _ = run_cli(capsys, "verify", "--suite", "forms", "--json")
    assert code == jcode == 1
    doc = json.loads(jout)
    assert (doc["passed"], doc["failed"]) == (1, 1)
    assert doc["suites"][0]["failures"] == out.splitlines()[1].split("FAIL ", 1)[1:]
    assert _tally(out)[1] == "total: 1 passed, 1 failed (seed=0, size=1)"


def _run_any(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_reused(capsys):
    """Consecutive main calls share one parser and print what a freshly
    built parser prints, across subcommands and argparse errors."""
    argvs = [
        ("density", "--d", "7", "--kappa", "1,2,4", "--json"),
        ("gram", "--d", "5", "--kappa", "1,1,1,1,1"),
        ("verify", "--suite", "bogus"),
        ("rep", "--d", "5", "--kappa", "1,1,2,1", "--word", "FT(1,3) A(2,4)^-1"),
        ("horo", "--d", "5", "--kappa", "1,1,3"),
        ("gram", "--d", "4", "--kappa", "1,1,1", "--k", "2"),
        ("arithmeticity", "--d", "6", "--kappa", "1,1,1,1,1,1", "--json"),
        ("density", "--d", "7", "--kappa", "1,2,4", "--json"),
    ]
    build_parser.cache_clear()
    consecutive = [_run_any(capsys, argv) for argv in argvs]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(_run_any(capsys, argv))
    assert consecutive == fresh
    assert [code for code, _, _ in consecutive] == [0, 0, 2, 0, 2, 2, 0, 0]
    assert consecutive[0] == consecutive[-1]
