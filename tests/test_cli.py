import hashlib
import json
import math
import random

import pytest

from braidrep import cli, horo, suites
from braidrep.cli import build_parser, main
from braidrep.cyclo import CycloNum, _field_data, from_strings, units
from braidrep.linalg import CycloMatrix, matrix_from_json
from braidrep.rep import MAX_DEGREE, RepContext, make_context


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
    # the orbits are read whole: there is no word-length budget to set, at
    # any value
    for maxlen in ("6", "-1"):
        argv = ["horo", "--d", "5", "--kappa", "1,1,3,2,2,1", "--m", "3", "--maxlen", maxlen]
        code, out, err = _run_any(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: braidrep") and f"unrecognized arguments: --maxlen {maxlen}" in err
        assert "Traceback" not in err


def test_horo_orbits_longer_than_eight_levels(capsys):
    # at n = 6, d = 47 both orbits reach full rank 46 only at word length
    # 12; the battery reads the whole spun orbits
    code, out, _ = run_cli(capsys, "horo", "--d", "47", "--kappa", "1,1,45,1,1,45", "--m", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ranks"] == {"lower": 46, "upper": 46, "center": 23}
    assert doc["failures"] == []


def test_degree_above_the_limit_exits_2_before_any_table(capsys):
    """gram, rep and horo reject d > MAX_DEGREE with a named error and no
    traceback before a field table is built; arithmeticity stays unlimited."""
    tables = _field_data.cache_info().currsize
    for d in (str(MAX_DEGREE + 1), "99999999999"):
        for argv in (["gram", "--kappa", "1,1,1"], ["rep", "--kappa", "1,2,3", "--word", "A(1,2)"],
                     ["horo", "--kappa", "1,1,3,2,2,1", "--m", "3"]):
            code, out, err = run_cli(capsys, *argv, "--d", d)
            assert code == 2 and out == "", argv
            assert err.startswith("error: InvalidParameter") and "Traceback" not in err, argv
    assert _field_data.cache_info().currsize == tables
    assert run_cli(capsys, "arithmeticity", "--d", "99999999999", "--kappa", "1,2,3")[0] == 0


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


def test_horo_json_reads_back_to_the_library_values(capsys):
    # the one encoder of the CLI writes the report's field elements, and
    # from_strings reads them back to the values the library returns
    d, kappa, m = 11, (1, 1, 9, 1, 1, 1, 1, 7), 3
    code, out, _ = run_cli(capsys, "horo", "--d", str(d), "--kappa", ",".join(map(str, kappa)),
                           "--m", str(m), "--json")
    assert code == 0
    doc = json.loads(out)
    fc = horo.make_flag(make_context(d, kappa, 1), m)
    vectors, _ = horo.center_lattice_vectors(fc)
    assert [tuple(from_strings(d, e) for e in v) for v in doc["center_vectors"]] == vectors
    for part in (horo.LOWER, horo.UPPER):
        assert tuple(from_strings(d, e) for e in doc["translation_parts"][part]) == horo.part_witness(fc, part)


def test_json_encoder_rejects_other_types():
    # as json itself does: only field elements and matrices get a form
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._print_json({"x": {1, 2}})


def _rep_argvs():
    """12 seeded 16-letter words at d 19/23/25, n=7, every other one on an
    eps0 = 1 context pushed to the quotient, then one 240-letter word at
    d=25 whose running product outgrows the int64 bound of linalg.word_product
    at letter 170."""
    rng = random.Random(2026)
    n, argvs = 7, []

    def letter():
        kind = rng.randrange(3)
        if kind == 0:
            i = rng.randint(1, n - 1)
            text = f"A({i},{rng.randint(i + 1, n)})"
        elif kind == 1:
            text = f"T({rng.randint(2, n - 1)})"
        else:
            s = rng.randint(1, n - 1)
            text = f"FT({s},{rng.randint(s + 1, n)})"
        return text + "^-1" * rng.randrange(2)

    for w in range(13):
        d = 25 if w == 12 else (19, 23, 25)[w % 3]
        quotient = w % 2 == 1
        while True:
            kappa = [rng.randint(1, d - 1) for _ in range(n)]
            if quotient:
                kappa[-1] = -sum(kappa[:-1]) % d
            if kappa[-1] and math.gcd(d, *kappa) == 1 and (sum(kappa) % d == 0) == quotient:
                break
        k = rng.choice(tuple(units(d)))
        word = " ".join(letter() for _ in range(16 if w < 12 else 240))
        argv = ["rep", "--d", str(d), "--kappa", ",".join(map(str, kappa)), "--k", str(k),
                "--word", word]
        argvs.append(argv + ["--quotient"] if quotient else argv)
    return argvs


# SHA-256 of the JSON and of the human output of each _rep_argvs() command,
# recorded from the schoolbook word product (no int64 kernel)
REP_DIGESTS = [
    ("40fe7c4c6954b54a17d85c574f92ee4b51f6cc62b1791027ab57865bbf5f33c3",
     "2047585b5408c7bd840e51477a8ba4023bf9acfefc22fc763b0531f6f2ec456e"),
    ("4315209e6a8726e0586df0887dfce751f91cca6142f5a77eea4f5f4463fd6bb8",
     "2b997d561596b806b4312edeb96fac859873f1de26bd0a17a004fe1ee85da037"),
    ("1d7233b7def3b05819781ff71940d3b87b8bd90813d9108685945b12c79d8eb9",
     "727ce8159e7bba5f958cfa11d54109ce9d0c13ff992bd29ecb38d7249e55093b"),
    ("fc09554a5df933eb462cff1d94ec68373a0296574107309b9e7ab710bd2723df",
     "e05d4fe14fc01ad51ad5e879b83b44f08560159cacb4345bcf754ade4dccb116"),
    ("71b4af5da1eba4032a0e6287ce55167d555744dc51d9bd88e2598b237d4647e3",
     "337f4bb2c3cff7d4ec4b8bb9bda82ea89f8a2dae17df8ca8e3333ef437bd494d"),
    ("869f8cb942f66a13d13ba1aae92d0cb1eb556bfda37bb1af2841d3ced74e7642",
     "b2b40ebeea5b8db62232ebffb2d149e33c2d3b85c6e77c026c2033dbf13a5709"),
    ("85de955dd04575734195e120ee783e2be999a702173ffaa73f733c81da056745",
     "01c1af952a5d571ac0389a19eedb38bb964445920fe69c02c52f8b5688a3809f"),
    ("e63e97665bbf997c28eb872b59ec1f817ebf90725dbdca0525b90c0f07134886",
     "6c0d5b5bdb5e774dfcff6f4adbb04a63ac3a53f6dd196bd6b54d2032c4dc2853"),
    ("f07ec118a017ec23462f9b7667abbb8a05dbe7389881f0e2d1b0155c14be3525",
     "710a160b6547b033b689e7c1ba462ef11d277698fe6ba93233ff45f8b368e03b"),
    ("8eaa4c959c0d04fdb0e4d94f4524e1626144d59985ccd7017621937246f70632",
     "c9fd8b8f61b66f28a4c1b9663f7a19f1a6459e740a1cc0ae6d5c7e8745242b86"),
    ("7df7a3a21951199c0340bccb001062ef1e9ce84470745b708f74be29eb1fe72f",
     "34890feff094d1769902e361770fb72193833114dc8a2c393660ddc16d151476"),
    ("67fc78ce486a7aeea07a58bc79176e8c3744b3928f6d24b01c3288a2804e2297",
     "e81eff96465c151829cd7485310009a7e55894a4d750ca40b904e0691b7b8f9a"),
    ("75826b6227ad49cec6c52a525fa42a35d27b2bf6b4480faf0aa5da537ebb325f",
     "51499d08c5e2275aa28c776ef2dca37052c8da890b81e11c4a9905fb747457fb"),
]


def test_rep_json_is_pinned(capsys):
    argvs = _rep_argvs()
    assert len(argvs) == len(REP_DIGESTS)
    for argv, (json_digest, human_digest) in zip(argvs, REP_DIGESTS):
        for flags, digest in (["--json"], json_digest), ([], human_digest):
            code, out, _ = run_cli(capsys, *argv, *flags)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv[:6] + flags


def test_rep_and_quotient_never_build_the_gram(capsys, monkeypatch):
    def no_gram(ctx):
        raise AssertionError("rep built the Gram matrix")

    monkeypatch.setattr(RepContext, "gram", property(no_gram))
    for argv, (json_digest, _) in zip(_rep_argvs(), REP_DIGESTS):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == json_digest, argv[:6]
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "gram", "--d", "12", "--kappa", "7,5,4,4,4", "--k", "5", "--json")
    assert code == 0
    assert matrix_from_json(json.loads(out)["gram"]) == make_context(12, (7, 5, 4, 4, 4), 5).gram


def test_horo_orbit_off_its_block_exits_2(capsys, monkeypatch):
    # an orbit action whose C^-1 moves its part's block off the block breaks
    # a named invariant
    real = horo._letter_action

    def off_block(fc, letter):
        lam, c_inv = real(fc, letter)
        ones = [[CycloNum.one(fc.ctx.d)] * c_inv.cols for _ in range(c_inv.rows)]
        return lam, CycloMatrix.from_rows(fc.ctx.d, ones)

    monkeypatch.setattr(horo, "_letter_action", off_block)
    code, out, err = run_cli(capsys, "horo", "--d", "5", "--kappa", "1,1,3,2,2,1", "--m", "3")
    assert code == 2
    assert err.startswith("error: ConstraintViolation: ") and "Traceback" not in err


def test_horo_orbits_closing_short_name_their_rank(capsys, monkeypatch):
    # actions with zero images close each orbit at its witness: the center
    # lattice names the rank the orbits closed at, and advises nothing
    monkeypatch.setattr(horo, "_row_action",
                        lambda fc, lam, c_inv, x: (CycloNum.zero(fc.ctx.d),) * len(x))
    code, out, err = run_cli(capsys, "horo", "--d", "5", "--kappa", "1,1,3,2,2,1", "--m", "3")
    assert (code, out) == (2, "")
    assert err == "error: NoNonzeroPairing: orbits close at rank 2 < 8\n"


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


@pytest.mark.parametrize("size", ["0", "-3"])
def test_verify_size_below_one_exits_2(capsys, size):
    code, out, err = run_cli(capsys, "verify", "--suite", "forms", "--size", size)
    assert code == 2
    assert out == ""
    assert err == f"error: InvalidParameter: size must be >= 1, got {size}\n"


def test_forms_inverse_check_fails_a_wrong_candidate(monkeypatch):
    # the inverse identity is checked as M (G^-1 M* G) == I: with G^-1 off in
    # one entry, every candidate is wrong, and every such check must fail
    name = "inverse identity M^-1 = G^-1 M* G"
    honest = suites.suite_forms(5).by_identity
    real = CycloMatrix.inverse

    def perturbed(m):
        inv = real(m)
        return inv + CycloMatrix.diagonal(m.d, [CycloNum.one(m.d)] + [CycloNum.zero(m.d)] * (m.rows - 1))

    monkeypatch.setattr(CycloMatrix, "inverse", perturbed)
    broken = suites.suite_forms(5).by_identity
    assert honest[name][0] > 0 and honest[name][1] == 0
    assert broken[name] == [0, honest[name][0]]
    assert {k: v for k, v in broken.items() if k != name} == {k: v for k, v in honest.items() if k != name}


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


# every way the full parser exits: help at the top and per subcommand, a
# missing or unknown command, and usage errors at either level
PARSER_EXITS = [
    [], ["-h"], ["--help"], ["bogus"], ["--d", "5"], ["-x"],
    *[[c, flag] for c in ("gram", "rep", "density", "arithmeticity", "horo", "verify") for flag in ("-h", "--help")],
    ["gram"], ["gram", "--d", "x", "--kappa", "1,1,1"], ["gram", "--d", "5"],
    ["rep", "--d", "5", "--kappa", "1,1,3", "--bogus"], ["rep", "--d", "5", "--kappa", "1,1,3", "extra"],
    ["rep", "--d", "5", "--kappa"], ["density", "--d", "7", "--kappa", "1,2,4", "--seed", "2"],
    ["arithmeticity", "--kappa", "1,2"], ["horo", "--d", "5", "--kappa", "1,1,3"],
    ["horo", "--d", "5", "--kappa", "1,1,3", "--m", "x"], ["verify", "--suite", "bogus"],
    ["verify", "--size"], ["verify", "--seed", "1", "gram"], ["gram", "-h", "--d", "x"],
]
# sha256 over repr((argv, exit code, stdout, stderr)) of the full parser on
# PARSER_EXITS at COLUMNS=80: what it printed before the one-command parsers,
# with the horo usage and help that have no --maxlen
PARSER_EXITS_SHA256 = "5a814b32e55533293949f289c5eb20c42fd6aff7ef83b7fc0b9a075bff2f9f98"
PARSER_RUNS = [
    ["gram", "--d", "5", "--kappa", "1,1,1,1,1", "--k", "2", "--json"],
    ["rep", "--d", "5", "--kappa", "1,1,3", "--word", "A(1,2) T(2)^-1", "--quotient", "--json"],
    ["rep", "--kappa=1,1,3", "--d=5"], ["density", "--d", "7", "--kappa", "1,2,4"],
    ["arithmeticity", "--json", "--d", "6", "--kappa", "1,1,1,1,1,1"],
    ["horo", "--d", "11", "--kappa", "1,1,9,1,1,1,1,7", "--m", "3", "--seed", "3"],
    ["verify", "--suite", "horo", "--size", "2"], ["verify"],
]


# an option abbreviated to a prefix of a longer one: density has no --k,
# so --k must not be read as --kappa
ABBREVIATED = [["density", "--d", "7", "--kappa", "1,2,4", "--k", "2"], ["density", "--d", "7", "--k", "1,2,4"]]


def test_abbreviated_options_are_usage_errors(capsys):
    """No parser completes an option from its prefix: each line exits 2 with
    an argparse usage error, through the one-command parser and the full
    parser alike, and runs nothing."""
    for argv in ABBREVIATED:
        full = _parsed(capsys, build_parser().parse_args, argv)
        code, out, err = full
        assert code == 2 and out == "", argv
        assert err.startswith("usage: braidrep") and "error:" in err and "--k" in err, argv
        assert _parsed(capsys, cli.parse_args, argv) == full, argv
        assert _run_any(capsys, argv) == full, argv


def _parsed(capsys, parse, argv):
    """(namespace as a dict, or the exit code), stdout, stderr of parse(argv)."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_one_command_parsers_print_what_the_full_parser_prints(capsys, monkeypatch):
    """main builds only the parser of the subcommand that argv[0] names; its
    help, its usage errors and their exit codes are the full parser's, byte
    for byte, and the full parser prints what it printed before."""
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in PARSER_EXITS:
        full = _parsed(capsys, build_parser().parse_args, argv)
        assert isinstance(full[0], int)
        assert _parsed(capsys, cli.parse_args, argv) == full, argv
        assert _run_any(capsys, argv) == full, argv
        digest.update(repr((argv, *full)).encode())
    assert digest.hexdigest() == PARSER_EXITS_SHA256
    build_parser.cache_clear()
    for argv in PARSER_RUNS:
        one = _parsed(capsys, cli.parse_args, argv)
        assert build_parser.cache_info().misses == 0, argv
        assert one == _parsed(capsys, build_parser().parse_args, argv), argv
        build_parser.cache_clear()
