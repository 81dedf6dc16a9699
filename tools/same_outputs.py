"""Check that the working tree prints what a parent commit prints.

    python3 tools/same_outputs.py --parent REF

Both sides come from ``bench_pairs.checkout``: the parent from ``git archive
REF``, the change from the working tree.  Each side runs the same commands
through ``braidrep.cli.main`` in one fresh interpreter (``perfbench/worker.py``
of that side), and the exit code, stdout and stderr of every command are
compared.  The commands are ``verify --suite all --seed E``, human and
``--json``, for E = 0..15; every command whose output
``perfbench/references.json`` records, among them ``arithmeticity --json``
and ``density --json`` of every input of ``workloads.criteria_pool()``, and
the same two commands without ``--json``; ``density --json`` of kappa
1,1,1,1,1 at d = 10007 (prime) and d = 10010 (composite); every workload's
commands for passes 0..15 of seed 0; the horo documents pinned in
``tests/test_cli.py``;
``gram``, human and ``--json``, and ``rep --json`` of every one-letter word A(i,j),
T(r) and FT(s,r), each also with ^-1, in the contexts of
``LETTER_CONTEXTS``, with human output too at the composite d; and
``rep`` of ``LONG_WORD``, human and ``--json``, whose word product leaves
int64 for Python ints partway, and ``rep --quotient`` of the same word at an
eps0 = 1 kappa (``LONG_QUOTIENT``), human and ``--json``; ``rep --json`` of
its 160-, 200- and 240-letter prefixes at d = 25 and d = 23, and of the
200-letter prefix with ``--quotient`` at d = 23 (``CROSSING_WORDS``), all
of which cross the int64 bound; ``horo`` of the n = 12 case, human and
``--json``; ``horo`` of ``FLAG_HORO``, human and ``--json``: flags with
m = 2 (no lower block) and m = n - 2 (no class of g_{n-1} in the flag), at
composite d = 12, 15 and 25 and at n = 9; ``rep --quotient`` of the 138-,
144- and 200-letter prefixes of the long word at d = 25
(``QUOTIENT_CROSSING``), human and ``--json``: the 138-letter one stays in
int64, the 144-letter one leaves it at the quotient's left factor and the
200-letter one before its letter 157, counted from 0; ``verify --suite
lantern --size 3`` for seeds 0..3; ``verify --suite horo --size 3``,
human and ``--json``, for seeds 0..3,
whose batteries run more conjugation trials and the additivity check;
``verify --suite forms --size 3`` and ``verify --suite relations --size
3``, human and ``--json``, for seeds 0..3, which check more eps0 = 0
inverse identities and pair-twist orders;
``horo --json`` of the larger orbits in ``LARGE_HORO``: n = 8 at d = 23
(kappa 1,1,21,1,1,1,1,19), whose lower and upper orbits reach full rank at
word lengths 6 and 4; n = 6 (kappa 1,1,d-2,1,1,d-2) at d = 23, d = 47 and
d = 101, whose orbits reach full rank at word lengths up to 25; n = 8 at
d = 47 (kappa 1,1,45,1,1,1,1,43); and n = 6 at d = 211 (kappa
1,1,209,1,1,209), whose center solves 105 targets against 210 orbit
columns and which takes about 25 s on a side whose center solves them one
by one; and the human form of that d = 211 case, which formats no field
element.
Prints a summary line and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, checkout

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = range(16)
PINNED_HORO = (("11", "1,1,9,1,1,1,1,1,6", "3"), ("5", "1,1,3,2,3", "3"), ("5", "2,3,1,1,1,2", "2"))
N12_HORO = ["horo", "--d", "11", "--kappa", "1,1,9,1,1,1,1,1,1,1,1,3", "--m", "3"]  # the ROADMAP's n = 12 case
LARGE_HORO = [["horo", "--d", d, "--kappa", kappa, "--m", "3", "--json"]
              for d, kappa in (("23", "1,1,21,1,1,1,1,19"), ("23", "1,1,21,1,1,21"), ("47", "1,1,45,1,1,45"),
                               ("101", "1,1,99,1,1,99"), ("47", "1,1,45,1,1,1,1,43"),
                               ("211", "1,1,209,1,1,209"))]
SUITE_SEEDS = range(4)  # of the --size 3 batteries
LARGE_DENSITY = [["density", "--d", d, "--kappa", "1,1,1,1,1", "--json"] for d in ("10007", "10010")]
# (d, kappa, k, quotient) at n = 7: prime and composite d, each with an eps0 = 0
# kappa and an eps0 = 1 kappa whose words are pushed to the quotient
LETTER_CONTEXTS = (("29", "1,2,3,4,5,6,7", "3", False), ("29", "1,2,3,4,5,6,8", "3", True),
                   ("12", "1,2,3,4,5,6,7", "5", False), ("12", "7,5,4,4,4,1,11", "5", True))


def _long_word(length: int = 320, n: int = 7) -> str:
    """A seeded word over every letter kind and both exponents whose int64
    running product at d = 25 outgrows the overflow bound at its 150th letter."""
    rng = random.Random(25)
    letters = []
    for _ in range(length):
        kind, i = rng.randrange(3), rng.randint(1, n - 2)
        letters.append((f"A({i},{rng.randint(i + 1, n)})", f"T({i + 1})", f"FT({i},{i + 2})")[kind]
                       + "^-1" * rng.randrange(2))
    return " ".join(letters)


LONG_WORD = ["rep", "--d", "25", "--kappa", "1,2,3,4,5,6,7", "--k", "2", "--word", _long_word()]
LONG_QUOTIENT = ["rep", "--d", "25", "--kappa", "1,2,3,4,5,6,4", "--k", "2", "--word", _long_word(), "--quotient"]
# shorter prefixes of the same word, which cross the bound at other letters,
# at d = 25 and d = 23, and one pushed to the eps0 = 1 quotient at d = 23
CROSSING_WORDS = [["rep", "--d", d, "--kappa", "1,2,3,4,5,6,7", "--k", "2", "--word", _long_word(length), "--json"]
                  for d in ("25", "23") for length in (160, 200, 240)]
CROSSING_WORDS.append(["rep", "--d", "23", "--kappa", "1,2,3,4,5,6,2", "--k", "2", "--word", _long_word(200),
                       "--quotient", "--json"])


# (d, kappa, m): m = n - 2 at d = 12, 25 and 11 (n = 9), m = 2 at d = 15 and 12,
# both blocks at d = 25 and 9
FLAG_HORO = (("12", "1,1,1,1,8,5,7", "5"), ("25", "1,2,3,4,15,6,19", "5"), ("11", "1,1,9,1,1,1,8,1,10", "7"),
             ("15", "4,11,2,2,2,9", "2"), ("12", "5,7,1,1,5,5", "2"), ("25", "1,2,22,4,5,6,10", "3"),
             ("9", "1,2,6,1,1,7", "3"))
QUOTIENT_CROSSING = [["rep", "--d", "25", "--kappa", "1,2,3,4,5,6,4", "--k", "2", "--word", _long_word(length),
                      "--quotient", *json] for length in (138, 144, 200) for json in ([], ["--json"])]


def one_letter_words(n: int) -> list[str]:
    """Every letter A(i,j), T(r), FT(s,r) on n punctures, each also inverted."""
    gens = [f"{kind}({i},{j})" for i, j in itertools.combinations(range(1, n + 1), 2) for kind in ("A", "FT")]
    gens += [f"T({r})" for r in range(2, n)]
    return [g + inv for g in gens for inv in ("", "^-1")]


def commands() -> list[list[str]]:
    argvs = []
    for seed in SEEDS:
        verify = ["verify", "--suite", "all", "--seed", str(seed)]
        argvs += [verify, verify + ["--json"]]
    argvs += workloads.reference_argvs()
    argvs += [[cmd, "--d", str(d), "--kappa", ",".join(map(str, kappa))]
              for d, kappa in workloads.criteria_pool() for cmd in ("arithmeticity", "density")]
    argvs += LARGE_DENSITY
    for w in workloads.WORKLOADS.values():
        for p in SEEDS:
            argvs += w.commands(0, p)
    argvs += [["horo", "--d", d, "--kappa", k, "--m", m, "--json"] for d, k, m in PINNED_HORO]
    for d, kappa, k, quotient in LETTER_CONTEXTS:
        flags = ["--d", d, "--kappa", kappa, "--k", k]
        argvs += [["gram", *flags], ["gram", *flags, "--json"]]
        for word in one_letter_words(len(kappa.split(","))):
            rep = ["rep", *flags, "--word", word] + ["--quotient"] * quotient
            argvs += [rep + ["--json"]] + [rep] * (d == "12")
    argvs += [LONG_WORD, LONG_WORD + ["--json"], LONG_QUOTIENT, LONG_QUOTIENT + ["--json"]]
    argvs += CROSSING_WORDS
    argvs += [N12_HORO, N12_HORO + ["--json"]]
    argvs += [["horo", "--d", d, "--kappa", k, "--m", m, *json] for d, k, m in FLAG_HORO for json in ([], ["--json"])]
    argvs += QUOTIENT_CROSSING
    argvs += [["verify", "--suite", "lantern", "--size", "3", "--seed", str(seed)] for seed in SUITE_SEEDS]
    argvs += [["verify", "--suite", suite, "--size", "3", "--seed", str(seed), *json]
              for suite in ("horo", "forms", "relations") for seed in SUITE_SEEDS for json in ([], ["--json"])]
    argvs += LARGE_HORO + [LARGE_HORO[-1][:-1]]  # and the d = 211 case without --json
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def run_side(side: Path, argvs: list[list[str]]) -> list[dict]:
    """(rc, out, err) of every command, from one worker process of the side."""
    job = {"src": str(side / "src"), "degrees": [], "commands": argvs, "trace": False}
    out = subprocess.run([sys.executable, "perfbench/worker.py"], cwd=side, input=json.dumps(job),
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["commands"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git commit of the parent side")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="same_outputs_"))
    try:
        sides = checkout(args.parent, workdir)
        argvs = commands()
        results = {name: run_side(path, argvs) for name, path in sides.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mismatches = 0
    for argv, par, chg in zip(argvs, results["parent"], results["change"]):
        diff = [key for key in ("rc", "out", "err") if par[key] != chg[key]]
        if diff:
            mismatches += 1
            print(f"MISMATCH ({', '.join(diff)}; exit {par['rc']} -> {chg['rc']}): {' '.join(argv)}")
    print(f"same_outputs: {len(argvs)} commands, {mismatches} mismatches (parent {args.parent})")
    return int(mismatches > 0)


if __name__ == "__main__":
    sys.exit(main())
