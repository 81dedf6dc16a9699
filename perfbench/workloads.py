"""The four benchmark workloads: seeded command lists and their output checks.

A workload makes, from the benchmark seed and a pass number, the list of
``braidrep`` argument vectors that one pass runs.  Pass p of a run takes
entry (seed + p) mod POOL of a fixed pool of inputs (3 * POOL for
``horo``), so a run of about POOL passes covers most of the pool, in an
order that depends on the seed.  The cost of one pass varies with its
inputs (by about 25 % for ``verify``); this way a run's medians measure the
program and the host, not which inputs the seed happened to draw.

``check`` compares one command's captured output with a recorded reference
or with an invariant computed here, independently of the library, and
returns the number of checks made and the number that failed.  The
program's own tallies (``verify``, ``horo``) count as checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCES = Path(__file__).with_name("references.json")
POOL = 16


def _entry(seed: int, p: int, size: int = POOL) -> int:
    """The pool entry that pass p of a run with this seed takes."""
    return (seed + p) % size


# -- verify: the seeded verification suites ------------------------------------

VERIFY_SIZE = 1
# degrees the suites sample (d 3..10), the horo cases (5, 7), and the pinned
# criteria inputs (d 12)
VERIFY_DEGREES = tuple(range(3, 13))
_VERIFY_TOTAL = re.compile(r"^total: (\d+) passed, (\d+) failed")


def verify_commands(seed: int, p: int) -> list[list[str]]:
    return [["verify", "--suite", "all", "--seed", str(_entry(seed, p)),
             "--size", str(VERIFY_SIZE)]]


def verify_check(argv: list[str], rc: int, out: str, refs: dict) -> tuple[int, int]:
    """The tally must read zero failures, in every suite line and the total."""
    lines = out.strip().splitlines()
    match = _VERIFY_TOTAL.match(lines[-1]) if lines else None
    if rc != 0 or match is None:
        return 1, 1
    passed, failed = int(match.group(1)), int(match.group(2))
    suite_fails = sum(1 for line in lines[:-1] if " FAIL " in f" {line} ")
    bad = int(failed != 0 or suite_fails != 0 or passed == 0)
    return 1 + passed + failed, bad + failed


def _json_object(out: str) -> dict | None:
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


# -- horo: one horospherical battery per pass -----------------------------------

# n = 8 twins of the n = 9 battery (d = 11, kappa 1,1,9,1,1,1,1,1,6, m = 3):
# the same code with the Q side at about three quarters of the time, in 4 s
# instead of 9 s, so that a run holds twice as many passes
HORO_KAPPAS = ("1,1,9,1,1,1,1,7", "1,1,9,1,1,1,2,6", "1,1,9,1,2,1,1,6")
HORO_RANKS = {"lower": 10, "upper": 30, "center": 5}


def _horo_argv(kappa: str, horo_seed: int) -> list[str]:
    return ["horo", "--d", "11", "--kappa", kappa, "--m", "3", "--json", "--seed", str(horo_seed)]


def horo_commands(seed: int, p: int) -> list[list[str]]:
    """The pool is every kappa with every --seed below POOL, the kappas
    taking turns."""
    horo_seed, kappa = divmod(_entry(seed, p, len(HORO_KAPPAS) * POOL), len(HORO_KAPPAS))
    return [_horo_argv(HORO_KAPPAS[kappa], horo_seed)]


def horo_check(argv: list[str], rc: int, out: str, refs: dict) -> tuple[int, int]:
    """failed == 0, the known ranks, and the digest recorded for this --seed."""
    doc = _json_object(out)
    if doc is None:
        return 1, 1
    bad = int(
        rc != 0
        or doc.get("failed") != 0
        or doc.get("ranks") != HORO_RANKS
        or refs.get(" ".join(argv)) != digest(out)
    )
    passed, failed = doc.get("passed", 0), doc.get("failed", 0)
    return 1 + passed + failed, bad + failed


# -- words: random braid words evaluated by `braidrep rep` ----------------------

WORD_DEGREES = (19, 23, 25)
WORD_N = 7
WORDS_PER_DEGREE = 2


def _unit(rng: random.Random, d: int) -> int:
    return rng.choice([t for t in range(1, d) if math.gcd(t, d) == 1])


def _word(rng: random.Random, n: int) -> list[str]:
    """16 letters: 8 pair twists, 4 prefix twists and 4 block twists of spans
    2..5, each kind half inverted, in random order.  Fixing the mix keeps the
    cost of a word close to the mean, so the seed changes little but the
    letters."""
    letters = []
    for e in range(8):
        i = rng.randint(1, n - 1)
        letters.append(f"A({i},{rng.randint(i + 1, n)})" + "^-1" * (e % 2))
    for e in range(4):
        letters.append(f"T({rng.randint(2, n - 1)})" + "^-1" * (e % 2))
    for e, span in enumerate((2, 3, 4, 5)):
        s = rng.randint(1, n - span)
        letters.append(f"FT({s},{s + span})" + "^-1" * (e % 2))
    rng.shuffle(letters)
    return letters


def words_commands(seed: int, p: int) -> list[list[str]]:
    """Words alternate between eps0 = 0 contexts and eps0 = 1 contexts pushed
    to the quotient, over the three degrees in turn."""
    rng = random.Random(_entry(seed, p))
    cmds = []
    for w in range(WORDS_PER_DEGREE * len(WORD_DEGREES)):
        d = WORD_DEGREES[w % len(WORD_DEGREES)]
        quotient = w % 2 == 1
        while True:
            kappa = [rng.randint(1, d - 1) for _ in range(WORD_N)]
            if quotient:
                kappa[-1] = -sum(kappa[:-1]) % d
            if kappa[-1] and math.gcd(d, *kappa) == 1 and (sum(kappa) % d == 0) == quotient:
                break
        argv = ["rep", "--d", str(d), "--kappa", ",".join(map(str, kappa)),
                "--k", str(_unit(rng, d)), "--word", " ".join(_word(rng, WORD_N)), "--json"]
        cmds.append(argv + ["--quotient"] if quotient else argv)
    return cmds


_LETTER = re.compile(r"^(A|T|FT)\((\d+)(?:,(\d+))?\)(\^-1)?$")


def _det_exponent(kappa: list[int], word: str) -> int:
    """Exponent E with det rho(word) = q^E: A(i,j) has det q^{k_i+k_j}, T(r)
    is triangular with q^{k_1+..+k_r} on r-1 diagonal places, and FT(s,r) is
    the product of every A(i,j) with s <= i < j <= r."""
    total = 0
    for token in word.split():
        kind, a, b, inverse = _LETTER.match(token).groups()
        a = int(a)
        if kind == "A":
            e = kappa[a - 1] + kappa[int(b) - 1]
        elif kind == "T":
            e = (a - 1) * sum(kappa[:a])
        else:
            e = (int(b) - a) * sum(kappa[a - 1:int(b)])
        total += -e if inverse else e
    return total


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num, quo = num[:], [0] * (len(num) - len(den) + 1)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = num[i + len(den) - 1] // den[-1]
        for j, y in enumerate(den):
            num[i + j] -= quo[i] * y
    if any(num):
        raise ArithmeticError("inexact division")
    return quo


def _mobius(m: int) -> int:
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def cyclotomic(d: int) -> list[int]:
    """Phi_d, constant term first, by the Moebius product of x^e - 1 over e | d
    (the library divides x^d - 1 by lower cyclotomic polynomials instead)."""
    num, den = [1], [1]
    for e in range(1, d + 1):
        if d % e == 0 and _mobius(d // e):
            factor = [-1] + [0] * (e - 1) + [1]
            if _mobius(d // e) == 1:
                num = _poly_mul(num, factor)
            else:
                den = _poly_mul(den, factor)
    return _poly_div_exact(num, den)


def zeta_power(d: int, e: int) -> list[int]:
    """Power-basis coefficients of zeta_d^e, reduced modulo Phi_d."""
    phi = cyclotomic(d)
    deg = len(phi) - 1
    vec = [1] + [0] * (deg - 1)
    for _ in range(e % d):
        vec = [0] + vec  # multiply by x, then reduce the degree-deg term
        top = vec.pop()
        vec = [v - top * c for v, c in zip(vec, phi)]
    return vec


def words_check(argv: list[str], rc: int, out: str, refs: dict) -> tuple[int, int]:
    """det(word) must be the product of its letters' determinants, a power of
    q, and the matrix must have the size of the (quotient) space."""
    doc = _json_object(out)
    if doc is None or not isinstance(doc.get("matrix"), dict):
        return 1, 1
    opts = dict(zip(argv[1::2], argv[2::2]))
    d, k = int(opts["--d"]), int(opts["--k"])
    kappa = [int(x) for x in opts["--kappa"].split(",")]
    size = len(kappa) - 1 - ("--quotient" in argv)
    expected = zeta_power(d, k * _det_exponent(kappa, opts["--word"]))
    ok = (
        rc == 0
        and doc.get("word") == opts["--word"]
        and doc.get("det") == [str(c) for c in expected]
        and doc["matrix"].get("rows") == size
        and doc["matrix"].get("cols") == size
    )
    return 1, int(not ok)


# -- criteria: density and arithmeticity verdicts -------------------------------

CRITERIA_N = range(5, 20)
CRITERIA_POOL = 8  # recorded variants per (n, kind)
CRITERIA_PICK = {"witness": 2, "fullscan": 1, "composite": 1}
# the pinned inputs of the `criteria` verification suite
CRITERIA_PINNED = ((12, (7, 5, 4, 4, 4)), (12, (7, 6, 5, 3, 3)), (12, (7, 5, 3, 3, 3, 3)),
                   (5, (1, 1, 3, 2, 2, 1)), (7, (1, 1, 1, 1, 1, 1)))
_COMPOSITE_D = (12, 18, 20, 24, 30)


def _criteria_case(kind: str, n: int, variant: int) -> tuple[int, list[int]]:
    """One recorded input.  witness: random weights, whose witness is almost
    always among the first subsets scanned; fullscan: weights a*c_i with
    sum(c) < d, so no proper subset sum is divisible and every subset is
    scanned before `unknown`; composite: random weights for a composite d,
    where divisible subsets may fail the gcd conditions and are logged."""
    rng = random.Random(f"{kind}/{n}/{variant}")
    while True:
        if kind == "fullscan":
            c = [1] + [rng.randint(1, 2) for _ in range(n - 1)]
            d = rng.randint(sum(c) + 1, sum(c) + 20)
            a = _unit(rng, d)
            kappa = [a * x % d for x in c]
        else:
            d = rng.choice(_COMPOSITE_D) if kind == "composite" else rng.randint(7, 30)
            kappa = [rng.randint(1, d - 1) for _ in range(n)]
        if math.gcd(d, *kappa) == 1:
            return d, kappa


def criteria_pool() -> list[tuple[int, list[int]]]:
    """Every input a seed may draw; references.json holds their outputs."""
    cases = [(d, list(kappa)) for d, kappa in CRITERIA_PINNED]
    for n in CRITERIA_N:
        for kind in CRITERIA_PICK:
            cases += [_criteria_case(kind, n, v) for v in range(CRITERIA_POOL)]
    return cases


def _criteria_argvs(d: int, kappa: list[int]) -> list[list[str]]:
    text = ",".join(map(str, kappa))
    return [[cmd, "--d", str(d), "--kappa", text, "--json"] for cmd in ("arithmeticity", "density")]


def criteria_commands(seed: int, p: int) -> list[list[str]]:
    """For each n, the same mix of kinds, drawn from the recorded pool."""
    rng = random.Random(_entry(seed, p))
    cases = [(d, list(kappa)) for d, kappa in CRITERIA_PINNED]
    for n in CRITERIA_N:
        for kind, count in CRITERIA_PICK.items():
            for v in rng.sample(range(CRITERIA_POOL), count):
                cases.append(_criteria_case(kind, n, v))
    rng.shuffle(cases)
    return [argv for d, kappa in cases for argv in _criteria_argvs(d, kappa)]


def criteria_check(argv: list[str], rc: int, out: str, refs: dict) -> tuple[int, int]:
    """The verdict document must match the one recorded for this input."""
    return 1, int(rc != 0 or refs.get(" ".join(argv)) != digest(out))


# -- registry --------------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int, int], list[list[str]]]  # (seed, pass) -> argvs
    check: Callable[[list[str], int, str, dict], tuple[int, int]]
    degrees: tuple[int, ...]  # cyclotomic tables built during set-up


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify", verify_commands, verify_check, VERIFY_DEGREES),
        Workload("horo", horo_commands, horo_check, (11,)),
        Workload("words", words_commands, words_check, WORD_DEGREES),
        Workload("criteria", criteria_commands, criteria_check, ()),
    )
}


def reference_argvs() -> list[list[str]]:
    """Every command whose output references.json records."""
    horo = [_horo_argv(k, s) for k in HORO_KAPPAS for s in range(POOL)]
    return horo + [argv for d, kappa in criteria_pool() for argv in _criteria_argvs(d, kappa)]


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
