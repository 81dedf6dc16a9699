"""Command-line interface.

Subcommands: gram, rep, density, arithmeticity, horo, verify.  Exit codes:
0 success, 1 verification failure, 2 usage or validation error.  With
--json, machine-readable documents go to stdout; otherwise human tables.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import criteria, horo, suites
from .cyclo import CycloNum, to_strings
from .errors import BraidRepError
from .linalg import CycloMatrix, matrix_to_json
from .rep import (
    evaluate_quotient,
    evaluate_word,
    make_context,
    parse_word,
    quotient_gram,
    radical_vector,
    word_det,
)


def _parse_kappa(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise BraidRepError(f"cannot parse kappa {text!r}: {exc}") from exc


def _encode(x):
    """JSON form of the values json cannot write itself: field elements and matrices."""
    if isinstance(x, CycloNum):
        return to_strings(x)
    if isinstance(x, CycloMatrix):
        return matrix_to_json(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, default=_encode))


def cmd_gram(args: argparse.Namespace) -> int:
    ctx = make_context(args.d, _parse_kappa(args.kappa), args.k)
    r_q, s_q = criteria.signature(ctx)
    dim = criteria.eigenspace_dimension(ctx)
    if args.json:
        doc = {
            "d": ctx.d,
            "n": ctx.n,
            "kappa": list(ctx.weights),
            "k": ctx.k,
            "eps0": ctx.eps0,
            "dimension": dim,
            "signature": [r_q, s_q],
            "mu": ctx.mu,
            "gram": ctx.gram,
        }
        if ctx.eps0 == 1:
            doc["radical"] = radical_vector(ctx)
            doc["quotient_gram"] = quotient_gram(ctx)
        _print_json(doc)
        return 0
    print(f"d={ctx.d} n={ctx.n} kappa={','.join(map(str, ctx.weights))} k={ctx.k}")
    print(f"eps0      = {ctx.eps0}")
    print(f"dimension = {dim}")
    print(f"signature = ({r_q}, {s_q})")
    print("gram:")
    print(ctx.gram)
    return 0


def cmd_rep(args: argparse.Namespace) -> int:
    """Evaluate --word, or its image on the quotient, and print it with the
    determinant of the full matrix, the closed form q^E of word_det."""
    ctx = make_context(args.d, _parse_kappa(args.kappa), args.k)
    word = parse_word(args.word)
    matrix = (evaluate_quotient if args.quotient else evaluate_word)(ctx, word)
    det = word_det(ctx, word)
    if args.json:
        _print_json({
            "word": str(word),
            "det": det,
            "quotient": bool(args.quotient),
            "matrix": matrix,
        })
    else:
        print(f"word: {word if word.letters else '(empty)'}\ndet = {det}\n{matrix}")
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    verdict = criteria.density_verdict(args.d, _parse_kappa(args.kappa))
    if args.json:
        _print_json(verdict.to_json())
        return 0
    print(f"verdict: {verdict.verdict}")
    bad = [k for k, rec in verdict.diagnostics["per_k"].items() if not rec["good"]]
    if bad:
        print(f"non-good exponents k: {', '.join(bad)}")
    print(f"dimension {verdict.diagnostics['dimension']}"
          f" (condition {'met' if verdict.diagnostics['dimension_condition'] else 'not met'})")
    return 0


def cmd_arithmeticity(args: argparse.Namespace) -> int:
    verdict = criteria.arithmeticity_verdict(args.d, _parse_kappa(args.kappa))
    if args.json:
        _print_json(verdict.to_json())
        return 0
    print(f"verdict: {verdict.verdict}")
    if verdict.witness:
        print(f"witness subset I = {verdict.witness}")
    return 0


def cmd_horo(args: argparse.Namespace) -> int:
    ctx = make_context(args.d, _parse_kappa(args.kappa), args.k)
    fc = horo.make_flag(ctx, args.m)
    report, rep = suites.horo_report(fc, seed=args.seed)
    if args.json:
        _print_json(report)
    else:
        print(f"d={ctx.d} kappa={','.join(map(str, ctx.weights))} k={ctx.k} m={fc.m}")
        print(f"witnesses: lower={report['witnesses']['lower']}  upper={report['witnesses']['upper']}")
        print(f"ranks: {report['ranks']}")
        print(f"checks: {rep.passed} passed, {rep.failed} failed")
        for f in rep.failures:
            print(f"  FAIL {f}")
    return 0 if rep.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = suites.run_suites(names, seed=args.seed, size=args.size)
    total_pass = sum(r.passed for r in reports)
    total_fail = sum(r.failed for r in reports)
    if args.json:
        _print_json({
            "suites": [r.to_json() for r in reports],
            "passed": total_pass,
            "failed": total_fail,
            "seed": args.seed,
            "size": args.size,
        })
        return 0 if total_fail == 0 else 1
    for r in reports:
        status = "PASS" if r.ok else "FAIL"
        print(f"{r.suite:10s} {status}  {r.passed} passed, {r.failed} failed")
        for f in r.failures:
            print(f"  FAIL {f}")
    print(f"total: {total_pass} passed, {total_fail} failed (seed={args.seed}, size={args.size})")
    return 0 if total_fail == 0 else 1


def _context_flags(p: argparse.ArgumentParser, with_k: bool = True) -> None:
    p.add_argument("--d", type=int, required=True, help="cyclic cover degree (>= 3)")
    p.add_argument("--kappa", type=str, required=True, help="comma-separated weights k_1,...,k_n")
    if with_k:
        p.add_argument("--k", type=int, default=1, help="eigenvalue exponent, coprime to d (default 1)")
    p.add_argument("--json", action="store_true", help="emit JSON on stdout")


def _rep_flags(p: argparse.ArgumentParser) -> None:
    _context_flags(p)
    p.add_argument("--word", type=str, default="", help='e.g. "A(1,2) T(3)^-1 FT(2,5)"')
    p.add_argument("--quotient", action="store_true", help="push to the eps0=1 quotient")


def _criterion_flags(p: argparse.ArgumentParser) -> None:
    _context_flags(p, with_k=False)


def _horo_flags(p: argparse.ArgumentParser) -> None:
    _context_flags(p)
    p.add_argument("--m", type=int, required=True, help="flag index with d | k_1+...+k_m")
    p.add_argument("--seed", type=int, default=0)


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=list(suites.SUITE_NAMES) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=1, help="sample-size multiplier")
    p.add_argument("--json", action="store_true",
                   help="emit every suite report and the totals as one JSON document")


# name -> (help, flags, handler), in the order of the usage line
COMMANDS = {
    "gram": ("Gram matrix, eps0, dimension and signature", _context_flags, cmd_gram),
    "rep": ("evaluate a braid word to its exact matrix", _rep_flags, cmd_rep),
    "density": ("maximal Zariski closure criterion", _criterion_flags, cmd_density),
    "arithmeticity": ("arithmetic lattice criterion", _criterion_flags, cmd_arithmeticity),
    "horo": ("horospherical battery for one flag index", _horo_flags, cmd_horo),
    "verify": ("run the seeded verification suites", _verify_flags, cmd_verify),
}


class _Fallback(Exception):
    """A one-command parser met an error, which the full parser reports."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _Fallback(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="braidrep",
        allow_abbrev=False,
        description="Exact braid-group representations from cyclic covers: "
                    "Gram matrices, twist operators, density and arithmeticity criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        add_flags(p)
        p.set_defaults(func=handler)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The full parser's subparser for name, built alone: it parses the
    arguments after the command as that subparser does, prints the same
    help, and raises _Fallback instead of reporting an error."""
    _, add_flags, handler = COMMANDS[name]
    parser = _OneCommandParser(prog=f"braidrep {name}", allow_abbrev=False)
    add_flags(parser)
    parser.set_defaults(func=handler, command=name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The full parser's reading of argv.  A command line that starts with
    a subcommand goes to that subcommand's parser alone, which skips most
    of the parser set-up of a fresh process; -h or --help before a
    subcommand, a missing or unknown one, and every error go to the full
    parser, which prints its usage and exits 2."""
    if argv and argv[0] in COMMANDS:
        try:
            return _command_parser(argv[0]).parse_args(argv[1:])
        except _Fallback:
            pass
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except BraidRepError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
