"""Exact decision procedures: dimension, signature, goodness, density and
arithmeticity criteria, and the signature-window scan.

Verdicts are deliberately two-valued per criterion: the sufficient condition
either fires ("maximal" / "arithmetic") or the answer is "unknown"; the
procedures never claim a negative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import OutOfRange, PreconditionFailed
from .rep import RepContext, normalize_weights


def eigenspace_dimension(ctx: RepContext) -> int:
    """Dimension of the non-degenerate space the operators act on: n - 1 - eps0."""
    return ctx.n - 1 - ctx.eps0


def signature(ctx: RepContext) -> tuple[int, int]:
    """Exact signature (r_q, s_q) of the Hermitian form, via fractional parts.

    r_q = floor(sum_i {k*k_i/d}) - eps0 and s_q the same at exponent d - k;
    always r_q + s_q = n - 1 - eps0.
    """
    total_pos = sum(Fraction(ctx.k * ki, ctx.d) % 1 for ki in ctx.weights)
    total_neg = sum(Fraction((ctx.d - ctx.k) * ki, ctx.d) % 1 for ki in ctx.weights)
    r_q = math.floor(total_pos) - ctx.eps0
    s_q = math.floor(total_neg) - ctx.eps0
    return (r_q, s_q)


def order_of_unit_fraction(t: Fraction) -> int:
    """Order of e^{2*pi*i*t} for rational t: the reduced denominator."""
    return Fraction(t).denominator


def is_good(mu: Sequence[Fraction]) -> bool:
    """Goodness of a weight sequence with entries in the open interval (0, 1).

    True when 1 < sum(mu) < n-1, or when the sum is outside that window but
    some triple {i, j, l} has a pair of order > 5 and a cross pair of
    order > 2 (orders of the associated roots of unity).
    """
    mu = [Fraction(x) for x in mu]
    if any(not 0 < x < 1 for x in mu):
        raise OutOfRange(f"weights must lie strictly between 0 and 1: {mu}")
    n = len(mu)
    total = sum(mu)
    if 1 < total < n - 1:
        return True
    for i, j in itertools.combinations(range(n), 2):
        if order_of_unit_fraction(mu[i] + mu[j]) <= 5:
            continue
        for l in range(n):
            if l in (i, j):
                continue
            if (order_of_unit_fraction(mu[i] + mu[l]) > 2
                    or order_of_unit_fraction(mu[j] + mu[l]) > 2):
                return True
    return False


@dataclass
class Verdict:
    """Outcome of a sufficient criterion, with reproducible diagnostics."""

    verdict: str                    # "maximal" | "arithmetic" | "unknown"
    witness: list[int] | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": self.witness if self.witness is not None else [],
            "diagnostics": self.diagnostics,
        }


def density_verdict(d: int, kappa_raw: Sequence[int]) -> Verdict:
    """Maximal Zariski closure criterion.

    Fires when the fractional weight sequence at every unit exponent k is
    good, and the dimension condition holds: n - 1 - eps0 >= 3, or it equals
    2 together with a pair k_i + k_j coprime to d.
    """
    kappa = normalize_weights(d, tuple(kappa_raw))
    n = len(kappa)
    eps0 = 1 if sum(kappa) % d == 0 else 0
    dim = n - 1 - eps0

    per_k: dict[str, dict] = {}
    all_good = True
    for k in range(1, d):
        if math.gcd(k, d) != 1:
            continue
        mu = [Fraction(k * ki, d) % 1 for ki in kappa]
        good = is_good(mu)
        all_good = all_good and good
        per_k[str(k)] = {"good": good, "sum": str(sum(mu))}

    pair = next(
        (
            [i + 1, j + 1]
            for i, j in itertools.combinations(range(n), 2)
            if math.gcd(kappa[i] + kappa[j], d) == 1
        ),
        None,
    )
    dim_ok = dim >= 3 or (dim == 2 and pair is not None)
    diagnostics = {
        "per_k": per_k,
        "dimension": dim,
        "dimension_condition": dim_ok,
        "coprime_pair": pair,
    }
    if all_good and dim_ok:
        return Verdict("maximal", None, diagnostics)
    return Verdict("unknown", None, diagnostics)


def _proper_subsets(n: int):
    """Non-empty proper subsets of {1..n} as sorted tuples, in lexicographic
    order (prefixes first), generated lazily.

    That order is the depth-first preorder of the subset tree, so the list
    ``combo`` is the DFS path: descend by appending last + 1, and when last
    is n, backtrack to the next sibling.  The full set is skipped.
    """
    combo = [1]
    while True:
        if len(combo) < n:
            yield tuple(combo)
        if combo[-1] < n:
            combo.append(combo[-1] + 1)
        else:
            combo.pop()
            if not combo:
                return
            combo[-1] += 1


def arithmeticity_verdict(d: int, kappa_raw: Sequence[int]) -> Verdict:
    """Arithmetic lattice criterion via a witness subset of the punctures.

    Searches proper subsets I of {1..n} in lexicographic order (as sorted
    index tuples, prefixes first) for:
      (i)   d divides sum_{i in I} k_i,
      (ii)  gcd(d, {k_i : i in I}) = 1 when |I| >= 3,
      (iii) gcd(d, {k_i : i not in I}) = 1 when |I| <= n - 2 - eps0,
    subject to n + 1 - eps0 >= 5 and (d not in {3,4,6} or
    2 < sum k_i / d < n - 2).
    """
    kappa = normalize_weights(d, tuple(kappa_raw))
    n = len(kappa)
    eps0 = 1 if sum(kappa) % d == 0 else 0
    total = Fraction(sum(kappa), d)

    size_ok = n + 1 - eps0 >= 5
    small_d_ok = d not in (3, 4, 6) or 2 < total < n - 2
    diagnostics: dict = {
        "size_condition": size_ok,
        "small_d_condition": small_d_ok,
        "subsets": [],
    }
    if not (size_ok and small_d_ok):
        return Verdict("unknown", None, diagnostics)

    for combo in _proper_subsets(n):
        inside = [kappa[i - 1] for i in combo]
        if sum(inside) % d != 0:
            continue
        outside = [kappa[i - 1] for i in range(1, n + 1) if i not in combo]
        cond_ii = len(combo) < 3 or math.gcd(d, *inside) == 1
        cond_iii = len(combo) > n - 2 - eps0 or math.gcd(d, *outside) == 1
        diagnostics["subsets"].append(
            {"I": list(combo), "divisible": True, "ii": cond_ii, "iii": cond_iii}
        )
        if cond_ii and cond_iii:
            return Verdict("arithmetic", list(combo), diagnostics)
    return Verdict("unknown", None, diagnostics)


def find_signature_window(x: Sequence[Fraction]) -> int:
    """Smallest index r from the constructive scan with 1 < s_r - floor(s_{r-2}) < 2.

    Input: rationals with 0 < x_i < 1 and 1 < sum(x) < n - 1, n >= 3.  The
    returned r satisfies 3 <= r <= n with s_{r-2} and s_r both non-integral
    (partial sums s_j = x_1 + ... + x_j).
    """
    x = [Fraction(v) for v in x]
    n = len(x)
    if n < 3:
        raise PreconditionFailed(f"need at least 3 entries, got {n}")
    if any(not 0 < v < 1 for v in x):
        raise PreconditionFailed("entries must lie strictly between 0 and 1")
    total = sum(x)
    if not 1 < total < n - 1:
        raise PreconditionFailed(f"sum {total} outside the open interval (1, {n - 1})")
    partial = [Fraction(0)]
    for v in x:
        partial.append(partial[-1] + v)
    if partial[2] <= 1:
        r = next(j for j in range(3, n + 1) if partial[j] > 1)
    else:
        r = next(j for j in range(3, n + 1) if partial[j] < j - 1)
    return r
