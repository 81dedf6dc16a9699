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

from .cyclo import units
from .errors import OutOfRange, PreconditionFailed
from .rep import RepContext, eps0_of, normalize_weights


def eigenspace_dimension(ctx: RepContext) -> int:
    """Dimension of the non-degenerate space the operators act on: n - 1 - eps0."""
    return ctx.n - 1 - ctx.eps0


def signature(ctx: RepContext) -> tuple[int, int]:
    """Exact signature (r_q, s_q) of the Hermitian form, via fractional parts.

    r_q = floor(sum_i {k*k_i/d}) - eps0 and s_q the same at exponent d - k;
    always r_q + s_q = n - 1 - eps0.  In residues, sum_i {k*k_i/d} is
    sum_i (k*k_i mod d) / d, so its floor is an integer quotient.
    """
    d, k = ctx.d, ctx.k
    r_q = sum(k * ki % d for ki in ctx.weights) // d - ctx.eps0
    s_q = sum((d - k) * ki % d for ki in ctx.weights) // d - ctx.eps0
    return (r_q, s_q)


def _good_residues(d: int, r: Sequence[int]) -> bool:
    """Goodness of mu_i = r_i / d, for integers 0 < r_i < d: the one
    definition that is_good and density_verdict share.

    The window 1 < sum(mu) < n-1 reads d < sum(r) < (n-1) d, and the order
    of e^{2*pi*i*(mu_i + mu_j)}, the reduced denominator of (r_i + r_j)/d,
    is d // gcd(r_i + r_j, d).
    """
    n = len(r)
    if d < sum(r) < (n - 1) * d:
        return True
    for i, j in itertools.combinations(range(n), 2):
        if d // math.gcd(r[i] + r[j], d) <= 5:
            continue
        for l in range(n):
            if l in (i, j):
                continue
            if d // math.gcd(r[i] + r[l], d) > 2 or d // math.gcd(r[j] + r[l], d) > 2:
                return True
    return False


def is_good(mu: Sequence[Fraction]) -> bool:
    """Goodness of a weight sequence with entries in the open interval (0, 1).

    True when 1 < sum(mu) < n-1, or when the sum is outside that window but
    some triple {i, j, l} has a pair of order > 5 and a cross pair of
    order > 2 (the order of e^{2*pi*i*t} is the reduced denominator of t).
    Entries are read with Fraction(x) and cleared to the residue form
    mu_i = r_i / D over the lcm D of their denominators, which
    _good_residues decides.
    """
    mu = [Fraction(x) for x in mu]
    if any(not 0 < x < 1 for x in mu):
        raise OutOfRange(f"weights must lie strictly between 0 and 1: {mu}")
    D = math.lcm(*(x.denominator for x in mu))
    return _good_residues(D, [x.numerator * (D // x.denominator) for x in mu])


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

    At k the weights are mu_i = r_i / d with residues r_i = k*k_i mod d,
    all non-zero since 0 < k_i < d and k is a unit.  At d - k the residues
    are d - r_i, so mu(d-k) = 1 - mu(k): the window is symmetric and
    (1-a) + (1-b) has the order of a + b, hence good(d-k) == good(k), and
    _good_residues runs once per pair {k, d-k}.  ``per_k`` records every
    unit, ascending, with the sum S/d of its residues as a reduced fraction.
    """
    kappa = normalize_weights(d, tuple(kappa_raw))
    n = len(kappa)
    eps0 = eps0_of(d, kappa)
    dim = n - 1 - eps0

    per_k: dict[str, dict] = {}
    all_good = True
    for k in units(d):
        residues = [k * ki % d for ki in kappa]
        good = _good_residues(d, residues) if k < d - k else per_k[str(d - k)]["good"]
        total = sum(residues)
        all_good = all_good and good
        g = math.gcd(total, d)
        per_k[str(k)] = {"good": good, "sum": str(total // d) if g == d else f"{total // g}/{d // g}"}

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


# Budget of the residue masks of _divisible_subsets, in bits (2 MiB).
_MASK_BITS = 1 << 24


def _divisible_subsets(d: int, kappa: Sequence[int]):
    """Non-empty proper subsets I of {1..n} with d | sum_{i in I} kappa_i, as
    sorted tuples in lexicographic order (prefixes first), generated lazily.

    That order is the depth-first preorder of the subset tree: ``combo`` is
    the DFS path, a child appends an index above its last one.  reach[j] is
    a d-bit mask of the residues mod d of the subset sums of kappa[j:] (the
    empty subset included), so the subtree below ``combo + [j]`` holds a sum
    divisible by d exactly when bit (-sum) mod d of reach[j] is set.  The
    walk steps only into such children and otherwise moves to the next
    sibling; every node it visits lies on the path to a yielded subset or to
    the full set, which is skipped.  With d = 1 nothing is pruned and the
    walk lists every proper subset.

    The masks take n * d bits.  Beyond _MASK_BITS they are kept modulo 1
    instead of d, which prunes nothing but stays sound (every sum divisible
    by d is divisible by 1): the walk then costs what the unpruned scan to
    the last yielded subset costs, and a huge d allocates nothing.
    """
    n = len(kappa)
    m = d if n * d <= _MASK_BITS else 1
    full = (1 << m) - 1
    reach = [1] * (n + 1)
    for j in range(n - 1, -1, -1):
        shift, mask = kappa[j] % m, reach[j + 1]
        reach[j] = mask | ((mask << shift | mask >> (m - shift)) & full)
    combo: list[int] = []
    total = 0                              # sum of kappa over combo
    j = 1                                  # next candidate child, 1-based
    while True:
        while j <= n and not (reach[j] >> (-(total + kappa[j - 1]) % m)) & 1:
            j += 1
        if j <= n:
            combo.append(j)
            total += kappa[j - 1]
            if total % d == 0 and len(combo) < n:
                yield tuple(combo)
            j += 1
        elif combo:
            j = combo.pop()
            total -= kappa[j - 1]
            j += 1
        else:
            return


def arithmeticity_verdict(d: int, kappa_raw: Sequence[int]) -> Verdict:
    """Arithmetic lattice criterion via a witness subset of the punctures.

    Searches proper subsets I of {1..n} in lexicographic order (as sorted
    index tuples, prefixes first) for:
      (i)   d divides sum_{i in I} k_i,
      (ii)  gcd(d, {k_i : i in I}) = 1 when |I| >= 3,
      (iii) gcd(d, {k_i : i not in I}) = 1 when |I| <= n - 2 - eps0,
    subject to n + 1 - eps0 >= 5 and (d not in {3,4,6} or
    2 < sum k_i / d < n - 2).

    ``diagnostics["subsets"]`` logs every subset scanned up to the witness,
    and only subsets with (i) are scanned: ``_divisible_subsets`` prunes the
    subset tree below any prefix that cannot reach a sum divisible by d.
    The cost is O(n d) for its residue masks plus O(n^2) per logged subset
    (and for the full set), so it is bounded by the length L of the log,
    not by the 2^n - 2 proper subsets: O(n d + n^2 (L + 1)) whenever
    n * d <= 2^24.  It never exceeds the cost of scanning every subset up
    to the witness.
    """
    kappa = normalize_weights(d, tuple(kappa_raw))
    n = len(kappa)
    eps0 = eps0_of(d, kappa)

    size_ok = n + 1 - eps0 >= 5
    small_d_ok = d not in (3, 4, 6) or 2 * d < sum(kappa) < (n - 2) * d
    diagnostics: dict = {
        "size_condition": size_ok,
        "small_d_condition": small_d_ok,
        "subsets": [],
    }
    if not (size_ok and small_d_ok):
        return Verdict("unknown", None, diagnostics)

    for combo in _divisible_subsets(d, kappa):
        inside = [kappa[i - 1] for i in combo]
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
