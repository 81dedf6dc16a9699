"""Braid-group operators from cyclic covers: contexts, Gram matrices, twists.

A context fixes integers (d, n), a weight vector kappa reduced into
[1, d-1], and an exponent k coprime to d selecting the eigenvalue
q = zeta_d^k.  On the compact-support space with basis g_1, ..., g_{n-1}
the form is the anti-Hermitian Gram matrix G with

    G[r][c] = J(g_c, g_r),        J = i * <.,.>,

so that the form evaluates as conj(y)^T G x (linear in x, conjugate-linear
in y) and every operator matrix M acting on column coordinate vectors
satisfies M* G M = G exactly.  Under this layout the radical vector w
(present when eps0 = 1) satisfies G w = 0.  A context builds G and the
radical data once, on first use; the twist operators never read G.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

from .cyclo import CycloNum, from_poly, spread_inverse, zeta
from .errors import (
    DegenerateBlock,
    DisconnectedCover,
    ExponentDivisible,
    IndexOutOfRange,
    InvalidParameter,
    NotCoprime,
    NotDegenerate,
    NotPrimitive,
    RadicalNotFixed,
    Singular,
)
from .linalg import (
    CycloMatrix,
    SparseLetter,
    Term,
    Vector,
    factored_product,
    sesquilinear,
    sparse_matrix,
    word_product,
)

# -- braid words -------------------------------------------------------------

Letter = tuple[tuple, int]  # (("A", i, j) | ("T", r) | ("FT", s, r), exponent +-1)

_LETTER_RE = re.compile(
    r"^(?:A\((\d+),(\d+)\)|T\((\d+)\)|FT\((\d+),(\d+)\))(\^-1)?$"
)


@dataclass(frozen=True)
class BraidWord:
    """A word in pair twists A(i,j), prefix twists T(r), block twists FT(s,r).

    Words multiply by concatenation and evaluate left to right.
    """

    letters: tuple[Letter, ...] = ()

    @staticmethod
    def A(i: int, j: int, exp: int = 1) -> BraidWord:
        return BraidWord(((("A", i, j), exp),))

    @staticmethod
    def T(r: int, exp: int = 1) -> BraidWord:
        return BraidWord(((("T", r), exp),))

    @staticmethod
    def FT(s: int, r: int, exp: int = 1) -> BraidWord:
        return BraidWord(((("FT", s, r), exp),))

    def __mul__(self, other: BraidWord) -> BraidWord:
        return BraidWord(self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def __str__(self) -> str:
        return " ".join(f"{gen[0]}({','.join(map(str, gen[1:]))}){'^-1' if exp < 0 else ''}"
                        for gen, exp in self.letters)


def commutator(a: BraidWord, b: BraidWord) -> BraidWord:
    """[a, b] = a b a^-1 b^-1."""
    return a * b * a.inverse() * b.inverse()


def parse_word(text: str) -> BraidWord:
    """Parse whitespace-separated letters like "A(1,2) T(3)^-1 FT(2,5)"."""
    letters: list[Letter] = []
    for token in text.split():
        m = _LETTER_RE.match(token)
        if not m:
            raise IndexOutOfRange(f"unparseable word letter {token!r}")
        exp = -1 if m.group(6) else 1
        if m.group(1) is not None:
            letters.append((("A", int(m.group(1)), int(m.group(2))), exp))
        elif m.group(3) is not None:
            letters.append((("T", int(m.group(3))), exp))
        else:
            letters.append((("FT", int(m.group(4)), int(m.group(5))), exp))
    return BraidWord(tuple(letters))


def block_twist_word(s: int, r: int) -> BraidWord:
    """The full twist on punctures s..r as a positive word in the pair twists.

    Letters are ordered so that left-to-right evaluation of the word equals
    the prefix twist matrix when s = 1: operators compose contravariantly
    (pullbacks on cohomology), so the group word prod_{j=s+1}^{r}
    ( A(s,j) A(s+1,j) ... A(j-1,j) ) is emitted in reverse.
    """
    if not 1 <= s < r:
        raise IndexOutOfRange(f"need 1 <= s < r, got ({s}, {r})")
    letters: list[Letter] = []
    for j in range(s + 1, r + 1):
        for i in range(s, j):
            letters.append((("A", i, j), 1))
    return BraidWord(tuple(reversed(letters)))


# -- contexts ----------------------------------------------------------------

# Resource limit, checked before any table is built.  MAX_DEGREE bounds the
# modulus d of a context: its field table holds about 2 phi(d) rows of phi(d)
# ints.  The horo orbits need no limit of their own: each is spun once, to
# full rank or closure, so its work is bounded by d and n.
MAX_DEGREE = 2048


def normalize_weights(d: int, kappa_raw: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Reduce raw weights mod d into [1, d-1] and validate the cover."""
    if d < 3:
        raise InvalidParameter(f"modulus d must be >= 3, got {d}")
    if len(kappa_raw) < 3:
        raise InvalidParameter(f"need n >= 3 weights, got {len(kappa_raw)}")
    kappa = tuple(k % d for k in kappa_raw)
    if any(k == 0 for k in kappa):
        raise ExponentDivisible(f"weight divisible by d={d} after reduction: {kappa_raw}")
    if math.gcd(d, *kappa) != 1:
        raise DisconnectedCover(f"gcd(kappa, d) = {math.gcd(d, *kappa)} != 1")
    return kappa


@dataclass(frozen=True, eq=False)
class RepContext:
    """Parameters (d, n, kappa, k) for one eigenvalue q; derived data is built on first use."""

    d: int
    n: int
    weights: tuple[int, ...]       # kappa, reduced into [1, d-1]
    k: int                         # q = zeta_d^k, gcd(k, d) = 1
    eps0: int                      # 1 iff d | (k_1 + ... + k_n)
    prefix_sums: tuple[int, ...]   # prefix_sums[r] = k_1 + ... + k_r, index 0..n
    q: CycloNum
    mu: CycloNum                   # (1 - q)(1 - conj(q)), real and positive

    @cached_property
    def _letter_cache(self) -> dict[Letter, SparseLetter]:
        """The letters of _sparse_letters, each prepared once, as words ask for them."""
        return {}

    @cached_property
    def gram(self) -> CycloMatrix:
        """The (n-1) x (n-1) anti-Hermitian J-Gram on g_1, ..., g_{n-1}, in
        closed form, with no field inverse.

        With 1 / (1 - omega) = -(1/d) sum_j j omega^j for omega^d = 1 != omega
        (cyclo.spread_inverse) and (1 - q^{a+b}) / ((1 - q^a)(1 - q^b)) =
        1 / (1 - q^a) + 1 / (1 - q^b) - 1, every entry is mu times a spread
        over Z[x]/(x^d - 1) with denominator d, mu = 2 - zeta^k - zeta^-k
        applied as three rotations, reduced modulo Phi_d once: the diagonal
        mu (1 - q^{k_i + k_j}) / ((1 - q^{k_i})(1 - q^{k_j})), which is 0
        when d | k_i + k_j, and mu / (1 - q^{-k_j}) and -mu / (1 - q^{k_j})
        beside it.
        """
        d, k, size, kappa = self.d, self.k, self.n - 1, self.weights
        zero = CycloNum.zero(d)

        def entry(*exponents: int, extra: int = 0) -> CycloNum:
            # mu / d * (extra + sum of the spreads d / (zeta^e - 1) = -d / (1 - zeta^e))
            spread = [extra] + [0] * (d - 1)
            for e in exponents:
                spread = [x + y for x, y in zip(spread, spread_inverse(d, e))]
            mu_spread = [2 * spread[t] - spread[(t - k) % d] - spread[(t + k) % d] for t in range(d)]
            return from_poly(d, mu_spread, d)

        rows = [[zero] * size for _ in range(size)]
        for a in range(size):
            ki, kj = kappa[a], kappa[a + 1]
            rows[a][a] = -entry(k * ki, k * kj, extra=d)
            if a + 1 < size:
                rows[a][a + 1] = -entry(-k * kj)
                rows[a + 1][a] = entry(k * kj)
        return CycloMatrix.from_rows(d, rows)

    @cached_property
    def _radical_exponents(self) -> tuple[int, ...]:
        """e_b = -k (k_1+...+k_{b+1}) mod d: coordinate b of radical_vector is zeta^{e_b} - 1."""
        return tuple(-self.k * self.prefix_sums[i] % self.d for i in range(1, self.n))

    @cached_property
    def _radical(self) -> Vector:
        """The coordinates qbar^{k_1+...+k_i} - 1 of radical_vector."""
        one = CycloNum.one(self.d)
        return tuple(zeta(self.d, e) - one for e in self._radical_exponents)

    @cached_property
    def _radical_rows(self) -> list[list[int]]:
        """The numerators of _radical, whose entries have den 1, as the
        rows that linalg.factored_product checks the radical against."""
        return [list(x.num) for x in self._radical]

    @cached_property
    def _last_basis_rewrite(self) -> Vector:
        """Quotient coordinates of the class of g_{n-1} via the radical
        relation: c w_a with c = -1 / w_{n-2} = -spread_inverse / d."""
        d = self.d
        c = from_poly(d, spread_inverse(d, self._radical_exponents[-1]), -d)
        return tuple(c * x for x in self._radical[:-1])

    @cached_property
    def _quotient_factors(self) -> tuple[SparseLetter, SparseLetter]:
        """The factors (R, L) of the quotient image L M R of a word's fold M
        (evaluate_quotient): R keeps the first n-2 columns and puts M w in
        column n-2, and L, times d, maps an ambient column u to
        d u_a - (zeta^{e_a} - 1) d u_{n-2} / w_{n-2}, a < n-2, its one
        division by w_{n-2} = zeta^{e_{n-2}} - 1 the spread terms of
        _spread_terms."""
        d, size, exps = self.d, self.n - 2, self._radical_exponents
        left = [(a, a, d, 0) for a in range(size)]
        left += [t for a in range(size) for t in _spread_terms(d, a, size, exps[size], ((-1, exps[a]), (1, 0)))]
        return SparseLetter(d, _radical_terms(self, size)), SparseLetter(d, left)

    def qpow(self, e: int) -> CycloNum:
        """q^e as a field element (e may be negative)."""
        return zeta(self.d, (self.k * e) % self.d)

    def jform(self, x: Vector, y: Vector) -> CycloNum:
        """The stored sesquilinear form on compact-support coordinates."""
        return sesquilinear(self.gram, x, y)

    def basis_vector(self, i: int) -> Vector:
        """Coordinates of g_i, 1 <= i <= n-1."""
        zero, one = CycloNum.zero(self.d), CycloNum.one(self.d)
        return tuple(one if j == i - 1 else zero for j in range(self.n - 1))


def eps0_of(d: int, kappa: tuple[int, ...]) -> int:
    """eps0: 1 when d divides k_1 + ... + k_n (the form then has a radical), else 0."""
    return 1 if sum(kappa) % d == 0 else 0


def make_context(d: int, kappa_raw: tuple[int, ...] | list[int], k: int = 1) -> RepContext:
    """Validate parameters and build the context; its Gram matrix waits for first use."""
    if d > MAX_DEGREE:
        raise InvalidParameter(f"modulus d must be <= {MAX_DEGREE}, got {d}")
    kappa = normalize_weights(d, kappa_raw)
    if math.gcd(k, d) != 1:
        raise NotPrimitive(f"gcd(k={k}, d={d}) != 1")
    k %= d
    prefix = [0]
    for ki in kappa:
        prefix.append(prefix[-1] + ki)
    q, one = zeta(d, k), CycloNum.one(d)
    mu = (one - q) * (one - zeta(d, -k % d))
    return RepContext(d, len(kappa), kappa, k, eps0_of(d, kappa), tuple(prefix), q, mu)


# -- operator construction -----------------------------------------------------

def _check_letter(n: int, letter: Letter) -> None:
    """IndexOutOfRange for a letter outside 1..n, then InvalidParameter for an
    exponent other than +-1."""
    (kind, a, *b), exp = letter
    if kind == "T":
        if not 2 <= a <= n - 1:
            raise IndexOutOfRange(f"need 2 <= r <= {n - 1}, got {a}")
    elif not 1 <= a < b[0] <= n:
        raise IndexOutOfRange(f"need 1 <= i < j <= {n}, got ({a}, {b[0]})" if kind == "A"
                              else f"FT({a}, {b[0]}) outside 1..{n}")
    if exp not in (1, -1):
        raise InvalidParameter(f"letter exponent must be 1 or -1, got {exp}")


def _pair_terms(ctx: RepContext, i: int, j: int, exp: int) -> list[Term]:
    """Terms (column, row, sign, exponent of q) of A(i,j)^exp: see pair_twist."""
    p, kj = ctx.prefix_sums, ctx.weights[j - 1]
    # w as pairs (b, e, f), each adding q^e - q^f to w_b; q^e = q^f adds nothing
    w = [(i - 1, 0, kj), (j - 2, p[j] - p[i], p[j] - p[i - 1])]
    if i >= 2:
        w.append((i - 2, kj, 0))
    if j <= ctx.n - 1:
        w.append((j - 1, p[j] - p[i - 1], p[j] - p[i]))
    w = [(b, e, f) if exp == -1 else (b, f, e) for b, e, f in w if (e - f) % ctx.d]  # -u w^T
    shift = 0 if exp == 1 else -(ctx.weights[i - 1] + kj)
    terms = [(b, b, 1, 0) for b in {b for b, _, _ in w}]
    for a in range(i - 1, j - 1):
        g = shift - (p[a + 1] - p[i])  # u_a = q^{-(P_{a+1} - P_i)}
        terms += [t for b, e, f in w for t in ((b, a, 1, g + e), (b, a, -1, g + f))]
    return terms


def _block_terms(ctx: RepContext, s: int, r: int, exp: int) -> list[Term]:
    """Terms (column, row, sign, exponent of q) of FT(s,r)^exp: see block_twist."""
    p, size = ctx.prefix_sums, ctx.n - 1
    scale = exp * (p[r] - p[s - 1])
    shears = [(r - 1, r <= size), (s - 2, s >= 2)]
    terms = [(c, c, 1, 0) for c, present in shears if present]
    for l in range(s, r):
        h, v = p[l] - p[s - 1], p[r] - p[l]
        terms.append((l - 1, l - 1, 1, scale))
        # column r: Q (q^-h - 1), inverse 1 - q^-h; column s-1: 1 - q^v, inverse -Q^-1 (1 - q^v)
        pairs = ((scale - h, scale), (0, v)) if exp == 1 else ((0, -h), (scale + v, scale))
        for (c, present), (plus, minus) in zip(shears, pairs):
            if present and (plus - minus) % ctx.d:
                terms += [(c, l - 1, 1, plus), (c, l - 1, -1, minus)]
    return terms


def _letter_terms(ctx: RepContext, letter: Letter) -> list[Term]:
    """A letter's signed q-power terms for its non-identity columns, each
    (target column, source row, sign, power k e mod d of zeta for q^e)."""
    gen, exp = letter
    if gen[0] == "A":
        terms = _pair_terms(ctx, gen[1], gen[2], exp)
    else:
        terms = _block_terms(ctx, *((1, gen[1]) if gen[0] == "T" else gen[1:]), exp)
    return [(c, r, sign, ctx.k * e % ctx.d) for c, r, sign, e in terms]


def _letter_matrix(ctx: RepContext, letter: Letter) -> CycloMatrix:
    _check_letter(ctx.n, letter)
    return sparse_matrix(ctx.d, ctx.n - 1, _letter_terms(ctx, letter))


def pair_twist(ctx: RepContext, i: int, j: int, exp: int = 1) -> CycloMatrix:
    """Matrix of the twist about a disc enclosing punctures i and j, or of its
    inverse when exp = -1, in closed form.

    The twist is the complex reflection x -> x - c * J(x, u) u with
    u = g_i + sum_{l=i+1}^{j-1} qbar^{k_{i+1}+...+k_l} g_l and
    c = (1 - q^{k_i})(1 - q^{k_j}) / mu.  With P_l = k_1+...+k_l and 0-based
    rows and columns, it equals I - u w^T: u_a = q^{-(P_{a+1} - P_i)} on the
    rows a = i-1..j-2, and w = c * u^* G is non-zero on four columns at most,

        w_{i-2}  = q^{k_j} - 1, when i >= 2,
        w_{i-1}  = 1 - q^{k_j},
        w_{j-2} += q^{P_j - P_i} - q^{P_j - P_{i-1}}  (onto w_{i-1} when j = i+1),
        w_{j-1}  = q^{P_j - P_{i-1}} - q^{P_j - P_i}, when j <= n-1.

    Its determinant is 1 - w^T u = 1 - c * J(u, u) = q^{k_i + k_j}, so by
    Sherman-Morrison the inverse is I + q^{-(k_i + k_j)} u w^T.  Every entry
    of u w^T is a sum of signed powers of q, so no Gram matrix and no field
    arithmetic enters: the entries are sums of rows of the power table.
    """
    return _letter_matrix(ctx, (("A", i, j), exp))


def block_twist(ctx: RepContext, s: int, r: int, exp: int = 1) -> CycloMatrix:
    """Matrix of the full twist FT(s,r) about a disc enclosing punctures
    s..r (1 <= s < r <= n), or of its inverse when exp = -1, in closed form.

    With P_l = k_1+...+k_l and Q = q^{P_r - P_{s-1}}, FT(s,r) is the
    identity except on the rows l = s..r-1, which hold

        Q on the diagonal,
        Q (q^{-(P_l - P_{s-1})} - 1) in column r, when r <= n-1,
        1 - q^{P_r - P_l} in column s-1, when s >= 2.

    The inverse holds Q^{-1} on the diagonal, 1 - q^{-(P_l - P_{s-1})} in
    column r and -Q^{-1} (1 - q^{P_r - P_l}) in column s-1.  It equals the
    evaluated word block_twist_word(s, r), or its inverse word, and costs no
    matrix product.
    """
    return _letter_matrix(ctx, (("FT", s, r), exp))


def prefix_twist(ctx: RepContext, r: int, exp: int = 1) -> CycloMatrix:
    """Matrix of the twist about a disc enclosing punctures 1..r (2 <= r <= n-1),
    or of its inverse when exp = -1: the case s = 1 of :func:`block_twist`.

    Scales g_1, ..., g_{r-1} by q^{k_1+...+k_r}, fixes g_{r+1}, ..., g_{n-1},
    and shears g_r by the weighted sum of the earlier basis vectors: column r
    holds q^{P_r} (q^{-P_l} - 1) in row l < r, with P_l = k_1+...+k_l.  The
    inverse scales by q^{-P_r} and holds 1 - q^{-P_l} in column r.
    """
    return _letter_matrix(ctx, (("T", r), exp))


def _sparse_letters(ctx: RepContext, word: BraidWord) -> list[SparseLetter]:
    """The word's letters prepared for linalg.word_product, cached per
    context; bad letters raise before anything is built."""
    cache = ctx._letter_cache
    missing = [letter for letter in dict.fromkeys(word.letters) if letter not in cache]
    for letter in missing:
        _check_letter(ctx.n, letter)
    for letter in missing:
        cache[letter] = SparseLetter(ctx.d, _letter_terms(ctx, letter))
    return [cache[letter] for letter in word.letters]


def _radical_terms(ctx: RepContext, col: int) -> list[Term]:
    """Terms that put the radical vector, w_b = zeta^{e_b} - 1, in column col."""
    return [(col, b, s, t) for b, e in enumerate(ctx._radical_exponents) if e for s, t in ((1, e), (-1, 0))]


def _spread_terms(d: int, target: int, source: int, e: int, refs: tuple[tuple[int, int], ...]) -> list[Term]:
    """Terms of the sum of s zeta^t d / (zeta^e - 1) u_source over the
    references (s, t), on row target: each is s x^t times the spread
    cyclo.spread_inverse(d, e), and the terms are combined per power of
    zeta, so references that cancel leave none."""
    spread, coefs = spread_inverse(d, e), [0] * d
    for s, t in refs:
        for j, c in enumerate(spread):
            coefs[(j + t) % d] += s * c
    return [(target, source, c, p) for p, c in enumerate(coefs) if c]


def evaluate_word(ctx: RepContext, word: BraidWord) -> CycloMatrix:
    """Evaluate a braid word to its exact operator matrix, left to right.

    Every letter, inverse letters included, is a closed form, the signed
    q-power terms of pair_twist, prefix_twist or block_twist, so nothing is
    eliminated.  Bad letters raise before anything is built; the terms are
    cached per context, and linalg.word_product applies them as rolls of an
    int64 array, which it converts to Python ints in place should the word
    outgrow int64.
    """
    return word_product(ctx.d, ctx.n - 1, _sparse_letters(ctx, word))


def _factored_word(ctx: RepContext, word: BraidWord, right: SparseLetter, left: SparseLetter) -> CycloMatrix:
    """left * rho(word) * right, with right's last column the radical,
    checked fixed, by linalg.factored_product straight from the word's
    letters: bad letters raise first, then NotDegenerate, and the fold is
    reduced modulo Phi_d once."""
    letters = _sparse_letters(ctx, word)
    if ctx.eps0 != 1:
        raise NotDegenerate("quotient requires eps0 = 1")
    return factored_product(ctx.d, ctx.n - 1, letters, right, left, ctx._radical_rows)


def evaluate_quotient(ctx: RepContext, word: BraidWord) -> CycloMatrix:
    """The image of a braid word on the n-2 quotient, equal to
    quotient_matrix(ctx, evaluate_word(ctx, word)): the factors of
    RepContext._quotient_factors applied to the word's unreduced fold, so
    the radical check and the entries are integer arrays; no field product."""
    return _factored_word(ctx, word, *ctx._quotient_factors)


def word_det(ctx: RepContext, word: BraidWord) -> CycloNum:
    """det rho(word) = q^E in closed form, without evaluating the word.

    With P_l = k_1+...+k_l, each letter adds its exponent to E, negated for
    an inverse letter: A(i,j) adds k_i+k_j, FT(s,r), the product of every
    A(i,j) with s <= i < j <= r, adds (r-s)(P_r - P_{s-1}), and T(r), which
    is FT(1,r), adds (r-1) P_r.  Bad letters raise what evaluate_word raises.
    """
    p = ctx.prefix_sums
    total = 0
    for letter in word.letters:
        _check_letter(ctx.n, letter)
        (kind, a, *b), exp = letter
        if kind == "A":
            total += exp * (ctx.weights[a - 1] + ctx.weights[b[0] - 1])
        else:
            s, r = (1, a) if kind == "T" else (a, b[0])  # T(r) is FT(1, r)
            total += exp * (r - s) * (p[r] - p[s - 1])
    return ctx.qpow(total)


# -- radical and quotient -------------------------------------------------------

def radical_vector(ctx: RepContext) -> Vector:
    """Coordinates of w = sum_{i=1}^{n-1} (qbar^{k_1+...+k_i} - 1) g_i.

    Defined when eps0 = 1; spans the kernel of the Gram matrix and is fixed
    by every operator.
    """
    if ctx.eps0 != 1:
        raise NotDegenerate("radical vector exists only when eps0 = 1")
    return ctx._radical


def quotient_gram(ctx: RepContext) -> CycloMatrix:
    """Gram matrix of the descended form on the classes of g_1, ..., g_{n-2}."""
    if ctx.eps0 != 1:
        raise NotDegenerate("quotient requires eps0 = 1")
    idx = list(range(ctx.n - 2))
    return ctx.gram.submatrix(idx, idx)


def quotient_matrix(ctx: RepContext, m: CycloMatrix) -> CycloMatrix:
    """Push an operator that fixes the radical down to the n-2 quotient.

    With c = -1 / w_{n-2}, the class of g_{n-1} is sum_a c w_a g_a, so
    entry (a, b) of the image is M[a][b] + c w_a M[n-2][b].  The plain
    formula, in field arithmetic, and so the independent oracle of
    evaluate_quotient; the rewrite c w_a is a spread, so no field inverse
    is formed.  Raises what m.apply(w) raises (ShapeMismatch, then
    ModulusMismatch), then RadicalNotFixed when m.apply(w) != w.
    """
    if ctx.eps0 != 1:
        raise NotDegenerate("quotient requires eps0 = 1")
    w = ctx._radical
    if m.apply(w) != w:
        raise RadicalNotFixed("operator moves the radical vector")
    size, rewrite = ctx.n - 2, ctx._last_basis_rewrite
    return CycloMatrix.from_rows(ctx.d, [[m.entry(a, b) + rewrite[a] * m.entry(size, b) for b in range(size)]
                                         for a in range(size)])


# -- two-dimensional lantern block ------------------------------------------------

@dataclass(frozen=True)
class LanternBlock:
    """Restrictions to the 2-dim block complementary to span(g_1..g_{r-3})."""

    A: CycloMatrix                   # prefix twist T(r-1) restricted
    B: CycloMatrix                   # pair twist A(r-1, r) restricted
    C: CycloMatrix                   # q^{k_1+...+k_r} * B^-1 * A^-1, from the inverse letters
    basis: tuple[Vector, Vector]     # (projected g_{r-2}, g_{r-1}) in full coordinates
    eigenvector: tuple[CycloNum, CycloNum]   # block coordinates
    eigenvalue: CycloNum


def _restrict(m: CycloMatrix, basis: tuple[Vector, Vector], r: int) -> CycloMatrix:
    """2x2 matrix of m on the block spanned by basis, columns = image
    coordinates: u1 is 1 at index r-3 and 0 at r-2, u2 the reverse, so the
    coordinates are an image's entries there.  Singular if an image leaves it."""
    images = [m.apply(u) for u in basis]
    for img in images:
        if img != tuple(img[r - 3] * x + img[r - 2] * y for x, y in zip(*basis)):
            raise Singular("inconsistent system")
    return CycloMatrix.from_rows(m.d, [[img[i] for img in images] for i in (r - 3, r - 2)])


def lantern_block(ctx: RepContext, r: int) -> LanternBlock:
    """Build the 2x2 restrictions A, B and the lantern product C for index r.

    Requires 3 <= r <= n, d not dividing k_1+...+k_{r-2} nor k_1+...+k_r.
    The block is spanned by the J-orthogonal projection of g_{r-2} away from
    span(g_1..g_{r-3}) together with g_{r-1}.
    """
    n = ctx.n
    if not 3 <= r <= n:
        raise IndexOutOfRange(f"need 3 <= r <= {n}, got {r}")
    if ctx.prefix_sums[r - 2] % ctx.d == 0:
        raise DegenerateBlock(f"d | k_1+...+k_{r - 2}")
    if ctx.prefix_sums[r] % ctx.d == 0:
        raise DegenerateBlock(f"d | k_1+...+k_{r}")
    d = ctx.d
    zero = CycloNum.zero(d)

    # project g_{r-2} J-orthogonally away from span(g_1..g_{r-3})
    g_proj = list(ctx.basis_vector(r - 2))
    if r >= 4:
        sub = ctx.gram.submatrix(range(r - 3), range(r - 3))
        rhs = tuple(ctx.gram.entry(l, r - 3) for l in range(r - 3))
        try:
            coeffs = sub.solve(rhs)
        except Singular as exc:
            raise DegenerateBlock(f"projection undefined at r={r}") from exc
        for c_idx, c_val in enumerate(coeffs):
            g_proj[c_idx] = g_proj[c_idx] - c_val
    basis = (tuple(g_proj), ctx.basis_vector(r - 1))

    a_block = _restrict(prefix_twist(ctx, r - 1), basis, r)
    b_block = _restrict(pair_twist(ctx, r - 1, r), basis, r)
    # the closed-form inverse letters, so A B C = q^{k_1+...+k_r} is a check
    b_inv_a_inv = pair_twist(ctx, r - 1, r, -1) @ prefix_twist(ctx, r - 1, -1)
    c_block = _restrict(b_inv_a_inv, basis, r).scale(ctx.qpow(ctx.prefix_sums[r]))
    eigenvector = (CycloNum.one(d), ctx.qpow(-ctx.weights[r - 2]))
    eigenvalue = ctx.qpow(ctx.prefix_sums[r - 2] + ctx.weights[r - 1])
    return LanternBlock(a_block, b_block, c_block, basis, eigenvector, eigenvalue)


# -- Galois transport and scalar relation ------------------------------------------

def galois_transport(ctx: RepContext, m: CycloMatrix, t: int) -> CycloMatrix:
    """Apply zeta -> zeta^t entrywise, carrying operators at k to k*t mod d.

    Raises NotCoprime, through CycloNum.galois, when gcd(t, d) != 1.
    """
    return m.galois(t)


def transported_context(ctx: RepContext, t: int) -> RepContext:
    """The context with the same weights at exponent k*t mod d."""
    if math.gcd(t, ctx.d) != 1:
        raise NotCoprime(f"gcd({t}, {ctx.d}) != 1")
    return make_context(ctx.d, ctx.weights, (ctx.k * t) % ctx.d)


def scalar_relation_holds(ctx: RepContext) -> bool:
    """Check that the last pair twist is a scalar multiple of a prefix twist
    on the quotient: rho(A(n-1, n)) = q^{k_{n-1}+k_n} rho(T(n-2)).

    Both sides are quotient images of the braid words A(n-1, n) and T(n-2)
    (evaluate_quotient); for n = 3 the prefix twist degenerates to the
    identity.  Requires eps0 = 1.
    """
    if ctx.eps0 != 1:
        raise NotDegenerate("scalar relation lives on the eps0 = 1 quotient")
    n = ctx.n
    left = evaluate_quotient(ctx, BraidWord.A(n - 1, n))
    if n >= 4:
        base = evaluate_quotient(ctx, BraidWord.T(n - 2))
    else:
        base = CycloMatrix.identity(ctx.d, n - 2)
    scalar = ctx.qpow(ctx.weights[n - 2] + ctx.weights[n - 1])
    return left == base.scale(scalar)
