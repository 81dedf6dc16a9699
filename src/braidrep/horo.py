"""Horospherical machinery for degenerate contexts: flag bases, unipotent
block patterns, the translation-part map, the commutator pairing, witness
braids, orbit rank scans and the lattice vectors in the center.

Everything lives on the quotient space of an eps0 = 1 context, for a chosen
index m with d | (k_1 + ... + k_m).  The flag basis is

    (w, g_1, ..., g_{m-2}, g_{m+2}, ..., g_{n-1}, g_m)

in quotient coordinates, with w isotropic and orthogonal to the middle block;
flag_columns writes this layout once, and make_flag, middle_gram and
FlagContext._factors read it.  Each of its two parts, lower (g_1 .. g_{m-2},
punctures 1..m) and upper (g_{m+2} .. g_{n-1}, punctures m+1..n), is
defined once, with its witness, in _part.
In this basis the Gram matrix has the arrow shape

    [ 0    0    -mu ]
    [ 0   G_W    0  ]
    [ mu   0     *  ]

and unipotent elements are exactly the matrices (1, x^T, a; 0, I, x'; 0, 0, 1)
with x' = mu * G_W^{-1} conj(x) and a - conj(a) = mu * (x^T G_W^{-1} conj(x)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .cyclo import CycloNum, euler_phi, units, zeta
from .errors import (
    BadM,
    ConstraintViolation,
    NoNonzeroPairing,
    NotDegenerate,
    NotParabolicElement,
    NotUnipotentElement,
    ShapeMismatch,
    Singular,
)
from .linalg import (
    CycloMatrix,
    RationalSpan,
    SparseLetter,
    Vector,
    rank_over_rationals,
    realify,
    solve_rational,
)
from .rep import (
    BraidWord,
    Letter,
    RepContext,
    _factored_word,
    _radical_terms,
    _spread_terms,
    commutator,
    quotient_gram,
)

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True, eq=False)
class FlagContext:
    ctx: RepContext
    m: int
    w: Vector                      # isotropic line generator, quotient coordinates
    P: CycloMatrix                 # columns = flag basis in quotient coordinates
    gram_flag: CycloMatrix         # P* G P, G the descended Gram, arrow shaped
    G_W: CycloMatrix               # middle (n-4) block of gram_flag
    G_W_inv: CycloMatrix
    mu: CycloNum
    orbits: dict = field(default_factory=dict, repr=False)  # part -> _Orbit, built on demand
    actions: dict = field(default_factory=dict, repr=False)  # letter -> (lambda, C^-1), built on demand
    flags: dict = field(default_factory=dict, repr=False)  # word -> flag matrix of its image, built on demand

    @property
    def middle_size(self) -> int:
        return self.ctx.n - 4

    @cached_property
    def _factors(self) -> tuple[SparseLetter, SparseLetter]:
        """(R, L): F = P^-1 Q(M) P is L M R for an ambient M that fixes the
        radical r; see word_flag_matrix.

        The flag basis lifts to the ambient vectors w (the radical's
        coordinates below m - 1) and g_a for each a of flag_columns, g_{n-1}
        for its class; R is that lift with r as a last column.  The
        lifts and r are a basis, and the flag coordinates of an ambient u
        come from its entries at m - 2 and m, where no unit sits: with alpha
        = u_{m-2} / r_{m-2} and beta = u_m / r_m, w has alpha - beta, a unit
        g_a has u_a - alpha r_a below m and u_a - beta r_a above, and r, the
        dropped coordinate, beta.  L is that map times d, each division the
        spread terms of rep._spread_terms.
        """
        ctx, m, n = self.ctx, self.m, self.ctx.n
        d, exps = ctx.d, ctx._radical_exponents
        columns = flag_columns(n, m)
        right = [t for t in _radical_terms(ctx, 0) if t[1] < m - 1]  # w: the radical's rows below m - 1
        right += [(j, a, 1, 0) for j, a in enumerate(columns, 1)] + _radical_terms(ctx, n - 2)
        alpha, beta = (m - 2, exps[m - 2]), (m, exps[m])  # the divisions by r_{m-2} and r_m
        left = _spread_terms(d, 0, *alpha, ((1, 0),)) + _spread_terms(d, 0, *beta, ((-1, 0),))
        for j, a in enumerate(columns, 1):
            left += [(j, a, d, 0)] + _spread_terms(d, j, *(alpha if a < m else beta), ((-1, exps[a]), (1, 0)))
        return SparseLetter(d, right), SparseLetter(d, left)


class _Part(NamedTuple):
    block: range        # middle coordinates of the part's g_a
    punctures: range    # the punctures whose pair twists A(i, j) generate the part
    witness: tuple[BraidWord, BraidWord]  # the witness is their commutator, reversed


def _part(n: int, m: int, part: str) -> _Part:
    """The one definition of a flag part.  Lower: block g_1 .. g_{m-2},
    punctures 1..m and the commutator of A(m-1, m) with T(m-1), which moves
    only g_{m-2} (by a multiple of w) and g_m.  Upper: block g_{m+2} ..
    g_{n-1}, punctures m+1..n and the commutator of A(m+1, m+2) with
    FT(m+2, n).  Raises ValueError for any other part name."""
    if part == LOWER:
        return _Part(range(m - 2), range(1, m + 1), (BraidWord.A(m - 1, m), BraidWord.T(m - 1)))
    if part == UPPER:
        return _Part(range(m - 2, n - 4), range(m + 1, n + 1),
                     (BraidWord.A(m + 1, m + 2), BraidWord.FT(m + 2, n)))
    raise ValueError(f"part must be {LOWER!r} or {UPPER!r}, got {part!r}")


def flag_columns(n: int, m: int) -> tuple[int, ...]:
    """The ambient index of each flag column after w: g_1 .. g_{m-2}, then
    g_{m+2} .. g_{n-1}, then g_m, 0-based.  Index n - 2, g_{n-1}, stands
    for its class g_last in quotient coordinates."""
    return (*range(m - 2), *range(m + 1, n - 1), m - 1)


def _tridiagonal_inverse(t: CycloMatrix) -> CycloMatrix:
    """Inverse of a tridiagonal matrix, with diagonal a, superdiagonal b and
    subdiagonal c, from its leading minors theta_i and trailing minors
    phi_j (Usmani, Linear Algebra Appl. 212/213, 1994): for i <= j the
    entry (i, j) is (-1)^{i+j} b_i ... b_{j-1} theta_i phi_{j+1} / theta_k,
    and (j, i) the same with c for b; one field inverse, of the
    determinant theta_k.  Raises Singular when it vanishes."""
    k, d = t.rows, t.d
    one = CycloNum.one(d)
    a = [t.entry(i, i) for i in range(k)]
    bc = [t.entry(i, i + 1) * t.entry(i + 1, i) for i in range(k - 1)]
    theta, phi = [one, a[0]], [one, a[-1]]  # phi built backwards: phi[i] is the minor from row k - i
    for i in range(1, k):
        theta.append(a[i] * theta[i] - bc[i - 1] * theta[i - 1])
        phi.append(a[k - 1 - i] * phi[i] - bc[k - 1 - i] * phi[i - 1])
    if not theta[k]:
        raise Singular(f"rank < {k}")
    scale = theta[k].inv()
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        upper = lower = theta[i] * scale
        rows[i][i] = upper * phi[k - 1 - i]
        for j in range(i + 1, k):
            upper = -upper * t.entry(j - 1, j)
            lower = -lower * t.entry(j, j - 1)
            rows[i][j] = upper * phi[k - 1 - j]
            rows[j][i] = lower * phi[k - 1 - j]
    return CycloMatrix.from_rows(d, rows)


def middle_gram(ctx: RepContext, m: int) -> tuple[CycloMatrix, CycloMatrix]:
    """G_W and G_W^-1 for index m by structure, with no P* G P: every middle
    flag column but the last is a unit vector g_a, whose entries are Gram
    entries; when the upper block is not empty the last one is g_last, the
    class of g_{n-1}, whose column is G g_last and whose row is
    -conj(G g_last), since G is anti-Hermitian.  G_W is block diagonal with
    one tridiagonal block per part (ConstraintViolation otherwise), and each
    block is inverted by _tridiagonal_inverse, one field inverse per block.
    Reads only the context's closed-form Gram, so a Galois sibling of a flag
    takes its own G_W^-1 from here."""
    n, s = ctx.n, ctx.n - 4
    G = quotient_gram(ctx)
    middle = flag_columns(n, m)[:-1]
    unit_cols = [a for a in middle if a < n - 2]  # quotient index of each unit middle column
    rows = [[G.entry(a, b) for b in unit_cols] for a in unit_cols]
    if n - 2 in middle:
        g_last = ctx._last_basis_rewrite
        column = G.apply(g_last)
        for row, a in zip(rows, unit_cols):
            row.append(column[a])
        rows.append([-column[b].conj() for b in unit_cols])
        rows[-1].append(sum((x.conj() * y for x, y in zip(g_last, column)), CycloNum.zero(ctx.d)))
    G_W = CycloMatrix.from_rows(ctx.d, rows)
    # G is tridiagonal, and the two parts' runs of g_a are not adjacent
    blocks = [_part(n, m, part).block for part in (LOWER, UPPER)]
    block_of = [i for i, b in enumerate(blocks) for _ in b]
    if any(G_W.entry(i, j) for i in range(s) for j in range(s) if block_of[i] != block_of[j] or abs(i - j) > 1):
        raise ConstraintViolation("middle block of the flag Gram matrix is not tridiagonal per part")
    G_W_inv = CycloMatrix.zeros(ctx.d, s, s).to_lists()
    for b in filter(None, blocks):
        inv = _tridiagonal_inverse(G_W.submatrix(b, b))
        for i in b:
            G_W_inv[i][b.start : b.stop] = inv.row(i - b.start)
    return G_W, CycloMatrix.from_rows(ctx.d, G_W_inv)


def make_flag(ctx: RepContext, m: int) -> FlagContext:
    """Build the flag data for index m; validates every structural invariant
    and eliminates nothing: the Gram matrix is a closed form, G_W and G_W^-1
    come from middle_gram, by structure, and must equal the middle block of
    P* G P, and flag matrices come from the factors of
    FlagContext._factors, not from an inverse of P."""
    if ctx.eps0 != 1:
        raise NotDegenerate("flag requires eps0 = 1")
    n = ctx.n
    if not 2 <= m <= n - 2:
        raise BadM(f"need 2 <= m <= {n - 2}, got {m}")
    if ctx.prefix_sums[m] % ctx.d != 0:
        raise BadM(f"d does not divide k_1 + ... + k_{m}")
    d, size = ctx.d, n - 2
    # w = sum_{i<m} (qbar^{k_1+...+k_i} - 1) g_i: the radical's coordinates below m - 1
    w = ctx._radical[: m - 1] + (CycloNum.zero(d),) * (size - m + 1)
    unit = CycloMatrix.identity(d, size).row
    flag = [w, *(unit(a) if a < size else ctx._last_basis_rewrite for a in flag_columns(n, m))]
    if len(flag) != size:
        raise ConstraintViolation(f"flag has {len(flag)} vectors, expected {size}")
    if not (ctx._radical[m - 2] and ctx._radical[m]):
        raise Singular("flag coordinates divide by a vanishing radical coordinate")

    P = CycloMatrix(d, size, size, tuple(flag[col][row] for row in range(size) for col in range(size)))
    gram_flag = P.conj_transpose() @ quotient_gram(ctx) @ P

    s = size - 2
    mu = ctx.mu
    # arrow-shape invariants forced by the construction
    if gram_flag.entry(0, 0):
        raise ConstraintViolation("w is not isotropic")
    for t in range(1, s + 1):
        if gram_flag.entry(0, t) or gram_flag.entry(t, 0):
            raise ConstraintViolation("w is not orthogonal to the middle block")
        if gram_flag.entry(s + 1, t) or gram_flag.entry(t, s + 1):
            raise ConstraintViolation("g_m is not orthogonal to the middle block")
    if gram_flag.entry(0, s + 1) != -mu or gram_flag.entry(s + 1, 0) != mu:
        raise ConstraintViolation("pairing of g_m against w is not -mu")
    G_W, G_W_inv = middle_gram(ctx, m)
    if G_W != gram_flag.submatrix(range(1, s + 1), range(1, s + 1)):
        raise ConstraintViolation("middle block of the flag Gram matrix differs from G_W by structure")
    if G_W.conj_transpose() != -G_W:
        raise ConstraintViolation("middle block of the flag Gram matrix is not anti-Hermitian")
    return FlagContext(ctx, m, w, P, gram_flag, G_W, G_W_inv, mu)


def word_flag_matrix(fc: FlagContext, word: BraidWord) -> CycloMatrix:
    """F(word), the flag matrix P^-1 Q P of the word's quotient image Q,
    straight from the unreduced array of the word's fold: L M R of
    FlagContext._factors, with M r = r checked; built once per flag
    context, since the battery and the orbits read those of the one-letter
    words and of the witnesses more than once."""
    if word not in fc.flags:
        fc.flags[word] = _factored_word(fc.ctx, word, *fc._factors)
    return fc.flags[word]


def _blocks(fc: FlagContext, f: CycloMatrix):
    s = fc.middle_size
    lam = f.entry(0, 0)
    lam_prime = f.entry(s + 1, s + 1)
    x = tuple(f.entry(0, t) for t in range(1, s + 1))          # first row, middle
    x_prime = tuple(f.entry(t, s + 1) for t in range(1, s + 1))  # last column, middle
    corner = f.entry(0, s + 1)
    middle = f.submatrix(range(1, s + 1), range(1, s + 1))
    return lam, lam_prime, x, x_prime, corner, middle


def in_parabolic(fc: FlagContext, word: BraidWord) -> bool:
    """Does the word's quotient image preserve the flag line < line + middle block?"""
    f, s = word_flag_matrix(fc, word), fc.middle_size
    return not any(f.entry(t, 0) for t in range(1, s + 2)) and not any(f.entry(s + 1, t) for t in range(1, s + 1))


def in_unipotent(fc: FlagContext, word: BraidWord) -> bool:
    """Block pattern (1, *, *; 0, I, *; 0, 0, 1) plus the forced constraints,
    for the word's quotient image.

    Raises ConstraintViolation when the pattern holds but either forced
    identity fails; form preservation makes that an implementation fault.
    """
    if not in_parabolic(fc, word):
        return False
    one = CycloNum.one(fc.ctx.d)
    lam, lam_prime, x, x_prime, corner, middle = _blocks(fc, word_flag_matrix(fc, word))
    if lam != one or lam_prime != one:
        return False
    if middle != CycloMatrix.identity(fc.ctx.d, fc.middle_size):
        return False
    if fc.G_W.apply(x_prime) != tuple(fc.mu * e.conj() for e in x):
        raise ConstraintViolation("last-column block differs from mu * G_W^-1 conj(x)")
    u = _pairing_scalar(fc, x, x)
    if corner - corner.conj() != fc.mu * u:
        raise ConstraintViolation("corner imaginary part differs from the forced pairing")
    return True


def _pairing_scalar(fc: FlagContext | Pairing, x: Vector, y: Vector) -> CycloNum:
    """x^T . G_W^{-1} . conj(y) as a field element."""
    d = fc.G_W_inv.d
    y_bar = CycloMatrix(d, len(y), 1, tuple(e.conj() for e in y))
    return (CycloMatrix(d, 1, len(x), tuple(x)) @ fc.G_W_inv @ y_bar).entries[0]


def translation_part(fc: FlagContext, word: BraidWord) -> Vector:
    """The first-row middle block of a unipotent word's flag matrix; additive on products."""
    if not in_unipotent(fc, word):
        raise NotUnipotentElement("operator is not in the unipotent group")
    return _blocks(fc, word_flag_matrix(fc, word))[2]


def corner_entry(fc: FlagContext, word: BraidWord) -> CycloNum:
    """Top-right corner of the word's flag matrix; real for elements of the center."""
    return _blocks(fc, word_flag_matrix(fc, word))[4]


def _letter_action(fc: FlagContext, letter: Letter) -> tuple[CycloNum, CycloMatrix]:
    """(lambda, C^-1) of a letter a, which acts on translation parts by
    x -> lambda x C^-1: the corner of F(a) and the middle block of F(a^-1),
    F = word_flag_matrix.  A parabolic flag matrix is block upper-triangular, so
    these blocks of F(a^-1) are the inverses of those of F(a): the inverse
    letter's closed form takes the place of any inversion, and a^-1 acts by
    the corner of F(a^-1) and the middle block of F(a).  Both are built once
    per flag context, from the memo of word_flag_matrix.  Raises
    NotParabolicElement unless F(a) preserves the flag.
    """
    if letter not in fc.actions:
        gen, exp = letter
        a, a_inv = (BraidWord(((gen, e),)) for e in (exp, -exp))
        if not in_parabolic(fc, a):
            raise NotParabolicElement(f"letter {a} does not preserve the flag")
        (lam, *_, middle), (lam_inv, *_, middle_inv) = (_blocks(fc, word_flag_matrix(fc, b)) for b in (a, a_inv))
        fc.actions[letter], fc.actions[(gen, -exp)] = (lam, middle_inv), (lam_inv, middle)
    return fc.actions[letter]


def conjugation_action(fc: FlagContext, word: BraidWord, x: Vector) -> Vector:
    """Action of a braid word on translation parts, its letters acting last
    first: a = l1 l2 sends x to lambda1 lambda2 x C2^-1 C1^-1, and the empty
    word fixes x.  Raises NotParabolicElement at any letter that does not
    preserve the flag, even where the product of the letters would."""
    if len(x) != fc.middle_size:
        raise ShapeMismatch(f"translation part must have length {fc.middle_size}")
    for letter in reversed(word.letters):
        x = _row_action(fc, *_letter_action(fc, letter), x)
    return tuple(x)


def _row_action(fc: FlagContext, lam: CycloNum, c_inv: CycloMatrix, x: Vector) -> Vector:
    """lambda x C^-1, for a C^-1 of len(x) rows: the whole middle block or one part's block."""
    return (CycloMatrix(fc.ctx.d, 1, len(x), tuple(x)) @ c_inv).scale(lam).entries


class Pairing(NamedTuple):
    """What commutator_pairing reads of a flag context: G_W^-1 and mu.  A
    Galois sibling of a flag is one of these, from the transported
    context's own middle_gram."""
    G_W_inv: CycloMatrix
    mu: CycloNum


def commutator_pairing(fc: FlagContext | Pairing, x: Vector, y: Vector) -> CycloNum:
    """The real-valued pairing mu * (u + conj(u)) with u = x^T G_W^{-1} conj(y).

    Antisymmetric, biadditive over Q, takes values in the real subfield; it
    is the corner of the commutator of two unipotent elements with
    translation parts x and y.  Reads only fc.G_W_inv and fc.mu, so fc may
    be a FlagContext or a Pairing.
    """
    s = fc.G_W_inv.rows
    if len(x) != s or len(y) != s:
        raise ShapeMismatch("translation parts of wrong length")
    u = _pairing_scalar(fc, x, y)
    return fc.mu * (u + u.conj())


# -- witness braids -----------------------------------------------------------

def reversed_word(word: BraidWord) -> BraidWord:
    """Letters in reverse order, exponents unchanged.

    Left-to-right evaluation composes pullbacks contravariantly, so the
    matrix of a specific mapping class is obtained from its group word read
    backwards.
    """
    return BraidWord(tuple(reversed(word.letters)))


def witness(fc: FlagContext, part: str) -> BraidWord:
    """The part's witness braid (_part), as an evaluation-ready word:
    unipotent with translation part in the part's block.  Raises BadM when
    the block is empty (m < 3 for lower, n - m < 3 for upper)."""
    n, m = fc.ctx.n, fc.m
    p = _part(n, m, part)
    if not p.block:
        raise BadM(f"{part} witness needs a non-empty block (m >= 3, n - m >= 3), got m = {m}, n = {n}")
    return reversed_word(commutator(*p.witness))


# -- flag parts -------------------------------------------------------------------

def part_slice(fc: FlagContext, part: str) -> slice:
    """Middle coordinates of the part's block: of g_1 .. g_{m-2} (lower), g_{m+2} .. g_{n-1} (upper)."""
    block = _part(fc.ctx.n, fc.m, part).block
    return slice(block.start, block.stop)


def witness_parts(fc: FlagContext) -> tuple[str, ...]:
    """Parts with a witness, i.e. a non-empty block, lower first: m >= 3, n - m >= 3."""
    return tuple(part for part in (LOWER, UPPER) if _part(fc.ctx.n, fc.m, part).block)


def full_rank(fc: FlagContext, part: str) -> int:
    """phi(d) times the part's block width: the Q-rank of an orbit spanning the block."""
    return euler_phi(fc.ctx.d) * len(_part(fc.ctx.n, fc.m, part).block)


def part_pairs(fc: FlagContext, part: str) -> list[tuple[int, int]]:
    """Pairs (i, j) of the part's generators A(i, j): punctures 1..m (lower), m+1..n (upper)."""
    return list(itertools.combinations(_part(fc.ctx.n, fc.m, part).punctures, 2))


# -- orbit machinery ------------------------------------------------------------

def part_witness(fc: FlagContext, part: str) -> Vector:
    """Translation part of the part's witness, read from its memoized flag matrix."""
    return translation_part(fc, witness(fc, part))


class _Orbit:
    """Conjugation orbit of one part witness, spun from its greedy Q-basis
    to full rank or to closure in the coordinates of the part's block: the
    part generators and their inverses act by x -> lambda x C^-1[block,
    block] with the entries of _letter_action, one image at a time.

    Every orbit vector vanishes off the part's block: a part generator
    moves vectors only along w and its own block (G is tridiagonal, and the
    radical relation puts g_{m+1} in the span of w and the upper block), so
    the block's rows of C^-1 vanish off the block and x -> lambda x C^-1
    keeps the support.  Both are checked, once per action and once for the
    witness (ConstraintViolation otherwise), so the images are those of the
    whole middle block restricted to the part's block, and the ranks are
    the same.  ``basis`` and ``seen`` hold block vectors.

    The action is Q-linear, so only images of basis vectors can enlarge
    the span (the spinning algorithm of the MeatAxe: Parker, 1984; Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, ch. 7).
    Each basis vector in turn is acted on in (vector, action) order, so
    ``basis`` is the greedy basis of the breadth-first orbit.  The spin
    stops at the vector that makes the rank full_rank(fc, part), or when
    every basis vector has been acted on, which closes the orbit.  So it
    forms at most full rank times 2 * len(part_pairs) images.  ``seen``
    holds the images formed, so each distinct image enters the span once.
    """

    def __init__(self, fc: FlagContext, part: str) -> None:
        inside, bound = _part(fc.ctx.n, fc.m, part).block, full_rank(fc, part)
        outside = [j for j in range(fc.middle_size) if j not in inside]
        actions = []
        for i, j in part_pairs(fc, part):
            for e in (1, -1):
                lam, c_inv = _letter_action(fc, (("A", i, j), e))
                if any(c_inv.entry(r, c) for r in inside for c in outside):
                    raise ConstraintViolation("orbit vector is non-zero off its part's block")
                actions.append((lam, c_inv.submatrix(inside, inside)))
        start = part_witness(fc, part)
        if any(start[j] for j in outside):
            raise ConstraintViolation("orbit vector is non-zero off its part's block")
        self.basis, self.seen = [], set()
        self.span = RationalSpan()
        self._add(start[inside.start : inside.stop])
        for v in self.basis:           # grows as it is read
            for lam, c_inv in actions:
                image = _row_action(fc, lam, c_inv, v)
                if image not in self.seen:
                    self._add(image)
                    if len(self.basis) == bound:
                        return

    def _add(self, v: Vector) -> None:
        self.seen.add(v)
        if self.span.add(v):
            self.basis.append(v)


def _orbit(fc: FlagContext, part: str) -> _Orbit:
    if part not in fc.orbits:
        fc.orbits[part] = _Orbit(fc, part)
    return fc.orbits[part]


def orbit_vectors(fc: FlagContext, part: str) -> list[Vector]:
    """Greedy Q-basis of the conjugation orbit of the part witness under the
    part generators and their inverses, in breadth-first order, spun to full
    rank or to closure once per flag context, the first time any caller
    asks.  The orbit is spun in the part's block coordinates; the vectors
    returned are padded with zeros to the whole middle block, so its length
    is also the Q-rank restricted to the block."""
    block, zero = part_slice(fc, part), CycloNum.zero(fc.ctx.d)
    before, after = (zero,) * block.start, (zero,) * (fc.middle_size - block.stop)
    return [before + v + after for v in _orbit(fc, part).basis]


# -- lattice vectors in the center ------------------------------------------------

def upper_half_exponents(d: int, k: int) -> tuple[int, ...]:
    """Galois exponents t with gcd(t,d)=1 whose image of q lies in the upper
    half plane under the e^{-2*pi*i/d} embedding: t*k mod d in (d/2, d)."""
    return tuple(t for t in units(d) if 2 * ((t * k) % d) > d)


def center_lattice_vectors(fc: FlagContext) -> tuple[list[Vector], int]:
    """Galois-spread commutator values generating a rank phi(d)/2 group.

    Collects a Q-basis of the middle space from the two witness orbits
    (orbit_vectors; their supports are disjoint), locates a pair with
    non-vanishing commutator pairing a_q, scales the real-subfield basis
    elements zeta^s + zeta^{-s} by integers so each multiple of the chosen
    orbit vector stays in the generated lattice, and emits the vectors
    (galois(scaled * a_q, t))_t over the upper-half exponents, together
    with their Q-rank.  The multiples are solved for in one elimination
    (solve_rational with one target per s).

    The rank is that of the first components alone: each galois(., t) is an
    injective Q-linear map of K_d, so a Q-relation holds among the vectors
    exactly when it holds among the values scaled * a_q, that is, among
    their images under the first exponent.
    """
    ctx = fc.ctx
    d = ctx.d
    phi = euler_phi(d)
    ell = phi // 2
    target = phi * fc.middle_size

    bases = {part: orbit_vectors(fc, part) for part in (LOWER, UPPER)}
    basis = bases[LOWER] + bases[UPPER]
    if len(basis) < target:
        raise NoNonzeroPairing(f"orbits close at rank {len(basis)} < {target}")

    pivot = None
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            a_q = commutator_pairing(fc, basis[i], basis[j])
            if a_q:
                pivot = (i, j, a_q)
                break
        if pivot:
            break
    if pivot is None:
        raise NoNonzeroPairing("all pairings among the basis vectors vanish")
    i, j, a_q = pivot

    # the multiples of basis[i] vanish off its part's block, as does that
    # part's basis, which spans the block: the unique solution over the
    # whole basis is 0 on the other part, so the block alone is solved
    part = LOWER if i < len(bases[LOWER]) else UPPER
    sl = part_slice(fc, part)
    lams = [zeta(d, s) + zeta(d, (d - s) % d) if s else CycloNum.one(d) * 2 for s in range(ell)]
    columns = [realify(b) for b in _orbit(fc, part).basis]
    solutions = solve_rational(columns, [realify(tuple(lam * e for e in basis[i][sl])) for lam in lams])
    out: list[Vector] = []
    exponents = upper_half_exponents(d, ctx.k)
    for lam, coords in zip(lams, solutions):
        if coords is None:
            raise Singular("orbit basis does not span a multiple of its own vector")
        denom = math.lcm(*(c.denominator for c in coords))
        value = (lam * denom) * a_q
        out.append(tuple(value.galois(t) for t in exponents))
    rank = rank_over_rationals([(v[0],) for v in out])
    return out, rank
