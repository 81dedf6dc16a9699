"""Exact dense linear algebra over K_d and Q, plus numeric inertia of Hermitian forms.

Matrices are immutable, row-major, with every entry sharing one modulus d.
Products are formed by ``CycloMatrix.__matmul__``, one convolution and
one reduction modulo Phi_d per entry, except that :func:`word_product`,
the fold of a braid word's sparse letters, rolls an array over
Z[x]/(x^d - 1), in int64 under a checked overflow bound and
in Python ints from the first step that could overflow, and
:func:`factored_product`, which folds a word the same way, multiplies the
array by fixed right and left factors, checks that the radical is fixed,
and reduces modulo Phi_d once.  The array and its bound never leave this
module.  Letters and both factors are :class:`SparseLetter` terms,
applied by the one routine :func:`_roll`, the left factor on the
transposed array.  Every entry is made from its integer coefficients by
cyclo.from_poly, and this module reads no table of cyclo.  Every exact
elimination over K_d runs through the one Gauss-Jordan routine
:func:`_rref`.  Over Q (rank, span and solve of
realified vectors) rows are cleared of denominators and reduced
fraction-free over the integers by the one routine :func:`_reduce` (cf.
Bareiss, Math. Comp. 22, 1968).  All but :func:`inertia` is exact; inertia
embeds the matrix numerically and is always cross-checked elsewhere
against closed formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .cyclo import CycloNum, _convolve, euler_phi, from_poly, from_strings, to_strings, zeta
from .errors import (
    AmbiguousSign,
    ModulusMismatch,
    NotAntiHermitian,
    RadicalNotFixed,
    ShapeMismatch,
    Singular,
)

Vector = tuple[CycloNum, ...]


@dataclass(frozen=True)
class CycloMatrix:
    d: int
    rows: int
    cols: int
    entries: tuple[CycloNum, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} needs {self.rows * self.cols} entries")
        for e in self.entries:
            if e.d != self.d:
                raise ModulusMismatch(f"entry modulus {e.d} != {self.d}")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_rows(d: int, rows: Sequence[Sequence[CycloNum]]) -> CycloMatrix:
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeMismatch("ragged rows")
        return CycloMatrix(d, r, c, tuple(x for row in rows for x in row))

    @staticmethod
    def identity(d: int, n: int) -> CycloMatrix:
        return CycloMatrix.diagonal(d, [CycloNum.one(d)] * n)

    @staticmethod
    def zeros(d: int, rows: int, cols: int) -> CycloMatrix:
        zero = CycloNum.zero(d)
        return CycloMatrix(d, rows, cols, (zero,) * (rows * cols))

    @staticmethod
    def diagonal(d: int, values: Sequence[CycloNum]) -> CycloMatrix:
        n = len(values)
        zero = CycloNum.zero(d)
        return CycloMatrix(d, n, n, tuple(values[i] if i == j else zero for i in range(n) for j in range(n)))

    # -- access -----------------------------------------------------------

    def entry(self, i: int, j: int) -> CycloNum:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[CycloNum]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> CycloMatrix:
        return CycloMatrix(
            self.d,
            len(row_idx),
            len(col_idx),
            tuple(self.entry(i, j) for i in row_idx for j in col_idx),
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- exact algebra ------------------------------------------------------

    def _check(self, other: CycloMatrix) -> None:
        if self.d != other.d:
            raise ModulusMismatch(f"moduli {self.d} and {other.d}")

    def __add__(self, other: CycloMatrix) -> CycloMatrix:
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shapes differ")
        return CycloMatrix(self.d, self.rows, self.cols,
                           tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: CycloMatrix) -> CycloMatrix:
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("subtraction shapes differ")
        return CycloMatrix(self.d, self.rows, self.cols,
                           tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> CycloMatrix:
        return CycloMatrix(self.d, self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: CycloNum | int | Fraction) -> CycloMatrix:
        return CycloMatrix(self.d, self.rows, self.cols, tuple(a * c for a in self.entries))

    def __matmul__(self, other: CycloMatrix) -> CycloMatrix:
        """The exact product, one convolution and one reduction per entry.

        Entry (i, j) adds the polynomial product of the numerators of every
        non-zero pair (A[i, l], B[l, j]) into one integer list of length
        2 phi - 1 over a running common denominator: when a term's
        denominator does not divide it, the list is rescaled to their lcm,
        and each term is multiplied by the running denominator over its
        own.  The sum is reduced modulo Phi_d once and normalized once, by
        cyclo.from_poly (the delayed reduction of FFLAS, Dumas-Gautier-
        Pernet, ISSAC 2002).
        """
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        d = self.d
        size = 2 * euler_phi(d) - 1
        a = [e if e else None for e in self.entries]
        b = [e if e else None for e in other.entries]
        n, m, p = self.rows, self.cols, other.cols
        out: list[CycloNum] = []
        zero = CycloNum.zero(d)
        for i in range(n):
            arow = a[i * m : (i + 1) * m]
            for j in range(p):
                conv, den = None, 1
                for l, x in enumerate(arow):
                    if x is None:
                        continue
                    y = b[l * p + j]
                    if y is None:
                        continue
                    tden = x.den * y.den
                    if conv is None:
                        conv, den = [0] * size, tden
                    if den % tden:
                        lcm = math.lcm(den, tden)
                        conv = [c * (lcm // den) for c in conv]
                        den = lcm
                    _convolve(conv, x.num, y.num, den // tden)
                out.append(zero if conv is None else from_poly(d, conv, den))
        return CycloMatrix(d, n, p, tuple(out))

    def apply(self, v: Vector) -> Vector:
        """Matrix times column coordinate vector."""
        if len(v) != self.cols:
            raise ShapeMismatch(f"vector length {len(v)} != cols {self.cols}")
        return (self @ CycloMatrix(self.d, self.cols, 1, tuple(v))).entries

    def transpose(self) -> CycloMatrix:
        return CycloMatrix(self.d, self.cols, self.rows,
                           tuple(self.entry(j, i) for i in range(self.cols) for j in range(self.rows)))

    def conj(self) -> CycloMatrix:
        return CycloMatrix(self.d, self.rows, self.cols, tuple(e.conj() for e in self.entries))

    def conj_transpose(self) -> CycloMatrix:
        return self.conj().transpose()

    def galois(self, t: int) -> CycloMatrix:
        return CycloMatrix(self.d, self.rows, self.cols, tuple(e.galois(t) for e in self.entries))

    def trace(self) -> CycloNum:
        if not self.is_square():
            raise ShapeMismatch("trace of a non-square matrix")
        return sum((self.entry(i, i) for i in range(self.rows)), CycloNum.zero(self.d))

    def det(self) -> CycloNum:
        """Determinant: (-1)^swaps times the product of the pivots."""
        if not self.is_square():
            raise ShapeMismatch("determinant of a non-square matrix")
        pivots, values, swaps = _rref(self.to_lists(), self.cols)
        if len(pivots) < self.rows:
            return CycloNum.zero(self.d)
        det = math.prod(values, start=CycloNum.one(self.d))
        return -det if swaps % 2 else det

    def inverse(self) -> CycloMatrix:
        """Exact inverse; raises Singular when rank < size."""
        if not self.is_square():
            raise ShapeMismatch("inverse of a non-square matrix")
        n = self.rows
        m = [a + b for a, b in zip(self.to_lists(), CycloMatrix.identity(self.d, n).to_lists())]
        if len(_rref(m, n)[0]) < n:
            raise Singular(f"rank < {n}")
        return CycloMatrix.from_rows(self.d, [row[n:] for row in m])

    def solve(self, rhs: Vector) -> Vector:
        """Solve self @ x = rhs for a possibly rectangular, full-column-rank system.

        Raises Singular when the system is inconsistent or underdetermined.
        """
        if len(rhs) != self.rows:
            raise ShapeMismatch("rhs length != rows")
        c = self.cols
        m = [list(self.row(i)) + [rhs[i]] for i in range(self.rows)]
        if len(_rref(m, c)[0]) < c:
            raise Singular("underdetermined system")
        if any(row[c] for row in m[c:]):
            raise Singular("inconsistent system")
        return tuple(m[i][c] for i in range(c))

    def rank(self) -> int:
        return len(_rref(self.to_lists(), self.cols)[0])

    def kernel_basis(self) -> tuple[Vector, ...]:
        """Basis of the right kernel {v : M v = 0}, K_d-independent vectors."""
        m = self.to_lists()
        pivots = _rref(m, self.cols)[0]
        one, zero = CycloNum.one(self.d), CycloNum.zero(self.d)
        basis = []
        for f in (j for j in range(self.cols) if j not in pivots):
            v = [one if j == f else zero for j in range(self.cols)]
            for r, pj in enumerate(pivots):
                v[pj] = -m[r][f]
            basis.append(tuple(v))
        return tuple(basis)

    def is_unipotent(self) -> bool:
        """True iff (M - I)^size vanishes exactly."""
        if not self.is_square():
            raise ShapeMismatch("unipotency of a non-square matrix")
        n = self.rows
        nil = self - CycloMatrix.identity(self.d, n)
        power = nil
        for _ in range(n - 1):
            if power.is_zero():
                return True
            power = power @ nil
        return power.is_zero()

    def is_zero(self) -> bool:
        return all(not e for e in self.entries)

    def multiplicative_order(self, bound: int) -> int | None:
        """Smallest 1 <= t <= bound with M^t = I, or None if not found within bound."""
        if not self.is_square():
            raise ShapeMismatch("order of a non-square matrix")
        ident = CycloMatrix.identity(self.d, self.rows)
        power = self
        for t in range(1, bound + 1):
            if power == ident:
                return t
            power = power @ self
        return None

    # -- presentation -------------------------------------------------------

    def __str__(self) -> str:
        cells = [[str(self.entry(i, j)) for j in range(self.cols)] for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)] if self.rows else []
        return "\n".join("[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols)) + " ]"
                         for i in range(self.rows))


# -- word products by monomial rolls -------------------------------------------

_INT64_LIMIT = 1 << 63
Term = tuple[int, int, int, int]  # (target, source, integer coefficient, power t of zeta)


def sparse_matrix(d: int, size: int, terms: Iterable[Term]) -> CycloMatrix:
    """The size x size matrix that is the identity outside the target columns
    of terms and whose entry (source, target) there is the sum of coef *
    zeta^t over its terms (target, source, coef, t), 0 <= t < d: each entry
    counts its powers of zeta in a list over Z[x]/(x^d - 1), which
    cyclo.from_poly reduces modulo Phi_d once."""
    spreads: dict[tuple[int, int], list[int]] = {}
    for c, r, coef, t in terms:
        spreads.setdefault((r, c), [0] * d)[t] += coef
    one, zero = CycloNum.one(d), CycloNum.zero(d)
    entries = [zero] * (size * size)
    entries[:: size + 1] = [one] * size
    for c in {c for _, c in spreads}:
        entries[c * size + c] = zero
    for (r, c), spread in spreads.items():
        entries[r * size + c] = from_poly(d, spread)
    return CycloMatrix(d, size, size, tuple(entries))


def _groups(keys: Sequence[int]) -> list[int]:
    """The index of the first of each run of equal keys."""
    return [i for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]


class SparseLetter:
    """Terms prepared for the fold, sorted by target column: the distinct
    targets and the index of the first term of each, the flat index in a
    (rows, cols * d) array of each term's source column rolled by zeta^t,
    the coefficients, and lam, which bounds the growth of max|M|: the
    largest l1-norm of the coefficients of one target column.  A braid
    letter's coefficients are signs, so its lam counts terms.  The fixed
    factors of :func:`factored_product` are terms too: the right factor
    lifts basis vectors and adds the radical as a column, and the left
    factor's divisions by zeta^e - 1 are spreads of
    cyclo.spread_inverse, combined per power of zeta."""

    def __init__(self, d: int, terms: Iterable[Term]) -> None:
        cols, rows, coefs, powers = zip(*sorted(terms))
        starts = _groups(cols)
        self.d = d
        self.lam = max(sum(map(abs, coefs[a:b])) for a, b in zip(starts, starts[1:] + [len(cols)]))
        self.targets, self.starts = np.array([cols[i] for i in starts]), np.array(starts)
        # x^t * f has coefficient f[(j - t) mod d] at x^j
        self.gather = (np.arange(d) - np.array(powers)[:, None]) % d + np.array(rows)[:, None] * d
        self.coef = np.array(coefs, dtype=np.int64)[:, None]


def _max_abs(arr: np.ndarray) -> int:
    """max |x| over an int64 array, as an int (abs would overflow at -2^63)."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


@functools.lru_cache(maxsize=None)
def _cyclic_reduction(d: int) -> tuple[np.ndarray, int]:
    """The numerators of zeta^j, phi <= j < d, that is x^j mod Phi_d, as
    the rows of an int64 array (for j < phi they are the identity rows),
    and rho_d, the largest l1-norm of a column of all d rows."""
    phi = euler_phi(d)
    rows = [zeta(d, j).num for j in range(phi, d)]
    return np.array(rows, dtype=np.int64), 1 + max(sum(abs(row[i]) for row in rows) for i in range(phi))


def _checked(arr: np.ndarray, bound: int, factor: int) -> tuple[np.ndarray, int]:
    """arr and a bound on max|arr|, with arr promoted from int64 to Python
    ints when max|arr| * factor reaches 2^63.  The carried bound is
    replaced by max|arr| only when it would fail the check."""
    if bound * factor >= _INT64_LIMIT and arr.dtype != object:
        bound = _max_abs(arr)
        if bound * factor >= _INT64_LIMIT:
            arr = arr.astype(object)
    return arr, bound


def _roll(arr: np.ndarray, bound: int, letter: SparseLetter) -> tuple[np.ndarray, int]:
    """M times the letter, in place on the (rows, cols * d) array of M: one
    gather of the rolled source columns of its terms, times their
    coefficients, and one np.add.reduceat that sums the terms of each
    target column.  Checked first: max|M| * lam < 2^63."""
    arr, bound = _checked(arr, bound, letter.lam)
    sums = np.add.reduceat(arr[:, letter.gather] * letter.coef, letter.starts, axis=1)
    arr.reshape(arr.shape[0], -1, letter.d)[:, letter.targets] = sums
    return arr, bound * letter.lam


def _reduced(d: int, polys: np.ndarray, bound: int) -> np.ndarray:
    """Rows of polys, shape (k, d) over Z[x]/(x^d - 1), reduced modulo Phi_d
    by rows 0..d-1 of the table of x^j mod Phi_d, shape (k, phi).  Checked
    first: max|polys| * rho_d < 2^63."""
    high, rho = _cyclic_reduction(d)
    polys = _checked(polys, bound, rho)[0]
    return polys[:, : high.shape[1]] + polys[:, high.shape[1]:] @ high


def _word_array(d: int, size: int, letters: Sequence[SparseLetter]) -> tuple[np.ndarray, int]:
    """The unreduced fold of :func:`word_product`: the (size, size * d)
    array of the product over Z[x]/(x^d - 1), and a bound on max|M|."""
    arr = np.zeros((size, size * d), dtype=np.int64)
    arr[range(size), range(0, size * d, d)] = 1
    bound = 1  # at least max|M| while M is int64
    for letter in letters:
        arr, bound = _roll(arr, bound, letter)
    return arr, bound


def word_product(d: int, size: int, letters: Sequence[SparseLetter]) -> CycloMatrix:
    """The exact product of sparse letters, folded left to right (the
    identity for none).

    The running product M is an array over Z[x]/(x^d - 1), in which
    multiplying by zeta^t rolls the coefficient axis by t.  A letter is one
    gather of the rolled source columns of its terms, times their signs,
    and one np.add.reduceat that sums the terms of each target column.  M
    is reduced modulo Phi_d once, by rows 0..d-1 of the table of x^j mod
    Phi_d.  M starts in int64.  Before each letter max|M| * lam < 2^63, and
    before the reduction max|M| * rho_d < 2^63, cap every partial sum (the
    a-priori bound of FFLAS, Dumas-Gautier-Pernet, ISSAC 2002).  At the
    first check that fails, M is converted to Python ints (object dtype)
    and the same gathers, sums and reduction run on it exactly.
    """
    arr, bound = _word_array(d, size, letters)
    nums = _reduced(d, arr.reshape(-1, d), bound).tolist()
    # the reduced rows have length phi, so from_poly only normalizes them
    return CycloMatrix(d, size, size, tuple(from_poly(d, c) for c in nums))


def factored_product(d: int, size: int, letters: Sequence[SparseLetter], right: SparseLetter,
                     left: SparseLetter, fixed: list[list[int]]) -> CycloMatrix:
    """left * M * right / d, with M the size x size product of letters and
    left given times d.  M is folded as in :func:`word_product` but not
    reduced, and the factors continue the fold's checked rolls on its
    array: the right factor rolls like a letter; the last column of M *
    right must reduce modulo Phi_d to the rows fixed (RadicalNotFixed
    otherwise) and is dropped; then the left factor, whose target j is a
    row of the result, rolls the transposed array, as L U = (U^T L^T)^T;
    and the result is reduced modulo Phi_d once, each entry its row over
    d by cyclo.from_poly.  fixed must be a list of int lists, the
    numerators of the radical's entries (den 1): the reduced column's
    .tolist() is compared with it by ==."""
    arr, bound = _roll(*_word_array(d, size, letters), right)
    u = arr.reshape(arr.shape[0], -1, d)
    if _reduced(d, u[:, -1], bound).tolist() != fixed:
        raise RadicalNotFixed("operator moves the radical vector")
    rows, cols = len(left.targets), u.shape[1] - 1
    ut = np.ascontiguousarray(u[:, :-1].transpose(1, 0, 2)).reshape(cols, -1)
    ut, bound = _roll(ut, bound, left)
    nums = _reduced(d, ut.reshape(cols, -1, d)[:, :rows].transpose(1, 0, 2).reshape(-1, d), bound)
    return CycloMatrix(d, rows, cols, tuple(from_poly(d, c, d) for c in nums.tolist()))


def sesquilinear(gram: CycloMatrix, x: Vector, y: Vector) -> CycloNum:
    """Evaluate the stored form: linear in x, conjugate-linear in y.

    With the Gram layout used throughout (gram[r][c] holds the pairing of
    basis vector c against basis vector r), this is conj(y)^T . gram . x,
    so form preservation reads M* G M = G for column-acting operators M.
    """
    if len(x) != gram.cols or len(y) != gram.rows:
        raise ShapeMismatch("vector lengths do not match the Gram matrix")
    y_star = CycloMatrix(gram.d, 1, gram.rows, tuple(e.conj() for e in y))
    return (y_star @ gram @ CycloMatrix(gram.d, gram.cols, 1, tuple(x))).entries[0]


def _rref(rows: list[list], ncols: int) -> tuple[list[int], list, int]:
    """Gauss-Jordan in place on the first ncols columns of CycloNum rows.

    Uses only bool, *, - and 1 / x, and keeps an entry whose pivot-row
    entry is 0; later columns ride along as right-hand sides.  Afterwards
    row r < len(pivots) is 1 at column pivots[r], which is 0 in every other
    row, and the later rows vanish on the first ncols columns.  Returns (pivot columns, pivot values before normalization,
    row swaps); a full-rank square matrix has det (-1)^swaps * prod(values).
    """
    pivots, values, swaps = [], [], 0
    n, r = len(rows), 0
    for j in range(ncols):
        p = next((i for i in range(r, n) if rows[i][j]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            swaps += 1
        # the pivot row vanishes left of column j, so only columns >= j change
        value = rows[r][j]
        scale = 1 / value
        prow = rows[r][j:] = [x * scale for x in rows[r][j:]]
        for i in range(n):
            f = rows[i][j]
            if i != r and f:
                rows[i][j:] = [x - f * y if y else x for x, y in zip(rows[i][j:], prow)]
        pivots.append(j)
        values.append(value)
        r += 1
    return pivots, values, swaps


def realify(v: Vector) -> list[Fraction]:
    """Concatenate the rational coefficient vectors of a K_d vector."""
    return [c for e in v for c in e.coeffs]


def _integer_row(v: Vector) -> list[int]:
    """:func:`realify` of v times the lcm of its denominators: a row of ints
    with the same Q-span."""
    den = math.lcm(*(e.den for e in v))
    return [c * (den // e.den) for e in v for c in e.num]


def _reduce(row: list[int], pivots: Iterable[tuple[int, list[int]]]) -> list[int]:
    """Fraction-free reduce of an integer row against (column, pivot row) pairs.

    Each pivot row must vanish at the columns of the pairs before it.  Clears
    the row at each pivot column by row <- a * row - f * pivot_row (a the
    pivot, f the row's entry, both divided by their gcd), then divides the
    row by its content.  Only ints are multiplied; the result is a non-zero
    multiple of the row that rational elimination would give.
    """
    for j, prow in pivots:
        f = row[j]
        if f:
            a = prow[j]
            g = math.gcd(a, f)
            a, f = a // g, f // g
            row = [a * x - f * y for x, y in zip(row, prow)]
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _absorb(rows: dict[int, list[int]], row: list[int]) -> int | None:
    """Reduce an integer row against semi-echelon rows (pivot column -> row,
    in insertion order) and keep it when it is new.  Returns its pivot
    column, the first non-zero one, or None when the row lies in their
    span."""
    row = _reduce(row, rows.items())
    lead = next((j for j, x in enumerate(row) if x), None)
    if lead is not None:
        rows[lead] = row
    return lead


def rank_over_rationals(vectors: Iterable[Vector]) -> int:
    """Rank over Q of K_d vectors after realification.

    Each vector of length L maps to a rational vector of length L*phi(d) by
    concatenating the coefficient vectors of its entries.
    """
    vecs = list(vectors)
    if any(len(v) != len(vecs[0]) for v in vecs):
        raise ShapeMismatch("vectors of mixed length")
    if len({e.d for v in vecs for e in v}) > 1:
        raise ModulusMismatch("vectors of mixed modulus")
    rows: dict[int, list[int]] = {}
    for v in vecs:
        _absorb(rows, _integer_row(v))
    return len(rows)


class RationalSpan:
    """Incrementally growing Q-span of realified K_d vectors.

    Keeps primitive integer rows in semi-echelon form: each row vanishes at
    the pivot columns of the rows added before it.  ``add`` reduces one
    vector against them, without eliminating again, and reports whether it
    enlarged the span.  Used for orbit rank scans and basis extraction.
    """

    def __init__(self) -> None:
        self._rows: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, v: Vector) -> bool:
        return _absorb(self._rows, _integer_row(v)) is not None


def solve_rational(columns: list[list[Fraction]],
                   targets: list[list[Fraction]]) -> list[list[Fraction] | None]:
    """Solve sum_i x_i * columns[i] = target over Q for each target; one
    solution per target, None for a target that is inconsistent.

    [columns | targets] is reduced once and back-substituted once.  A row
    whose pivot lies at or right of the target columns vanishes on the
    columns, so a target is inconsistent exactly when such a row is non-zero
    in its column.  Free variables are 0.  Each equation is cleared of
    denominators and reduced over the integers; Fractions appear only in the
    solutions.
    """
    k = len(columns)
    rows: dict[int, list[int]] = {}
    for r in range(len(targets[0]) if targets else 0):
        eq = [col[r] for col in columns] + [t[r] for t in targets]
        den = math.lcm(*(x.denominator for x in eq))
        _absorb(rows, [x.numerator * (den // x.denominator) for x in eq])
    bad = {t for j, row in rows.items() if j >= k for t in range(len(targets)) if row[k + t]}
    # back-substitute: clear every pivot column from the rows before its own
    pivots = [(j, row) for j, row in rows.items() if j < k]
    sols = [[Fraction(0)] * k for _ in targets]
    for i, (j, row) in enumerate(pivots):
        row = _reduce(row, pivots[i + 1:])
        for sol, x in zip(sols, row[k:]):
            sol[j] = Fraction(x, row[j])
    return [None if t in bad else sol for t, sol in enumerate(sols)]


def inertia(gram: CycloMatrix, tol: float = 1e-7) -> tuple[int, int, int]:
    """Numeric inertia (pos, neg, zero) of the Hermitian matrix -i * embed(G).

    G must be anti-Hermitian over K_d; the associated Hermitian matrix is
    analyzed through its floating-point eigenvalues.  Eigenvalues landing in
    the band (tol/10, 10*tol) in absolute value raise AmbiguousSign rather
    than being silently rounded.
    """
    if not gram.is_square():
        raise ShapeMismatch("inertia of a non-square matrix")
    if gram.conj_transpose() != -gram:
        raise NotAntiHermitian("G* != -G")
    n = gram.rows
    if n == 0:
        return (0, 0, 0)
    h = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            h[i, j] = -1j * gram.entry(i, j).embed()
    h = (h + h.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(h)
    pos = neg = zero = 0
    for lam in eigs:
        mag = abs(lam)
        if tol / 10 < mag < tol * 10:
            raise AmbiguousSign(f"eigenvalue {lam} inside the unsafe band around {tol}")
        if mag <= tol:
            zero += 1
        elif lam > 0:
            pos += 1
        else:
            neg += 1
    return (pos, neg, zero)


# -- serialization -----------------------------------------------------------

def matrix_to_json(m: CycloMatrix) -> dict:
    return {
        "d": m.d,
        "rows": m.rows,
        "cols": m.cols,
        "entries": [to_strings(e) for e in m.entries],
    }


def matrix_from_json(doc: dict) -> CycloMatrix:
    d = int(doc["d"])
    entries = tuple(from_strings(d, item) for item in doc["entries"])
    return CycloMatrix(d, int(doc["rows"]), int(doc["cols"]), entries)
