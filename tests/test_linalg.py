import functools
import importlib.util
import json
import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from braidrep import cli, horo, linalg, rep
from braidrep.cyclo import CycloNum, _raw_add, _raw_mul, euler_phi, from_coeffs, from_rational, zeta
from braidrep.errors import (
    AmbiguousSign,
    ModulusMismatch,
    NotAntiHermitian,
    ShapeMismatch,
    Singular,
)
from braidrep.linalg import (
    CycloMatrix,
    RationalSpan,
    inertia,
    matrix_from_json,
    matrix_to_json,
    rank_over_rationals,
    realify,
    sesquilinear,
    solve_rational,
)
from braidrep.rep import BraidWord, evaluate_quotient, evaluate_word, make_context, quotient_matrix

D = 5
PHI = 4


def rnum(rng, height=4):
    return from_coeffs(D, [Fraction(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(PHI)])


def rmat(rng, n, m=None):
    m = n if m is None else m
    return CycloMatrix.from_rows(D, [[rnum(rng) for _ in range(m)] for _ in range(n)])


def test_identity_and_associativity():
    rng = random.Random(1)
    a, b, c = rmat(rng, 3), rmat(rng, 3), rmat(rng, 3)
    ident = CycloMatrix.identity(D, 3)
    assert ident @ a == a
    assert a @ ident == a
    assert (a @ b) @ c == a @ (b @ c)
    assert CycloMatrix.diagonal(D, [zeta(D)] * 3) == ident.scale(zeta(D))


def _schoolbook_matmul(a, b):
    """Reference product: _raw_mul on every pair of non-zero entries."""
    d, out = a.d, []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = None
            for l in range(a.cols):
                x, y = a.entry(i, l), b.entry(l, j)
                if x and y:
                    term = _raw_mul(d, (x.num, x.den), (y.num, y.den))
                    acc = term if acc is None else _raw_add(acc, term)
            out.append(CycloNum.zero(d) if acc is None or not any(acc[0]) else CycloNum(d, *acc))
    return CycloMatrix(d, a.rows, b.cols, tuple(out))


def test_matmul_matches_schoolbook_reference():
    """Products that sum each entry's terms over a common denominator and
    reduce once equal the reference that reduces and normalizes every term,
    on operands mixing 0, 1, -1, zeta^e and dense entries."""
    rng = random.Random(71)
    for d in (3, 5, 7, 12, 19):
        phi = euler_phi(d)

        def entry():
            kind = rng.choice("01-zd")
            if kind == "0":
                return CycloNum.zero(d)
            if kind == "1":
                return CycloNum.one(d)
            if kind == "-":
                return -CycloNum.one(d)
            if kind == "z":
                return zeta(d, rng.randrange(d))
            return from_coeffs(d, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(phi)])

        for _ in range(6):
            n, m, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a = CycloMatrix.from_rows(d, [[entry() for _ in range(m)] for _ in range(n)])
            b = CycloMatrix.from_rows(d, [[entry() for _ in range(p)] for _ in range(m)])
            assert a @ b == _schoolbook_matmul(a, b)
            ident = CycloMatrix.identity(d, m)
            assert a @ ident == a and ident @ b == b


def test_shape_and_modulus_errors():
    rng = random.Random(2)
    with pytest.raises(ShapeMismatch):
        rmat(rng, 2) @ rmat(rng, 3)
    with pytest.raises(ModulusMismatch):
        CycloMatrix.identity(5, 2) @ CycloMatrix.identity(7, 2)


def test_conj_transpose():
    rng = random.Random(3)
    ident = CycloMatrix.identity(D, 3)
    assert ident.conj_transpose() == ident
    one_by_one = CycloMatrix.from_rows(D, [[zeta(D)]])
    assert one_by_one.conj_transpose() == CycloMatrix.from_rows(D, [[zeta(D, D - 1)]])
    for _ in range(10):
        a, b = rmat(rng, 3), rmat(rng, 3)
        assert a.conj_transpose().conj_transpose() == a
        assert (a @ b).conj_transpose() == b.conj_transpose() @ a.conj_transpose()


def test_inverse():
    rng = random.Random(4)
    ident = CycloMatrix.identity(D, 3)
    assert ident.inverse() == ident
    diag = CycloMatrix.diagonal(D, [zeta(D), from_rational(D, 2)])
    assert diag.inverse() == CycloMatrix.diagonal(D, [zeta(D, D - 1), from_rational(D, Fraction(1, 2))])
    one = from_rational(D, 1)
    zero = CycloNum.zero(D)
    for _ in range(5):
        lower = CycloMatrix.from_rows(
            D, [[one if i == j else (rnum(rng) if i > j else zero) for j in range(4)] for i in range(4)]
        )
        upper = CycloMatrix.from_rows(
            D, [[one if i == j else (rnum(rng) if i < j else zero) for j in range(4)] for i in range(4)]
        )
        m = lower @ upper
        assert m.inverse() @ m == CycloMatrix.identity(D, 4)
    with pytest.raises(Singular):
        CycloMatrix.zeros(D, 2, 2).inverse()


def test_kernel_basis():
    rng = random.Random(5)
    assert len(CycloMatrix.zeros(D, 2, 2).kernel_basis()) == 2
    assert CycloMatrix.identity(D, 3).kernel_basis() == ()
    for _ in range(5):
        u = tuple(rnum(rng) for _ in range(4))
        v = tuple(rnum(rng) for _ in range(4))
        if not any(u) or not any(v):
            continue
        outer = CycloMatrix.from_rows(D, [[u[i] * v[j].conj() for j in range(4)] for i in range(4)])
        kernel = outer.kernel_basis()
        assert len(kernel) == 3
        for w in kernel:
            assert all(not x for x in outer.apply(w))
        assert outer.rank() + len(kernel) == 4


def test_rank_over_rationals():
    one4 = from_rational(4, 1)
    assert rank_over_rationals([(one4,), (zeta(4),)]) == 2
    assert rank_over_rationals([(from_rational(4, 1),), (from_rational(4, 2),)]) == 1
    assert rank_over_rationals([(zeta(5, j),) for j in range(4)]) == 4
    # invariance under rational recombination
    rng = random.Random(6)
    vecs = [tuple(rnum(rng) for _ in range(2)) for _ in range(3)]
    mixed = [
        tuple(a + b for a, b in zip(vecs[0], vecs[1])),
        tuple(a * 2 for a in vecs[1]),
        vecs[2],
    ]
    assert rank_over_rationals(vecs) == rank_over_rationals(mixed)
    assert rank_over_rationals([]) == 0
    with pytest.raises(ShapeMismatch):
        rank_over_rationals([(one4,), (one4, one4)])
    with pytest.raises(ModulusMismatch):
        rank_over_rationals([(one4,), (from_rational(5, 1),)])


def test_solve():
    rng = random.Random(10)
    for _ in range(5):
        a = rmat(rng, 4, 2)                  # rectangular, full column rank
        if a.rank() < 2:
            continue
        x = tuple(rnum(rng) for _ in range(2))
        assert a.solve(a.apply(x)) == x
        # a right-hand side outside the column space is inconsistent
        bad = a.apply(x)[:-1] + (a.apply(x)[-1] + from_rational(D, 1),)
        if a.submatrix(range(3), range(2)).rank() == 2:
            with pytest.raises(Singular):
                a.solve(bad)
    wide = rmat(rng, 2, 3)                   # more unknowns than equations
    with pytest.raises(Singular):
        wide.solve((from_rational(D, 1), CycloNum.zero(D)))
    with pytest.raises(ShapeMismatch):
        wide.solve((from_rational(D, 1),))


def test_det_sign_and_multiplicativity():
    rng = random.Random(11)
    for _ in range(5):
        a, b = rmat(rng, 3), rmat(rng, 3)
        swapped = CycloMatrix.from_rows(D, [list(a.row(1)), list(a.row(0)), list(a.row(2))])
        assert swapped.det() == -a.det()
        assert (a @ b).det() == a.det() * b.det()
    assert CycloMatrix.diagonal(D, [zeta(D), from_rational(D, 3)]).det() == zeta(D) * 3
    assert not CycloMatrix.zeros(D, 2, 2).det()


def test_rational_span():
    rng = random.Random(12)
    u, v = tuple(rnum(rng) for _ in range(2)), tuple(rnum(rng) for _ in range(2))
    span = RationalSpan()
    assert span.add(u) and span.add(v)
    combo = tuple(Fraction(1, 3) * a - 2 * b for a, b in zip(u, v))
    assert not span.add(combo)               # Q-dependent on the span
    assert span.add(tuple(zeta(D) * a for a in u))   # K_d-multiple, Q-independent
    assert span.rank == 3


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def random_rational_system(rng, rows, cols, rank):
    """rows x cols rational matrix of the given rank, entries of small height."""
    left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)] for _ in range(rows)]
    right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rank)]
    return [[sum((l[t] * right[t][c] for t in range(rank)), Fraction(0)) for c in range(cols)] for l in left]


def test_rank_over_rationals_matches_sympy():
    rng = random.Random(13)
    for trial in range(30):
        count = rng.randint(1, 10)
        target = rng.randint(0, min(count, 2 * PHI))
        flat = random_rational_system(rng, count, 2 * PHI, target)
        vecs = [(from_coeffs(D, row[:PHI]), from_coeffs(D, row[PHI:])) for row in flat]
        assert [realify(v) for v in vecs] == flat
        assert rank_over_rationals(vecs) == to_sympy(flat).rank()


def test_solve_rational_matches_sympy():
    rng = random.Random(14)
    outcomes = set()
    for trial in range(40):
        n, k = rng.randint(1, 7), rng.randint(1, 5)
        a = random_rational_system(rng, n, k, rng.randint(0, min(n, k)))
        columns = [[a[r][c] for r in range(n)] for c in range(k)]
        # one solve of two targets: one inside the column space, one drawn
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
        inside = [sum((a[r][c] * x[c] for c in range(k)), Fraction(0)) for r in range(n)]
        drawn = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        targets = [inside, drawn] if rng.random() < 0.5 else [drawn, inside]
        sols = solve_rational(columns, targets)
        assert len(sols) == 2
        for target, sol in zip(targets, sols):
            try:
                expected, params = to_sympy(a).gauss_jordan_solve(to_sympy([[t] for t in target]))
            except ValueError:                   # sympy: inconsistent system
                assert sol is None
                outcomes.add("inconsistent")
                continue
            assert sol is not None
            assert all(
                sum((a[r][c] * sol[c] for c in range(k)), Fraction(0)) == target[r] for r in range(n)
            )
            if not params:                       # unique solution
                assert to_sympy([[x] for x in sol]) == expected
                outcomes.add("unique")
            else:
                outcomes.add("underdetermined")
    assert outcomes == {"inconsistent", "unique", "underdetermined"}


def test_solve_rational_names_only_the_inconsistent_target():
    f = Fraction
    # columns spanning the plane z = 0: the middle target leaves it
    columns = [[f(1), f(0), f(0)], [f(1, 2), f(1), f(0)]]
    targets = [[f(1), f(2), f(0)], [f(0), f(0), f(1)], [f(3), f(-1), f(0)]]
    assert solve_rational(columns, targets) == [[f(0), f(2)], None, [f(7, 2), f(-1)]]
    # one column (1, 1): only the combination of both rows shows (1, 2) is outside
    assert solve_rational([[f(1), f(1)]], [[f(1), f(1)], [f(1), f(2)], [f(2, 3), f(2, 3)]]) \
        == [[f(1)], None, [f(2, 3)]]
    # an inconsistent target first, and a free variable left at 0
    assert solve_rational([[f(1), f(1)], [f(2), f(2)]], [[f(0), f(1)], [f(4), f(4)]]) == [None, [f(4), f(0)]]
    assert solve_rational(columns, []) == []


# -- property tests of the integer Q-side kernel, sympy as the oracle ----------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
BIG = 10**12
rationals = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, BIG))


@st.composite
def low_rank_matrices(draw, max_rows=6, max_cols=6, cols=None):
    """A rows x cols rational matrix L @ R of rank at most a drawn r, with
    denominators up to 10^12: the zero matrix at r = 0, dependent rows
    whenever rows > r."""
    rows = draw(st.integers(1, max_rows))
    cols = cols if cols is not None else draw(st.integers(1, max_cols))
    r = draw(st.integers(0, min(rows, cols)))
    left = [[draw(small_rationals) for _ in range(r)] for _ in range(rows)]
    right = [[draw(rationals) for _ in range(cols)] for _ in range(r)]
    return [[sum((left[i][t] * right[t][c] for t in range(r)), Fraction(0)) for c in range(cols)]
            for i in range(rows)]


def as_vectors(flat):
    """Rational rows of length 2 * PHI as K_d vectors of length 2."""
    vecs = [(from_coeffs(D, row[:PHI]), from_coeffs(D, row[PHI:])) for row in flat]
    assert [realify(v) for v in vecs] == flat
    return vecs


@PROPERTY
@given(low_rank_matrices(max_rows=8, cols=2 * PHI))
def test_rational_span_add_reports_rank_increments(flat):
    span = RationalSpan()
    added = [span.add(v) for v in as_vectors(flat)]
    ranks = [to_sympy(flat[:i]).rank() if i else 0 for i in range(len(flat) + 1)]
    assert added == [ranks[i + 1] > ranks[i] for i in range(len(flat))]
    assert span.rank == ranks[-1]


@PROPERTY
@given(low_rank_matrices(max_rows=8, cols=2 * PHI))
def test_rank_over_rationals_property(flat):
    assert rank_over_rationals(as_vectors(flat)) == to_sympy(flat).rank()


@st.composite
def rational_systems(draw):
    """(kind, columns, target) with kind unique, underdetermined or inconsistent."""
    kind = draw(st.sampled_from(("unique", "underdetermined", "inconsistent")))
    a = draw(low_rank_matrices())
    n, k = len(a), len(a[0])
    rank = to_sympy(a).rank()
    if kind == "unique":
        assume(rank == k)
    elif kind == "underdetermined":
        assume(rank < k)
    else:
        assume(rank < n)
    if kind == "inconsistent":
        target = [draw(rationals) for _ in range(n)]
        assume(to_sympy([row + [t] for row, t in zip(a, target)]).rank() > rank)
    else:
        x = [draw(rationals) for _ in range(k)]
        target = [sum((a[r][c] * x[c] for c in range(k)), Fraction(0)) for r in range(n)]
    return kind, [[a[r][c] for r in range(n)] for c in range(k)], target


@PROPERTY
@given(rational_systems())
def test_solve_rational_property(system):
    kind, columns, target = system
    # beside the drawn target, its double and the zero target, in one solve
    sol, double, zero = solve_rational(columns, [target, [2 * t for t in target], [Fraction(0)] * len(target)])
    assert zero == [0] * len(columns)
    if kind == "inconsistent":
        assert sol is None and double is None
        return
    assert double == [2 * x for x in sol]
    a = to_sympy([list(row) for row in zip(*columns)])
    expected, params = a.gauss_jordan_solve(to_sympy([[t] for t in target]))
    # free variables are 0: the pivot columns of the rref carry the solution
    expected = expected.subs({p: 0 for p in params})
    assert all(isinstance(x, Fraction) for x in sol)
    assert to_sympy([[x] for x in sol]) == expected
    assert bool(params) == (kind == "underdetermined")


# -- products through the one matmul kernel ---------------------------------------
# The loops that formed these products with CycloNum + and * before they were
# written as matmuls, kept as references.

def _reference_apply(m, v):
    return tuple(
        sum((m.entry(i, j) * v[j] for j in range(m.cols) if v[j]), CycloNum.zero(m.d))
        for i in range(m.rows)
    )


def _reference_sesquilinear(gram, x, y):
    return sum((yr.conj() * gx for yr, gx in zip(y, _reference_apply(gram, x))), CycloNum.zero(gram.d))


def _reference_pairing_scalar(fc, x, y):
    gy = _reference_apply(fc.G_W_inv, tuple(e.conj() for e in y))
    acc = CycloNum.zero(fc.ctx.d)
    for a, b in zip(x, gy):
        if a and b:
            acc = acc + a * b
    return acc


def _reference_row_action(fc, lam, c_inv, x):
    s = fc.middle_size
    zero = CycloNum.zero(fc.ctx.d)
    out = []
    for col in range(s):
        acc = zero
        for row in range(s):
            if x[row] and c_inv.entry(row, col):
                acc = acc + x[row] * c_inv.entry(row, col)
        out.append(lam * acc)
    return tuple(out)


def draw_entry(draw, d):
    """0, 1, -1, zeta^e or a dense element whose coefficients have denominators."""
    kind = draw(st.sampled_from("01-zd"))
    if kind == "0":
        return CycloNum.zero(d)
    if kind == "1":
        return CycloNum.one(d)
    if kind == "-":
        return -CycloNum.one(d)
    if kind == "z":
        return zeta(d, draw(st.integers(0, d - 1)))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
    return from_coeffs(d, [draw(coeff) for _ in range(euler_phi(d))])


@st.composite
def kernel_operands(draw):
    """(m, x, y, lam): a rows x cols matrix, vectors of length cols and rows,
    and a scalar, with entries mixing 0, 1, -1, zeta^e and dense elements
    whose coefficients have denominators."""
    d = draw(st.sampled_from((3, 5, 7, 12, 19)))
    entry = functools.partial(draw_entry, draw, d)
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = CycloMatrix.from_rows(d, [[entry() for _ in range(cols)] for _ in range(rows)])
    return m, tuple(entry() for _ in range(cols)), tuple(entry() for _ in range(rows)), entry()


@st.composite
def planted_products(draw):
    """(a, b) whose product plants three kinds of entry.  Column 0 of b
    starts with three copies of an integral element e of content g in
    (2, 3, 6).  Row 0 of a starts with rationals over the denominators 2, 3
    and 6 in a drawn order, so entry (0, 0) sums terms over distinct
    denominators, which both rescale the running sum (a later lcm) and
    scale a term (an earlier one), and its content shares g with the
    denominator 6.  Row 1 starts with c_l * w, c_2 = -c_0 - c_1, then
    zeros, so entry (1, 0) sums terms over distinct denominators to 0.
    Every other entry mixes 0, 1, -1, zeta^e and dense elements."""
    d = draw(st.sampled_from((3, 5, 7, 12, 19)))
    entry = functools.partial(draw_entry, draw, d)
    nonzero = st.integers(-6, 6).filter(bool)

    def integral():
        return from_coeffs(d, [draw(st.integers(-9, 9)) for _ in range(euler_phi(d) - 1)] + [draw(nonzero)])

    rows, inner, cols = draw(st.integers(2, 4)), draw(st.integers(3, 5)), draw(st.integers(1, 4))
    a = [[entry() for _ in range(inner)] for _ in range(rows)]
    b = [[entry() for _ in range(cols)] for _ in range(inner)]
    dens = draw(st.permutations((2, 3, 6)))
    e = integral() * draw(st.sampled_from((2, 3, 6)))
    for l, den in enumerate(dens):
        b[l][0] = e
        a[0][l] = from_rational(d, Fraction(draw(st.sampled_from((-5, -1, 1, 5, 7))), den))
    c0, c1 = Fraction(draw(nonzero), dens[0]), Fraction(draw(nonzero), dens[1])
    w = integral()
    a[1] = [w * c0, w * c1, w * (-c0 - c1)] + [CycloNum.zero(d)] * (inner - 3)
    return CycloMatrix.from_rows(d, a), CycloMatrix.from_rows(d, b)


@PROPERTY
@given(planted_products())
def test_matmul_matches_schoolbook_on_planted_entries(operands):
    a, b = operands
    product = a @ b
    assert product == _schoolbook_matmul(a, b)
    # the planted entries: one sums to 0, one over terms of distinct denominators
    assert product.entry(1, 0) == 0
    assert sorted(a.entry(0, l).den for l in range(3)) == [2, 3, 6]


@PROPERTY
@given(kernel_operands())
def test_vector_products_match_the_loops_they_replaced(operands):
    m, x, y, lam = operands
    assert m.apply(x) == _reference_apply(m, x) and isinstance(m.apply(x), tuple)
    assert sesquilinear(m, x, y) == _reference_sesquilinear(m, x, y)
    # the horo products read only these fields of a flag context
    k = min(m.rows, m.cols)
    square = m.submatrix(range(k), range(k))
    fc = SimpleNamespace(ctx=SimpleNamespace(d=m.d), middle_size=k, G_W_inv=square)
    xs, ys = x[:k], y[:k]
    assert horo._pairing_scalar(fc, xs, ys) == _reference_pairing_scalar(fc, xs, ys)
    action = horo._row_action(fc, lam, square, xs)
    assert action == _reference_row_action(fc, lam, square, xs) and isinstance(action, tuple)
    # a vector of the wrong length is still a named shape error
    with pytest.raises(ShapeMismatch):
        m.apply(x + (lam,))
    with pytest.raises(ShapeMismatch):
        sesquilinear(m, x, y + (lam,))
    with pytest.raises(ShapeMismatch):
        horo._pairing_scalar(fc, xs, ys + (lam,))
    with pytest.raises(ShapeMismatch):
        horo._row_action(fc, lam, square, xs + (lam,))


# -- linalg.word_product: sparse letters rolled on int64, then on Python ints ----

def promotions(fn, *args):
    """fn(*args) and the steps of linalg.word_product at which its array left
    int64 for Python ints: step i < len(letters) is the check before letter
    i, step len(letters) the check before the reduction.  Steps count on
    across products, and the list is empty when no product promoted."""
    steps, checked = [], linalg._checked

    def spy(arr, bound, factor):
        out = checked(arr, bound, factor)
        steps.append(arr.dtype != object and out[0].dtype == object)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_checked", spy)
        result = fn(*args)
    assert steps, "no word product ran"
    return result, [i for i, promoted in enumerate(steps) if promoted]


def _product(d, size, terms):
    """word_product of letters given by their term lists."""
    return linalg.word_product(d, size, [linalg.SparseLetter(d, t) for t in terms])


def _reference(d, size, terms):
    """The letter's matrix in CycloNum arithmetic: identity outside the
    target columns, sign * zeta^t summed into (source, target) there."""
    targets = {c for c, _, _, _ in terms}
    rows = [[CycloNum.one(d) if r == c and c not in targets else CycloNum.zero(d) for c in range(size)]
            for r in range(size)]
    for c, r, sign, t in terms:
        rows[r][c] = rows[r][c] + sign * zeta(d, t)
    return CycloMatrix.from_rows(d, rows)


def _fold(d, size, terms):
    return functools.reduce(operator.matmul, [_reference(d, size, t) for t in terms],
                            CycloMatrix.identity(d, size))


def _roll_columns(d, cols, letter):
    """The columns of M times a letter's terms, M in Python ints over
    Z[x]/(x^d - 1), column by column."""
    size = len(cols[0])
    new = {c: [[0] * d for _ in range(size)] for c, _, _, _ in letter}
    for c, r, coef, t in letter:
        for a in range(size):
            for j in range(d):
                new[c][a][j] += coef * cols[r][a][(j - t) % d]
    return [new.get(c, col) for c, col in enumerate(cols)]


def _top(cols):
    return max(abs(x) for col in cols for entry in col for x in entry)


def _lam(letter):
    weights = Counter()
    for c, _, coef, _ in letter:
        weights[c] += abs(coef)
    return max(weights.values())


def _first_over_the_bound(d, size, terms):
    """The step at which the product must promote: the first letter i with
    max|M| * lam_i >= 2^63 for M the product of letters 0..i-1 over
    Z[x]/(x^d - 1), else len(terms) if max|M| * rho_d >= 2^63 for the whole
    product, else None.  M is rolled here in Python ints, column by column."""
    cols = [[[int(r == c and j == 0) for j in range(d)] for r in range(size)] for c in range(size)]
    for i, letter in enumerate(terms + [None]):
        if letter is None:
            return i if _top(cols) * linalg._cyclic_reduction(d)[1] >= 2**63 else None
        if _top(cols) * _lam(letter) >= 2**63:
            return i
        cols = _roll_columns(d, cols, letter)


def _first_factored_step(d, size, terms, right, weight):
    """The step at which factored_product of a word must promote: a letter,
    or len(terms) for the right factor, as in _first_over_the_bound; then
    len(terms) + 1 if the radical column of M R fails rho_d, len(terms) + 2
    if the other columns fail weight, the largest l1-norm of one row of the
    left factor's terms, else None (the final reduction is not pinned here)."""
    cols = [[[int(r == c and j == 0) for j in range(d)] for r in range(size)] for c in range(size)]
    for i, letter in enumerate(terms + [right]):
        if _top(cols) * _lam(letter) >= 2**63:
            return i
        cols = _roll_columns(d, cols, letter)
    if _top(cols[-1:]) * linalg._cyclic_reduction(d)[1] >= 2**63:
        return len(terms) + 1
    return len(terms) + 2 if _top(cols[:-1]) * weight >= 2**63 else None


@st.composite
def sparse_letters(draw, d, size):
    """A letter on a drawn non-empty set of target columns, each with 1..4
    terms of any source row, sign and power of zeta."""
    targets = draw(st.sets(st.integers(0, size - 1), min_size=1))
    return [(c, draw(st.integers(0, size - 1)), draw(st.sampled_from((1, -1))), draw(st.integers(0, d - 1)))
            for c in sorted(targets) for _ in range(draw(st.integers(1, 4)))]


@st.composite
def letter_chains(draw):
    """0..8 sparse letters of one size 1..4 over d in {3, 4, 5, 7, 12, 25}."""
    d, size = draw(st.sampled_from((3, 4, 5, 7, 12, 25))), draw(st.integers(1, 4))
    return d, size, [draw(sparse_letters(d, size)) for _ in range(draw(st.integers(0, 8)))]


@PROPERTY
@given(letter_chains())
def test_product_of_integral_factors_runs_on_arrays(chain):
    d, size, terms = chain
    assert all(linalg.sparse_matrix(d, size, t) == _reference(d, size, t) for t in terms)
    result, steps = promotions(_product, d, size, terms)
    assert result == _fold(d, size, terms)
    assert steps == []


def _value_letters(value):
    """Term lists at size 2 whose product holds value at (0, 0), its largest
    coefficient: col1 += col0, then per bit col0 *= 2 and col0 += col1."""
    double, add = [(0, 0, 1, 0), (0, 0, 1, 0)], [(0, 0, 1, 0), (0, 1, 1, 0)]
    terms = [[(1, 1, 1, 0), (1, 0, 1, 0)]]
    for bit in bin(value)[3:]:
        terms += [double, add] if bit == "1" else [double]
    return terms


def test_product_bound_decides_the_branch():
    """max|M| * lam one unit below 2^63 applies the letter in int64, one
    unit above promotes the array before that letter; likewise max|M| *
    rho_d before the reduction.  Every branch gives the exact product."""
    d, triple = 5, [(0, 0, 1, 0), (0, 0, 1, 0), (0, 1, 1, 0)]
    b = (2**63 - 1) // 3
    assert b * 3 < 2**63 <= (b + 1) * 3
    for value in (b, b + 1):
        terms = _value_letters(value) + [triple]
        result, steps = promotions(_product, d, 2, terms)
        assert result.entry(0, 0) == from_rational(d, 2 * value + 1)
        assert result == _fold(d, 2, terms)
        # below the bound the array that holds 2 * value + 1 promotes before the reduction
        assert steps == [len(terms) if value == b else len(terms) - 1]
        assert steps == [_first_over_the_bound(d, 2, terms)]
    rho = linalg._cyclic_reduction(d)[1]
    b = (2**63 - 1) // rho
    assert b * rho < 2**63 <= (b + 1) * rho
    for value in (b, b + 1):
        terms = _value_letters(value)
        result, steps = promotions(_product, d, 2, terms)
        assert result.entry(0, 0) == from_rational(d, value)
        assert result == _fold(d, 2, terms)
        assert steps == ([] if value == b else [len(terms)])


@PROPERTY
@given(st.data())
def test_product_promotes_at_the_first_letter_over_the_bound(data):
    """After a prefix with max|M| = 2^62, letters of lam 1 that keep that
    column stay in int64, the first letter of lam 2 fails the bound and
    promotes the array, and the rest of the fold runs on Python ints."""
    d, size = 5, 2
    prefix = _value_letters(2**62)
    single = [[(1, data.draw(st.integers(0, 1)), data.draw(st.sampled_from((1, -1))),
                data.draw(st.integers(0, d - 1)))]
              for _ in range(data.draw(st.integers(0, 3)))]
    double = [(0, 0, 1, 0), (0, 1, -1, 3)]
    rest = [data.draw(sparse_letters(d, size)) for _ in range(data.draw(st.integers(0, 3)))]
    terms = prefix + single + [double] + rest
    result, steps = promotions(_product, d, size, terms)
    assert result == _fold(d, size, terms)
    assert steps == [len(prefix) + len(single)] == [_first_over_the_bound(d, size, terms)]


def test_product_wider_than_the_old_window_runs_on_arrays():
    """No window limit: at d = 101, size 3 (past the 2^16 entries that gated
    the dense int64 product) the letters still roll in int64."""
    d = 101
    terms = [[(0, 0, 1, e), (1, 1, 1, 2 * e), (1, 2, -1, 0)] for e in (1, 5, 7)]
    result, steps = promotions(_product, d, 3, terms)
    assert result == _fold(d, 3, terms)
    assert steps == []


def test_product_beyond_int64_is_rejected_by_the_bound_and_exact():
    """Coefficients >= 2^63 arise only after the promotion and stay exact."""
    d = 5
    terms = _value_letters(2**70 + 3) + [[(1, 0, 1, 2), (1, 1, -1, 1)]]
    result, steps = promotions(_product, d, 2, terms)
    assert result == _fold(d, 2, terms)
    assert result.entry(0, 0) == from_rational(d, 2**70 + 3)
    assert max(abs(c) for e in result.entries for c in e.num) >= 2**63
    assert all(type(c) is int for e in result.entries for c in e.num)
    assert len(steps) == 1 and steps == [_first_over_the_bound(d, 2, terms)]


def _long_word(length):
    rng = random.Random(25)
    letters = []
    for _ in range(length):
        kind, i = rng.randrange(3), rng.randint(1, 5)
        gen = ("A", i, rng.randint(i + 1, 7)) if kind == 0 else ("T", i + 1) if kind == 1 else ("FT", i, i + 2)
        letters.append((gen, rng.choice((1, -1))))
    return letters


def test_long_word_promotes_partway():
    """A 320-letter word at d=25 outgrows the int64 bound: evaluate_word rolls
    its letters in int64, promotes once, at the first letter over the
    bound, and ends on Python ints, exactly."""
    ctx = make_context(25, (1, 2, 3, 4, 5, 6, 7), 2)
    letters = _long_word(320)
    mats = [evaluate_word(ctx, BraidWord((letter,))) for letter in letters]
    result, steps = promotions(evaluate_word, ctx, BraidWord(tuple(letters)))
    assert result == functools.reduce(operator.matmul, mats)
    terms = [rep._letter_terms(ctx, letter) for letter in letters]
    assert len(steps) == 1 and 0 < steps[0] < len(letters)
    assert steps == [_first_over_the_bound(ctx.d, ctx.n - 1, terms)]


QUOTIENT_25 = make_context(25, (1, 2, 3, 4, 5, 6, 4), 2)
FLAG_25 = (25, (1, 2, 22, 4, 5, 6, 10), 2, 3)


@pytest.mark.parametrize("length,step", [(144, 146), (151, 151), (200, 151)])
def test_quotient_word_promotes_at_the_pinned_step(length, step):
    """rep --quotient of prefixes of the long word at d = 25: the 144-letter
    prefix promotes at the left factor (step 146, the weight of its spread
    terms), the 151-letter one at the right factor (step 151), the
    200-letter one before its letter 151, counted from 0; all exactly."""
    ctx = QUOTIENT_25
    word = BraidWord(tuple(_long_word(length)))
    result, steps = promotions(evaluate_quotient, ctx, word)
    d, size, exps = ctx.d, ctx.n - 2, ctx._radical_exponents
    # d u_a - (zeta^{e_a} - 1) d / (zeta^{e_{n-2}} - 1) u_{n-2}, a < n - 2
    left = [(a, a, d, 0) for a in range(size)]
    left += [t for a in range(size) for t in rep._spread_terms(d, a, size, exps[size], ((-1, exps[a]), (1, 0)))]
    assert _lam(left) <= d * d
    terms = [rep._letter_terms(ctx, letter) for letter in word.letters]
    assert steps == [step] == [_first_factored_step(d, ctx.n - 1, terms, rep._radical_terms(ctx, size), _lam(left))]
    assert result == quotient_matrix(ctx, evaluate_word(ctx, word))


@pytest.mark.parametrize("length,step", [(153, 155), (176, 176), (200, 178)])
def test_flag_word_promotes_at_the_pinned_step(length, step):
    """word_flag_matrix of prefixes of the long word at d = 25, m = 3: the
    153-letter prefix promotes at the left factor (step 155), the
    176-letter one at the right factor (step 176), the 200-letter one
    before its letter 178, counted from 0; all exactly."""
    d, kappa, k, m = FLAG_25
    fc = horo.make_flag(make_context(d, kappa, k), m)
    word = BraidWord(tuple(_long_word(length)))
    result, steps = promotions(horo.word_flag_matrix, fc, word)
    n, exps = fc.ctx.n, fc.ctx._radical_exponents
    # the lift of the flag basis (w, g_1, g_5, g_6, g_3) and the radical
    right_terms = [(0, b, s, t) for b in range(m - 1) if exps[b] for s, t in ((1, exps[b]), (-1, 0))]
    right_terms += [(j, a, 1, 0) for j, a in enumerate((0, 4, 5, 2), 1)] + rep._radical_terms(fc.ctx, n - 2)
    # flag coordinates: w reads alpha - beta, a unit g_a reads u_a minus alpha
    # or beta times r_a, with alpha = d u_1 / r_1 and beta = d u_3 / r_3
    alpha, beta = (1, exps[1]), (3, exps[3])
    left = rep._spread_terms(d, 0, *alpha, ((1, 0),)) + rep._spread_terms(d, 0, *beta, ((-1, 0),))
    for j, a in enumerate((0, 4, 5, 2), 1):
        left += [(j, a, d, 0)] + rep._spread_terms(d, j, *(alpha if a < m else beta), ((-1, exps[a]), (1, 0)))
    assert _lam(left) <= d * d
    terms = [rep._letter_terms(fc.ctx, letter) for letter in word.letters]
    assert steps == [step] == [_first_factored_step(d, fc.ctx.n - 1, terms, right_terms, _lam(left))]
    assert result == fc.P.inverse() @ evaluate_quotient(fc.ctx, word) @ fc.P


def _perfbench_workloads():
    """perfbench/workloads.py, the benchmark's seeded command lists."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_words_never_promote(capsys):
    """The 96 words of the words workload at seed 7, one horo pass and one
    verify pass run every product in int64."""
    workloads = _perfbench_workloads()
    argvs = [argv for p in range(16) for argv in workloads.words_commands(7, p)]
    assert len(argvs) == 96
    argvs += workloads.horo_commands(7, 0) + workloads.verify_commands(7, 0)

    def run():
        return [cli.main(argv) for argv in argvs]

    codes, steps = promotions(run)
    capsys.readouterr()
    assert codes == [0] * len(argvs)
    assert steps == []


def test_unipotency_and_order():
    rng = random.Random(7)
    ident = CycloMatrix.identity(D, 3)
    assert ident.is_unipotent()
    assert not CycloMatrix.diagonal(D, [zeta(D), from_rational(D, 1)]).is_unipotent()
    one, zero = from_rational(D, 1), CycloNum.zero(D)
    tri = CycloMatrix.from_rows(
        D, [[one if i == j else (rnum(rng) if i < j else zero) for j in range(3)] for i in range(3)]
    )
    assert tri.is_unipotent()
    assert ident.multiplicative_order(5) == 1
    assert CycloMatrix.diagonal(6, [zeta(6)]).multiplicative_order(10) == 6
    if tri != ident:
        assert tri.multiplicative_order(1000) is None


def test_inertia_examples():
    # 1x1 [zeta_4^3]: the Hermitian value is -i * embed(zeta_4^3) = +1
    assert inertia(CycloMatrix.from_rows(4, [[zeta(4, 3)]])) == (1, 0, 0)
    assert inertia(CycloMatrix.zeros(4, 2, 2)) == (0, 0, 2)
    with pytest.raises(NotAntiHermitian):
        inertia(CycloMatrix.identity(4, 2))
    # a value squarely inside the unsafe band trips the error
    eps = from_rational(4, Fraction(1, 10**7)) * zeta(4, 3)
    with pytest.raises(AmbiguousSign):
        inertia(CycloMatrix.from_rows(4, [[eps]]))


def test_inertia_congruence_invariance():
    rng = random.Random(8)
    gram = CycloMatrix.diagonal(D, [zeta(D) - zeta(D, 4), zeta(D, 2) - zeta(D, 3)])
    assert gram.conj_transpose() == -gram
    base = inertia(gram)
    for _ in range(5):
        p = rmat(rng, 2)
        while not p.det():
            p = rmat(rng, 2)
        assert inertia(p.conj_transpose() @ gram @ p) == base


def test_sesquilinear_convention():
    # diagonal Gram: form(x, y) = sum conj(y_r) g_r x_r
    g = CycloMatrix.diagonal(D, [zeta(D), zeta(D, 2)])
    x = (from_rational(D, 1), CycloNum.zero(D))
    y = (zeta(D), CycloNum.zero(D))
    assert sesquilinear(g, x, y) == zeta(D).conj() * zeta(D)


def test_matrix_json_roundtrip():
    rng = random.Random(9)
    m = rmat(rng, 2, 3)
    doc = matrix_to_json(m)
    assert doc["rows"] == 2 and doc["cols"] == 3 and len(doc["entries"]) == 6
    assert matrix_from_json(doc) == m


@st.composite
def json_matrices(draw):
    """A matrix of 1..3 x 1..3 entries over a prime or composite d; each
    entry has a denominator 1..10^6, often != 1, and numerators of either
    sign up to 2^80."""
    d = draw(st.sampled_from((3, 5, 7, 23, 4, 12, 15, 25)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coeff = st.builds(Fraction, st.integers(-2**80, 2**80) | st.sampled_from((0, 1, -1, 2**64 + 1)),
                      st.integers(1, 10**6))
    entries = [from_coeffs(d, draw(st.lists(coeff, min_size=euler_phi(d), max_size=euler_phi(d))))
               for _ in range(rows * cols)]
    return CycloMatrix(d, rows, cols, tuple(entries))


@PROPERTY
@given(json_matrices())
def test_matrix_json_round_trip_property(m):
    assert matrix_from_json(json.loads(json.dumps(matrix_to_json(m)))) == m
