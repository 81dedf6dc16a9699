import functools
import operator
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from braidrep import horo, linalg
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
from braidrep.rep import BraidWord, evaluate_word, make_context

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
    """Products that skip factors equal to 1 equal the always-multiply
    reference, on operands mixing 0, 1, -1, zeta^e and dense entries."""
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
        if rng.random() < 0.5:               # a target inside the column space
            x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
            target = [sum((a[r][c] * x[c] for c in range(k)), Fraction(0)) for r in range(n)]
        else:
            target = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        sol = solve_rational(columns, target)
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
    sol = solve_rational(columns, target)
    if kind == "inconsistent":
        assert sol is None
        return
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


@st.composite
def kernel_operands(draw):
    """(m, x, y, lam): a rows x cols matrix, vectors of length cols and rows,
    and a scalar, with entries mixing 0, 1, -1, zeta^e and dense elements
    whose coefficients have denominators."""
    d = draw(st.sampled_from((3, 5, 7, 12, 19)))
    phi = euler_phi(d)
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))

    def entry():
        kind = draw(st.sampled_from("01-zd"))
        if kind == "0":
            return CycloNum.zero(d)
        if kind == "1":
            return CycloNum.one(d)
        if kind == "-":
            return -CycloNum.one(d)
        if kind == "z":
            return zeta(d, draw(st.integers(0, d - 1)))
        return from_coeffs(d, [draw(coeff) for _ in range(phi)])

    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = CycloMatrix.from_rows(d, [[entry() for _ in range(cols)] for _ in range(rows)])
    return m, tuple(entry() for _ in range(cols)), tuple(entry() for _ in range(rows)), entry()


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


# -- linalg.product: int64 array products under a checked bound ----------------

def _counting(counts, name, fn):
    def counted(*args):
        counts[name] += 1
        return fn(*args)
    return counted


def counted(fn, *args):
    """fn(*args) with a count of each branch linalg.product took: int64 array
    products, schoolbook matmuls and array-to-CycloMatrix conversions."""
    counts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_array_product", _counting(counts, "array", linalg._array_product))
        mp.setattr(linalg, "_from_array", _counting(counts, "convert", linalg._from_array))
        mp.setattr(CycloMatrix, "__matmul__", _counting(counts, "schoolbook", CycloMatrix.__matmul__))
        result = fn(*args)
    return result, counts


@st.composite
def factor_chains(draw, first_fraction=None):
    """A chain of 1..6 conformable factors over d in {3, 5, 7, 12, 25} with
    entries 0, 1, -1, zeta^e or integer coefficients in -9..9.  When
    first_fraction is given, factors from that index on (drawn, if 'draw')
    each hold one entry with a denominator; the factors before are integral."""
    d = draw(st.sampled_from((3, 5, 7, 12, 25)))
    phi = euler_phi(d)
    k = draw(st.integers(2 if first_fraction == "draw" else 1, 6))
    dims = [draw(st.integers(1, 4)) for _ in range(k + 1)]
    if first_fraction == "draw":
        first_fraction = draw(st.integers(1, k - 1))

    def entry():
        kind = draw(st.sampled_from("01-zi"))
        if kind == "0":
            return CycloNum.zero(d)
        if kind == "1":
            return CycloNum.one(d)
        if kind == "-":
            return -CycloNum.one(d)
        if kind == "z":
            return zeta(d, draw(st.integers(0, d - 1)))
        return from_coeffs(d, [draw(st.integers(-9, 9)) for _ in range(phi)])

    mats = []
    for t in range(k):
        rows = [[entry() for _ in range(dims[t + 1])] for _ in range(dims[t])]
        if first_fraction is not None and t >= first_fraction:
            i, j = draw(st.integers(0, dims[t] - 1)), draw(st.integers(0, dims[t + 1] - 1))
            rows[i][j] = from_rational(d, Fraction(draw(st.sampled_from((1, -1, 5))), draw(st.sampled_from((2, 3, 7)))))
        mats.append(CycloMatrix.from_rows(d, rows))
    return mats, first_fraction


@PROPERTY
@given(factor_chains())
def test_product_of_integral_factors_runs_on_arrays(chain):
    mats, _ = chain
    result, counts = counted(linalg.product, mats)
    assert result == functools.reduce(operator.matmul, mats)
    assert counts == Counter(array=len(mats) - 1, convert=int(len(mats) > 1))


@PROPERTY
@given(factor_chains(first_fraction=0))
def test_product_with_denominators_never_takes_the_array_path(chain):
    mats, _ = chain
    result, counts = counted(linalg.product, mats)
    assert result == functools.reduce(operator.matmul, mats)
    assert counts["array"] == counts["convert"] == 0
    assert counts["schoolbook"] == len(mats) - 1


@PROPERTY
@given(factor_chains(first_fraction="draw"))
def test_product_switches_to_schoolbook_at_the_first_denominator(chain):
    mats, first = chain
    result, counts = counted(linalg.product, mats)
    assert result == functools.reduce(operator.matmul, mats)
    assert counts == Counter(array=first - 1, convert=int(first > 1), schoolbook=len(mats) - first)


def _flat(d, rows, cols, coeffs):
    """rows x cols matrix whose entries all have the coefficient vector coeffs."""
    return CycloMatrix(d, rows, cols, (CycloNum(d, tuple(coeffs), 1),) * (rows * cols))


def test_product_bound_decides_the_branch():
    """Operands sized just below the int64 bound multiply as arrays, just
    above it by the schoolbook product; both give the exact product."""
    d, inner = 5, 3
    phi, rho = euler_phi(d), linalg._reduction(d)[1]
    a = 2**20
    b = (2**63 - 1) // (inner * phi * a * rho)
    assert inner * phi * a * b * rho < 2**63 <= inner * phi * a * (b + 1) * rho
    left = _flat(d, 2, inner, (a, -a, a, 5))
    for coeff, branch in ((b, "array"), (b + 1, "schoolbook")):
        right = _flat(d, inner, 2, (coeff, coeff, -7, coeff))
        assert right._integral[1] == coeff
        result, counts = counted(linalg.product, [left, right])
        assert result == left @ right
        # only an array product leaves an array to convert
        assert counts == Counter({branch: 1, "convert": int(branch == "array")})


def test_product_wider_than_the_window_limit_stays_schoolbook():
    d, size = 101, 3
    phi = euler_phi(d)
    assert size * size * (2 * phi - 1) * phi > linalg._WINDOW_LIMIT
    mats = [CycloMatrix.diagonal(d, [zeta(d, e), zeta(d, 2 * e), CycloNum.one(d)]) for e in (1, 5, 7)]
    result, counts = counted(linalg.product, mats)
    assert result == functools.reduce(operator.matmul, mats)
    assert counts == Counter(schoolbook=2)


def test_product_beyond_int64_is_rejected_by_the_bound_and_exact():
    d = 5
    left, right = _flat(d, 2, 2, (2**32, 2**32, 2**32, -2**32)), _flat(d, 2, 2, (2**32,) * 4)
    three = [left, right, right]
    result, counts = counted(linalg.product, three)
    assert result == functools.reduce(operator.matmul, three)
    assert max(abs(c) for e in result.entries for c in e.num) >= 2**63
    assert counts == Counter(schoolbook=2)
    # coefficients themselves outside int64 give no array at all; -2^63 fits
    assert _flat(d, 1, 1, (2**63, 0, 0, 0))._integral is None
    assert _flat(d, 1, 1, (-2**63, 0, 0, 0))._integral[1] == 2**63


def test_long_word_falls_back_partway():
    """A 320-letter word at d=25 outgrows the int64 bound: evaluate_word folds
    on arrays, converts once and ends on the schoolbook product, exactly."""
    rng = random.Random(25)
    ctx = make_context(25, (1, 2, 3, 4, 5, 6, 7), 2)
    letters = []
    for _ in range(320):
        kind, i = rng.randrange(3), rng.randint(1, 5)
        gen = ("A", i, rng.randint(i + 1, 7)) if kind == 0 else ("T", i + 1) if kind == 1 else ("FT", i, i + 2)
        letters.append((gen, rng.choice((1, -1))))
    mats = [evaluate_word(ctx, BraidWord((letter,))) for letter in letters]
    result, counts = counted(evaluate_word, ctx, BraidWord(tuple(letters)))
    assert result == functools.reduce(operator.matmul, mats)
    assert counts["array"] > 0 and counts["schoolbook"] > 0 and counts["convert"] == 1
    assert counts["array"] + counts["schoolbook"] == len(mats) - 1


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
