import functools
import itertools
import math
import operator
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fractions import Fraction

from braidrep.cyclo import (
    CycloNum,
    euler_phi,
    from_coeffs,
    from_poly,
    order_of_power,
    spread_inverse,
    units,
    zeta,
)
from braidrep.errors import (
    DegenerateBlock,
    DisconnectedCover,
    ExponentDivisible,
    IndexOutOfRange,
    InvalidParameter,
    ModulusMismatch,
    NotCoprime,
    NotDegenerate,
    NotPrimitive,
    RadicalNotFixed,
    ShapeMismatch,
    Singular,
)
from braidrep.linalg import CycloMatrix, matrix_to_json
from braidrep.rep import (
    BraidWord,
    block_twist,
    block_twist_word,
    commutator,
    evaluate_quotient,
    evaluate_word,
    galois_transport,
    lantern_block,
    make_context,
    pair_twist,
    parse_word,
    prefix_twist,
    quotient_gram,
    quotient_matrix,
    radical_vector,
    scalar_relation_holds,
    transported_context,
    word_det,
)
from braidrep import rep
from braidrep.suites import sample_context, suite_lantern


# -- context construction ------------------------------------------------------

def test_make_context_validation():
    assert make_context(3, (4, 1, 1), 1).weights == (1, 1, 1)
    with pytest.raises(ExponentDivisible):
        make_context(3, (3, 1, 1), 1)
    with pytest.raises(NotPrimitive):
        make_context(4, (1, 1, 1), 2)
    with pytest.raises(DisconnectedCover):
        make_context(6, (2, 2, 2), 1)
    ctx = make_context(12, (7, 5, 4, 4, 4), 1)
    assert ctx.eps0 == 1
    assert make_context(5, (1, 1, 1), 1).eps0 == 0


def test_gram_structure():
    rng = random.Random(31)
    for _ in range(20):
        ctx = sample_context(rng)
        g = ctx.gram
        assert g.conj_transpose() == -g
        for a in range(ctx.n - 1):
            for b in range(ctx.n - 1):
                if abs(a - b) > 1:
                    assert not g.entry(a, b)
        assert ctx.mu.is_real()
        assert ctx.mu.embed().real > 0


def test_gram_uniform_weight_values():
    # kappa = (1, ..., 1): diagonal q - qbar, neighbor pairing qbar - 1
    for d, n, k in ((3, 3, 1), (5, 4, 2), (7, 5, 3), (12, 6, 5)):
        ctx = make_context(d, (1,) * n, k)
        q = ctx.q
        one = CycloNum.one(d)
        for a in range(n - 1):
            assert ctx.gram.entry(a, a) == q - q.conj()
        for i in range(1, n - 1):
            x, y = ctx.basis_vector(i), ctx.basis_vector(i + 1)
            assert ctx.jform(x, y) == q.conj() - one


# -- pair twists -----------------------------------------------------------------

def _gram_by_inverses(ctx):
    """The former Gram formula, kept as the oracle of the closed form:
    each entry from field inverses of 1 - q^e."""
    d, size, kappa, mu, qp = ctx.d, ctx.n - 1, ctx.weights, ctx.mu, ctx.qpow
    one, zero = CycloNum.one(d), CycloNum.zero(d)
    rows = [[zero] * size for _ in range(size)]
    for a in range(size):
        ki, kj = kappa[a], kappa[a + 1]
        rows[a][a] = mu * (one - qp(ki + kj)) / ((one - qp(ki)) * (one - qp(kj)))
        if a + 1 < size:
            rows[a][a + 1] = mu / (one - qp(-kj))
            rows[a + 1][a] = -(mu / (one - qp(kj)))
    return CycloMatrix.from_rows(d, rows)


@st.composite
def gram_contexts(draw):
    """Prime and composite d, every unit k, and kappa drawn with adjacent
    pairs d | k_i + k_j."""
    d = draw(st.sampled_from((3, 5, 7, 11, 13, 4, 6, 8, 9, 12, 15, 25, 30)))
    kappa = [draw(st.integers(1, d - 1)) for _ in range(draw(st.integers(3, 7)))]
    for i in range(1, len(kappa)):
        if draw(st.integers(0, 2)) == 0:
            kappa[i] = d - kappa[i - 1]
    if math.gcd(d, *kappa) != 1:
        kappa[0] = 1
    return d, tuple(kappa)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(gram_contexts())
def test_gram_closed_form_matches_the_inverse_formula(case):
    """The closed-form Gram equals the inverse-based formula at every unit k,
    a zero diagonal entry exactly where d | k_i + k_j, and takes no field
    inverse; c = -1 / w_{n-2} of the quotient is the spread as well."""
    d, kappa = case
    for k in units(d):
        ctx = make_context(d, kappa, k)
        gram = ctx.gram
        assert gram == _gram_by_inverses(ctx)
        assert [not gram.entry(a, a) for a in range(ctx.n - 1)] == \
            [(kappa[a] + kappa[a + 1]) % d == 0 for a in range(ctx.n - 1)]
        if ctx.eps0 == 1:
            w = radical_vector(ctx)
            assert ctx._last_basis_rewrite == tuple(-x / w[-1] for x in w[:-1])


def test_spread_inverse_is_d_over_zeta_power_minus_one():
    for d in (3, 4, 9, 12, 25, 30):
        for e in range(1, d):
            if e % d:
                assert from_poly(d, spread_inverse(d, e)) * (zeta(d, e) - 1) == d, (d, e)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from((5, 7, 9, 11, 12, 15, 25, 30)).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(1, d - 1),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(0, d - 1)), min_size=1, max_size=3),
    st.lists(st.integers(-50, 50), min_size=d, max_size=d))))
@example((12, 8, [(1, 0), (-1, 5)], [1] + [0] * 11))
@example((25, 10, [(2, 3)], list(range(25))))
def test_spread_terms_are_the_division_by_zeta_power_minus_one(case):
    """rep._spread_terms(d, i, j, e, refs) applied to a row u is d * poly *
    u / (zeta^e - 1), poly the sum of s zeta^t over the references (s, t),
    for prime and composite d and for e with gcd(e, d) > 1; its terms sit
    at (i, j), one per power of zeta, with row l1-norm at most
    d (d - 1) / 2 per unit of the references."""
    d, e, refs, u = case
    terms = rep._spread_terms(d, 2, 1, e, tuple(refs))
    assert all((c, r) == (2, 1) and coef for c, r, coef, _ in terms)
    assert len({t for *_, t in terms}) == len(terms)
    assert sum(abs(coef) for _, _, coef, _ in terms) <= d * (d - 1) // 2 * sum(abs(s) for s, _ in refs)
    row = from_poly(d, u)
    applied = sum((coef * zeta(d, t) * row for _, _, coef, t in terms), CycloNum.zero(d))
    poly = sum((s * zeta(d, t) for s, t in refs), CycloNum.zero(d))
    assert applied == d * poly * row * (zeta(d, e) - 1).inv()


def test_gram_takes_no_field_inverse(monkeypatch):
    monkeypatch.setattr(CycloNum, "inv", lambda x: pytest.fail("field inverse"))
    for d, kappa, k in ((2039, (1, 1, 1), 1), (12, (7, 5, 4, 4, 4), 5), (30, (1, 29, 7, 23), 7)):
        ctx = make_context(d, kappa, k)
        assert ctx.gram.conj_transpose() == -ctx.gram


def test_pair_twist_is_reflection_on_adjacent_vector():
    ctx = make_context(5, (1, 1, 2, 1), 1)
    m = pair_twist(ctx, 1, 2)
    img = m.col(0)
    assert img[0] == ctx.qpow(2)
    assert not any(img[1:])


def test_pair_twist_det_order_unipotency():
    rng = random.Random(32)
    for _ in range(15):
        ctx = sample_context(rng)
        for i, j in itertools.combinations(range(1, ctx.n + 1), 2):
            m = pair_twist(ctx, i, j)
            ki, kj = ctx.weights[i - 1], ctx.weights[j - 1]
            assert m.det() == ctx.qpow(ki + kj)
            if (ki + kj) % ctx.d == 0:
                assert m.is_unipotent()
            else:
                assert m.multiplicative_order(ctx.d) == order_of_power(ctx.d, ctx.k * (ki + kj))


def test_pair_twist_bounds():
    ctx = make_context(5, (1, 1, 1), 1)
    with pytest.raises(IndexOutOfRange):
        pair_twist(ctx, 0, 2)
    with pytest.raises(IndexOutOfRange):
        pair_twist(ctx, 2, 4)


# -- prefix twists ---------------------------------------------------------------

def test_prefix_twist_scales_initial_block():
    rng = random.Random(33)
    for _ in range(10):
        ctx = sample_context(rng)
        for r in range(2, ctx.n):
            m = prefix_twist(ctx, r)
            scale = ctx.qpow(ctx.prefix_sums[r])
            for i in range(1, r):
                assert m.apply(ctx.basis_vector(i)) == tuple(scale * x for x in ctx.basis_vector(i))
            assert m.trace() == scale * (r - 1) + (ctx.n - r)


def test_prefix_twist_last_row_consistency():
    # image of the derived vector g_n = -(g_1 + ... + g_{n-1}) matches the
    # stated shear by (1 - q^{k_{l+1}+...+k_r}) on each g_l, l < r
    rng = random.Random(34)
    for _ in range(10):
        ctx = sample_context(rng)
        n, d = ctx.n, ctx.d
        one = CycloNum.one(d)
        g_n = tuple(-one for _ in range(n - 1))
        for r in range(2, n):
            m = prefix_twist(ctx, r)
            image = m.apply(g_n)
            shear = [one - ctx.qpow(ctx.prefix_sums[r] - ctx.prefix_sums[l]) for l in range(1, r)]
            expected = list(g_n)
            for l, c in enumerate(shear):
                expected[l] = expected[l] + c
            assert image == tuple(expected), (ctx.d, ctx.weights, ctx.k, r)


def test_prefix_twist_bounds():
    ctx = make_context(5, (1, 1, 1, 1, 1), 1)
    with pytest.raises(IndexOutOfRange):
        prefix_twist(ctx, 5)
    with pytest.raises(IndexOutOfRange):
        prefix_twist(ctx, 1)


def test_prefix_twist_order():
    rng = random.Random(35)
    for _ in range(10):
        ctx = sample_context(rng)
        for r in range(2, ctx.n):
            m = prefix_twist(ctx, r)
            if ctx.prefix_sums[r] % ctx.d == 0:
                assert m.is_unipotent()
            else:
                assert m.multiplicative_order(ctx.d) == order_of_power(ctx.d, ctx.k * ctx.prefix_sums[r])


# -- words -----------------------------------------------------------------------

def test_word_basics():
    ctx = make_context(5, (1, 1, 2, 1), 1)
    ident = CycloMatrix.identity(5, 3)
    assert evaluate_word(ctx, BraidWord()) == ident
    assert evaluate_word(ctx, BraidWord.A(1, 2) * BraidWord.A(1, 2, -1)) == ident


def test_word_parse_and_format():
    word = parse_word("A(1,2) T(3)^-1 FT(2,5)")
    assert str(word) == "A(1,2) T(3)^-1 FT(2,5)"
    assert str(word.inverse()) == "FT(2,5)^-1 T(3) A(1,2)^-1"
    assert parse_word("").letters == () and str(BraidWord()) == ""
    with pytest.raises(IndexOutOfRange):
        parse_word("B(1,2)")


def test_commuting_supports():
    rng = random.Random(36)
    for _ in range(10):
        ctx = sample_context(rng, n_range=(4, 6))
        ident = CycloMatrix.identity(ctx.d, ctx.n - 1)
        quads = list(itertools.combinations(range(1, ctx.n + 1), 4))
        for i, j, k, l in quads:
            assert evaluate_word(ctx, commutator(BraidWord.A(i, j), BraidWord.A(k, l))) == ident
            assert evaluate_word(ctx, commutator(BraidWord.A(i, l), BraidWord.A(j, k))) == ident


def test_block_twist_word_shape():
    assert block_twist_word(1, 2).letters == ((("A", 1, 2), 1),)
    letters = [g for g, _ in block_twist_word(1, 3).letters]
    assert sorted(letters) == [("A", 1, 2), ("A", 1, 3), ("A", 2, 3)]
    with pytest.raises(IndexOutOfRange):
        block_twist_word(3, 3)


def test_full_twist_identity():
    ctx = make_context(5, (1, 1, 2, 1), 1)
    for r in range(2, ctx.n):
        assert evaluate_word(ctx, block_twist_word(1, r)) == prefix_twist(ctx, r)


def test_form_preservation_words():
    rng = random.Random(37)
    for _ in range(10):
        ctx = sample_context(rng)
        word = BraidWord()
        for _ in range(5):
            i = rng.randint(1, ctx.n - 1)
            j = rng.randint(i + 1, ctx.n)
            word = word * BraidWord.A(i, j, rng.choice((1, -1)))
        m = evaluate_word(ctx, word)
        assert m.conj_transpose() @ ctx.gram @ m == ctx.gram


@st.composite
def contexts(draw, d_range=(3, 30), n_range=(3, 9)):
    """A valid context with d and n in range, prime or composite d, and eps0
    drawn: at eps0 = 1 the last weight completes the sum to a multiple of d."""
    d = draw(st.integers(*d_range))
    n = draw(st.integers(*n_range))
    kappa = [draw(st.integers(1, d - 1)) for _ in range(n)]
    if draw(st.booleans()):
        kappa[-1] = (-sum(kappa[:-1])) % d or 1
    if math.gcd(d, *kappa) != 1:
        kappa[0] = 1
    return make_context(d, tuple(kappa), draw(st.sampled_from(tuple(units(d)))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(contexts())
@example(make_context(29, (1, 2, 3, 4, 5, 6, 7, 8, 9), 3))
@example(make_context(30, (1, 7, 11, 13, 17, 19, 23, 1, 28), 7))
@example(make_context(3, (1, 1, 1), 2))
def test_block_twist_equals_pair_twist_word(ctx):
    """The closed form FT(s,r)^+-1 equals the evaluated pair-twist word of
    block_twist_word(s, r), or its inverse word, for every s < r, s = 1 and
    r = n included.  The explicit examples pin the corners: prime d = 29
    with eps0 = 0, composite d = 30 with eps0 = 1, both at n = 9, and the
    smallest context."""
    n = ctx.n
    for s, r in itertools.combinations(range(1, n + 1), 2):
        word = block_twist_word(s, r)
        assert block_twist(ctx, s, r) == evaluate_word(ctx, word), (s, r)
        assert block_twist(ctx, s, r, -1) == evaluate_word(ctx, word.inverse()), (s, r)
        assert evaluate_word(ctx, BraidWord.FT(s, r, -1)) == block_twist(ctx, s, r, -1)


def _dense_pair_twist(ctx, i, j, exp=1):
    """Reference I - c * u * (u^* G) summed over every entry of G."""
    n, d = ctx.n, ctx.d
    one, zero = CycloNum.one(d), CycloNum.zero(d)
    u = [zero] * (n - 1)
    u[i - 1] = one
    for l in range(i + 1, j):
        u[l - 1] = ctx.qpow(-(ctx.prefix_sums[l] - ctx.prefix_sums[i]))
    c = (one - ctx.qpow(ctx.weights[i - 1])) * (one - ctx.qpow(ctx.weights[j - 1])) / ctx.mu
    if exp == -1:
        c = -c * ctx.qpow(-(ctx.weights[i - 1] + ctx.weights[j - 1]))
    ustar_g = [
        sum((u[r].conj() * ctx.gram.entry(r, col) for r in range(n - 1)), zero)
        for col in range(n - 1)
    ]
    return CycloMatrix.from_rows(d, [
        [(one if a == b else zero) - c * u[a] * ustar_g[b] for b in range(n - 1)]
        for a in range(n - 1)
    ])


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(contexts())
@example(make_context(30, (1, 7, 11, 13, 17, 19, 23, 1, 28), 7))
@example(make_context(29, (1, 2, 3, 4, 5, 6, 7, 8, 9), 3))
@example(make_context(12, (7, 5, 4, 4, 4), 5))
@example(make_context(3, (1, 1, 1), 2))
def test_pair_twist_matches_dense_reference(ctx):
    """The closed form A(i,j)^+-1 equals the Gram-derived reflection for every
    i < j and both exponents, so each case holds the corners i = 1, j = n and
    j = i+1.  The explicit examples pin composite d = 30 and d = 12 with
    eps0 = 1, prime d = 29 with eps0 = 0 at n = 9, and n = 3, where every
    pair is a corner."""
    for i, j in itertools.combinations(range(1, ctx.n + 1), 2):
        for exp in (1, -1):
            assert pair_twist(ctx, i, j, exp) == _dense_pair_twist(ctx, i, j, exp), (i, j, exp)


COMPOSITE_DEGREES = (4, 6, 9, 12, 15, 30)
composite_contexts = st.sampled_from(COMPOSITE_DEGREES).flatmap(lambda d: contexts((d, d), (3, 7)))


def _letter_matrix(ctx, letter):
    (kind, *idx), exp = letter
    return {"A": pair_twist, "T": prefix_twist, "FT": block_twist}[kind](ctx, *idx, exp)


def _schoolbook(ctx, letters):
    return functools.reduce(operator.matmul, [_letter_matrix(ctx, x) for x in letters],
                            CycloMatrix.identity(ctx.d, ctx.n - 1))


def _draw_word(data, n, length):
    """A word of at most length letters A, T and FT, each exponent +-1."""
    letters = []
    for _ in range(data.draw(st.integers(0, length))):
        kind, exp = data.draw(st.sampled_from(("A", "T", "FT"))), data.draw(st.sampled_from((1, -1)))
        if kind == "T":
            letters.append((("T", data.draw(st.integers(2, n - 1))), exp))
        else:
            i = data.draw(st.integers(1, n - 1))
            letters.append(((kind, i, data.draw(st.integers(i + 1, n))), exp))
    return BraidWord(tuple(letters))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(composite_contexts, st.data())
def test_evaluate_word_matches_the_schoolbook_fold(ctx, data):
    """Random words over A, T and FT with both exponents evaluate to the
    schoolbook fold of their letter matrices, at composite d."""
    word = _draw_word(data, ctx.n, 12)
    assert evaluate_word(ctx, word) == _schoolbook(ctx, word.letters)


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(composite_contexts)
def test_prefix_and_block_twists_equal_their_word_products(ctx):
    """FT(s,r)^+-1, and T(r)^+-1 when s = 1, equal the schoolbook product of
    the pair twists of block_twist_word(s, r) or of its inverse word, at
    composite d."""
    n = ctx.n
    for s, r in itertools.combinations(range(1, n + 1), 2):
        word = block_twist_word(s, r)
        for exp, letters in ((1, word.letters), (-1, word.inverse().letters)):
            fold = _schoolbook(ctx, letters)
            assert block_twist(ctx, s, r, exp) == fold, (s, r, exp)
            if s == 1 and r <= n - 1:
                assert prefix_twist(ctx, r, exp) == fold, (r, exp)


def test_derived_data_is_built_once_on_first_use(monkeypatch):
    ctx = make_context(12, (7, 5, 4, 4, 4), 5)
    inverses = []
    inv = CycloNum.inv
    monkeypatch.setattr(CycloNum, "inv", lambda x: inverses.append(x) or inv(x))
    words = [BraidWord.A(1, 3), BraidWord.A(2, 5, -1) * BraidWord.T(3), BraidWord.FT(2, 5)]
    for word in words * 2:
        quotient_matrix(ctx, evaluate_word(ctx, word))
    assert inverses == []  # the radical rewrite is a spread
    assert "gram" not in vars(ctx)
    assert ctx.gram is ctx.gram


def test_inverse_letters_closed_form():
    """The exp=-1 closed forms equal the eliminated inverse of each letter."""
    rng = random.Random(53)
    for force in (False, True) * 4:
        ctx = sample_context(rng, force_eps0=force)
        n = ctx.n
        for i, j in itertools.combinations(range(1, n + 1), 2):
            assert pair_twist(ctx, i, j, -1) == pair_twist(ctx, i, j).inverse()
            assert evaluate_word(ctx, BraidWord.FT(i, j, -1)) == evaluate_word(ctx, BraidWord.FT(i, j)).inverse()
        for r in range(2, n):
            assert prefix_twist(ctx, r, -1) == prefix_twist(ctx, r).inverse()
    with pytest.raises(InvalidParameter):
        pair_twist(ctx, 1, 2, 2)
    with pytest.raises(InvalidParameter):
        prefix_twist(ctx, 2, 0)
    with pytest.raises(InvalidParameter):
        block_twist(ctx, 1, 3, 2)


def _random_word(rng, n, length):
    word = BraidWord()
    for _ in range(length):
        kind, exp = rng.choice("ATF"), rng.choice((1, -1))
        if kind == "T":
            word = word * BraidWord.T(rng.randint(2, n - 1), exp)
        else:
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            word = word * (BraidWord.FT(i, j, exp) if kind == "F" else BraidWord.A(i, j, exp))
    return word


def test_word_det_closed_form():
    rng = random.Random(59)
    seen_eps0 = set()
    for trial in range(12):
        ctx = sample_context(rng, d_range=(3, 12), n_range=(3, 6), force_eps0=trial % 2 == 1)
        seen_eps0.add(ctx.eps0)
        word = _random_word(rng, ctx.n, 6)
        assert word_det(ctx, word) == evaluate_word(ctx, word).det()
    assert seen_eps0 == {0, 1}
    ctx = make_context(5, (1, 1, 2, 1), 1)
    assert word_det(ctx, BraidWord()) == CycloNum.one(5)


def test_word_det_rejects_bad_letters():
    ctx = make_context(5, (1, 1, 2, 1), 1)
    good = BraidWord.A(1, 2)
    for bad in ("A(2,2)", "A(1,5)", "T(1)", "T(4)", "FT(0,2)", "FT(3,5)", "FT(2,2)"):
        word = good * parse_word(bad)
        with pytest.raises(IndexOutOfRange):
            evaluate_word(ctx, word)
        with pytest.raises(IndexOutOfRange):
            word_det(ctx, word)


# -- radical and quotient ---------------------------------------------------------

def test_radical_explicit():
    ctx = make_context(3, (1, 1, 1), 1)
    q = ctx.q
    one = CycloNum.one(3)
    assert radical_vector(ctx) == (q.conj() - one, q.conj() ** 2 - one)


def test_radical_properties():
    rng = random.Random(38)
    for _ in range(10):
        ctx = sample_context(rng, force_eps0=True)
        w = radical_vector(ctx)
        assert all(not x for x in ctx.gram.apply(w))
        for i in range(1, ctx.n):
            assert not ctx.jform(ctx.basis_vector(i), w)
        for i, j in itertools.combinations(range(1, ctx.n + 1), 2):
            assert pair_twist(ctx, i, j).apply(w) == w
        for r in range(2, ctx.n):
            assert prefix_twist(ctx, r).apply(w) == w


def test_radical_requires_degenerate():
    ctx = make_context(5, (1, 1, 1), 1)
    with pytest.raises(NotDegenerate):
        radical_vector(ctx)
    with pytest.raises(NotDegenerate):
        quotient_gram(ctx)


def test_quotient():
    ctx = make_context(4, (1, 1, 1, 1), 1)
    ident = CycloMatrix.identity(4, 3)
    assert quotient_matrix(ctx, ident) == CycloMatrix.identity(4, 2)
    a, b = pair_twist(ctx, 1, 2), pair_twist(ctx, 3, 4)
    assert quotient_matrix(ctx, a @ b) == quotient_matrix(ctx, a) @ quotient_matrix(ctx, b)
    assert quotient_gram(ctx).rank() == 2
    with pytest.raises(RadicalNotFixed):
        quotient_matrix(ctx, ident.scale(zeta(4)))


def _rotation_sum(d, base, terms):
    """base + sum of (zeta^e - 1) * x over terms (x, e), on the lcm of the
    denominators (the former cyclo helper of the rotation-sum quotient), as
    a field element."""
    phi = euler_phi(d)
    den = base[1] if base else 1
    for (_, x_den), _ in terms:
        den = math.lcm(den, x_den)
    spread = [0] * (phi + d - 1)
    if base:
        spread[:phi] = [den // base[1] * c for c in base[0]]
    for (num, x_den), e in terms:
        for i, c in enumerate(num):
            spread[i + e] += den // x_den * c
            spread[i] -= den // x_den * c
    return from_poly(d, spread, den)


def _quotient_by_rotation_sums(ctx, m):
    """The rotation-sum quotient_matrix this one replaced, kept as an oracle:
    the radical check and every entry as an integer spread, and the n - 2
    field products t_b = c M[n-2][b], c = -1 / w_{n-2} from a field inverse."""
    if ctx.eps0 != 1:
        raise NotDegenerate("quotient requires eps0 = 1")
    d, size, cols = ctx.d, ctx.n - 2, m.cols
    if cols != size + 1:
        raise ShapeMismatch(f"vector length {size + 1} != cols {cols}")
    if m.d != d:
        raise ModulusMismatch(f"entry modulus {d} != {m.d}")
    exps = ctx._radical_exponents
    raw = [(x.num, x.den) if x else None for x in m.entries]
    if m.rows != cols or any(
        _rotation_sum(d, None, [(x, e) for x, e in zip(raw[a * cols : (a + 1) * cols], exps) if x and e]) != w
        for a, w in enumerate(radical_vector(ctx))
    ):
        raise RadicalNotFixed("operator moves the radical vector")
    c = -radical_vector(ctx)[-1].inv()
    ts = [c * x if x else None for x in m.row(size)[:size]]
    entries = []
    for a in range(size):
        for b, t in enumerate(ts):
            x = m.entries[a * cols + b]
            entries.append(_rotation_sum(d, raw[a * cols + b], [((t.num, t.den), exps[a])])
                           if exps[a] and t else x)
    return CycloMatrix(d, size, size, tuple(entries))


def _raised(f, *args):
    """(type, message) of what f(*args) raises, or None."""
    try:
        f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return None


QUOTIENT_DEGREES = (4, 6, 12, 19, 25, 30)
quotient_contexts = st.sampled_from(QUOTIENT_DEGREES).flatmap(lambda d: contexts((d, d), (3, 7))).filter(
    lambda ctx: ctx.eps0 == 1)


def _draw_element(data, d, big):
    den = data.draw(st.sampled_from((1, 1, 2, 3, 7, 360, 10**15 + 37)))
    hi = data.draw(st.sampled_from((1, 5, big)))
    return from_coeffs(d, [Fraction(data.draw(st.integers(-hi, hi)), den) for _ in range(euler_phi(d))])


def _radical_fixing(ctx, data, big=2**90):
    """The image of a random word times I + u v^T with v^T w = 0, so that it
    fixes w: entries with denominators and big integers."""
    d, size = ctx.d, ctx.n - 1
    w = radical_vector(ctx)
    u = [_draw_element(data, d, big) for _ in range(size)]
    v = [_draw_element(data, d, big) for _ in range(size - 1)]
    v.append(-sum((x * y for x, y in zip(v, w)), CycloNum.zero(d)) / w[-1])
    shear = CycloMatrix.identity(d, size) + CycloMatrix.from_rows(d, [[a * b for b in v] for a in u])
    return evaluate_word(ctx, _draw_word(data, ctx.n, 8)) @ shear


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(quotient_contexts, st.data())
def test_quotient_matches_the_matmul_formula(ctx, data):
    """A random word's fold pushes down to what the matmul formula
    quotient_matrix gives for its image, byte for byte; that image, and its
    product with a shear with denominators and big integers that fixes w,
    push down to what the rotation sums give; moving one entry of a column
    where w is non-zero raises RadicalNotFixed from both."""
    word = _draw_word(data, ctx.n, 16)
    word_image = evaluate_word(ctx, word)
    assert matrix_to_json(evaluate_quotient(ctx, word)) == matrix_to_json(quotient_matrix(ctx, word_image))
    for m in (word_image, _radical_fixing(ctx, data)):
        assert m.apply(radical_vector(ctx)) == radical_vector(ctx)
        mq = quotient_matrix(ctx, m)
        assert matrix_to_json(mq) == matrix_to_json(_quotient_by_rotation_sums(ctx, m))
    b = data.draw(st.sampled_from([b for b, x in enumerate(radical_vector(ctx)) if x]))
    a = data.draw(st.integers(0, ctx.n - 2))
    entries = list(m.entries)
    entries[a * m.cols + b] += _draw_element(data, ctx.d, 2**90) or 1
    moved = CycloMatrix(ctx.d, m.rows, m.cols, tuple(entries))
    assert _raised(quotient_matrix, ctx, moved) == _raised(_quotient_by_rotation_sums, ctx, moved) == \
        (RadicalNotFixed, "operator moves the radical vector")


def test_quotient_raises_what_the_matmul_formula_raises():
    """NotDegenerate first, then ShapeMismatch (wrong column count), then
    ModulusMismatch, then RadicalNotFixed (a wrong row count included),
    with the messages of m.apply(w) != w."""
    ctx = make_context(12, (7, 5, 4, 4, 4), 5)
    good = pair_twist(ctx, 1, 3)
    cases = [
        CycloMatrix.identity(12, 3),
        CycloMatrix.identity(12, 5),
        CycloMatrix.identity(5, 4),
        CycloMatrix.identity(5, 3),
        CycloMatrix.zeros(12, 3, 4),
        CycloMatrix.zeros(12, 5, 4),
        CycloMatrix.zeros(12, 0, 4),
        CycloMatrix.zeros(12, 4, 3),
        good.scale(zeta(12)),
        good,
    ]
    seen = [_raised(quotient_matrix, ctx, m) for m in cases]
    assert seen == [_raised(_quotient_by_rotation_sums, ctx, m) for m in cases]
    assert seen[:4] == [(ShapeMismatch, "vector length 4 != cols 3"), (ShapeMismatch, "vector length 4 != cols 5"),
                        (ModulusMismatch, "entry modulus 12 != 5"), (ShapeMismatch, "vector length 4 != cols 3")]
    assert [s and s[0] for s in seen] == [ShapeMismatch, ShapeMismatch, ModulusMismatch, ShapeMismatch,
                                          RadicalNotFixed, RadicalNotFixed, RadicalNotFixed, ShapeMismatch,
                                          RadicalNotFixed, None]
    flat = make_context(12, (7, 5, 4, 4, 5), 5)
    assert _raised(quotient_matrix, flat, CycloMatrix.identity(5, 2)) == \
        (NotDegenerate, "quotient requires eps0 = 1")


def test_quotient_forms_no_field_product(monkeypatch):
    """No matmul, no CycloNum product and no field inverse for a word's
    fold: the radical check and the entries are integer arrays, and the
    division by w_{n-2} is a spread."""
    ctx = make_context(25, (1, 2, 3, 4, 5, 6, 4), 2)
    word = parse_word("A(1,7) A(2,7) A(3,7)^-1 A(4,7) A(5,7)")
    m = evaluate_word(ctx, word)
    monkeypatch.setattr(CycloNum, "__mul__", lambda x, y: pytest.fail("field product"))
    monkeypatch.setattr(CycloNum, "inv", lambda x: pytest.fail("field inverse"))
    monkeypatch.setattr(CycloMatrix, "__matmul__", lambda x, y: pytest.fail("matmul"))
    folded = evaluate_quotient(ctx, word)
    monkeypatch.undo()
    assert folded == quotient_matrix(ctx, m) == _quotient_by_rotation_sums(ctx, m)


def test_quotient_dimension_and_descended_form():
    rng = random.Random(39)
    for _ in range(8):
        ctx = sample_context(rng, force_eps0=True)
        gq = quotient_gram(ctx)
        assert gq.rows == ctx.n - 2
        assert gq.rank() == ctx.n - 2
        for i, j in itertools.combinations(range(1, ctx.n + 1), 2):
            mq = quotient_matrix(ctx, pair_twist(ctx, i, j))
            assert mq.conj_transpose() @ gq @ mq == gq


# -- lantern block ------------------------------------------------------------------

def test_lantern_block_canonical():
    ctx = make_context(5, (1, 1, 1, 2), 1)
    blk = lantern_block(ctx, 3)
    d = ctx.d
    zero, one = CycloNum.zero(d), CycloNum.one(d)
    assert blk.A == CycloMatrix.from_rows(d, [
        [ctx.qpow(2), ctx.qpow(1) - ctx.qpow(2)],
        [zero, one],
    ])
    assert blk.B == CycloMatrix.from_rows(d, [
        [one, zero],
        [one - ctx.qpow(1), ctx.qpow(2)],
    ])
    scalar = ctx.qpow(ctx.prefix_sums[3])
    assert blk.A @ blk.B @ blk.C == CycloMatrix.identity(d, 2).scale(scalar)
    assert blk.C.apply(blk.eigenvector) == tuple(blk.eigenvalue * x for x in blk.eigenvector)


def test_lantern_block_degenerate():
    ctx = make_context(5, (1, 1, 1, 2), 1)   # prefix sums 1, 2, 3, 5
    with pytest.raises(DegenerateBlock):
        lantern_block(ctx, 4)                # d | k_1 + ... + k_4


def test_lantern_block_maps_only_singular(monkeypatch):
    ctx = make_context(7, (1, 1, 1, 1, 1), 1)   # r = 4 runs the projection solve

    def fail_with(error):
        def solve(self, rhs):
            raise error("forced")
        return solve

    monkeypatch.setattr(CycloMatrix, "solve", fail_with(Singular))
    with pytest.raises(DegenerateBlock):
        lantern_block(ctx, 4)
    monkeypatch.setattr(CycloMatrix, "solve", fail_with(ShapeMismatch))
    with pytest.raises(ShapeMismatch):
        lantern_block(ctx, 4)


def test_lantern_product_checks_the_inverse_letters(monkeypatch):
    # C is built from the closed-form inverse letters, not by inverting A and
    # B, so the lantern product fails when pair_twist(..., -1) is wrong
    ctx = make_context(5, (1, 1, 1, 2), 1)
    monkeypatch.setattr(CycloMatrix, "inverse", lambda m: pytest.fail("lantern_block inverts a matrix"))
    lantern_block(ctx, 3)
    real = rep.pair_twist
    monkeypatch.setattr(rep, "pair_twist", lambda ctx, i, j, exp=1: real(ctx, i, j, 1))
    blk = lantern_block(ctx, 3)
    assert blk.A @ blk.B @ blk.C != CycloMatrix.identity(ctx.d, 2).scale(ctx.qpow(ctx.prefix_sums[3]))
    report = suite_lantern(0)
    assert report.by_identity["block restriction of the pair twist"] == [20, 0]
    assert report.by_identity["lantern product is the boundary scalar"][1] > 0


def test_lantern_block_sampled():
    rng = random.Random(40)
    done = 0
    while done < 12:
        ctx = sample_context(rng)
        r = rng.randint(3, ctx.n)
        if ctx.prefix_sums[r - 2] % ctx.d == 0 or ctx.prefix_sums[r] % ctx.d == 0:
            continue
        blk = lantern_block(ctx, r)
        scalar = ctx.qpow(ctx.prefix_sums[r])
        assert blk.A @ blk.B @ blk.C == CycloMatrix.identity(ctx.d, 2).scale(scalar)
        assert blk.C.apply(blk.eigenvector) == tuple(blk.eigenvalue * x for x in blk.eigenvector)
        done += 1


def _restrict_by_solve(m, basis):
    """The restriction by elimination: each image solved against the basis."""
    u1, u2 = basis
    span = CycloMatrix(m.d, len(u1), 2, tuple(x for pair in zip(u1, u2) for x in pair))
    cols = [span.solve(m.apply(u)) for u in basis]
    return CycloMatrix.from_rows(m.d, [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])


def test_restriction_reads_the_block_coordinates():
    """The restriction read from an image's entries at r-3 and r-2 equals
    the one solved against the basis, for the three matrices lantern_block
    restricts; a shear that moves g_{r-1} off the block raises Singular
    from both."""
    rng = random.Random(41)
    done = leaks = 0
    while done < 60:
        ctx = sample_context(rng)
        r = rng.randint(3, ctx.n)
        if ctx.prefix_sums[r - 2] % ctx.d == 0 or ctx.prefix_sums[r] % ctx.d == 0:
            continue
        basis = lantern_block(ctx, r).basis
        inverse = pair_twist(ctx, r - 1, r, -1) @ prefix_twist(ctx, r - 1, -1)
        for m in (prefix_twist(ctx, r - 1), pair_twist(ctx, r - 1, r), inverse):
            assert rep._restrict(m, basis, r) == _restrict_by_solve(m, basis)
        size = ctx.n - 1
        row = next((i for i in range(size) if i not in (r - 3, r - 2)), None)
        if row is not None:
            one, zero = CycloNum.one(ctx.d), CycloNum.zero(ctx.d)
            leak = CycloMatrix.from_rows(ctx.d, [[one if i == j or (i, j) == (row, r - 2) else zero
                                                  for j in range(size)] for i in range(size)])
            with pytest.raises(Singular, match="inconsistent system"):
                rep._restrict(leak, basis, r)
            with pytest.raises(Singular, match="inconsistent system"):
                _restrict_by_solve(leak, basis)
            leaks += 1
        done += 1
    assert leaks > 20


# -- Galois transport and the scalar relation -----------------------------------------

def test_galois_transport():
    ctx = make_context(5, (1, 1, 2, 1), 1)
    m = pair_twist(ctx, 1, 3)
    assert galois_transport(ctx, m, 1) == m
    for t in (2, 3, 4):
        sibling = transported_context(ctx, t)
        assert galois_transport(ctx, ctx.gram, t) == sibling.gram
        for i, j in itertools.combinations(range(1, 5), 2):
            assert galois_transport(ctx, pair_twist(ctx, i, j), t) == pair_twist(sibling, i, j)
    with pytest.raises(NotCoprime):
        galois_transport(ctx, m, 5)


def test_scalar_relation(monkeypatch):
    """The pinned contexts hold, and hold again with no letter matrix built
    and no given matrix pushed down: the relation reads the quotient images
    of braid words."""
    for words_only in (False, True):
        if words_only:
            for name in ("quotient_matrix", "pair_twist", "prefix_twist"):
                monkeypatch.setattr(rep, name, lambda *args, name=name: pytest.fail(name))
        assert scalar_relation_holds(make_context(5, (1, 1, 1, 1, 1), 1))
        assert scalar_relation_holds(make_context(4, (1, 1, 1, 1), 1))
        assert scalar_relation_holds(make_context(3, (1, 1, 1), 1))
        with pytest.raises(NotDegenerate):
            scalar_relation_holds(make_context(5, (1, 1, 1), 1))
