import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.cyclo import (
    CycloNum,
    cyclotomic_poly,
    euler_phi,
    from_coeffs,
    from_poly,
    from_rational,
    from_strings,
    order_of_power,
    to_strings,
    units,
    zeta,
)
from braidrep import cyclo
from braidrep.errors import DivisionByZero, InexactDivision, ModulusMismatch, NotCoprime


# -- independent polynomial oracles (kept deliberately naive) ----------------

def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(num, den):
    num = [Fraction(x) for x in num]
    den = [Fraction(x) for x in den]
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i]
        if not c:
            continue
        q = c / den[-1]
        quo[i - len(den) + 1] = q
        for j, y in enumerate(den):
            num[i - len(den) + 1 + j] -= q * y
    rem = num[: len(den) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def test_cyclotomic_small_values():
    assert cyclotomic_poly(1) == (-1, 1)
    # divide x^4 - 1 by Phi_1 * Phi_2 with the naive oracle
    phi12 = poly_mul([-1, 1], [1, 1])
    quo, rem = poly_divmod([-1, 0, 0, 0, 1], phi12)
    assert rem == []
    assert tuple(int(c) for c in quo) == cyclotomic_poly(4) == (1, 0, 1)
    # divide x^12 - 1 by the product of all lower divisors' polynomials
    prod = [Fraction(1)]
    for e in (1, 2, 3, 4, 6):
        prod = poly_mul(prod, [Fraction(c) for c in cyclotomic_poly(e)])
    quo, rem = poly_divmod([-1] + [0] * 11 + [1], prod)
    assert rem == []
    assert tuple(int(c) for c in quo) == cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_inexact_division_is_named(monkeypatch):
    # a numerator off by one in its constant term leaves a remainder
    exact = cyclo._exact_quotient
    monkeypatch.setattr(cyclo, "_exact_quotient", lambda num, den: exact((num[0] + 1, *num[1:]), den))
    with pytest.raises(InexactDivision):
        cyclotomic_poly.__wrapped__(6)   # bypass the cache


def test_cyclotomic_polys_of_the_divisors_multiply_to_x_d_minus_1():
    for d in range(1, 201):
        prod = [1]
        for e in range(1, d + 1):
            if d % e == 0:
                out = [0] * (len(prod) + euler_phi(e))
                for i, x in enumerate(prod):
                    if x:
                        for j, y in enumerate(cyclotomic_poly(e)):
                            out[i + j] += x * y
                prod = out
        assert prod == [-1] + [0] * (d - 1) + [1], d


@pytest.mark.parametrize("d", range(1, 31))
def test_cyclotomic_properties(d):
    poly = cyclotomic_poly(d)
    assert poly[-1] == 1
    assert len(poly) - 1 == euler_phi(d)
    _, rem = poly_divmod([-1] + [0] * (d - 1) + [1], list(poly))
    assert rem == []


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 400) | st.sampled_from((105, 385, 1365, 1785, 2047, 2048)))
def test_cyclotomic_poly_matches_sympy(d):
    """Phi_d is sympy's, over every d up to 400 and the first d whose
    coefficients reach 2, 3, 4 and 5 in absolute value (105, 385, 1365,
    1785), up to the largest supported degree."""
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()
    assert cyclotomic_poly(d) == tuple(int(c) for c in reversed(expected))


POLY_DEGREES = (3, 5, 9, 12, 15, 25, 30)


@st.composite
def poly_cases(draw):
    """(d, poly, den): poly an integer list of length 1, phi - 1, phi,
    phi + 1, d or 2d + 3 with entries up to 2^80 in absolute value, and
    den a signed small multiple of d, a sign, 2 or 2^65 + 1."""
    d = draw(st.sampled_from(POLY_DEGREES))
    phi = euler_phi(d)
    length = draw(st.sampled_from((1, phi - 1, phi, phi + 1, d, 2 * d + 3)))
    poly = draw(st.lists(st.integers(-2**80, 2**80), min_size=length, max_size=length))
    den = draw(st.sampled_from((1, -1, 2, -2, d, -d, 6 * d, -6 * d, 2**65 + 1)))
    return d, poly, den


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(poly_cases())
def test_from_poly_is_the_remainder_mod_phi_over_den(case):
    """from_poly(d, poly, den) is poly(zeta) / den with poly reduced by
    sympy modulo Phi_d, over a positive denominator that shares no factor
    with the numerator, for lists shorter than, equal to and longer than
    phi(d) (x^d = 1 modulo Phi_d, so the fold needs no separate oracle)."""
    d, poly, den = case
    x = sympy.symbols("x")
    rem = sympy.Poly(list(reversed(poly)), x, domain="ZZ").rem(sympy.Poly(sympy.cyclotomic_poly(d, x), x))
    coeffs = [int(c) for c in reversed(rem.all_coeffs())]
    coeffs += [0] * (euler_phi(d) - len(coeffs))
    z = from_poly(d, poly, den)
    assert z == from_coeffs(d, [Fraction(c, den) for c in coeffs])
    assert z.den > 0 and math.gcd(z.den, *z.num) == 1


@pytest.mark.parametrize("d", POLY_DEGREES)
def test_from_poly_of_zeros_is_the_one_zero(d):
    """An all-zero list of any length over any denominator is the one
    object CycloNum.zero(d), over 1."""
    phi = euler_phi(d)
    for length in (1, phi - 1, phi, phi + 1, d, 2 * d + 3):
        for den in (1, -1, 2, -d, 6 * d, 2**65 + 1):
            z = from_poly(d, [0] * length, den)
            assert z is CycloNum.zero(d)
            assert z.den == 1 and z.is_zero() and not z


def test_field_relations():
    z3 = zeta(3)
    assert (z3 + z3**2 + 1).is_zero()
    z4 = zeta(4)
    assert (1 + z4) * (1 - z4) == from_rational(4, 2)
    assert zeta(5).inv() == zeta(5, 4)


def _sympy_poly(z):
    x = sympy.symbols("x")
    return sympy.Poly(list(reversed(z.num)), x, domain="ZZ"), sympy.Poly(sympy.cyclotomic_poly(z.d, x), x)


def _dense(rng, d):
    """8-digit integer numerators over one 8-digit denominator."""
    den = rng.randint(1, 10**8)
    return from_coeffs(d, [Fraction(rng.randint(-10**8, 10**8), den) for _ in range(euler_phi(d))])


@pytest.mark.parametrize("d", range(3, 31))
def test_inv_matches_sympy_invert(d):
    rng = random.Random(1000 + d)
    for _ in range(2):
        z = _dense(rng, d)
        poly, phi_d = _sympy_poly(z)
        w = sympy.Poly(sympy.invert(poly, phi_d), poly.gen) * z.den
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(w.all_coeffs())]
        assert list(z.inv().coeffs) == coeffs + [Fraction(0)] * (euler_phi(d) - len(coeffs))


@pytest.mark.parametrize("d", (61, 105))
def test_inv_large_degree_by_sympy_product(d):
    """sympy's invert takes 10-40 s here, so the oracle checks instead that
    sympy's product of the numerators is den(z) * den(z^-1) modulo its Phi_d;
    105 has a non-cyclic unit group, so the subgroup chain takes several steps."""
    rng = random.Random(1000 + d)
    z = _dense(rng, d)
    w = z.inv()
    poly, phi_d = _sympy_poly(z)
    prod = (poly * _sympy_poly(w)[0]).rem(phi_d)
    assert prod.all_coeffs() == [z.den * w.den]


def test_inv_sparse_and_memoized():
    for d in (5, 12, 25, 101):
        one = CycloNum.one(d)
        for a in (1, 2, 3):
            z = (one - zeta(d, a)) * (one - zeta(d, a + 1))
            assert z * z.inv() == one
    z = from_rational(7, Fraction(-3, 4)) + zeta(7, 2)
    before = cyclo._raw_inv.cache_info().hits
    assert z.inv() == z.inv() == 1 / z
    assert cyclo._raw_inv.cache_info().hits >= before + 2
    assert from_rational(7, Fraction(-3, 4)).inv() == from_rational(7, Fraction(-4, 3))


def test_unit_chain_covers_the_unit_group():
    for d in range(1, 121):
        assert math.prod(m for _, m in cyclo._unit_chain(d)) == euler_phi(d)


def test_units_against_totient():
    for d in range(2, 61):
        members = list(units(d))
        assert members == sorted(set(members))
        assert all(0 < t < d and math.gcd(t, d) == 1 for t in members)
        assert len(members) == sympy.totient(d)
    # lazy: the first unit of a huge modulus comes without a scan
    assert next(units(10**18)) == 1


def test_hash_agrees_with_eq():
    assert CycloNum.one(5) in {1}
    assert len({CycloNum.one(5), 1, Fraction(1)}) == 1
    half = from_rational(7, Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2))
    assert half in {Fraction(1, 2)}
    assert CycloNum.zero(9) in {0}
    z = zeta(7, 3) + 2
    assert hash(z) == hash(zeta(7, 3) * 1 + from_rational(7, 2))
    assert z not in {2}


def test_conjugation():
    assert from_rational(6, Fraction(3, 7)).conj() == from_rational(6, Fraction(3, 7))
    assert zeta(4).conj() == -zeta(4)
    assert zeta(3).conj() == -1 - zeta(3)
    rng = random.Random(5)
    for _ in range(30):
        z = from_coeffs(5, [Fraction(rng.randint(-5, 5)) for _ in range(4)])
        assert z.conj().conj() == z
        w = from_coeffs(5, [Fraction(rng.randint(-5, 5)) for _ in range(4)])
        assert (z * w).conj() == z.conj() * w.conj()
        assert (z + w).conj() == z.conj() + w.conj()


def test_galois():
    z5 = zeta(5)
    assert z5.galois(1) == z5
    assert z5.galois(2) == z5**2
    with pytest.raises(NotCoprime):
        zeta(6).galois(2)
    rng = random.Random(17)
    for d in (5, 7, 12):
        phi = euler_phi(d)
        exponents = tuple(units(d))
        for _ in range(15):
            z = from_coeffs(d, [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(phi)])
            w = from_coeffs(d, [Fraction(rng.randint(-6, 6)) for _ in range(phi)])
            for t in exponents:
                assert z.galois(t).conj() == z.conj().galois(t)
                assert (z * w).galois(t) == z.galois(t) * w.galois(t)
                assert (z + w).galois(t) == z.galois(t) + w.galois(t)
            s, t = rng.choice(exponents), rng.choice(exponents)
            assert z.galois(s).galois(t) == z.galois((s * t) % d)


GALOIS_DEGREES = (5, 7, 13, 19, 8, 12, 15, 30)  # prime, then composite


@st.composite
def elements(draw, d, big=2**70):
    """An element of K_d with big numerators and a common denominator."""
    phi = euler_phi(d)
    den = draw(st.integers(1, 60))
    return from_coeffs(d, [Fraction(draw(st.integers(-big, big)), den) for _ in range(phi)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((3, 4) + GALOIS_DEGREES).flatmap(
    lambda d: st.tuples(st.just(d), elements(d), elements(d), elements(d), st.sampled_from(tuple(units(d))))))
def test_field_axioms_random(case):
    """K_d is a field: + and * associate, commute and distribute, every
    non-zero element has an inverse, and sigma_t commutes with it, so each
    sigma_t is a field homomorphism."""
    d, a, b, c, t = case
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a and a + b == b + a
    for z in (a, b, c):
        if z:
            assert z * z.inv() == CycloNum.one(d)
            assert z.inv().galois(t) == z.galois(t).inv()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(GALOIS_DEGREES).flatmap(
    lambda d: st.tuples(st.just(d), elements(d), elements(d),
                        st.fractions(max_denominator=10**6).filter(lambda r: abs(r) < 10**12),
                        st.sampled_from(tuple(units(d))))))
def test_galois_is_a_ring_homomorphism_fixing_q(case):
    """sigma_t respects + and *, sends 1 to 1, agrees with zeta -> zeta^t at
    the numeric embedding and fixes every rational, returning the rational
    element itself; complex conjugation is sigma_{d-1}."""
    d, z, w, r, t = case
    assert (z * w).galois(t) == z.galois(t) * w.galois(t)
    assert (z + w).galois(t) == z.galois(t) + w.galois(t)
    assert (z - w).galois(t) == z.galois(t) - w.galois(t)
    root = zeta(d).embed() ** t
    value = sum(c * root**i for i, c in enumerate(z.coeffs))
    assert abs(complex(z.galois(t).embed()) - complex(value)) <= 1e-9 * float(1 + sum(map(abs, z.coeffs)))
    q = from_rational(d, r)
    assert q.galois(t) is q
    assert q.conj() is q
    assert (z * q).galois(t) == z.galois(t) * q
    assert CycloNum.one(d).galois(t) == 1
    assert z.conj() == z.galois(d - 1)


def test_galois_of_a_rational_checks_the_exponent():
    q = from_rational(12, Fraction(-5, 3))
    with pytest.raises(NotCoprime):
        q.galois(4)
    with pytest.raises(NotCoprime):
        CycloNum.zero(7).galois(14)
    assert q.galois(5) is q


def test_is_real():
    z5 = zeta(5)
    assert (z5 + z5.conj()).is_real()
    assert not z5.is_real()
    for d, k in ((5, 2), (7, 3), (12, 5)):
        mu = (1 - zeta(d, k)) * (1 - zeta(d, (d - k) % d))
        assert mu == 2 - zeta(d, k) - zeta(d, (d - k) % d)
        assert mu.is_real()


def test_embed():
    assert from_rational(3, 1).embed() == pytest.approx(1.0)
    assert zeta(4).embed() == pytest.approx(-1j)
    assert (zeta(3) + zeta(3, 2)).embed() == pytest.approx(-1.0)
    assert abs(abs(zeta(7).embed()) - 1.0) < 1e-12
    rng = random.Random(23)
    for d in (5, 8, 9):
        phi = euler_phi(d)
        for _ in range(20):
            z = from_coeffs(d, [Fraction(rng.randint(-1000, 1000)) for _ in range(phi)])
            w = from_coeffs(d, [Fraction(rng.randint(-1000, 1000)) for _ in range(phi)])
            lhs, rhs = (z * w).embed(), z.embed() * w.embed()
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
            norm = z * z.conj()
            assert norm.is_real()
            assert abs(norm.embed().imag) < 1e-9


def test_order_of_power():
    assert order_of_power(12, 8) == 3
    assert order_of_power(7, 0) == 1
    assert order_of_power(10, 4) == 5
    assert order_of_power(9, 18) == 1


def test_errors():
    with pytest.raises(DivisionByZero):
        CycloNum.zero(5).inv()
    with pytest.raises(ModulusMismatch):
        zeta(5) + zeta(7)


def test_serialization_roundtrip():
    rng = random.Random(3)
    for d in (1, 2, 5, 12):
        phi = euler_phi(d)
        z = from_coeffs(d, [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(phi)])
        strings = to_strings(z)
        assert len(strings) == phi
        assert from_strings(d, strings) == z


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((3, 5, 12, 25)).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.integers(-10**30, 10**30) | st.sampled_from((0, 1, -1)),
                                             min_size=euler_phi(d), max_size=euler_phi(d)),
                        st.integers(1, 10**20) | st.sampled_from((1, 2, 6, 360)))))
def test_to_strings_reads_what_fraction_reads(case):
    """Each string is str(Fraction(c, den)), zero and negative coefficients
    included, whether or not den divides c."""
    d, num, den = case
    z = CycloNum(d, tuple(num), den)
    assert to_strings(z) == [str(Fraction(c, den)) for c in num]
    canonical = from_coeffs(d, [Fraction(c, den) for c in num])
    assert to_strings(canonical) == [str(Fraction(c, den)) for c in num]


def test_to_strings_examples():
    assert to_strings(from_coeffs(5, [Fraction(0), Fraction(-3, 4), Fraction(1, 2), Fraction(2)])) == \
        ["0", "-3/4", "1/2", "2"]
    assert to_strings(CycloNum(3, (-6, 0), 4)) == ["-3/2", "0"]
    assert to_strings(CycloNum(3, (4, -8), 4)) == ["1", "-2"]
