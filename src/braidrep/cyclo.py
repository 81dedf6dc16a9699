"""Exact arithmetic in the cyclotomic field K_d = Q(zeta_d).

Elements are stored on the power basis zeta^0, ..., zeta^{phi(d)-1} reduced
modulo the d-th cyclotomic polynomial, as an integer coefficient vector over
a common positive denominator.  The representation is canonical (content and
denominator share no factor), so equality is componentwise comparison.

The numeric embedding sends zeta to e^{-2*pi*i/d}; the sign of the exponent
is observable through the signature formulas and is fixed once and for all
here.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, InexactDivision, ModulusMismatch, NotCoprime

Rational = Fraction


def euler_phi(d: int) -> int:
    """Euler totient of d >= 1 by trial-division factorization."""
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    result, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_mul_int(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b):
                if e:
                    out[i + j] += c * e
    return tuple(out)


def _poly_divmod_int(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Division of integer polynomials; requires every step to divide exactly."""
    num_l = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quo = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num_l[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r != 0:
            raise ValueError("non-exact integer polynomial division")
        quo[i - dd] = q
        for j, e in enumerate(den):
            num_l[i - dd + j] -= q * e
    rem = num_l[:dd]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quo), tuple(rem)


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, constant term first.

    Computed by exact division of x^d - 1 by the product of all lower
    cyclotomic polynomials of divisors of d; monic of degree phi(d).

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    poly: tuple[int, ...] = (-1,) + (0,) * (d - 1) + (1,)
    for e in range(1, d):
        if d % e == 0:
            quo, rem = _poly_divmod_int(poly, cyclotomic_poly(e))
            if rem:
                raise InexactDivision(f"Phi_{e} does not divide the quotient for d={d}")
            poly = quo
    return poly


@functools.lru_cache(maxsize=None)
def _field_data(d: int) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """phi(d), Phi_d, and the reduction table x^j mod Phi_d as integer rows.

    The table covers 0 <= j <= max(2*phi - 2, d - 1), enough for products of
    two reduced elements and for Galois substitution exponents below d.
    """
    phi = euler_phi(d)
    poly = cyclotomic_poly(d)
    top = max(2 * phi - 2, d - 1)
    rows: list[tuple[int, ...]] = []
    for j in range(phi):
        rows.append(tuple(1 if i == j else 0 for i in range(phi)))
    cur = list(rows[phi - 1]) if phi > 0 else []
    for _ in range(phi, top + 1):
        nxt = [0] + cur[: phi - 1]
        lead = cur[phi - 1]
        if lead:
            for i in range(phi):
                nxt[i] -= lead * poly[i]
        rows.append(tuple(nxt))
        cur = nxt
    return phi, poly, tuple(rows)


# -- low-level kernels on (numerator tuple, denominator) pairs -----------

def _raw_normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        num = [-c for c in num]
        den = -den
    g = den
    for c in num:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                return tuple(num), den
    if g == den and all(c == 0 for c in num):
        return tuple(num), 1
    return tuple(c // g for c in num), den // g


def _raw_reduce(d: int, conv: list[int]) -> list[int]:
    phi, _, table = _field_data(d)
    out = conv[:phi] + [0] * (phi - len(conv))
    for j in range(phi, len(conv)):
        c = conv[j]
        if c:
            row = table[j]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
    return out


def _raw_mul(d: int, a: tuple[tuple[int, ...], int], b: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    (na, da), (nb, db) = a, b
    conv = [0] * (2 * len(na) - 1) if na else [0]
    for i, c in enumerate(na):
        if c:
            for j, e in enumerate(nb):
                if e:
                    conv[i + j] += c * e
    return _raw_normalize(_raw_reduce(d, conv), da * db)


def _raw_add(a: tuple[tuple[int, ...], int], b: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    (na, da), (nb, db) = a, b
    if da == db:
        return _raw_normalize([x + y for x, y in zip(na, nb)], da)
    g = math.gcd(da, db)
    lcm = da // g * db
    ma, mb = lcm // da, lcm // db
    return _raw_normalize([x * ma + y * mb for x, y in zip(na, nb)], lcm)


@dataclass(frozen=True, eq=False)
class CycloNum:
    """An element of Q(zeta_d) in canonical reduced form.

    Construct through the factory helpers (:func:`zeta`, :func:`from_rational`,
    :meth:`CycloNum.zero`, ...) or arithmetic; the raw constructor trusts its
    arguments.  Equality is componentwise on the canonical representation and
    coerces plain integers and fractions.
    """

    d: int
    num: tuple[int, ...]
    den: int

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycloNum):
            return (self.d, self.num, self.den) == (other.d, other.num, other.den)
        if isinstance(other, (int, Fraction)):
            return self == from_rational(self.d, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.d, self.num, self.den))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(d: int) -> CycloNum:
        return CycloNum(d, (0,) * euler_phi(d), 1)

    @staticmethod
    def one(d: int) -> CycloNum:
        return from_rational(d, 1)

    # -- basic structure -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients on the power basis as exact fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def _check(self, other: CycloNum) -> None:
        if self.d != other.d:
            raise ModulusMismatch(f"moduli {self.d} and {other.d}")

    def _coerce(self, other: object) -> CycloNum | None:
        if isinstance(other, CycloNum):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return from_rational(self.d, other)
        return None

    # -- ring operations -------------------------------------------------

    def __add__(self, other: object) -> CycloNum:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        num, den = _raw_add((self.num, self.den), (w.num, w.den))
        return CycloNum(self.d, num, den)

    __radd__ = __add__

    def __neg__(self) -> CycloNum:
        return CycloNum(self.d, tuple(-c for c in self.num), self.den)

    def __sub__(self, other: object) -> CycloNum:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self + (-w)

    def __rsub__(self, other: object) -> CycloNum:
        return -(self - other)

    def __mul__(self, other: object) -> CycloNum:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        if not self or not w:
            return CycloNum.zero(self.d)
        num, den = _raw_mul(self.d, (self.num, self.den), (w.num, w.den))
        return CycloNum(self.d, num, den)

    __rmul__ = __mul__

    def inv(self) -> CycloNum:
        """Multiplicative inverse via the extended Euclid algorithm in Q[x].

        Phi_d is irreducible over Q, so gcd(z, Phi_d) is a nonzero constant
        for every nonzero reduced z and the Bezout cofactor is the inverse.
        """
        if not self:
            raise DivisionByZero("inverse of zero")
        phi, poly, _ = _field_data(self.d)
        # invariant: r == s * z  (mod Phi_d) for both tracked pairs
        r_a = [Fraction(c) for c in poly]
        r_b = [Fraction(c, self.den) for c in self.num]
        s_a = [Fraction(0)] * phi
        s_b = [Fraction(1)] + [Fraction(0)] * (phi - 1)
        while True:
            while r_b and r_b[-1] == 0:
                r_b.pop()
            if len(r_b) == 1:
                scale = 1 / r_b[0]
                return _from_fraction_vector(self.d, [c * scale for c in s_b])
            quo = [Fraction(0)] * (len(r_a) - len(r_b) + 1)
            rem = r_a[:]
            for i in range(len(r_a) - 1, len(r_b) - 2, -1):
                c = rem[i]
                if c == 0:
                    continue
                f = c / r_b[-1]
                quo[i - len(r_b) + 1] = f
                for j, e in enumerate(r_b):
                    rem[i - len(r_b) + 1 + j] -= f * e
            rem = rem[: len(r_b) - 1]
            prod = [Fraction(0)] * (len(quo) + phi - 1)
            for i, f in enumerate(quo):
                if f:
                    for j, e in enumerate(s_b):
                        if e:
                            prod[i + j] += f * e
            prod = _reduce_fraction_vector(self.d, prod)
            new_s = [x - y for x, y in zip(s_a, prod)]
            r_a, r_b = r_b, rem
            s_a, s_b = s_b, new_s

    def __truediv__(self, other: object) -> CycloNum:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self * w.inv()

    def __rtruediv__(self, other: object) -> CycloNum:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w * self.inv()

    def __pow__(self, e: int) -> CycloNum:
        if e < 0:
            return self.inv() ** (-e)
        result = CycloNum.one(self.d)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- field automorphisms ----------------------------------------------

    def galois(self, t: int) -> CycloNum:
        """Image under the automorphism zeta -> zeta^t; t must be coprime to d."""
        if math.gcd(t, self.d) != 1:
            raise NotCoprime(f"gcd({t}, {self.d}) != 1")
        t %= self.d
        phi, _, _ = _field_data(self.d)
        spread = [0] * self.d
        for a, c in enumerate(self.num):
            if c:
                spread[(a * t) % self.d] += c
        num, den = _raw_normalize(_raw_reduce(self.d, spread), self.den)
        return CycloNum(self.d, num, den)

    def conj(self) -> CycloNum:
        """Complex conjugation, zeta -> zeta^{d-1}."""
        if self.d == 1:
            return self
        return self.galois(self.d - 1)

    def is_real(self) -> bool:
        """True iff the value lies in the real subfield L_d."""
        return self == self.conj()

    # -- numeric embedding -------------------------------------------------

    def embed(self) -> complex:
        """Numeric value at zeta = e^{-2*pi*i/d} (note the sign convention)."""
        z = cmath.exp(-2j * cmath.pi / self.d)
        acc = 0j
        for c in reversed(self.num):
            acc = acc * z + c
        return acc / self.den

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for a, c in enumerate(self.num):
            if not c:
                continue
            coeff = Fraction(c, self.den)
            if a == 0:
                terms.append(str(coeff))
            else:
                mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
                var = "z" if a == 1 else f"z^{a}"
                sign = "-" if coeff < 0 else ""
                terms.append(f"{sign}{mag}{var}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self) -> str:
        return f"CycloNum({self.d}, '{self}')"


def _reduce_fraction_vector(d: int, vec: list[Fraction]) -> list[Fraction]:
    phi, _, table = _field_data(d)
    out = vec[:phi] + [Fraction(0)] * (phi - len(vec))
    for j in range(phi, len(vec)):
        c = vec[j]
        if c:
            row = table[j]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
    return out


def _from_fraction_vector(d: int, vec: list[Fraction]) -> CycloNum:
    phi = euler_phi(d)
    vec = vec + [Fraction(0)] * (phi - len(vec))
    den = math.lcm(*(c.denominator for c in vec)) if vec else 1
    num, den = _raw_normalize([c.numerator * (den // c.denominator) for c in vec], den)
    return CycloNum(d, num, den)


def from_rational(d: int, r: Fraction | int) -> CycloNum:
    r = Fraction(r)
    phi = euler_phi(d)
    num = (r.numerator,) + (0,) * (phi - 1)
    return CycloNum(d, num, r.denominator)


def from_coeffs(d: int, coeffs: list[Fraction] | tuple[Fraction, ...]) -> CycloNum:
    """Build an element from phi(d) rational coefficients on the power basis."""
    phi = euler_phi(d)
    if len(coeffs) != phi:
        raise ModulusMismatch(f"expected {phi} coefficients for d={d}, got {len(coeffs)}")
    return _from_fraction_vector(d, [Fraction(c) for c in coeffs])


def zeta(d: int, s: int = 1) -> CycloNum:
    """The root of unity zeta_d^s as a field element."""
    phi, _, table = _field_data(d)
    row = table[s % d]
    return CycloNum(d, row, 1)


def order_of_power(d: int, s: int) -> int:
    """Multiplicative order of zeta_d^s, namely d / gcd(d, s).

    >>> order_of_power(12, 8)
    3
    >>> order_of_power(7, 0)
    1
    """
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    return d // math.gcd(d, s % d)


# -- serialization ---------------------------------------------------------

def to_strings(z: CycloNum) -> list[str]:
    """Canonical JSON form: phi(d) reduced fraction strings, low degree first."""
    return [str(c) for c in z.coeffs]


def from_strings(d: int, items: list[str]) -> CycloNum:
    return from_coeffs(d, [Fraction(s) for s in items])
