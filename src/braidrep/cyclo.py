"""Exact arithmetic in the cyclotomic field K_d = Q(zeta_d).

Elements are stored on the power basis zeta^0, ..., zeta^{phi(d)-1} reduced
modulo the d-th cyclotomic polynomial, as an integer coefficient vector over
a common positive denominator.  The representation is canonical (content and
denominator share no factor), so equality is componentwise comparison.
Other modules turn integers into elements only through :func:`from_poly`.

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


@functools.lru_cache(maxsize=None)
def _prime_factors(d: int) -> tuple[int, ...]:
    """The distinct primes of d >= 1, ascending, by trial division."""
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    primes, p = [], 2
    while p * p <= d:
        if d % p == 0:
            primes.append(p)
            while d % p == 0:
                d //= p
        p += 1
    return (*primes, d) if d > 1 else tuple(primes)


def euler_phi(d: int) -> int:
    """Euler totient of d >= 1, d times (1 - 1/p) over the primes p of d."""
    result = d
    for p in _prime_factors(d):
        result -= result // p
    return result


def units(d: int):
    """The units t of Z/d with 0 < t < d, ascending, generated lazily."""
    return (t for t in range(1, d) if math.gcd(t, d) == 1)


def _at_power(poly: tuple[int, ...], e: int) -> tuple[int, ...]:
    """Coefficients of poly(x^e)."""
    out = [0] * ((len(poly) - 1) * e + 1)
    out[::e] = poly
    return tuple(out)


def _exact_quotient(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """num / den for a monic integer polynomial den; raises InexactDivision
    on a non-zero remainder."""
    rem, k = list(num), len(den) - 1
    quo = [0] * (len(num) - k)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = rem[i + k]
        if c:
            for j, e in enumerate(den):
                rem[i + j] -= c * e
    if any(rem[:k]):
        raise InexactDivision(f"non-zero remainder on division by a monic polynomial of degree {k}")
    return tuple(quo)


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, constant term first.

    From Phi_1 = x - 1, each prime p of d in turn gives Phi_{rp}(x) =
    Phi_r(x^p) / Phi_r(x), r the product of the primes before p, an exact
    division by a monic polynomial; then Phi_d(x) = Phi_rad(x^{d/rad}), rad
    the product of all the primes of d.  Monic of degree phi(d).

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    poly, rad = (-1, 1), 1
    for p in _prime_factors(d):
        poly, rad = _exact_quotient(_at_power(poly, p), poly), rad * p
    return _at_power(poly, d // rad)


@functools.lru_cache(maxsize=None)
def _field_data(d: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """phi(d) and the reduction table x^j mod Phi_d, 0 <= j < d, as integer rows.

    No caller reads a row at or above d: products and Galois images fold by
    x^d = 1 before they read the table.
    """
    phi = euler_phi(d)
    poly = cyclotomic_poly(d)
    zeros = (0,) * phi
    rows = [zeros[:j] + (1,) + zeros[j + 1 :] for j in range(phi)]
    cur = rows[-1]
    for _ in range(phi, d):
        lead = cur[-1]
        cur = (0,) + cur[:-1]
        if lead:
            cur = tuple(c - lead * p for c, p in zip(cur, poly))
        rows.append(cur)
    return phi, tuple(rows)


# -- low-level kernels on (numerator tuple, denominator) pairs -----------

def _raw_normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """num / den with den > 0 and no factor shared by den and num, by one
    math.gcd; a zero numerator comes out over 1."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(num), den
    return tuple(c // g for c in num), den // g


def _raw_reduce(d: int, conv: list[int]) -> list[int]:
    """The phi(d) coefficients of conv, a list over Z[x]/(x^d - 1) of any
    length, reduced modulo Phi_d."""
    phi, table = _field_data(d)
    if len(conv) > d:  # fold by zeta^d = 1 first: fewer table rows
        folded = conv[:d]
        for j in range(d, len(conv)):
            folded[j % d] += conv[j]
        conv = folded
    out = conv[:phi] + [0] * (phi - len(conv))
    for j in range(phi, len(conv)):
        c = conv[j]
        if c:
            row = table[j]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
    return out


def _convolve(conv: list[int], na: tuple[int, ...], nb: tuple[int, ...], f: int = 1) -> None:
    """Add f times the polynomial product of na and nb into conv, in place;
    conv has length at least len(na) + len(nb) - 1."""
    for i, c in enumerate(na):
        if c:
            c *= f
            for j, e in enumerate(nb):
                if e:
                    conv[i + j] += c * e


def _raw_mul(d: int, a: tuple[tuple[int, ...], int], b: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    (na, da), (nb, db) = a, b
    conv = [0] * (2 * len(na) - 1) if na else [0]
    _convolve(conv, na, nb)
    return _raw_normalize(_raw_reduce(d, conv), da * db)


def _raw_add(a: tuple[tuple[int, ...], int], b: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    (na, da), (nb, db) = a, b
    if da == db:
        return _raw_normalize([x + y for x, y in zip(na, nb)], da)
    g = math.gcd(da, db)
    lcm = da // g * db
    ma, mb = lcm // da, lcm // db
    return _raw_normalize([x * ma + y * mb for x, y in zip(na, nb)], lcm)


@functools.lru_cache(maxsize=None)
def spread_inverse(d: int, e: int) -> tuple[int, ...]:
    """d / (zeta^e - 1) for d not dividing e, as the spread sum_j j zeta^{je},
    0 <= j < d, over Z[x]/(x^d - 1): its d coefficients, unreduced.  To
    check, multiply out: (zeta^e - 1) sum_j j zeta^{je} = d - sum_j zeta^{je},
    and the last sum vanishes because zeta^e != 1."""
    spread = [0] * d
    for j in range(d):
        spread[j * e % d] += j
    return tuple(spread)


def _raw_galois(d: int, a: tuple[tuple[int, ...], int], t: int) -> tuple[tuple[int, ...], int]:
    """Image under zeta -> zeta^t, for a unit t already reduced mod d."""
    num, den = a
    spread = [0] * d
    for e, c in enumerate(num):
        if c:
            spread[(e * t) % d] += c
    return _raw_normalize(_raw_reduce(d, spread), den)


@functools.lru_cache(maxsize=None)
def _unit_chain(d: int) -> tuple[tuple[int, int], ...]:
    """Steps (g, m) that build (Z/d)^* from {1}: each unit g not yet in the
    subgroup S built so far, with m the order of g modulo S, so that the
    next subgroup is the union of the cosets g^i S, 0 <= i < m."""
    subgroup = {1 % d}
    steps = []
    for g in units(d):
        if g in subgroup:
            continue
        m, h = 1, g
        while h not in subgroup:
            h, m = h * g % d, m + 1
        steps.append((g, m))
        subgroup = {s * pow(g, i, d) % d for s in subgroup for i in range(m)}
    return tuple(steps)


def _conjugate_run(d: int, p: tuple[tuple[int, ...], int], g: int, j: int) -> tuple[tuple[int, ...], int]:
    """prod_{i=0}^{j-1} sigma_{g^i}(p) for j >= 1, by doubling the run length:
    a run of length 2a is R_a * sigma_{g^a}(R_a), one of length 2a + 1 is
    p * sigma_g(R_{2a})."""
    run, length = p, 1
    for bit in bin(j)[3:]:
        run = _raw_mul(d, run, _raw_galois(d, run, pow(g, length, d)))
        length *= 2
        if bit == "1":
            run = _raw_mul(d, p, _raw_galois(d, run, g))
            length += 1
    return run


@functools.lru_cache(maxsize=4096)
def _raw_inv(d: int, num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """Inverse of the nonzero element num / den, as den * adj / N.

    Along the chain of :func:`_unit_chain`, P_S = prod_{s in S} sigma_s(num)
    and adj = prod_{s in S, s != 1} sigma_s(num).  A step (g, m) multiplies
    both by F = prod_{i=1}^{m-1} sigma_{g^i}(P_S), so that at the end P is
    the norm N, an integer, and adj the product of all other conjugates.
    """
    p_s = (num, 1)
    adj: tuple[tuple[int, ...], int] = ((1,) + (0,) * (len(num) - 1), 1)
    for g, m in _unit_chain(d):
        factor = _raw_galois(d, _conjugate_run(d, p_s, g, m - 1), g)
        p_s = _raw_mul(d, p_s, factor)
        adj = _raw_mul(d, adj, factor)
    return _raw_normalize([den * c for c in adj[0]], p_s[0][0])


@dataclass(frozen=True, eq=False)
class CycloNum:
    """An element of Q(zeta_d) in canonical reduced form.

    Construct through the factory helpers (:func:`zeta`, :func:`from_rational`,
    :func:`from_poly`, :meth:`CycloNum.zero`, ...) or arithmetic; the raw
    constructor, used only in this module, trusts its arguments.  Equality
    is componentwise on the canonical representation and coerces plain
    integers and fractions.
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
        # a rational element equals, and so hashes like, its int or Fraction
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.d, self.num, self.den))

    # -- constructors ----------------------------------------------------

    @staticmethod
    @functools.cache
    def zero(d: int) -> CycloNum:
        """The zero of K_d, one object per d."""
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
        return not self

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
        """Multiplicative inverse by the norm formula, in integers only.

        For z = a / den with a in Z[zeta] and N(a) = prod_t sigma_t(a) over
        the units t mod d (Cohen, *A Course in Computational Algebraic Number
        Theory*, GTM 138, section 4.3),

            z^-1 = den * prod_{t != 1} sigma_t(a) / N(a),   N(a) in Z.

        The conjugate product is built along a chain of subgroups of
        (Z/d)^* (see :func:`_raw_inv`) in O(log phi) multiplications, and
        the result is memoized per (d, num, den).
        """
        if not self:
            raise DivisionByZero("inverse of zero")
        num, den = _raw_inv(self.d, self.num, self.den)
        return CycloNum(self.d, num, den)

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
        if not any(self.num[1:]):  # Q is fixed
            return self
        num, den = _raw_galois(self.d, (self.num, self.den), t % self.d)
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


def from_rational(d: int, r: Fraction | int) -> CycloNum:
    r = Fraction(r)
    phi = euler_phi(d)
    num = (r.numerator,) + (0,) * (phi - 1)
    return CycloNum(d, num, r.denominator)


def from_poly(d: int, poly: list[int] | tuple[int, ...], den: int = 1) -> CycloNum:
    """The canonical element poly(zeta) / den, for integer coefficients poly
    over Z[x]/(x^d - 1) of any length (a list of exactly phi(d) is already
    reduced modulo Phi_d and is not copied) and den != 0; every zero is the
    one object CycloNum.zero(d)."""
    if len(poly) != _field_data(d)[0]:
        poly = _raw_reduce(d, list(poly))
    if not any(poly):
        return CycloNum.zero(d)
    return CycloNum(d, *_raw_normalize(poly, den))


def from_coeffs(d: int, coeffs: list[Fraction] | tuple[Fraction, ...]) -> CycloNum:
    """Build an element from phi(d) rational coefficients on the power basis."""
    phi = euler_phi(d)
    if len(coeffs) != phi:
        raise ModulusMismatch(f"expected {phi} coefficients for d={d}, got {len(coeffs)}")
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    num, den = _raw_normalize([c.numerator * (den // c.denominator) for c in coeffs], den)
    return CycloNum(d, num, den)


def zeta(d: int, s: int = 1) -> CycloNum:
    """The root of unity zeta_d^s as a field element."""
    phi, table = _field_data(d)
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
    """Canonical JSON form: phi(d) reduced fraction strings, low degree first,
    each str(Fraction(c, den)), reduced by one gcd(c, den)."""
    if z.den == 1:
        return [str(c) for c in z.num]
    out = []
    for c in z.num:
        g = math.gcd(c, z.den)
        out.append(str(c // g) if g == z.den else f"{c // g}/{z.den // g}")
    return out


def from_strings(d: int, items: list[str]) -> CycloNum:
    return from_coeffs(d, [Fraction(s) for s in items])
