"""Exception types shared by all braidrep modules.

Every error carries a machine-readable name (the class name); the CLI
prints that name and exits with status 2 on validation failures.
"""

from __future__ import annotations


class BraidRepError(Exception):
    """Base class for all braidrep errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


# -- scalar / field level ------------------------------------------------

class ModulusMismatch(BraidRepError):
    """Two cyclotomic values (or matrices) with different moduli were mixed."""


class NotCoprime(BraidRepError):
    """A Galois automorphism index is not coprime to the modulus."""


class DivisionByZero(BraidRepError, ZeroDivisionError):
    """Inversion of zero in the cyclotomic field."""


class InexactDivision(BraidRepError):
    """A polynomial division that must be exact left a remainder."""


# -- matrix level --------------------------------------------------------

class ShapeMismatch(BraidRepError):
    """Matrix/vector dimensions are not conformable."""


class Singular(BraidRepError):
    """A matrix required to be invertible has no inverse."""


class NotAntiHermitian(BraidRepError):
    """Inertia was requested for a matrix G with G* != -G."""


class AmbiguousSign(BraidRepError):
    """A numeric eigenvalue landed in the unsafe band around the tolerance."""


# -- representation contexts ---------------------------------------------

class InvalidParameter(BraidRepError):
    """A top-level parameter (d, n, a letter exponent or a suite size) is outside its supported range."""


class ExponentDivisible(BraidRepError):
    """Some weight is divisible by the modulus after reduction."""


class NotPrimitive(BraidRepError):
    """The eigenvalue exponent k is not coprime to the modulus."""


class DisconnectedCover(BraidRepError):
    """gcd of all weights together with d exceeds 1."""


class IndexOutOfRange(BraidRepError):
    """A strand or disc index is outside its legal range."""


class NotDegenerate(BraidRepError):
    """An operation requiring eps0 = 1 was called on a context with eps0 = 0."""


class RadicalNotFixed(BraidRepError):
    """A matrix passed to the quotient map does not fix the radical vector."""


class DegenerateBlock(BraidRepError):
    """A power of q that the two-dimensional block construction needs equals 1."""


# -- horospherical machinery ----------------------------------------------

class BadM(BraidRepError):
    """The flag index m is out of range or d does not divide the prefix sum."""


class ConstraintViolation(BraidRepError):
    """An invariant forced by the construction fails: the arrow shape of the
    flag Gram matrix, or a unipotent constraint once the block pattern holds."""


class NotUnipotentElement(BraidRepError):
    """Operand of the translation-part map is not in the unipotent group."""


class NotParabolicElement(BraidRepError):
    """Operand of the conjugation action is not in the parabolic group."""


class NoNonzeroPairing(BraidRepError):
    """The witness orbits close short of the middle space, or every commutator
    pairing among their basis vectors vanishes."""


# -- criteria --------------------------------------------------------------

class PreconditionFailed(BraidRepError):
    """Input to the signature-window scan violates its precondition."""


class OutOfRange(BraidRepError):
    """A weight passed to the goodness test is outside the open interval (0, 1)."""
