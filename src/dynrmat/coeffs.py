"""Rational coefficients, and the arithmetic of the eighth-root phase.

Every coefficient of a polynomial is an exact rational.  An integral one is
stored as a Python int (`demote`), so integer polynomials multiply without a
Fraction gcd per term, and any other one as a Fraction.  Mixing the two is
sound because equal values compare and hash equal: n == Fraction(n) and
hash(n) == hash(Fraction(n)).  Only division needs care, since 1 / n is a
float: divide a Fraction, as in `Fraction(1) / n`, never an int.

The primitive eighth root of unity z8 = exp(i pi / 4), which half-integer
spin bookkeeping needs for (-1)**t with t on the quarter-integer lattice,
is no coefficient: a Scalar carries it as a phase z8**k on a term
(scalar.py).  Where a quotient meets several phases, in Scalar.inv, in the
substitution x = -q**a and in loading a dump, each value is the list of its
four parts on the basis 1, z8, z8**2, z8**3, QRats or RationalFunctions,
and z8_div divides by the Galois conjugates of the divisor.
"""

from fractions import Fraction

__all__ = ["demote", "coeff_mod", "z8_div"]


def demote(c):
    """A rational coefficient: an integral one as int, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    n, d = c.as_integer_ratio()
    return n if d == 1 else c


def coeff_mod(c, p):
    """The image of a rational in GF(p); raises ZeroDivisionError when p
    divides its denominator."""
    if type(c) is int:
        return c % p
    d = c.denominator % p
    if d == 0:
        raise ZeroDivisionError("p divides a denominator")
    return c.numerator % p * pow(d, -1, p) % p


def _z8_mul(p, q):
    """The parts of the product of two values given by their parts on
    1, z8, z8**2, z8**3, with z8**4 = -1."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (
        p0 * q0 - p1 * q3 - p2 * q2 - p3 * q1,
        p0 * q1 + p1 * q0 - p2 * q3 - p3 * q2,
        p0 * q2 + p1 * q1 + p2 * q0 - p3 * q3,
        p0 * q3 + p1 * q2 + p2 * q1 + p3 * q0,
    )


def z8_div(num, den):
    """The parts of num / den, for the parts num and den of two values, den
    nonzero, over a field whose elements have an inverse().

    A divisor of several parts is made one part first: times m, the product
    of its Galois conjugates under z8 -> z8**3, z8**5, z8**7, it is its
    norm den * m, which lies in the field of the parts.
    """
    if any(den[1:]):
        a0, a1, a2, a3 = den
        m = _z8_mul(_z8_mul((a0, a3, -a2, a1), (a0, -a1, a2, -a3)),
                    (a0, -a3, -a2, -a1))
        num, den = _z8_mul(num, m), _z8_mul(den, m)
        if any(den[1:]):
            raise ArithmeticError("norm of an eighth-root value is not in "
                                  "the field of its parts")
    inv = den[0].inverse()
    return [c * inv for c in num]
