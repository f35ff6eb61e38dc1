"""Rationals extended by a formal primitive eighth root of unity.

Half-integer spin bookkeeping needs exact values of (-1)**t for t on the
quarter-integer lattice.  All of them are powers of the formal unit z with
z**4 = -1, so coefficients live in the field spanned by (1, z, z**2, z**3)
over the rationals (z**2 plays the role of the imaginary unit).  Arithmetic
demotes to a plain rational whenever the three upper components vanish,
which keeps the common all-rational case on the fast path.

An integral rational is further demoted to a Python int (`demote`), so
integer polynomials multiply without a Fraction gcd per term.  Mixing int,
Fraction and Cyclo coefficients is sound because equal values compare and
hash equal: n == Fraction(n) and hash(n) == hash(Fraction(n)), and a live
Cyclo is never rational.  Only division needs care, since 1 / n is a float:
divide a Fraction, as in `Fraction(1) / n`, never an int.  The components of
a Cyclo stay Fractions, so Cyclo.inverse stays exact.
"""

import cmath
from fractions import Fraction

__all__ = [
    "Cyclo",
    "make_coeff",
    "demote",
    "coeff_parts",
    "root8_pow",
    "minus_one_pow",
    "imaginary_unit",
    "coeff_to_complex",
    "coeff_mod",
]

_F0 = Fraction(0)
_F1 = Fraction(1)

_Z8_COMPLEX = tuple(cmath.exp(1j * cmath.pi * k / 4) for k in range(4))


def demote(c):
    """A coefficient with an integral rational as int, else as a Fraction.

    A Cyclo is returned unchanged; anything else goes through Fraction first.
    """
    if type(c) is int or type(c) is Cyclo:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    n, d = c.as_integer_ratio()
    return n if d == 1 else c


def make_coeff(c0, c1=0, c2=0, c3=0):
    """Build a coefficient from components on the (1, z, z^2, z^3) basis."""
    if c1 or c2 or c3:
        return Cyclo((Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3)))
    return demote(c0)


def coeff_parts(c):
    if isinstance(c, Cyclo):
        return c.parts
    return (Fraction(c), _F0, _F0, _F0)


def _mul_parts(p, q):
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (
        p0 * q0 - p1 * q3 - p2 * q2 - p3 * q1,
        p0 * q1 + p1 * q0 - p2 * q3 - p3 * q2,
        p0 * q2 + p1 * q1 + p2 * q0 - p3 * q3,
        p0 * q3 + p1 * q2 + p2 * q1 + p3 * q0,
    )


class Cyclo:
    """Nonrational element a0 + a1*z + a2*z^2 + a3*z^3, z = exp(i*pi/4)."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts

    def __bool__(self):
        # demotion guarantees some component is nonzero
        return True

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return self.parts == other.parts
        if isinstance(other, (int, Fraction)):
            return False  # a live Cyclo is never rational
        return NotImplemented

    def __hash__(self):
        return hash(("cyclo8",) + self.parts)

    def __repr__(self):
        return "Cyclo%r" % (self.parts,)

    def __neg__(self):
        a0, a1, a2, a3 = self.parts
        return Cyclo((-a0, -a1, -a2, -a3))

    def __add__(self, other):
        if isinstance(other, Cyclo):
            b = other.parts
        elif isinstance(other, (int, Fraction)):
            b = (Fraction(other), _F0, _F0, _F0)
        else:
            return NotImplemented
        a = self.parts
        return make_coeff(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Cyclo, int, Fraction)):
            return self + (-other if isinstance(other, Cyclo) else -Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self) + Fraction(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Cyclo):
            return make_coeff(*_mul_parts(self.parts, other.parts))
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return _F0
            a0, a1, a2, a3 = self.parts
            return Cyclo((a0 * f, a1 * f, a2 * f, a3 * f))
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        # 1/a = (s3*s5*s7)(a) / Norm(a); the norm is rational by Galois theory
        a0, a1, a2, a3 = self.parts
        s3 = (a0, a3, -a2, a1)
        s5 = (a0, -a1, a2, -a3)
        s7 = (a0, -a3, -a2, -a1)
        m = _mul_parts(_mul_parts(s3, s5), s7)
        n = _mul_parts(self.parts, m)
        if n[1] or n[2] or n[3]:
            raise ArithmeticError("norm of cyclotomic element is not rational")
        norm = n[0]
        if not norm:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        return make_coeff(m[0] / norm, m[1] / norm, m[2] / norm, m[3] / norm)

    def __truediv__(self, other):
        if isinstance(other, Cyclo):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * Fraction(other)
        return NotImplemented


def _root8(k):
    sign = _F1 if k < 4 else -_F1
    comps = [_F0, _F0, _F0, _F0]
    comps[k % 4] = sign
    return make_coeff(*comps)


# z**k for k = 0..7: the ints 1 and -1 at k = 0 and 4, else a Cyclo
_ROOT8 = tuple(_root8(k) for k in range(8))


def root8_pow(k):
    """z**k as a coefficient, for integer k."""
    return _ROOT8[k % 8]


def minus_one_pow(t):
    """(-1)**t for t on the quarter-integer lattice, as z**(4t)."""
    f = Fraction(t) * 4
    if f.denominator != 1:
        raise ValueError("(-1)**%s is outside the eighth-root field" % (t,))
    return root8_pow(int(f))


def imaginary_unit():
    return root8_pow(2)


def coeff_to_complex(c):
    if isinstance(c, Cyclo):
        a = c.parts
        return complex(
            a[0] * _Z8_COMPLEX[0]
            + a[1] * _Z8_COMPLEX[1]
            + a[2] * _Z8_COMPLEX[2]
            + a[3] * _Z8_COMPLEX[3]
        )
    return complex(c)


def _frac_mod(f, p):
    d = f.denominator % p
    if d == 0:
        raise ZeroDivisionError("p divides a denominator")
    return f.numerator % p * pow(d, -1, p) % p


def coeff_mod(c, p, z8):
    """Image in GF(p) under z -> z8; raises ZeroDivisionError on bad primes."""
    if type(c) is int:
        return c % p
    if isinstance(c, Cyclo):
        t = 0
        w = 1
        for comp in c.parts:
            if comp:
                t += _frac_mod(comp, p) * w
            w = w * z8 % p
        return t % p
    return _frac_mod(c, p)
