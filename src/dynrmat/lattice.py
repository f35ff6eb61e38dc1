"""Exponent lattice bookkeeping, and where each number type lives.

Every q- and x-exponent in this package lives on the lattice (1/D)*Z for the
fixed denominator D = 4, which covers integer and half-integer spins plus the
quarter-integer phase bookkeeping they induce.  Spins live on (1/2)*Z.

Inside the package an exponent is an int count of 1/D units and a spin is
the int 2j (spins.Spin.twice); shifts, q-powers and weights are computed in
those ints.  A Fraction appears only at the two edges: where a value given
by a user is parsed (to_units, twice, integer: public arguments, the CLI,
JSON) and where one is printed (from_units, ratio_str: reports, labels,
dumps).  An int or a Fraction with a small denominator is parsed without
building a Fraction.
"""

from fractions import Fraction
from math import gcd

__all__ = [
    "DENOM",
    "LatticeError",
    "to_units",
    "from_units",
    "twice",
    "integer",
    "ratio_str",
]

DENOM = 4


class LatticeError(ValueError):
    """An exponent fell off the (1/D)Z lattice."""


def _ratio(v):
    """(numerator, denominator) of the exact value of v: an int, a Fraction,
    a string such as "3/2", or a float."""
    return (v if type(v) is Fraction else Fraction(v)).as_integer_ratio()


def to_units(e):
    """Exact exponent -> integer count of 1/D units."""
    if type(e) is int:
        return e * DENOM
    n, d = _ratio(e)
    if DENOM % d:
        raise LatticeError("exponent %s not on the (1/%d)Z lattice"
                           % (Fraction(n, d), DENOM))
    return n * (DENOM // d)


def from_units(n):
    return Fraction(n, DENOM)


def twice(v):
    """2 v as an int, for a spin, projection or offset v given as an int, a
    Fraction, a string or a float; ValueError unless v is a half-integer."""
    if type(v) is int:
        return 2 * v
    n, d = _ratio(v)
    if d == 1:
        return 2 * n
    if d == 2:
        return n
    raise ValueError("%s is not a half-integer" % (Fraction(n, d),))


def integer(v, what):
    """v as an int, for an integer v given as an int, a Fraction, a string
    or a float; ValueError, naming v as `what`, where int() would truncate."""
    if type(v) is int:
        return v
    n, d = _ratio(v)
    if d != 1:
        raise ValueError("needs an integer %s, got %s" % (what, v))
    return n


def ratio_str(n, d=DENOM):
    """str(Fraction(n, d)) for ints n and d > 0, without building the
    Fraction: an exponent in units prints as ratio_str(u), a spin as
    ratio_str(spin.twice, 2)."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return "%d" % n if d == 1 else "%d/%d" % (n, d)
