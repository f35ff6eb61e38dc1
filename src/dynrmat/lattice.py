"""Exponent lattice bookkeeping.

Every q- and x-exponent in this package lives on the lattice (1/D)*Z for the
fixed denominator D = 4, which covers integer and half-integer spins plus the
quarter-integer phase bookkeeping they induce.  Internally an exponent is
stored as an integer count of 1/D units; this module owns the conversions.
"""

from fractions import Fraction

__all__ = [
    "DENOM",
    "LatticeError",
    "to_units",
    "from_units",
]

DENOM = 4


class LatticeError(ValueError):
    """An exponent fell off the (1/D)Z lattice."""


def to_units(e):
    """Exact exponent -> integer count of 1/D units."""
    f = Fraction(e)
    n = f * DENOM
    if n.denominator != 1:
        raise LatticeError("exponent %s not on the (1/%d)Z lattice" % (f, DENOM))
    return int(n)


def from_units(n):
    return Fraction(n, DENOM)
