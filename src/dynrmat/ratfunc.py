"""Canonical rational functions of the two lattice variables q and x.

A RationalFunction is the x level of the canonical fraction of polys.py: a
fraction of two XPolys (Laurent in v = x**(1/4), coefficients QRats, rational
in u = q**(1/4)), numerator and denominator coprime in v, denominator with
minimum v-exponent zero and leading coefficient one.  Its arithmetic is
CanonicalFraction's; this module supplies the level's factors and the maps
that only the x level has (shift_x, subs_signed_qpow, edge, eval_complex).

The denominators the package builds are products of binomials y - u**e, with
y = x**2 = v**8 (x-brackets x q**c - x**-1 q**-c put them there).  Such a
denominator is stored factored, as a multiset `fac` {e: multiplicity}.  A
binomial y - u**e cancels from a numerator N that is a polynomial in y
exactly when N vanishes at y = u**e; a nonzero GF(p) image of that value
rules it out, and only an exact synthetic division accepts it.  y - u**e is
linear in y, hence irreducible, and the gcd of a polynomial in y with the
denominator over Q(z8)(u)[v] is its gcd over Q(z8)(u)[y] (the deflation
argument of polys.py), so this gives the same reduced fraction as the
generic gcd, byte for byte.

Any other operand takes the generic path: a numerator that is not a
polynomial in y after stripping, or a denominator that is no product of
binomials, which is then stored expanded with `fac` None.  The generic path
cancels by xp_gcd, and its result is factored again where it can be.
"""

from .coeffs import Cyclo, root8_pow
from .lattice import DENOM, LatticeError
from .multisets import NO_FACTORS, Alphabet
from .polys import (
    QRAT_ONE,
    QRAT_ZERO,
    XP_ONE,
    XP_ZERO,
    Y_DEG,
    CanonicalFraction,
    QRat,
    poly_shift,
    poly_strip,
    qrat,
    qrat_const,
    qrat_monomial_mul,
    qrat_qpow,
    qrat_scale,
    xp_binom_div,
    xp_binom_mul,
    xp_eval_complex,
    xp_gcd,
    xp_mul,
    xp_qshift,
    xp_scale,
    xp_y_image,
    y_image_root_order,
)

__all__ = [
    "RationalFunction",
    "ratfn",
    "RF_ZERO",
    "RF_ONE",
    "rf_const",
    "rf_coeff",
    "rf_qpow_units",
    "rf_xpow_units",
    "PoleAtSubstitution",
]


class PoleAtSubstitution(ZeroDivisionError):
    """A point substitution landed on a zero of the canonical denominator."""

    def __init__(self, message, numerator_vanished):
        super().__init__(message)
        self.numerator_vanished = numerator_vanished


# -------------------------------------------------------------- binomials ----


_BINOMIALS = Alphabet(XP_ONE, xp_binom_mul)


def _factor(d):
    """The multiset of binomials whose product is d, or None if there is none.

    d is monic with minimum exponent zero.  If d = prod (y - u**e)**m has
    degree n in y, its y**(n-1) coefficient is -sum m u**e, which names
    every candidate and its multiplicity; d factors iff their product is d.
    """
    if len(d) == 1:
        return NO_FACTORS
    top = max(d)
    c = d.get(top - Y_DEG)
    if top % Y_DEG or c is None or c.fac != NO_FACTORS:
        return None
    fac = {}
    for e, k in c.num.items():
        if type(k) is Cyclo or k >= 0 or k.denominator != 1:
            return None
        fac[e] = -int(k)
    if sum(fac.values()) * Y_DEG != top or _BINOMIALS.expand(fac) != d:
        return None
    return fac


def _cancel(t, fac):
    """(t / g, g) for g the largest product of binomials from the multiset
    `fac` that divides t, with g as a multiset; None if t is not a polynomial
    in y after stripping its lowest power of v."""
    t0, st = poly_strip(t)
    if len(t0) == 1:
        return t, NO_FACTORS
    if any(k % Y_DEG for k in t0):
        return None
    image = xp_y_image(t0)
    removed = {}
    for e, m in fac.items():
        if image is not None:
            m = y_image_root_order(image, e, m)
        for _ in range(m):
            q = xp_binom_div(t0, e)
            if q is None:
                break
            t0 = q
            removed[e] = removed.get(e, 0) + 1
    return poly_shift(t0, st), removed


# ------------------------------------------------------- RationalFunction ----


class RationalFunction(CanonicalFraction):
    """Canonical fraction of XPolys, whose factors are the binomials
    y - u**e, named by e."""

    __slots__ = ()

    _mul = staticmethod(xp_mul)
    _scale = staticmethod(xp_scale)
    _poly_one = XP_ONE
    _coeff_one = QRAT_ONE
    _coeff_inverse = staticmethod(QRat.inverse)
    _alphabet = _BINOMIALS
    _factor = staticmethod(_factor)
    _cancel = staticmethod(_cancel)

    @staticmethod
    def _gcd(a, b):
        # resolved at call time, so that a replaced xp_gcd sees every call
        return xp_gcd(a, b)

    def is_one(self):
        return self.fac == NO_FACTORS and self.num == XP_ONE

    def __repr__(self):
        n = sum(len(c.num) + len(c.den) for c in self.num.values())
        d = sum(len(c.num) + len(c.den) for c in self.den.values())
        return "<RationalFunction %d/%d v-terms, weight %d/%d>" % (
            len(self.num),
            len(self.den),
            n,
            d,
        )

    def scale_q(self, qr):
        """Multiply by an x-free factor without touching the denominator."""
        if not qr:
            return RF_ZERO
        if not self.num:
            return self
        return RationalFunction(xp_scale(self.num, qr), self.fac, self._den)

    # ------------------------------------------------------ lattice maps

    def shift_x(self, m_units):
        """Substitute x -> x * q**(m_units/D); an exact automorphism.

        It takes y - u**e to u**(2m) * (y - u**(e - 2m)) for m = m_units, so
        a factored denominator only relabels its binomials.
        """
        if not m_units or not self.num:
            return self
        num = xp_qshift(self.num, m_units)
        if self.fac is not None:
            s0 = 2 * m_units * sum(self.fac.values())
            fac = {e - 2 * m_units: m for e, m in self.fac.items()}
            return RationalFunction(_xp_qpow_mul(num, -s0), fac)
        den = xp_qshift(self.den, m_units)
        s0 = m_units * max(den) // DENOM
        return RationalFunction(
            _xp_qpow_mul(num, -s0), None, _xp_qpow_mul(den, -s0))

    def subs_signed_qpow(self, sign, a_units):
        """Evaluate at x = sign * q**(a_units/D); returns a QRat."""
        num = _xp_subs_signed(self.num, sign, a_units)
        den = _xp_subs_signed(self.den, sign, a_units)
        if not den:
            raise PoleAtSubstitution(
                "substitution hit a denominator zero", not num
            )
        return num / den

    def is_x_free(self):
        return self.fac == NO_FACTORS and set(self.num) <= {0}

    # ----------------------------------------------------------- limits

    def edge(self, at_zero):
        """Leading (v-exponent difference, coefficient) at x -> 0 or infinity."""
        if not self.num:
            raise ValueError("edge data of the zero function")
        den = self.den
        if at_zero:
            kn = min(self.num)
            kd = min(den)
        else:
            kn = max(self.num)
            kd = max(den)
        return kn - kd, self.num[kn] / den[kd]

    # ---------------------------------------------------------- numeric

    def eval_complex(self, q0, x0):
        u0 = float(q0) ** (1.0 / DENOM)
        v0 = float(x0) ** (1.0 / DENOM)
        return xp_eval_complex(self.num, u0, v0) / xp_eval_complex(
            self.den, u0, v0
        )


def _xp_qpow_mul(a, s):
    if not s:
        return a
    return {k: qrat_monomial_mul(c, s) for k, c in a.items()}


def _xp_subs_signed(a, sign, a_units):
    total = QRAT_ZERO
    for k, c in a.items():
        s = a_units * k
        if s % DENOM:
            raise LatticeError("substitution exponent off the lattice")
        t = qrat_monomial_mul(c, s // DENOM)
        if sign < 0:
            e8 = 4 * k
            if e8 % DENOM:
                raise LatticeError("sign phase off the eighth-root lattice")
            ph = root8_pow(e8 // DENOM)
            t = qrat_scale(t, ph)
        total = total + t
    return total


RF_ZERO = RationalFunction.ZERO = RationalFunction(XP_ZERO, NO_FACTORS)
RF_ONE = RationalFunction.ONE = RationalFunction(XP_ONE, NO_FACTORS)

ratfn = RationalFunction.canonical


def rf_const(qr):
    if not qr:
        return RF_ZERO
    return RationalFunction({0: qr}, NO_FACTORS)


def rf_coeff(c):
    return rf_const(qrat_const(c))


def rf_qpow_units(s):
    if not s:
        return RF_ONE
    return RationalFunction({0: qrat_qpow(s)}, NO_FACTORS)


def rf_xpow_units(k):
    if not k:
        return RF_ONE
    return RationalFunction({k: QRAT_ONE}, NO_FACTORS)


def qdiff_qrat():
    """q - 1/q as a QRat."""
    return qrat(poly_shift({2 * DENOM: 1, 0: -1}, -DENOM))


def xbracket_rf(c_units):
    """(x*q**c - (x*q**c)**-1) / (q - 1/q) as a RationalFunction."""
    qd = qdiff_qrat().inverse()
    num = {
        DENOM: qrat_monomial_mul(qd, c_units),
        -DENOM: qrat_monomial_mul(-qd, -c_units),
    }
    return RationalFunction(num, NO_FACTORS)
