"""Canonical rational functions of the two lattice variables q and x.

A RationalFunction is a fraction of two XPolys (Laurent in v = x**(1/D),
coefficients rational in u = q**(1/D)): numerator and denominator coprime in
v, denominator with minimum v-exponent zero and leading coefficient one.
Structural equality of the stored dicts is value equality.
"""

from .coeffs import root8_pow
from .lattice import LatticeError, get_lattice_denominator, to_units
from .polys import (
    QP_ONE,
    QRAT_ONE,
    QRAT_ZERO,
    XP_ONE,
    XP_ZERO,
    QRat,
    qp_shift,
    qrat,
    qrat_const,
    qrat_monomial_mul,
    qrat_qpow,
    qrat_scale,
    xp_add,
    xp_eval_complex,
    xp_gcd,
    xp_mul,
    xp_neg,
    xp_qshift,
    xp_scale,
    xp_shift,
    xp_strip,
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


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        # raw constructor: callers guarantee canonical form
        self.num = num
        self.den = den

    # ------------------------------------------------------------ basics

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.den == XP_ONE and self.num == XP_ONE

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __repr__(self):
        n = sum(len(c.num) + len(c.den) for c in self.num.values())
        d = sum(len(c.num) + len(c.den) for c in self.den.values())
        return "<RationalFunction %d/%d v-terms, weight %d/%d>" % (
            len(self.num),
            len(self.den),
            n,
            d,
        )

    # -------------------------------------------------------- arithmetic

    def __neg__(self):
        if not self.num:
            return self
        return RationalFunction(xp_neg(self.num), self.den)

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        na, da, nb, db = self.num, self.den, other.num, other.den
        if da == db:
            t = xp_add(na, nb)
            if not t:
                return RF_ZERO
            if da == XP_ONE:
                return RationalFunction(t, XP_ONE)
            return _cancel(t, da)
        if da == XP_ONE:
            return RationalFunction(xp_add(xp_mul(na, db), nb), db)
        if db == XP_ONE:
            return RationalFunction(xp_add(xp_mul(nb, da), na), da)
        g, b1, d1 = xp_gcd(da, db)
        if max(g) == 0:
            t = xp_add(xp_mul(na, db), xp_mul(nb, da))
            if not t:
                return RF_ZERO
            return RationalFunction(t, xp_mul(da, db))
        t = xp_add(xp_mul(na, d1), xp_mul(nb, b1))
        if not t:
            return RF_ZERO
        t0, st = xp_strip(t)
        _, t0, g = xp_gcd(t0, g)
        den = xp_mul(xp_mul(g, b1), d1)
        return RationalFunction(xp_shift(t0, st), den)

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if not self.num or not other.num:
            return RF_ZERO
        if self is RF_ONE:
            return other
        if other is RF_ONE:
            return self
        na, da, nb, db = self.num, self.den, other.num, other.den
        if da == XP_ONE and db == XP_ONE:
            return RationalFunction(xp_mul(na, nb), XP_ONE)
        na0, sa = xp_strip(na)
        nb0, sb = xp_strip(nb)
        if db != XP_ONE and len(na0) > 1:
            _, na0, db = xp_gcd(na0, db)
        if da != XP_ONE and len(nb0) > 1:
            _, nb0, da = xp_gcd(nb0, da)
        num = xp_shift(xp_mul(na0, nb0), sa + sb)
        den = xp_mul(da, db)
        return RationalFunction(num, den)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        n0, s = xp_strip(self.num)
        den = self.den
        lead = n0[max(n0)]
        if lead != QRAT_ONE:
            inv = lead.inverse()
            n0 = xp_scale(n0, inv)
            den = xp_scale(den, inv)
        return RationalFunction(xp_shift(den, -s), n0)

    def __truediv__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self * other.inverse()

    def scale_q(self, qr):
        """Multiply by an x-free factor without touching the denominator."""
        if not qr:
            return RF_ZERO
        if not self.num:
            return self
        return RationalFunction(xp_scale(self.num, qr), self.den)

    # ------------------------------------------------------ lattice maps

    def shift_x(self, m_units):
        """Substitute x -> x * q**(m_units/D); an exact automorphism."""
        if not m_units or not self.num:
            return self
        denom = get_lattice_denominator()
        num = xp_qshift(self.num, m_units, denom)
        den = xp_qshift(self.den, m_units, denom)
        s0 = m_units * max(den) // denom
        if s0:
            num = {k: qrat_monomial_mul(c, -s0) for k, c in num.items()}
            den = {k: qrat_monomial_mul(c, -s0) for k, c in den.items()}
        return RationalFunction(num, den)

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
        return self.den == XP_ONE and set(self.num) <= {0}

    def as_qrat(self):
        if not self.is_x_free():
            raise ValueError("rational function depends on x")
        return self.num.get(0, QRAT_ZERO)

    # ----------------------------------------------------------- limits

    def edge(self, at_zero):
        """Leading (v-exponent difference, coefficient) at x -> 0 or infinity."""
        if not self.num:
            raise ValueError("edge data of the zero function")
        if at_zero:
            kn = min(self.num)
            kd = min(self.den)
        else:
            kn = max(self.num)
            kd = max(self.den)
        return kn - kd, self.num[kn] / self.den[kd]

    # ---------------------------------------------------------- numeric

    def eval_complex(self, q0, x0):
        denom = get_lattice_denominator()
        u0 = float(q0) ** (1.0 / denom)
        v0 = float(x0) ** (1.0 / denom)
        return xp_eval_complex(self.num, u0, v0) / xp_eval_complex(
            self.den, u0, v0
        )


def _cancel(t, d):
    # t nonzero, d monic ordinary with nonzero constant coefficient
    t0, st = xp_strip(t)
    _, t0, d = xp_gcd(t0, d)
    if d == XP_ONE:
        d = XP_ONE
    return RationalFunction(xp_shift(t0, st), d)


def _xp_subs_signed(a, sign, a_units):
    denom = get_lattice_denominator()
    total = QRAT_ZERO
    for k, c in a.items():
        s = a_units * k
        if s % denom:
            raise LatticeError("substitution exponent off the lattice")
        t = qrat_monomial_mul(c, s // denom)
        if sign < 0:
            e8 = 4 * k
            if e8 % denom:
                raise LatticeError("sign phase off the eighth-root lattice")
            ph = root8_pow(e8 // denom)
            t = qrat_scale(t, ph)
        total = total + t
    return total


def ratfn(num, den=XP_ONE):
    """Canonicalizing factory for RationalFunction."""
    if not num:
        return RF_ZERO
    if not den:
        raise ZeroDivisionError("zero denominator in rational function")
    n0, sn = xp_strip(num)
    d0, sd = xp_strip(den)
    if len(n0) > 1 and len(d0) > 1:
        _, n0, d0 = xp_gcd(n0, d0)
    lead = d0[max(d0)]
    if lead != QRAT_ONE:
        inv = lead.inverse()
        n0 = xp_scale(n0, inv)
        d0 = xp_scale(d0, inv)
    if d0 == XP_ONE:
        d0 = XP_ONE
    return RationalFunction(xp_shift(n0, sn - sd), d0)


RF_ZERO = RationalFunction(XP_ZERO, XP_ONE)
RF_ONE = RationalFunction(XP_ONE, XP_ONE)


def rf_const(qr):
    if not qr:
        return RF_ZERO
    return RationalFunction({0: qr}, XP_ONE)


def rf_coeff(c):
    return rf_const(qrat_const(c))


def rf_qpow_units(s):
    if not s:
        return RF_ONE
    return RationalFunction({0: qrat_qpow(s)}, XP_ONE)


def rf_xpow_units(k):
    if not k:
        return RF_ONE
    return RationalFunction({k: QRAT_ONE}, XP_ONE)


def rf_qpow(e):
    return rf_qpow_units(to_units(e))


def rf_xpow(e):
    return rf_xpow_units(to_units(e))


def qdiff_qrat():
    """q - 1/q as a QRat."""
    denom = get_lattice_denominator()
    return qrat(qp_shift({2 * denom: 1, 0: -1}, -denom))


def xbracket_rf(c_units):
    """(x*q**c - (x*q**c)**-1) / (q - 1/q) as a RationalFunction."""
    denom = get_lattice_denominator()
    qd = qdiff_qrat().inverse()
    num = {
        denom: qrat_monomial_mul(qd, c_units),
        -denom: qrat_monomial_mul(-qd, -c_units),
    }
    return RationalFunction(num, XP_ONE)
