"""Canonical rational functions of the two lattice variables q and x.

A RationalFunction is a fraction of two XPolys (Laurent in v = x**(1/4),
coefficients rational in u = q**(1/4)): numerator and denominator coprime in
v, denominator with minimum v-exponent zero and leading coefficient one.

The denominators the package builds are products of binomials y - u**e, with
y = x**2 = v**8 (x-brackets x q**c - x**-1 q**-c put them there).  Such a
denominator is stored factored, as a multiset `fac` {e: multiplicity}, and
arithmetic works on the multisets: products add them, sums take their
maximum and multiply each numerator by the binomials it misses, and only the
binomials that can cancel are tried.  A binomial y - u**e cancels from a
numerator N that is a polynomial in y exactly when N vanishes at y = u**e; a
nonzero GF(p) image of that value rules it out, and only an exact synthetic
division accepts it.  y - u**e is linear in y, hence irreducible, and the
gcd of a polynomial in y with the denominator over Q(z8)(u)[v] is its gcd
over Q(z8)(u)[y] (the deflation argument of polys.py), so this gives the same
reduced fraction as the generic gcd, byte for byte.

Any other operand takes the generic path: a numerator that is not a
polynomial in y after stripping, or a denominator that is no product of
binomials, which is then stored expanded with `fac` None.  The generic path
cancels by xp_gcd, and its result is factored again where it can be.  So
`fac` is None exactly when the denominator is not a product of binomials;
factorization is unique, so equal values have equal `fac` and `num`, and
structural equality is value equality.  The expanded denominator `den` is
built on demand, cached by multiset.
"""

from . import multisets
from .coeffs import Cyclo, root8_pow
from .lattice import DENOM, LatticeError, to_units
from .multisets import NO_FACTORS, Alphabet
from .polys import (
    QRAT_ONE,
    QRAT_ZERO,
    XP_ONE,
    XP_ZERO,
    Y_DEG,
    qp_shift,
    qrat,
    qrat_const,
    qrat_monomial_mul,
    qrat_qpow,
    qrat_scale,
    xp_add,
    xp_binom_div,
    xp_binom_mul,
    xp_eval_complex,
    xp_gcd,
    xp_mul,
    xp_neg,
    xp_qshift,
    xp_scale,
    xp_shift,
    xp_strip,
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


class RationalFunction:
    __slots__ = ("num", "fac", "_den")

    def __init__(self, num, fac, den=None):
        # raw constructor: callers guarantee canonical form, and pass the
        # denominator exactly when fac is None
        self.num = num
        self.fac = fac
        self._den = den

    @property
    def den(self):
        if self.fac is None:
            return self._den
        return _BINOMIALS.expand(self.fac)

    # ------------------------------------------------------------ basics

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.fac == NO_FACTORS and self.num == XP_ONE

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            if self.fac is None or other.fac is None:
                return (self.fac is other.fac and self.num == other.num
                        and self.den == other.den)
            return self.fac == other.fac and self.num == other.num
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
        return RationalFunction(xp_neg(self.num), self.fac, self._den)

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        if self.fac is not None and other.fac is not None:
            got = _add_factored(self.num, self.fac, other.num, other.fac)
            if got is not None:
                return got
        return _add_generic(self.num, self.den, other.num, other.den)

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
        if self.fac is not None and other.fac is not None:
            got = _mul_factored(self.num, self.fac, other.num, other.fac)
            if got is not None:
                return got
        return _mul_generic(self.num, self.den, other.num, other.den)

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
        return _from_parts(xp_shift(den, -s), n0)

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
        return RationalFunction(xp_scale(self.num, qr), self.fac, self._den)

    # ------------------------------------------------------ lattice maps

    def shift_x(self, m_units):
        """Substitute x -> x * q**(m_units/D); an exact automorphism.

        It takes y - u**e to u**(2m) * (y - u**(e - 2m)) for m = m_units, so
        a factored denominator only relabels its binomials.
        """
        if not m_units or not self.num:
            return self
        num = xp_qshift(self.num, m_units, DENOM)
        if self.fac is not None:
            s0 = 2 * m_units * sum(self.fac.values())
            fac = {e - 2 * m_units: m for e, m in self.fac.items()}
            return RationalFunction(_xp_qpow_mul(num, -s0), fac)
        den = xp_qshift(self.den, m_units, DENOM)
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

    def as_qrat(self):
        if not self.is_x_free():
            raise ValueError("rational function depends on x")
        return self.num.get(0, QRAT_ZERO)

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


# ------------------------------------------------------ factored path ----


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
    t0, st = xp_strip(t)
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
    return xp_shift(t0, st), removed


def _add_factored(na, fa, nb, fb):
    """na/fa + nb/fb, or None if a numerator that could cancel is not a
    polynomial in y.  Only binomials of equal multiplicity in fa and fb can
    cancel from the sum."""
    if fa == fb:
        t = xp_add(na, nb)
        if not t:
            return RF_ZERO
        tied = lcm = fa
    else:
        common = multisets.common(fa, fb)
        t = xp_add(_BINOMIALS.times(na, multisets.minus(fb, common)),
                   _BINOMIALS.times(nb, multisets.minus(fa, common)))
        if not t:
            return RF_ZERO
        tied = multisets.tied(fa, fb)
        lcm = multisets.lcm(fa, fb)
    if not tied:
        return RationalFunction(t, lcm)
    got = _cancel(t, tied)
    if got is None:
        return None
    t, removed = got
    return RationalFunction(t, multisets.minus(lcm, removed))


def _mul_factored(na, fa, nb, fb):
    """(na/fa) * (nb/fb), or None if a numerator that could cancel is not a
    polynomial in y.  Each numerator can only cancel the other's binomials."""
    if fb:
        got = _cancel(na, fb)
        if got is None:
            return None
        na, removed = got
        fb = multisets.minus(fb, removed)
    if fa:
        got = _cancel(nb, fa)
        if got is None:
            return None
        nb, removed = got
        fa = multisets.minus(fa, removed)
    return RationalFunction(xp_mul(na, nb), multisets.total(fa, fb))


def _from_parts(num, den):
    """The RationalFunction num/den of a canonical pair."""
    fac = _factor(den)
    if fac is None:
        return RationalFunction(num, None, den)
    return RationalFunction(num, fac)


# ------------------------------------------------------- generic path ----
#
# Reached only when an operand has no factored denominator or a numerator
# that could cancel is not a polynomial in y; so da and db are never both 1.


def _add_generic(na, da, nb, db):
    if da == db:
        t = xp_add(na, nb)
        if not t:
            return RF_ZERO
        t0, st = xp_strip(t)
        _, t0, d = xp_gcd(t0, da)
        return _from_parts(xp_shift(t0, st), d)
    if da == XP_ONE:
        return _from_parts(xp_add(xp_mul(na, db), nb), db)
    if db == XP_ONE:
        return _from_parts(xp_add(xp_mul(nb, da), na), da)
    g, b1, d1 = xp_gcd(da, db)
    if max(g) == 0:
        t = xp_add(xp_mul(na, db), xp_mul(nb, da))
        if not t:
            return RF_ZERO
        return _from_parts(t, xp_mul(da, db))
    t = xp_add(xp_mul(na, d1), xp_mul(nb, b1))
    if not t:
        return RF_ZERO
    t0, st = xp_strip(t)
    _, t0, g = xp_gcd(t0, g)
    return _from_parts(xp_shift(t0, st), xp_mul(xp_mul(g, b1), d1))


def _mul_generic(na, da, nb, db):
    na0, sa = xp_strip(na)
    nb0, sb = xp_strip(nb)
    if db != XP_ONE and len(na0) > 1:
        _, na0, db = xp_gcd(na0, db)
    if da != XP_ONE and len(nb0) > 1:
        _, nb0, da = xp_gcd(nb0, da)
    return _from_parts(xp_shift(xp_mul(na0, nb0), sa + sb), xp_mul(da, db))


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


def ratfn(num, den=XP_ONE):
    """Canonicalizing factory for RationalFunction."""
    if not num:
        return RF_ZERO
    if not den:
        raise ZeroDivisionError("zero denominator in rational function")
    n0, sn = xp_strip(num)
    d0, sd = xp_strip(den)
    lead = d0[max(d0)]
    if lead != QRAT_ONE:
        inv = lead.inverse()
        n0 = xp_scale(n0, inv)
        d0 = xp_scale(d0, inv)
    fac = _factor(d0)
    if fac is not None:
        got = _cancel(n0, fac) if fac else (n0, NO_FACTORS)
        if got is not None:
            n0, removed = got
            return RationalFunction(xp_shift(n0, sn - sd),
                                    multisets.minus(fac, removed))
    if len(n0) > 1 and len(d0) > 1:
        _, n0, d0 = xp_gcd(n0, d0)
    return _from_parts(xp_shift(n0, sn - sd), d0)


RF_ZERO = RationalFunction(XP_ZERO, NO_FACTORS)
RF_ONE = RationalFunction(XP_ONE, NO_FACTORS)


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


def rf_qpow(e):
    return rf_qpow_units(to_units(e))


def rf_xpow(e):
    return rf_xpow_units(to_units(e))


def qdiff_qrat():
    """q - 1/q as a QRat."""
    return qrat(qp_shift({2 * DENOM: 1, 0: -1}, -DENOM))


def xbracket_rf(c_units):
    """(x*q**c - (x*q**c)**-1) / (q - 1/q) as a RationalFunction."""
    qd = qdiff_qrat().inverse()
    num = {
        DENOM: qrat_monomial_mul(qd, c_units),
        -DENOM: qrat_monomial_mul(-qd, -c_units),
    }
    return RationalFunction(num, NO_FACTORS)
