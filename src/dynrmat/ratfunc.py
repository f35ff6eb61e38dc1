"""Canonical rational functions of the two lattice variables q and x.

A RationalFunction is a rational function of u = q**(1/4) and v =
x**(1/4), stored flat as

    N / (Dq * Dx):

- Dx is a multiset `fac` {e: multiplicity} of binomials y - u**e, with y =
  x**2 = v**8.  The x-brackets x q**c - x**-1 q**-c put them into every
  x-denominator the package builds.
- Dq is a multiset {d: multiplicity} of cyclotomic factors Phi_d(u**8), the
  common q-denominator of all the rows.
- N = u**o * sum_k v**k * P_k(u) / d, an XNum (polys.py): int rows, each
  packed into one Python int, over a content denominator d, which is 1
  unless a coefficient is a Fraction.  Only polys.py reads that format.

Canonical form: N is coprime in v to Dx, and Dq is minimal: no Phi_d left
in Dq divides every row of N.  Then each row P_k / Dq, reduced at the q
level, is the canonical QRat coefficient of v**k, and the fraction of the
XPoly of those coefficients over the expanded Dx is canonical in the sense
of polys.CanonicalFraction; `num`, `den` and `fac` are read-only views of
that form, which the printers, the JSON and the tests read.  Equal values
have equal N, Dq and Dx, whatever width or stride N was packed at (`==`
and `hash` compare coefficients, not ints).

Arithmetic on the flat form:
- A product adds the multisets and multiplies the numerators, one big-int
  product per pair of rows.  Each numerator can only cancel the other's
  binomials, and the product the factors of the two Dq.
- Own-factor rule: each numerator is tried only against the factors of the
  other's multisets that its own lack (multisets.cancel_across).  N is
  coprime to its own binomials.  No Phi_d of its own Dq divides all rows of
  N, nor all rows of N over some binomials: it would divide every row of
  their product with the binomials, which is N.
- Monomial rule: a factor c * v**k * u**e over 1, c rational, scales and
  relabels the other factor's rows and keeps its Dq and Dx (_scaled).  A
  monomial shares no factor with a binomial or a Phi_d, so the result is
  canonical as built.
- A sum multiplies each numerator by the factors the other has and it does
  not, adds, and cancels only the factors of equal multiplicity on both
  sides (multisets.over_lcm).  A factor that only one side has cannot cancel
  from any row of the sum, not even in part, while the sides' rows are only
  scaled: each row is congruent mod that factor to a row coprime to it.  A
  product with a binomial mixes a side's rows, and then a row of the sum can
  share part of any factor of Dq (see the next rule but one).
- A binomial cancels from a numerator that is a polynomial in y after
  stripping its lowest power of v exactly when the numerator vanishes at
  y = u**e.  One packed evaluation decides that exactly, and Horner's rule
  with shifts divides; a whole multiset is divided out on one list of rows
  (polys.xp_binom_cancel).  y - u**e is linear in y, hence irreducible,
  and the gcd of a polynomial in y with the denominator over Q(u)[v] is its
  gcd over Q(u)[y] (the deflation argument of polys.py).
- A Phi_d(u**8) divides a row wholly or not at all when all exponents of u
  in N agree mod 8 (polys.xp_qsafe).  Otherwise each row is reduced as a
  QRat and the flat form is rebuilt from the reduced rows.

Values the flat form cannot hold are stored nested, as a `_Nested` fraction
of XPolys over QRats: an x-denominator that is no product of binomials
(`fac` None), or a row whose reduced q-denominator is no product of
cyclotomic factors.  So is the result of a flat operation the flat path
cannot decide: a binomial to cancel from a numerator that is no polynomial
in y.  That generic path cancels by xp_gcd, and its result is flattened
again where it can be.
"""

from . import multisets
from .coeffs import z8_div
from .lattice import DENOM, LatticeError
from .multisets import NO_FACTORS, Alphabet
from .polys import (
    CYCLOTOMICS,
    QRAT_ONE,
    QRAT_ZERO,
    XN_ZERO,
    XP_ONE,
    XP_ZERO,
    Y_DEG,
    CanonicalFraction,
    QRat,
    add_into,
    poly_shift,
    poly_strip,
    qrat_const,
    qrat_monomial_mul,
    qrat_over_cyclotomics,
    xp_add,
    xp_binom_cancel,
    xp_binom_mul,
    xp_equal,
    xp_from_terms,
    xp_gcd,
    xp_key,
    xp_monomial,
    xp_mul,
    xp_neg,
    xp_qcancel,
    xp_qsafe,
    xp_qshift,
    xp_qtimes,
    xp_scaled,
    xp_terms,
    xq_eval_complex,
    xq_mul,
    xq_qshift,
    xq_scale,
)

__all__ = [
    "RationalFunction",
    "ratfn",
    "RF_ZERO",
    "RF_ONE",
    "rf_const",
    "rf_product",
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


def _xq_binom_mul(a, e):
    """A nested XPoly a times y - u**e."""
    out = {k + Y_DEG: c for k, c in a.items()}
    for k, c in a.items():
        add_into(out, k, -qrat_monomial_mul(c, e))
    return out


# expanded x-denominators, as nested XPolys
_BINOMIALS = Alphabet(XP_ONE, _xq_binom_mul)


def _factor(d):
    """The multiset of binomials whose product is d, or None if there is none.

    d is a nested XPoly, monic with minimum exponent zero.  If d = prod (y -
    u**e)**m has degree n in y, its y**(n-1) coefficient is -sum m u**e,
    which names every candidate and its multiplicity; d factors iff their
    product is d.
    """
    if len(d) == 1:
        return NO_FACTORS
    top = max(d)
    c = d.get(top - Y_DEG)
    if top % Y_DEG or c is None or c.fac != NO_FACTORS:
        return None
    fac = {}
    for e, k in c.num.items():
        if k >= 0 or k.denominator != 1:
            return None
        fac[e] = -int(k)
    if sum(fac.values()) * Y_DEG != top or _BINOMIALS.expand(fac) != d:
        return None
    return fac


def _cancel(t, fac):
    """(t / g, g) for g the largest product of binomials from the multiset
    `fac` that divides the XNum t, with g as a multiset; None if t is not a
    polynomial in y after stripping its lowest power of v."""
    return xp_binom_cancel(t, fac)


def _xtimes(n, fac):
    """The XNum n times the binomials of the multiset `fac`."""
    for e, m in fac.items():
        for _ in range(m):
            n = xp_binom_mul(n, e)
    return n


# ------------------------------------------------------------ nested form ----


def _decline(t, fac):
    return None


class _Nested(CanonicalFraction):
    """The x level as a canonical fraction of nested XPolys over QRats, for
    the values the flat form cannot hold and for the generic path.  Its
    factored cancellation always declines, so it cancels by xp_gcd."""

    __slots__ = ()

    _mul = staticmethod(xq_mul)
    _scale = staticmethod(xq_scale)
    _poly_one = XP_ONE
    _coeff_one = QRAT_ONE
    _coeff_inverse = staticmethod(QRat.inverse)
    _alphabet = _BINOMIALS
    _factor = staticmethod(_factor)
    _cancel = staticmethod(_decline)

    @staticmethod
    def _gcd(a, b):
        # resolved at call time, so that a replaced xp_gcd sees every call
        return xp_gcd(a, b)


_Nested.ZERO = _Nested(XP_ZERO, NO_FACTORS)
_Nested.ONE = _Nested(XP_ONE, NO_FACTORS)


def _from_qrats(num, fac):
    """The RationalFunction of a nested XPoly of canonical QRats, coprime to
    the binomials of the multiset `fac`, over them: flat unless a row's
    q-denominator is no product of cyclotomic factors.  Dq is the lcm of the
    rows' q-denominators, which makes it minimal."""
    if not num:
        return RF_ZERO
    dq = NO_FACTORS
    for qr in num.values():
        if qr.fac is None:
            return RationalFunction._of_nested(_Nested(num, fac))
        if qr.fac:
            dq = multisets.lcm(dq, qr.fac)
    if dq:
        rows = {k: CYCLOTOMICS.times(qr.num, multisets.minus(dq, qr.fac))
                for k, qr in num.items()}
    else:
        rows = {k: qr.num for k, qr in num.items()}
    return RationalFunction(xp_from_terms(rows), dq, fac)


def _from_nested(x):
    """The RationalFunction of a _Nested fraction."""
    if x.fac is None:
        return RationalFunction._of_nested(x)
    return _from_qrats(x.num, x.fac)


def _requalify(t, dq, fac):
    """The RationalFunction t / (dq * fac), for an XNum t coprime to fac
    whose rows the flat q-path cannot reduce: each row is reduced as a QRat
    and the form rebuilt."""
    return _from_qrats({k: qrat_over_cyclotomics(row, dq)
                        for k, row in xp_terms(t).items()}, fac)


def _reduce_q(t, dq, fac, tied, shared):
    """The RationalFunction t / (dq * fac), for a nonzero XNum t coprime to
    fac and to every factor of dq outside the multiset `tied`, whose rows
    can share part of a factor with dq only for the factors of `shared`."""
    if shared and not xp_qsafe(t):
        return _requalify(t, dq, fac)
    if tied:
        t, removed = xp_qcancel(t, tied)
        dq = multisets.minus(dq, removed)
    return RationalFunction(t, dq, fac)


# ------------------------------------------------------- RationalFunction ----


class RationalFunction:
    """Canonical rational function N / (Dq * Dx) of u and v; see the module
    docstring.  A value the flat form cannot hold wraps a _Nested fraction,
    and then `n` and `dq` are None."""

    __slots__ = ("n", "dq", "fac", "_nested", "_num")

    def __init__(self, n, dq, fac):
        # raw constructor of a flat value: callers guarantee canonical form
        self.n = n
        self.dq = dq
        self.fac = fac
        self._nested = None
        self._num = None

    @classmethod
    def _of_nested(cls, x):
        """The value of a _Nested fraction that the flat form cannot hold."""
        self = cls(None, None, x.fac)
        self._nested = x
        return self

    # ------------------------------------------------------------ views

    @property
    def num(self):
        """The numerator as a nested XPoly: each row of N reduced over Dq."""
        if self._nested is not None:
            return self._nested.num
        got = self._num
        if got is None:
            dq = self.dq
            got = self._num = {
                k: qrat_over_cyclotomics(row, dq) if dq
                else QRat(row, NO_FACTORS)
                for k, row in xp_terms(self.n).items()
            }
        return got

    @property
    def den(self):
        """The denominator as a nested XPoly: Dx expanded."""
        if self._nested is not None:
            return self._nested.den
        return _BINOMIALS.expand(self.fac)

    def _nest(self):
        if self._nested is not None:
            return self._nested
        return _Nested(self.num, self.fac)

    # ----------------------------------------------------------- basics

    def __bool__(self):
        if self.n is None:
            return bool(self._nested)
        return bool(self.n.rows)

    def __eq__(self, other):
        if type(other) is not RationalFunction:
            return NotImplemented
        a, b = self.n, other.n
        if a is None or b is None:
            return a is b and self._nested == other._nested
        return (self.fac == other.fac and self.dq == other.dq
                and xp_equal(a, b))

    def __hash__(self):
        if self.n is None:
            return hash(self._nested)
        return hash((xp_key(self.n), multisets.key(self.dq),
                     multisets.key(self.fac)))

    def is_one(self):
        return self == RF_ONE

    def is_x_free(self):
        if self.n is None:
            return self.fac == NO_FACTORS and set(self.num) <= {0}
        return not self.fac and set(self.n.rows) <= {0}

    def __repr__(self):
        n = sum(len(c.num) + len(c.den) for c in self.num.values())
        d = sum(len(c.num) + len(c.den) for c in self.den.values())
        return "<RationalFunction %d/%d v-terms, weight %d/%d>" % (
            len(self.num),
            len(self.den),
            n,
            d,
        )

    # ------------------------------------------------------- arithmetic

    def __neg__(self):
        if self.n is None:
            return RationalFunction._of_nested(-self._nested)
        return RationalFunction(xp_neg(self.n), self.dq, self.fac)

    def __add__(self, other):
        if type(other) is not RationalFunction:
            return NotImplemented
        if not self:
            return other
        if not other:
            return self
        if self.n is not None and other.n is not None:
            got = self._add_factored(other)
            if got is not None:
                return got
        a, b = self._nest(), other._nest()
        return _from_nested(a._add_generic(a.num, a.den, b.num, b.den))

    def __sub__(self, other):
        if type(other) is not RationalFunction:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not RationalFunction:
            return NotImplemented
        if not self or not other:
            return RF_ZERO
        if self is RF_ONE:
            return other
        if other is RF_ONE:
            return self
        if self.n is not None and other.n is not None:
            got = None
            if len(self.n.rows) == 1 and not self.dq and not self.fac:
                got = _scaled(self, other)
            if (got is None and len(other.n.rows) == 1 and not other.dq
                    and not other.fac):
                got = _scaled(other, self)
            if got is None:
                got = self._mul_factored(other)
            if got is not None:
                return got
        a, b = self._nest(), other._nest()
        return _from_nested(a._mul_generic(a.num, a.den, b.num, b.den))

    def inverse(self):
        if self.n is not None and len(self.n.rows) == 1:
            # (Dq * Dx) / (v**k P): Dx over v**k, times the QRat Dq / P
            (k, qr), = self.num.items()
            q = qr.inverse()
            return _from_qrats({j - k: c * q for j, c in self.den.items()},
                               NO_FACTORS)
        return _from_nested(self._nest().inverse())

    def __truediv__(self, other):
        if type(other) is not RationalFunction:
            return NotImplemented
        return self * other.inverse()

    def _add_factored(self, other):
        """self + other on the flat form, or None if a tied binomial would
        have to cancel from a sum that is no polynomial in y."""
        qa, qb = self.dq, other.dq
        na, nb, qtied, dq = multisets.over_lcm(self.n, qa, other.n, qb,
                                               xp_qtimes)
        na, nb, tied, fac = multisets.over_lcm(na, self.fac, nb, other.fac,
                                               _xtimes)
        t = xp_add(na, nb)
        if not t:
            return RF_ZERO
        if self.fac != other.fac:
            shared = dq  # a product with a binomial mixes the rows
        else:
            shared = qa if qa == qb else multisets.common(qa, qb)
        if tied:
            got = _cancel(t, tied)
            if got is None:
                return None
            t, removed = got
            if removed:
                shared = dq  # division by a binomial mixes the rows
            fac = multisets.minus(fac, removed)
        return _reduce_q(t, dq, fac, qtied, shared)

    def _mul_factored(self, other):
        """self * other on the flat form, or None if a binomial would have
        to cancel from a numerator that is no polynomial in y."""
        got = multisets.cancel_across(self.n, self.fac, other.n, other.fac,
                                      _cancel)
        if got is None:
            return None
        na, fa, nb, fb = got
        fac = multisets.total(fa, fb)
        qa, qb = self.dq, other.dq
        if qa or qb:
            dq = multisets.total(qa, qb)
            if not (xp_qsafe(na) and xp_qsafe(nb)):
                return _requalify(xp_mul(na, nb), dq, fac)
            na, qa, nb, qb = multisets.cancel_across(na, qa, nb, qb,
                                                     xp_qcancel)
        return RationalFunction(xp_mul(na, nb), multisets.total(qa, qb), fac)

    def scale_q(self, qr):
        """Multiply by an x-free factor."""
        return self * rf_const(qr)

    # ------------------------------------------------------ lattice maps

    def shift_x(self, m_units):
        """Substitute x -> x * q**(m_units/D); an exact automorphism.

        It takes y - u**e to u**(2m) * (y - u**(e - 2m)) for m = m_units, so
        a factored denominator only relabels its binomials.
        """
        if not m_units or not self:
            return self
        fac = self.fac
        if fac is not None:
            s0 = 2 * m_units * sum(fac.values())
            fac = {e - 2 * m_units: m for e, m in fac.items()}
        if self.n is not None:
            return RationalFunction(xp_qshift(self.n, m_units, -s0), self.dq,
                                    fac)
        num = xq_qshift(self.num, m_units)
        if fac is not None:
            return RationalFunction._of_nested(
                _Nested(_xq_qpow_mul(num, -s0), fac))
        den = xq_qshift(self.den, m_units)
        s0 = m_units * max(den) // DENOM
        return RationalFunction._of_nested(_Nested(
            _xq_qpow_mul(num, -s0), None, _xq_qpow_mul(den, -s0)))

    def subs_signed_qpow(self, sign, a_units):
        """Evaluate at x = sign * q**(a_units/D).  At x = -q**a each
        x**(k/D) carries the phase (-1)**(k/D) = z8**(4k/D), so the value is
        returned by its parts on 1, z8, z8**2, z8**3: a list of four QRats."""
        num = _xp_subs_signed(self.num, sign, a_units)
        den = _xp_subs_signed(self.den, sign, a_units)
        if not any(den):
            raise PoleAtSubstitution(
                "substitution hit a denominator zero", not any(num)
            )
        return z8_div(num, den)

    # ----------------------------------------------------------- limits

    def edge(self, at_zero):
        """Leading (v-exponent difference, coefficient) at x -> 0 or infinity."""
        if not self:
            raise ValueError("edge data of the zero function")
        num, den = self.num, self.den
        if at_zero:
            kn = min(num)
            kd = min(den)
        else:
            kn = max(num)
            kd = max(den)
        return kn - kd, num[kn] / den[kd]

    # ---------------------------------------------------------- numeric

    def eval_complex(self, q0, x0):
        u0 = float(q0) ** (1.0 / DENOM)
        v0 = float(x0) ** (1.0 / DENOM)
        return xq_eval_complex(self.num, u0, v0) / xq_eval_complex(
            self.den, u0, v0
        )


def _scaled(m, x):
    """m * x for a monomial m = c * v**k * u**e, c rational, which has one
    row and no Dq or Dx, by polys.xp_scaled, or None where that declines.  A
    monomial shares no factor with a binomial or a Phi_d, so x's Dq and Dx
    stay as they are and the result is canonical as built."""
    n = xp_scaled(m.n, x.n)
    return None if n is None else RationalFunction(n, x.dq, x.fac)


def _xq_qpow_mul(a, s):
    if not s:
        return a
    return {k: qrat_monomial_mul(c, s) for k, c in a.items()}


def _xp_subs_signed(a, sign, a_units):
    """The parts on 1, z8, z8**2, z8**3 of the nested XPoly a at x = sign *
    q**(a_units/D)."""
    parts = [QRAT_ZERO] * 4
    for k, c in a.items():
        s = a_units * k
        if s % DENOM:
            raise LatticeError("substitution exponent off the lattice")
        t = qrat_monomial_mul(c, s // DENOM)
        j = 0
        if sign < 0:
            e8 = 4 * k
            if e8 % DENOM:
                raise LatticeError("sign phase off the eighth-root lattice")
            j = e8 // DENOM % 8
            if j >= 4:  # z8**4 = -1
                t, j = -t, j - 4
        parts[j] = parts[j] + t
    return parts


RF_ZERO = RationalFunction(XN_ZERO, NO_FACTORS, NO_FACTORS)
RF_ONE = RationalFunction(xp_monomial(0, 0), NO_FACTORS, NO_FACTORS)


def ratfn(num, den=None):
    """The canonical RationalFunction num/den of two nested XPolys; den
    defaults to 1."""
    if den is None:
        den = XP_ONE
    if num and den:
        d0, sd = poly_strip(den)
        lead = d0[max(d0)]
        n0 = num
        if lead != QRAT_ONE:
            inv = lead.inverse()
            n0, d0 = xq_scale(n0, inv), xq_scale(d0, inv)
        fac = _factor(d0)
        if fac is not None:
            x = _from_qrats(poly_shift(n0, -sd), NO_FACTORS)
            if x.n is not None:
                got = _cancel(x.n, fac) if fac else (x.n, NO_FACTORS)
                if got is not None:
                    t, removed = got
                    return _reduce_q(t, x.dq, multisets.minus(fac, removed),
                                     NO_FACTORS, x.dq)
    return _from_nested(_Nested.canonical(num, den))


def rf_product(k, num, dq, binoms):
    """The RationalFunction v**k * num * prod (y - u**e)**m / dq over the
    items e: m of the signed multiset `binoms`, for a nonzero QPoly num
    that no factor of the cyclotomic multiset dq divides.

    The positive binomials are multiplied into N and the negative ones are
    Dx; distinct binomials share no root, so N is coprime to Dx, and the
    top row of N in y is num, so Dq is minimal.  The pair is canonical as
    built unless the rows could share part of a factor of Dq (xp_qsafe);
    then each row is reduced as a QRat.
    """
    up = {e: m for e, m in binoms.items() if m > 0}
    fac = {e: -m for e, m in binoms.items() if m < 0}
    return _reduce_q(_xtimes(xp_from_terms({k: num}), up), dq, fac,
                     NO_FACTORS, dq)


def rf_const(qr):
    if not qr:
        return RF_ZERO
    return _from_qrats({0: qr}, NO_FACTORS)


def rf_coeff(c):
    return rf_const(qrat_const(c))


def rf_qpow_units(s):
    if not s:
        return RF_ONE
    return RationalFunction(xp_monomial(0, s), NO_FACTORS, NO_FACTORS)


def rf_xpow_units(k):
    if not k:
        return RF_ONE
    return RationalFunction(xp_monomial(k, 0), NO_FACTORS, NO_FACTORS)
