"""Canonical rational functions of the two lattice variables q and x.

A RationalFunction is a rational function of u = q**(1/4) and v =
x**(1/4), stored flat as

    N / (Dq * Dx)

whenever its reduced denominator is such a product up to a monomial:

- Dx is a multiset `fac` {e: multiplicity} of binomials y - u**e, with y =
  x**2 = v**8.  The x-brackets x q**c - x**-1 q**-c put them into every
  x-denominator the package builds.
- Dq is a multiset {d: multiplicity} of cyclotomic factors Phi_d(u**8), the
  common q-denominator of all the rows.
- N = u**o * sum_k v**k * P_k(u) / d, an XNum (polys.py): int rows, each
  packed into one Python int, over a content denominator d, which is 1
  unless a coefficient is a Fraction.  Only polys.py reads that format.

Canonical form: N and Dq * Dx are coprime over Q[u, v].  So N is coprime
in v to Dx, and Dq is minimal: no Phi_d left in Dq divides every row of N.
Then each row P_k / Dq, reduced at the q level, is the canonical QRat
coefficient of v**k, and the XPoly of those coefficients over the expanded
Dx, monic in v, is the canonical nested pair; `num`, `den` and `fac` are
read-only views, which the printers, the JSON and the tests read.  Equal
values have equal N, Dq and Dx, whatever width or stride N was packed at
(`==` and `hash` compare coefficients, not ints).

Any other value is N / G, with Dq and Dx empty (`fac` None): G is its whole
reduced denominator as an XNum, with lowest exponents 0 in u and v, int
coefficients of gcd 1 and a positive leading coefficient, and coprime to N
over Q[u, v].  G is kept whole, not split beside a Dq and a Dx, because
such a split is not closed under products: (u - 1)(u**7 + ... + 1) is
Phi_1(q**2).  Its views are N and G over G's top row in v.

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
  relabels the other factor's rows and keeps its Dq and Dx, or its G
  (_scaled).  A monomial is a unit, so the result is canonical as built.
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
  in N agree mod 8 (polys.xp_qsafe).  Otherwise a row can share part of a
  Phi_d, and the value goes to _general.
- Whether a signed sum of products vanishes needs no canonical form:
  rf_sum_vanishes multiplies and adds numerators over the lcm of the
  multisets, each G one more factor, and cancels nothing.

Every path the flat form declines goes through one constructor, _general:
a binomial to cancel from a numerator that is no polynomial in y, rows
that could share part of a Phi_d, an operand with a G, ratfn and inverse.
It cancels by xp_gcd on the packed rows, normalizes the denominator, and
keeps it as G only where it does not factor over Phi_d(u**8) and the
binomials.
"""

from fractions import Fraction
from functools import cache
from itertools import chain

from . import multisets
from .coeffs import z8_div
from .lattice import DENOM, LatticeError
from .multisets import NO_FACTORS
from .polys import (
    XN_ONE,
    XN_ZERO,
    Q_DEG,
    Y_DEG,
    QRat,
    _factor as _phi_factors,
    poly_neg,
    poly_shift,
    qp_monic,
    qrat,
    qrat_const,
    qrat_eval_complex,
    qrat_over_cyclotomics,
    xp_add,
    xp_binom_cancel,
    xp_binoms_mul,
    xp_collapse,
    xp_equal,
    xp_from_terms,
    xp_gcd,
    xp_is_monomial,
    xp_key,
    xp_monomial,
    xp_mul,
    xp_neg,
    xp_primitive,
    xp_qcancel,
    xp_qsafe,
    xp_qshift,
    xp_qtimes,
    xp_scaled,
    xp_terms,
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
    "rf_sum_vanishes",
]


class PoleAtSubstitution(ZeroDivisionError):
    """A point substitution landed on a zero of the canonical denominator."""

    def __init__(self, message, numerator_vanished):
        super().__init__(message)
        self.numerator_vanished = numerator_vanished


# ------------------------------------------------------------ denominators ----


def _cancel(t, fac):
    """(t / g, g) for g the largest product of binomials from the multiset
    `fac` that divides the XNum t, with g as a multiset; None if t is not a
    polynomial in y after stripping its lowest power of v."""
    return xp_binom_cancel(t, fac)


def _den_of(dq, fac):
    """The XNum prod Phi_d(u**8) * prod (y - u**e) over the multisets dq
    and fac."""
    return xp_binoms_mul(xp_qtimes(XN_ONE, dq), fac)


@cache
def _binomials(key):
    """The nested XPoly of the binomials of the multiset named `key`."""
    return {k: QRat(row, NO_FACTORS) for k, row in
            xp_terms(_den_of(NO_FACTORS, dict(key))).items()}


def _flat(g):
    """(w, dq, fac) with w * g = prod Phi_d(u**8) * prod (y - u**e) over the
    multisets dq and fac, for a primitive XNum g (polys.xp_primitive) and a
    monomial w = c * u**e; None if g is no such product.

    The top row of g in y is then 1/w times the Phi_d, which polys._factor
    names.  The row below it is that times -sum m u**e, which names every
    binomial and its multiplicity; g factors iff the product is g."""
    rows = xp_terms(g)
    top = max(rows)
    t = rows[top]
    lo, lead = min(t), t[max(t)]
    dq = _phi_factors(qp_monic(poly_shift(t, -lo)))
    if dq is None or top % Y_DEG:
        return None
    fac = {}
    if top:
        c = qrat(rows.get(top - Y_DEG, {}), t)
        if c.fac != NO_FACTORS:
            return None
        for e, m in c.num.items():
            if type(m) is not int or m >= 0:
                return None
            fac[e] = -m
        if sum(fac.values()) * Y_DEG != top:
            return None
    w = xp_from_terms({0: {-lo: 1 / Fraction(lead)}})
    if not xp_equal(xp_mul(g, w), _den_of(dq, fac)):
        return None
    return w, dq, fac


def _general(na, db, nb=XN_ONE, da=XN_ONE):
    """The RationalFunction (na / da) * (nb / db) of nonzero XNums, with na
    coprime to da and nb to db over Q[u, v]: every value that the flat form
    declines, and every result with a G operand.

    Each numerator is cancelled against the other's denominator, the
    argument beside it, by xp_gcd, unless one of the two is a monomial.  The denominator is made primitive
    (polys.xp_primitive), and the numerator scaled alike.  The value is flat
    when that denominator is a monomial times a product of Phi_d(u**8) and
    binomials (_flat); else it is G."""
    if not (xp_is_monomial(na) or xp_is_monomial(db)):
        _, na, db = xp_gcd(na, db)
    if not (xp_is_monomial(nb) or xp_is_monomial(da)):
        _, nb, da = xp_gcd(nb, da)
    g, w = xp_primitive(xp_mul(da, db))
    n = xp_mul(xp_mul(na, nb), w)
    got = _flat(g)
    if got is None:
        return RationalFunction(n, NO_FACTORS, None, g)
    w, dq, fac = got
    return RationalFunction(xp_mul(n, w), dq, fac)


def _reduce_q(t, dq, fac, tied, shared):
    """The RationalFunction t / (dq * fac), for a nonzero XNum t coprime to
    fac and to every factor of dq outside the multiset `tied`, whose rows
    can share part of a factor with dq only for the factors of `shared`."""
    if shared and not xp_qsafe(t):
        return _general(t, _den_of(dq, fac))
    if tied:
        t, removed = xp_qcancel(t, tied)
        dq = multisets.minus(dq, removed)
    return RationalFunction(t, dq, fac)


# ------------------------------------------------------- RationalFunction ----


class RationalFunction:
    """Canonical rational function of u and v: N / (Dq * Dx) on the flat
    form, else N / G, with `g` set, Dq empty and `fac` None; see the module
    docstring."""

    __slots__ = ("n", "dq", "fac", "g", "_num")

    def __init__(self, n, dq, fac, g=None):
        # raw constructor: callers guarantee canonical form
        self.n = n
        self.dq = dq
        self.fac = fac
        self.g = g
        self._num = None

    def _denominator(self):
        """The whole denominator as an XNum."""
        return _den_of(self.dq, self.fac) if self.g is None else self.g

    def _g_rows(self):
        """G's rows and its top row, as QPolys."""
        rows = xp_terms(self.g)
        return rows, rows[max(rows)]

    # ------------------------------------------------------------ views

    @property
    def num(self):
        """The numerator as a nested XPoly: each row of N reduced over Dq,
        or over the top row of G."""
        got = self._num
        if got is None:
            rows = xp_terms(self.n)
            if self.g is not None:
                top = self._g_rows()[1]
                got = {k: qrat(row, top) for k, row in rows.items()}
            elif self.dq:
                got = {k: qrat_over_cyclotomics(row, self.dq)
                       for k, row in rows.items()}
            else:
                got = {k: QRat(row, NO_FACTORS) for k, row in rows.items()}
            self._num = got
        return got

    @property
    def den(self):
        """The denominator as a nested XPoly, monic with lowest v-exponent
        0: Dx expanded, or G over its top row."""
        if self.g is None:
            return _binomials(multisets.key(self.fac))
        rows, top = self._g_rows()
        return {k: qrat(row, top) for k, row in rows.items()}

    # ----------------------------------------------------------- basics

    def __bool__(self):
        return bool(self.n.rows)

    def __eq__(self, other):
        if type(other) is not RationalFunction:
            return NotImplemented
        return (self.fac == other.fac and self.dq == other.dq
                and xp_equal(self.n, other.n)
                and (self.g is None or xp_equal(self.g, other.g)))

    def __hash__(self):
        if self.g is None:
            return hash((xp_key(self.n), multisets.key(self.dq),
                         multisets.key(self.fac)))
        return hash((xp_key(self.n), xp_key(self.g)))

    def is_one(self):
        return self == RF_ONE

    def is_x_free(self):
        return (not self.fac and set(self.n.rows) <= {0}
                and (self.g is None or set(self.g.rows) <= {0}))

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
        return RationalFunction(xp_neg(self.n), self.dq, self.fac, self.g)

    def __add__(self, other):
        if type(other) is not RationalFunction:
            return NotImplemented
        if not self:
            return other
        if not other:
            return self
        if self.g is None and other.g is None:
            return self._add_factored(other)
        return self._add_general(other)

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
        # a monomial c * v**k * u**e over 1 scales the other (_scaled)
        got = None
        if (len(self.n.rows) == 1 and self.g is None and not self.dq
                and not self.fac):
            got = _scaled(self, other)
        if (got is None and len(other.n.rows) == 1 and other.g is None
                and not other.dq and not other.fac):
            got = _scaled(other, self)
        if got is not None:
            return got
        if self.g is None and other.g is None:
            return self._mul_factored(other)
        return self._mul_general(other)

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero fraction")
        return _general(self._denominator(), XN_ONE, XN_ONE, self.n)

    def __truediv__(self, other):
        if type(other) is not RationalFunction:
            return NotImplemented
        return self * other.inverse()

    def _add_factored(self, other):
        """self + other on the flat form."""
        qa, qb = self.dq, other.dq
        na, nb, qtied, dq = multisets.over_lcm(self.n, qa, other.n, qb,
                                               xp_qtimes)
        na, nb, tied, fac = multisets.over_lcm(na, self.fac, nb, other.fac,
                                               xp_binoms_mul)
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
                return _general(t, _den_of(dq, fac))
            t, removed = got
            if removed:
                shared = dq  # division by a binomial mixes the rows
            fac = multisets.minus(fac, removed)
        return _reduce_q(t, dq, fac, qtied, shared)

    def _mul_factored(self, other):
        """self * other on the flat form."""
        got = multisets.cancel_across(self.n, self.fac, other.n, other.fac,
                                      _cancel)
        if got is None:
            return self._mul_general(other)
        na, fa, nb, fb = got
        fac = multisets.total(fa, fb)
        qa, qb = self.dq, other.dq
        if qa or qb:
            if not (xp_qsafe(na) and xp_qsafe(nb)):
                return _general(na, _den_of(qb, fb), nb, _den_of(qa, fa))
            na, qa, nb, qb = multisets.cancel_across(na, qa, nb, qb,
                                                     xp_qcancel)
        return RationalFunction(xp_mul(na, nb), multisets.total(qa, qb), fac)

    def _add_general(self, other):
        """self + other over the product of the whole denominators, or over
        the one when they are equal, by _general."""
        da, db = self._denominator(), other._denominator()
        if xp_equal(da, db):
            t = xp_add(self.n, other.n)
        else:
            t = xp_add(xp_mul(self.n, db), xp_mul(other.n, da))
            da = xp_mul(da, db)
        return _general(t, da) if t else RF_ZERO

    def _mul_general(self, other):
        """self * other by _general."""
        return _general(self.n, other._denominator(), other.n,
                        self._denominator())

    def scale_q(self, qr):
        """Multiply by an x-free factor."""
        return self * rf_const(qr)

    # ------------------------------------------------------ lattice maps

    def shift_x(self, m_units):
        """Substitute x -> x * q**(m_units/D); an exact automorphism.

        It takes y - u**e to u**(2m) * (y - u**(e - 2m)) for m = m_units, so
        a factored denominator only relabels its binomials.  G is shifted
        like N, and both are divided by G's new lowest power of u.
        """
        if not m_units or not self:
            return self
        if self.g is not None:
            g, w = xp_primitive(xp_qshift(self.g, m_units))
            return RationalFunction(xp_mul(xp_qshift(self.n, m_units), w),
                                    NO_FACTORS, None, g)
        fac = self.fac
        s0 = 2 * m_units * sum(fac.values())
        return RationalFunction(xp_qshift(self.n, m_units, -s0), self.dq,
                                {e - 2 * m_units: m for e, m in fac.items()})

    def subs_signed_qpow(self, sign, a_units):
        """Evaluate at x = sign * q**(a_units/D).  At x = -q**a each
        x**(k/D) carries the phase (-1)**(k/D) = z8**(4k/D), so the value is
        returned by its parts on 1, z8, z8**2, z8**3: a list of four QRats.

        On the flat form each binomial y - u**e becomes u**(2a) - u**e, a
        unit times u**n - 1, n = |2a - e|, which is the product of the
        Phi_d(u**8) over d | n/8 when 8 divides n.  Then N's rows are
        shifted and summed by phase (polys.xp_collapse), and each part is
        divided by Dq and those factors in one cancellation.  Otherwise, and
        for a G value, N and the whole denominator are collapsed alike and
        the parts divided (z8_div)."""
        for k in chain(self.n.rows, () if self.g is None else self.g.rows):
            if a_units * k % DENOM:
                raise LatticeError("substitution exponent off the lattice")
            if sign < 0 and 4 * k % DENOM:
                raise LatticeError("sign phase off the eighth-root lattice")

        def part(k):
            j = 4 * k // DENOM % 8 if sign < 0 else 0
            return (j - 4, -1) if j >= 4 else (j, 1)

        if self.g is None:
            got = self._subs_flat(a_units, part)
            if got is not None:
                return got
        num, den = ([qrat(p.get(j, {})) for j in range(4)]
                    for p in (xp_collapse(x, a_units, part) if x else {}
                              for x in (self.n, self._denominator())))
        if not any(den):
            raise PoleAtSubstitution(
                "substitution hit a denominator zero", not any(num)
            )
        return z8_div(num, den)

    def _subs_flat(self, a_units, part):
        """subs_signed_qpow on the flat form, or None where it declines."""
        units, negate, dq, pole = 0, False, self.dq, False
        for e, m in self.fac.items():
            n = 2 * a_units - e
            if n % Q_DEG:
                return None
            pole = pole or not n
            units += m * min(e, 2 * a_units)
            negate ^= n < 0 and m % 2 == 1
            t = abs(n) // Q_DEG
            dq = multisets.total(dq, {d: m for d in range(1, t + 1)
                                      if not t % d})
        parts = xp_collapse(self.n, a_units, part) if self else {}
        if pole:
            raise PoleAtSubstitution("substitution hit a denominator zero",
                                     not parts)
        out = []
        for j in range(4):
            p = poly_shift(parts.get(j, {}), -units)
            out.append(qrat_over_cyclotomics(poly_neg(p) if negate else p, dq))
        return out

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

        def at(a):
            t = 0j
            for k, c in a.items():
                t += qrat_eval_complex(c, u0) * v0 ** k
            return t

        return at(self.num) / at(self.den)


def _scaled(m, x):
    """m * x for a monomial m = c * v**k * u**e, c rational, which has one
    row and no Dq or Dx, by polys.xp_scaled, or None where that declines.  A
    monomial shares no factor with a binomial, a Phi_d or G, so x's
    denominator stays as it is and the result is canonical as built."""
    n = xp_scaled(m.n, x.n)
    return None if n is None else RationalFunction(n, x.dq, x.fac, x.g)


def rf_sum_vanishes(terms):
    """Whether the sum of sign * prod rfs over the (sign, rfs) `terms`, a
    sign +-1 and a tuple of nonzero RationalFunctions each, is zero.

    Nothing is cancelled: each term's numerator is the product of its
    factors' numerators over the sum of their multisets, the terms over one
    Dq, Dx and multiset of Gs (named by xp_key) are added, and each such
    sum times the factors of the lcm of all the Dq, all the Dx and all the
    multisets of Gs that it lacks is added up.  That lcm is a common
    multiple of the denominators, so the sum of the terms is zero exactly
    when that numerator is."""
    if len(terms) == 1:
        return False
    gs = {}
    parts = {}
    for sign, rfs in terms:
        # a G value's fac is None, which multisets.total takes for empty
        n, dq, fac = rfs[0].n, rfs[0].dq, rfs[0].fac
        for f in rfs[1:]:
            n = xp_mul(n, f.n)
            dq = multisets.total(dq, f.dq)
            fac = multisets.total(fac, f.fac)
        fac = fac or NO_FACTORS
        gk = NO_FACTORS
        for f in rfs:
            if f.g is not None:
                k = xp_key(f.g)
                gs[k] = f.g
                gk = multisets.total(gk, {k: 1})
        if sign < 0:
            n = xp_neg(n)
        key = multisets.key(dq), multisets.key(fac), frozenset(gk.items())
        got = parts.get(key)
        parts[key] = (n, dq, fac, gk) if got is None else (
            xp_add(got[0], n), dq, fac, gk)
    lq = lx = lg = NO_FACTORS
    for _, dq, fac, gk in parts.values():
        lq = multisets.lcm(lq, dq)
        lx = multisets.lcm(lx, fac)
        lg = multisets.lcm(lg, gk)
    total = XN_ZERO
    for n, dq, fac, gk in parts.values():
        if n:
            n = xp_binoms_mul(xp_qtimes(n, multisets.minus(lq, dq)),
                              multisets.minus(lx, fac))
            for k, m in multisets.minus(lg, gk).items():
                for _ in range(m):
                    n = xp_mul(n, gs[k])
            total = xp_add(total, n)
    return not total


RF_ZERO = RationalFunction(XN_ZERO, NO_FACTORS, NO_FACTORS)
RF_ONE = RationalFunction(XN_ONE, NO_FACTORS, NO_FACTORS)


def ratfn(num, den=None):
    """The canonical RationalFunction num/den of two nested XPolys; den
    defaults to 1.  Each is summed from its terms, and num divided by den."""
    if not num:
        return RF_ZERO

    def summed(a):
        return sum((rf_const(c) * rf_xpow_units(k) for k, c in a.items()),
                   RF_ZERO)

    return summed(num) if den is None else summed(num) / summed(den)


def rf_product(k, num, dq, binoms):
    """The RationalFunction v**k * num * prod (y - u**e)**m / dq over the
    items e: m of the signed multiset `binoms`, for a nonzero QPoly num
    that no factor of the cyclotomic multiset dq divides.

    The positive binomials are multiplied into N and the negative ones are
    Dx; distinct binomials share no root, so N is coprime to Dx, and the
    top row of N in y is num, so Dq is minimal.  The pair is canonical as
    built unless the rows could share part of a factor of Dq (xp_qsafe);
    then it goes to _general.
    """
    up = {e: m for e, m in binoms.items() if m > 0}
    fac = {e: -m for e, m in binoms.items() if m < 0}
    return _reduce_q(xp_binoms_mul(xp_from_terms({k: num}), up), dq, fac,
                     NO_FACTORS, dq)


def rf_const(qr):
    if not qr:
        return RF_ZERO
    n = xp_from_terms({0: qr.num})
    if qr.fac is None:
        return _general(n, XN_ONE, XN_ONE, xp_from_terms({0: qr.den}))
    return RationalFunction(n, qr.fac, NO_FACTORS)


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
