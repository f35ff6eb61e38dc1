"""Layered exact Laurent-polynomial arithmetic and its canonical fractions.

A Laurent polynomial is a dict mapping integer exponents to nonzero
coefficients; poly_add, poly_neg, poly_sub, poly_shift and poly_strip serve
every level.  Level one: a QPoly is a Laurent polynomial in u = q**(1/D) with
int, Fraction or Cyclo coefficients.  Integral rationals are stored as int
where they are made (see coeffs.py), so integer polynomials multiply in int
arithmetic; an integral Fraction that slips through is still correct, because
equal values compare and hash equal whatever their type.  Level two: a QRat
is a canonical fraction of two QPolys.  Level three: an XPoly is a Laurent
polynomial in v = x**(1/D) with QRat coefficients, and a RationalFunction
(ratfunc.py) is a canonical fraction of two XPolys.

Both fraction levels are one class, CanonicalFraction, which holds their
arithmetic once.  A level supplies only what differs: its polynomial product
and scale, its polynomial one, its coefficient one and the inverse of a
coefficient, its factor alphabet, how it factors a denominator and cancels
factors from a numerator, and its gcd.  Fractions of different levels do not
mix.

Canonical form of a fraction: numerator and denominator coprime (monic
Euclidean gcd on the unit-stripped parts), denominator with minimum exponent
zero and leading coefficient one.  Structural equality is then value
equality, which is what every verifier in this package leans on.

Both levels keep the denominators the package builds factored, as multisets
of irreducible factors (multisets.py), and cancel by exact division by the
factors that can cancel:
- q level: the cyclotomic polynomials Phi_d(Q) in Q = q**2 = u**8, since
  q-integers, q-factorials and q - 1/q are monomials times products of them.
  A numerator that is a polynomial in u**8 shares with Phi_d(u**8) either
  all of it or nothing, wherever Phi_d(Q) stays irreducible over the
  numerator's coefficients (over Q always, over Q(z8) unless 4 divides d).
- x level: the binomials y - u**e in y = x**2 = v**8, which the x-brackets
  x q**c - x**-1 q**-c put into every x-denominator.  Each is linear in y.
  A GF(p) image at a fixed point rules a binomial out, and exact synthetic
  division rules it in (the binomial kit below).
Both rest on deflation: when k divides every exponent of two polynomials,
they are A(t**k) and B(t**k), and their gcd is gcd(A, B)(t**k), because
Euclid on A and B and Euclid on A(t**k) and B(t**k) take the same steps.

The gcds qp_gcd and xp_gcd are the fallback only: for a numerator that is
no polynomial in u**8 (in y), a Cyclo numerator against a factor Phi_d with
4 | d, or a denominator that is no product of the factors.  No manifest
entry and no GNF or recoupling check of the benchmark reaches either.  Both
deflate first (at the x level the u of integer rows too, which is sound
because u -> u**k embeds Q(u) in itself).  Then they map the operands into
GF(p) for p = 998244353, a prime with p = 1 mod 8 so the eighth-root
coefficients embed (3 is a primitive root, hence pow(3, (p-1)//8, p) has
order eight).  If the images keep their degrees, the degree of their gcd is
an upper bound on the degree of the exact gcd, and a bound of zero proves the
operands coprime.  At the x level, when both operands have integer
coefficients in Z[u^+-1][v], a candidate is then computed by GCDHEU (Char,
Geddes and Gonnet 1989) from integer gcds and kept only if its degree meets
that bound and it divides both operands exactly; it decides the integer
operands on which Euclid over Q(u) swells.  Every other outcome runs Euclid
over the coefficient field.  The q level has no GCDHEU stage: no check of
the package reaches qp_gcd, and the one kind of operand the factored path is
known to send there, a Cyclo numerator against Phi_d with 4 | d, is outside
GCDHEU's integers anyway.  The monic gcd is unique, so neither the factored
path, the deflation nor the shortcuts can change a result, only the time it
takes.  Every gcd returns its cofactors too, so callers never divide twice.
"""

import math
import zlib
from fractions import Fraction
from itertools import chain

from . import multisets
from .coeffs import Cyclo, coeff_mod, coeff_to_complex, demote
from .lattice import DENOM, LatticeError
from .multisets import NO_FACTORS, Alphabet

_F1 = Fraction(1)

_P = 998244353
_Z8 = pow(3, (_P - 1) // 8, _P)

QP_ZERO = {}
QP_ONE = {0: 1}


# ---------------------------------------------------- Laurent polynomials ----


def poly_add(a, b):
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def poly_neg(a):
    return {e: -c for e, c in a.items()}


def poly_sub(a, b):
    if not b:
        return a
    return poly_add(a, poly_neg(b))


def poly_shift(a, s):
    if not s:
        return a
    return {e + s: c for e, c in a.items()}


def poly_strip(a):
    """(min-exponent-zero copy, stripped exponent)."""
    s = min(a)
    if s:
        return {e - s: c for e, c in a.items()}, s
    return a, 0


# ---------------------------------------------------------------- QPoly ----


def qp_const(c):
    c = demote(c)
    return {0: c} if c else {}


def qp_scale(a, c):
    if not c:
        return QP_ZERO
    if c == 1:
        return a
    c = demote(c)
    if type(c) is Fraction:
        # a Fraction times an integer may be integral
        return {e: demote(v * c) for e, v in a.items()}
    return {e: v * c for e, v in a.items()}


def qp_mul(a, b):
    if not a or not b:
        return QP_ZERO
    if len(a) == 1:
        (e, c), = a.items()
        return poly_shift(qp_scale(b, c), e)
    if len(b) == 1:
        (e, c), = b.items()
        return poly_shift(qp_scale(a, c), e)
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            t = ca * cb
            s = out.get(e)
            if s is None:
                out[e] = t
            else:
                s = s + t
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def qp_divmod(a, b):
    # ordinary polynomials, b nonzero
    if not b:
        raise ZeroDivisionError("q-polynomial division by zero")
    db = max(b)
    inv_lb = _F1 / b[db]
    r = dict(a)
    q = {}
    while r:
        dr = max(r)
        if dr < db:
            break
        f = demote(r[dr] * inv_lb)
        k = dr - db
        q[k] = f
        for e, c in b.items():
            t = e + k
            s = r.get(t)
            if s is None:
                r[t] = -c * f
            else:
                s = s - c * f
                if s:
                    r[t] = s
                else:
                    del r[t]
    return q, r


def qp_div_exact(a, b):
    q, r = qp_divmod(a, b)
    if r:
        raise ArithmeticError("inexact q-polynomial division")
    return q


def qp_monic(a):
    lead = a[max(a)]
    if lead == 1:
        return a
    return qp_scale(a, _F1 / lead)


def _qp_mod(a):
    out = {}
    for e, c in a.items():
        m = coeff_mod(c, _P, _Z8)
        if m:
            out[e] = m
    return out


def _gfp_mod(a, b):
    db = max(b)
    inv = pow(b[db], -1, _P)
    r = dict(a)
    while r:
        dr = max(r)
        if dr < db:
            break
        f = r[dr] * inv % _P
        for e, c in b.items():
            t = e + dr - db
            s = (r.get(t, 0) - c * f) % _P
            if s:
                r[t] = s
            else:
                r.pop(t, None)
    return r


def _gfp_gcd(a, b):
    # a gcd over GF(p), not normalized; a nonzero
    while b:
        a, b = b, _gfp_mod(a, b)
    return a


def _qp_image_gcd_degree(a0, b0):
    # degree of the gcd of the GF(p) images when both keep their degrees, an
    # upper bound on the exact gcd degree; None if a degree drops
    try:
        am = _qp_mod(a0)
        bm = _qp_mod(b0)
    except ZeroDivisionError:
        return None
    if not am or not bm or max(am) != max(a0) or max(bm) != max(b0):
        return None
    return max(_gfp_gcd(am, bm))


def qp_gcd(a, b):
    """(g, a0/g, b0/g): the monic gcd g of the unit-stripped parts a0, b0 of
    two nonzero QPolys, and the cofactors.

    With k the gcd of all exponents, a0 = A(u**k) and b0 = B(u**k), and the
    gcd is gcd(A, B)(u**k); so the stages run on A and B, and the gcd and
    cofactors are inflated by k on the way out.  Two stages, the first that
    decides wins:
    1. The GF(p) image gcd, when both images keep their degrees.  Degree 0
       proves the operands coprime.
    2. Euclid over Q(z8), then exact division for the cofactors.
    """
    a0, _ = poly_strip(a)
    b0, _ = poly_strip(b)
    if len(a0) == 1 or len(b0) == 1:
        return QP_ONE, a0, b0
    k, (a1, b1) = _deflate((a0, b0))
    if _qp_image_gcd_degree(a1, b1) == 0:
        return QP_ONE, a0, b0
    x, y = a1, b1
    while y:
        x, y = y, qp_divmod(x, y)[1]
    g = qp_monic(x)
    if len(g) == 1:
        return QP_ONE, a0, b0
    qa, qb = qp_div_exact(a1, g), qp_div_exact(b1, g)
    return _inflate(g, k), _inflate(qa, k), _inflate(qb, k)


def qp_eval_complex(a, u0):
    t = 0j
    for e, c in a.items():
        t += coeff_to_complex(c) * u0 ** e
    return t


# ---------------------------------------------------------- cyclotomics ----
#
# The factor d is the cyclotomic polynomial Phi_d(Q) in Q = q**2 = u**Q_DEG.
# Phi_d is irreducible over Q, and q-integers, q-factorials and q - 1/q are
# monomials times products of them:
#     [n] = q**-(n-1) * prod(Phi_d(q**2), d | n, d > 1),
#     q - 1/q = q**-1 * Phi_1(q**2).
# Polynomials in Q are handled dense here, as lists of coefficients from
# Q**0 up.

Q_DEG = 2 * DENOM

_PHI = {}  # d -> (dense Phi_d, its nonzero coefficients below the top)
_PHI_U = {}  # d -> Phi_d(u**Q_DEG) as a QPoly


def _dense_div(t, phi):
    """t / Phi_d for a dense polynomial t, or None if Phi_d does not divide
    t; `phi` is a value of _PHI.  Synthetic division by a monic divisor, so
    integer coefficients stay integers."""
    c, low = phi
    k = len(c) - 1
    top = len(t) - 1 - k
    if top < 0:
        return None
    r = list(t)
    for i in range(top, -1, -1):
        f = r[i + k]
        if f:
            for j, cj in low:
                r[i + j] -= f * cj
    if any(r[:k]):
        return None
    return r[k:]


def cyclotomic(d):
    """(dense Phi_d(Q), [(j, c_j) for its nonzero c_j with j < deg]), cached."""
    got = _PHI.get(d)
    if got is None:
        # Q**d - 1 is the product of Phi_e(Q) over the divisors e of d
        t = [-1] + [0] * (d - 1) + [1]
        for e in range(1, d):
            if d % e == 0:
                t = _dense_div(t, cyclotomic(e))
        got = _PHI[d] = (t, [(j, c) for j, c in enumerate(t[:-1]) if c])
    return got


def _phi_u(d):
    got = _PHI_U.get(d)
    if got is None:
        got = _PHI_U[d] = _q_sparse(cyclotomic(d)[0])
    return got


def _q_dense(t0):
    """t0, a QPoly with minimum exponent 0, as a dense list in Q, or None
    unless every exponent is a multiple of Q_DEG."""
    top = max(t0)
    if top % Q_DEG:
        return None
    out = [0] * (top // Q_DEG + 1)
    for e, c in t0.items():
        if e % Q_DEG:
            return None
        out[e // Q_DEG] = c if type(c) is int else demote(c)
    return out


def _q_sparse(t, s=0):
    # the QPoly u**s * t(u**Q_DEG) of a dense list t
    return {Q_DEG * i + s: c if type(c) is int else demote(c)
            for i, c in enumerate(t) if c}


def _totient(d):
    out, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _max_index(n):
    """An upper bound on every d with totient(d) <= n, the degree of Phi_d.

    totient(d) > d / (e**gamma * log log d + 3 / log log d) for d >= 3
    (Rosser and Schoenfeld 1962), and the right side grows with d from 30 on.
    """
    d = 30
    while d / (1.7811 * math.log(math.log(d)) + 3 / math.log(math.log(d))) <= n:
        d += d // 8
    return d


def _factor(d0):
    """The multiset {d: m} with d0 = prod Phi_d(u**Q_DEG)**m, or None.

    d0 is monic with minimum exponent 0.  Trial division in increasing d,
    over every d whose Phi_d is not longer than the quotient left, until the
    quotient is 1.  A product of cyclotomic polynomials is its own reverse
    up to sign, which rules most other polynomials out at once.
    """
    if len(d0) == 1:
        return NO_FACTORS
    t = _q_dense(d0)
    if (t is None or any(type(c) is not int for c in t)
            or (t[::-1] != t and t[::-1] != [-c for c in t])):
        return None
    fac = {}
    limit = _max_index(len(t) - 1)
    d = 1
    while len(t) > 1:
        if d > limit:
            return None
        if _totient(d) < len(t):
            phi = cyclotomic(d)
            q = _dense_div(t, phi)
            while q is not None:
                t = q
                fac[d] = fac.get(d, 0) + 1
                q = _dense_div(t, phi)
        d += 1
    return fac


def _cancel(t, fac):
    """(t / g, g) for g the largest product of cyclotomic factors from the
    multiset `fac` that divides t, with g as a multiset; None if t is not,
    after stripping, a polynomial in u**Q_DEG, or if a factor of `fac` may
    split over the coefficients of t.

    Then the gcd of t with Phi_d(u**Q_DEG) is the gcd of the deflated t with
    Phi_d(Q), inflated again (module docstring).  Phi_d(Q) is irreducible
    over Q, and over Q(z8) unless 4 divides d (Q(z8) meets the field of the
    d-th roots of unity in the field of the gcd(d, 8)-th ones); so where it
    is irreducible that gcd is Phi_d(u**Q_DEG) or 1, and exact division
    decides.
    """
    t0, st = poly_strip(t)
    if len(t0) == 1:
        return t, NO_FACTORS
    dense = _q_dense(t0)
    if dense is None or (any(d % 4 == 0 for d in fac)
                         and any(type(c) is Cyclo for c in dense)):
        return None
    removed = {}
    for d, m in fac.items():
        phi = cyclotomic(d)
        k = 0
        while k < m:
            q = _dense_div(dense, phi)
            if q is None:
                break
            dense = q
            k += 1
        if k:
            removed[d] = k
    if not removed:
        return t, NO_FACTORS
    return _q_sparse(dense, st), removed


# QPolys times cyclotomic factors, and expanded q-denominators
CYCLOTOMICS = Alphabet(QP_ONE, lambda p, d: qp_mul(p, _phi_u(d)))


# --------------------------------------------------- canonical fractions ----


class CanonicalFraction:
    """Canonical fraction num/den of two Laurent polynomials of one level.

    A denominator that is a product of the level's factors is stored as the
    multiset `fac` {factor: multiplicity} and expanded on demand; any other
    denominator is stored expanded, with `fac` None.  Factorization is
    unique, so equal values have equal `fac` and `num`.

    A level is a subclass that sets ZERO and ONE, and:
    - `_mul(a, b)` and `_scale(a, c)`, its polynomial product and its
      product with a coefficient, and `_poly_one`, its polynomial 1;
    - `_coeff_one` and `_coeff_inverse(c)`, its coefficient 1 and inverse;
    - `_alphabet`, the Alphabet of its factors;
    - `_factor(d)`, the multiset of a monic, min-exponent-zero denominator,
      or None if it is no product of the factors;
    - `_cancel(t, fac)`, (t / g, g) for the largest product g of factors
      from `fac` that divides t, or None if the factored path cannot decide;
    - `_gcd(a, b)`, its gcd with cofactors, for the generic path.
    """

    __slots__ = ("num", "fac", "_den")

    def __init__(self, num, fac, den=None):
        # raw constructor: callers guarantee canonical form, and pass the
        # denominator exactly when fac is None
        self.num = num
        self.fac = fac
        self._den = den

    @property
    def den(self):
        if self._den is None:
            self._den = self._alphabet.expand(self.fac)
        return self._den

    def __bool__(self):
        return bool(self.num)

    # fractions of different levels are different types, and never mix
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.fac is None or other.fac is None:
            return (self.fac is other.fac and self.num == other.num
                    and self._den == other._den)
        return self.fac == other.fac and self.num == other.num

    def __hash__(self):
        return hash((
            frozenset(self.num.items()),
            multisets.key(self.fac) if self.fac is not None
            else frozenset(self._den.items()),
        ))

    def __neg__(self):
        if not self.num:
            return self
        return type(self)(poly_neg(self.num), self.fac, self._den)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        fa, fb = self.fac, other.fac
        if fa == NO_FACTORS == fb:
            t = poly_add(self.num, other.num)
            return type(self)(t, NO_FACTORS) if t else self.ZERO
        if fa is not None and fb is not None:
            got = self._add_factored(self.num, fa, other.num, fb)
            if got is not None:
                return got
        return self._add_generic(self.num, self.den, other.num, other.den)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not self.num or not other.num:
            return self.ZERO
        if self is self.ONE:
            return other
        if other is self.ONE:
            return self
        fa, fb = self.fac, other.fac
        if fa == NO_FACTORS == fb:
            return type(self)(self._mul(self.num, other.num), NO_FACTORS)
        if fa is not None and fb is not None:
            got = self._mul_factored(self.num, fa, other.num, fb)
            if got is not None:
                return got
        return self._mul_generic(self.num, self.den, other.num, other.den)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero fraction")
        n0, s = poly_strip(self.num)
        den = self.den
        lead = n0[max(n0)]
        if lead != self._coeff_one:
            inv = self._coeff_inverse(lead)
            n0 = self._scale(n0, inv)
            den = self._scale(den, inv)
        return self._from_parts(poly_shift(den, -s), n0)

    def __truediv__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self * other.inverse()

    # ---------------------------------------------------- factored path

    def _add_factored(self, na, fa, nb, fb):
        """na/fa + nb/fb, or None if _cancel declines the sum.  Only factors
        of equal multiplicity in fa and fb can cancel from it."""
        if fa == fb:
            t = poly_add(na, nb)
            if not t:
                return self.ZERO
            tied = lcm = fa
        else:
            common = multisets.common(fa, fb)
            times = self._alphabet.times
            t = poly_add(times(na, multisets.minus(fb, common)),
                         times(nb, multisets.minus(fa, common)))
            if not t:
                return self.ZERO
            tied = multisets.tied(fa, fb)
            lcm = multisets.lcm(fa, fb)
        if not tied:
            return type(self)(t, lcm)
        got = self._cancel(t, tied)
        if got is None:
            return None
        t, removed = got
        return type(self)(t, multisets.minus(lcm, removed))

    def _mul_factored(self, na, fa, nb, fb):
        """(na/fa) * (nb/fb), or None if _cancel declines a numerator.  Each
        numerator can only cancel the other's factors."""
        if fb:
            got = self._cancel(na, fb)
            if got is None:
                return None
            na, removed = got
            fb = multisets.minus(fb, removed)
        if fa:
            got = self._cancel(nb, fa)
            if got is None:
                return None
            nb, removed = got
            fa = multisets.minus(fa, removed)
        return type(self)(self._mul(na, nb), multisets.total(fa, fb))

    @classmethod
    def _from_parts(cls, num, den):
        """The fraction num/den of a canonical pair."""
        fac = cls._factor(den)
        if fac is None:
            return cls(num, None, den)
        return cls(num, fac)

    # ----------------------------------------------------- generic path
    #
    # An operand whose denominator is no product of the level's factors, or
    # a numerator that _cancel declines.  It cancels by the level's gcd, and
    # its result is factored again.

    def _add_generic(self, na, da, nb, db):
        mul = self._mul
        if da == db:
            t = poly_add(na, nb)
            if not t:
                return self.ZERO
            t0, st = poly_strip(t)
            _, t0, d = self._gcd(t0, da)
            return self._from_parts(poly_shift(t0, st), d)
        if da == self._poly_one:
            return self._from_parts(poly_add(mul(na, db), nb), db)
        if db == self._poly_one:
            return self._from_parts(poly_add(mul(nb, da), na), da)
        g, b1, d1 = self._gcd(da, db)
        t = poly_add(mul(na, d1), mul(nb, b1))
        if not t:
            return self.ZERO
        if max(g) > 0:
            t0, st = poly_strip(t)
            _, t0, g = self._gcd(t0, g)
            t = poly_shift(t0, st)
        return self._from_parts(t, mul(mul(g, b1), d1))

    def _mul_generic(self, na, da, nb, db):
        na0, sa = poly_strip(na)
        nb0, sb = poly_strip(nb)
        if db != self._poly_one:
            _, na0, db = self._gcd(na0, db)
        if da != self._poly_one:
            _, nb0, da = self._gcd(nb0, da)
        return self._from_parts(poly_shift(self._mul(na0, nb0), sa + sb),
                                self._mul(da, db))

    # -------------------------------------------------------- factories

    @classmethod
    def canonical(cls, num, den=None):
        """The canonical fraction num/den of two polynomials of the level;
        den defaults to 1."""
        if not num:
            return cls.ZERO
        if den is None:
            den = cls._poly_one
        elif not den:
            raise ZeroDivisionError("zero denominator")
        n0, sn = poly_strip(num)
        d0, sd = poly_strip(den)
        lead = d0[max(d0)]
        if lead != cls._coeff_one:
            inv = cls._coeff_inverse(lead)
            n0 = cls._scale(n0, inv)
            d0 = cls._scale(d0, inv)
        fac = cls._factor(d0)
        if fac is not None:
            got = cls._cancel(n0, fac) if fac else (n0, NO_FACTORS)
            if got is not None:
                n0, removed = got
                return cls(poly_shift(n0, sn - sd),
                           multisets.minus(fac, removed))
        if len(n0) > 1 and len(d0) > 1:
            _, n0, d0 = cls._gcd(n0, d0)
        return cls._from_parts(poly_shift(n0, sn - sd), d0)

    @classmethod
    def over_factors(cls, num, fac):
        """The canonical fraction num / (the product of the multiset `fac`
        of the level's factors)."""
        if not num:
            return cls.ZERO
        got = cls._cancel(num, fac) if fac else (num, NO_FACTORS)
        if got is None:
            return cls.canonical(num, cls._alphabet.times(cls._poly_one, fac))
        num, removed = got
        return cls(num, multisets.minus(fac, removed))


# ----------------------------------------------------------------- QRat ----


class QRat(CanonicalFraction):
    """Canonical fraction of Laurent polynomials in u = q**(1/D), whose
    factors are the cyclotomic polynomials Phi_d(q**2), named by d."""

    __slots__ = ()

    _mul = staticmethod(qp_mul)
    _scale = staticmethod(qp_scale)
    _poly_one = QP_ONE
    _coeff_one = 1
    _alphabet = CYCLOTOMICS
    _factor = staticmethod(_factor)
    _cancel = staticmethod(_cancel)

    @staticmethod
    def _coeff_inverse(c):
        return _F1 / c  # 1 / int would be a float

    @staticmethod
    def _gcd(a, b):
        # resolved at call time, so that a replaced qp_gcd sees every call
        return qp_gcd(a, b)

    def __repr__(self):
        return "QRat(%r, %r)" % (self.num, self.den)


QRAT_ZERO = QRat.ZERO = QRat(QP_ZERO, NO_FACTORS)
QRAT_ONE = QRat.ONE = QRat(QP_ONE, NO_FACTORS)

qrat = QRat.canonical
qrat_over_cyclotomics = QRat.over_factors


def qrat_const(c):
    n = qp_const(c)
    return QRat(n, NO_FACTORS) if n else QRAT_ZERO


def qrat_qpow(units):
    return QRat({units: 1}, NO_FACTORS)


def qrat_scale(qr, c):
    """qr times a nonzero bare coefficient."""
    if not qr.num:
        return QRAT_ZERO
    return QRat(qp_scale(qr.num, c), qr.fac, qr._den)


def qrat_monomial_mul(qr, s):
    if not s or not qr.num:
        return qr
    return QRat(poly_shift(qr.num, s), qr.fac, qr._den)


def qrat_eval_complex(qr, u0):
    return qp_eval_complex(qr.num, u0) / qp_eval_complex(qr.den, u0)


# ---------------------------------------------------------------- XPoly ----


XP_ZERO = {}
XP_ONE = {0: QRAT_ONE}


def xp_scale(a, qr):
    if not qr:
        return XP_ZERO
    if qr is QRAT_ONE:
        return a
    return {k: c * qr for k, c in a.items()}


def xp_mul(a, b):
    if not a or not b:
        return XP_ZERO
    if len(a) == 1:
        (k, c), = a.items()
        return poly_shift(xp_scale(b, c), k)
    if len(b) == 1:
        (k, c), = b.items()
        return poly_shift(xp_scale(a, c), k)
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            t = ca * cb
            s = out.get(k)
            if s is None:
                out[k] = t
            else:
                s = s + t
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def xp_divmod(a, b):
    if not b:
        raise ZeroDivisionError("x-polynomial division by zero")
    db = max(b)
    inv_lb = b[db].inverse()
    r = dict(a)
    q = {}
    while r:
        dr = max(r)
        if dr < db:
            break
        f = r[dr] * inv_lb
        k = dr - db
        q[k] = f
        for e, c in b.items():
            t = e + k
            s = r.get(t)
            if s is None:
                r[t] = -(c * f)
            else:
                s = s - c * f
                if s:
                    r[t] = s
                else:
                    del r[t]
    return q, r


def xp_div_exact(a, b):
    q, r = xp_divmod(a, b)
    if r:
        raise ArithmeticError("inexact x-polynomial division")
    return q


def xp_monic(a):
    lead = a[max(a)]
    if lead is QRAT_ONE or lead == QRAT_ONE:
        return a
    return xp_scale(a, lead.inverse())


def _qp_eval_mod(a, pw, lo):
    # a(u0) in GF(p), given pw[e - lo] = u0**e for every exponent e of a
    row = _qp_to_zu(a)
    if row is None:
        row = _qp_mod(a)
    t = 0
    for e, c in row.items():
        t += c * pw[e - lo]
    return t % _P


def _xp_eval_mod(a, pw, lo):
    # the image of a in GF(p)[v] at u = u0, given pw as for _qp_eval_mod
    out = {}
    for k, qr in a.items():
        m = _qp_eval_mod(qr.num, pw, lo)
        if qr.fac != NO_FACTORS:
            d = _qp_eval_mod(qr.den, pw, lo)
            if d == 0:
                raise ZeroDivisionError("denominator vanished at filter point")
            m = m * pow(d, -1, _P) % _P
        if m:
            out[k] = m
    return out


def _xp_image_point(a0, b0, attempt):
    """A point u0 in [2, p - 2] that depends only on the operands and the
    attempt number, so that the image of a gcd, and every count it feeds,
    does not depend on the calls made before it."""
    text = repr([attempt] + [
        sorted((k, sorted(qr.num.items()), sorted(qr.den.items()))
               for k, qr in a.items())
        for a in (a0, b0)
    ])
    return 2 + zlib.crc32(text.encode()) % (_P - 3)


def _xp_image_gcd_degree(a0, b0):
    # v-degree of the gcd of the GF(p) images at a point u0 that keeps both
    # leading degrees, an upper bound on the exact gcd degree; None if no
    # point tried works
    da, db = max(a0), max(b0)
    nums = [qr.num for p in (a0, b0) for qr in p.values()]
    dens = [qr.den for p in (a0, b0) for qr in p.values()]
    lo = min(0, min(map(min, nums)))
    hi = max(max(map(max, nums)), max(map(max, dens)))
    for attempt in range(2):
        u0 = _xp_image_point(a0, b0, attempt)
        pw = [pow(u0, lo, _P)]
        for _ in range(hi - lo):
            pw.append(pw[-1] * u0 % _P)
        try:
            am = _xp_eval_mod(a0, pw, lo)
            bm = _xp_eval_mod(b0, pw, lo)
        except ZeroDivisionError:
            continue
        if not am or not bm or max(am) != da or max(bm) != db:
            continue
        return max(_gfp_gcd(am, bm))
    return None


# Z[u][v] is a dict of v-exponents to Z[u] rows, and a Z[u] row is a dict of
# nonnegative u-exponents to nonzero ints.  A QPoly with int coefficients is
# a Z[u] row as it stands, so qp_mul and poly_sub serve the rows and a row is
# returned as a QPoly unchanged.


def _qp_to_zu(a):
    # a as a Z[u] row, or None unless every coefficient is an integer
    if set(map(type, a.values())) == {int}:
        return a
    row = {}
    for e, c in a.items():
        if type(c) is int:
            row[e] = c
        elif type(c) is Fraction and c.denominator == 1:
            row[e] = c.numerator
        else:
            return None
    return row


def _xp_to_zuv(a0):
    """(A, s) with a0 = u**s * A and A in Z[u][v], or None if a0 is not
    an integer Laurent polynomial in u."""
    rows = {}
    for k, qr in a0.items():
        if qr.fac != NO_FACTORS:
            return None
        row = _qp_to_zu(qr.num)
        if row is None:
            return None
        rows[k] = row
    s = min(min(row) for row in rows.values())
    if s:
        rows = {k: poly_shift(row, -s) for k, row in rows.items()}
    return rows, s


def _zu_eval(row, powers):
    return sum(c * powers[e] for e, c in row.items())


def _powers(xi, n):
    out = [1]
    for _ in range(n):
        out.append(out[-1] * xi)
    return out


def _xi_adic(n, xi):
    # the digits of n in base xi, each in (-xi/2, xi/2], as a sparse dict
    out = {}
    half = xi // 2
    e = 0
    while n:
        n, c = divmod(n, xi)
        if c > half:
            c -= xi
            n += 1
        if c:
            out[e] = c
        e += 1
    return out


def _xi_norm(a, b):
    # the usual first GCDHEU point for two Z[u] rows
    return 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29


def _zu_heu_step(a, b, xi):
    # the primitive part of the xi-adic rebuild of gcd(a(xi), b(xi))
    p = _powers(xi, max(max(a), max(b)))
    g = _xi_adic(math.gcd(_zu_eval(a, p), _zu_eval(b, p)), xi)
    content = math.gcd(*g.values())
    return {e: c // content for e, c in g.items()}


def _gcdheu(a, b):
    """Candidate gcds of a and b in Z[u][v] by two-level GCDHEU.

    Evaluate u at an integer, run one GCDHEU step in v on the values, and
    rebuild every coefficient of the result by symmetric xi-adic expansion
    in u.  The v-point gets spare bits above the usual 2*norm + 29 to absorb
    integer factors that the cofactor values share by chance.  Each of six
    attempts grows both points; a candidate is only a guess until it is
    verified.
    """
    du = max(max(row) for p in (a, b) for row in p.values())
    norm = min(max(abs(c) for row in p.values() for c in row.values())
               for p in (a, b))
    xi_u = 2 * norm + 29
    spare = 32
    for _ in range(6):
        pu = _powers(xi_u, du)
        a1 = {k: _zu_eval(row, pu) for k, row in a.items()}
        b1 = {k: _zu_eval(row, pu) for k, row in b.items()}
        g1 = _zu_heu_step(a1, b1, _xi_norm(a1, b1) << spare)
        yield {k: _xi_adic(c, xi_u) for k, c in g1.items()}
        xi_u = xi_u * 73794 // 27011
        spare *= 2


def _zu_div_exact(a, b):
    # a / b in Z[u], or None if b does not divide a there
    db = max(b)
    lb = b[db]
    r = dict(a)
    q = {}
    while r:
        dr = max(r)
        if dr < db:
            return None
        f, m = divmod(r[dr], lb)
        if m:
            return None
        k = dr - db
        q[k] = f
        for e, c in b.items():
            t = e + k
            s = r.get(t, 0) - c * f
            if s:
                r[t] = s
            else:
                r.pop(t, None)
    return q


def _zuv_div_exact(a, b):
    # a / b in Z[u][v], or None if b does not divide a there
    db = max(b)
    lb = b[db]
    r = dict(a)
    q = {}
    while r:
        dr = max(r)
        if dr < db:
            return None
        f = _zu_div_exact(r[dr], lb)
        if f is None:
            return None
        k = dr - db
        q[k] = f
        for e, c in b.items():
            t = e + k
            s = poly_sub(r.get(t, QP_ZERO), qp_mul(c, f))
            if s:
                r[t] = s
            else:
                r.pop(t, None)
    return q


def _deflate(polys):
    """(k, [P, ...]) with every p = P(t**k) for the largest such k.

    Each of the dicts `polys` maps exponents of t to coefficients; k is the
    gcd of all their exponents, or 1 if every exponent is zero.
    """
    k = math.gcd(*chain.from_iterable(polys)) or 1
    if k > 1:
        polys = [{e // k: c for e, c in p.items()} for p in polys]
    return k, polys


def _inflate(p, k, s=0):
    # the dict t**s * p(t**k), undoing _deflate
    if s == 0 and k == 1:
        return p
    return {k * e + s: c for e, c in p.items()}


def _xp_gcd_heuristic(a0, b0, degree):
    """(g, a0/g, b0/g) from the first GCDHEU candidate of v-degree `degree`
    that divides both operands exactly (stage 2 of xp_gcd), or None."""
    a = _xp_to_zuv(a0)
    b = _xp_to_zuv(b0)
    if a is None or b is None:
        return None
    (a, sa), (b, sb) = a, b
    # the rows are polynomials in u**ku, and u -> u**ku embeds Q(u) in
    # itself, so the gcd of the deflated operands gives the gcd
    ku, rows = _deflate([*a.values(), *b.values()])
    a, b = dict(zip(a, rows)), dict(zip(b, rows[len(a):]))
    for g in _gcdheu(a, b):
        if not g or max(g) != degree:
            continue
        qa = _zuv_div_exact(a, g)
        qb = _zuv_div_exact(b, g) if qa is not None else None
        if qb is None:
            continue
        # a0 = u**sa * (g * qa)(u**ku), and the monic gcd is g / lc(g)
        lead = g[degree]
        den = _inflate(lead, ku)
        return (
            {k: qrat(_inflate(row, ku), den) for k, row in g.items()},
            {k: QRat(_inflate(qp_mul(lead, row), ku, sa), NO_FACTORS)
             for k, row in qa.items()},
            {k: QRat(_inflate(qp_mul(lead, row), ku, sb), NO_FACTORS)
             for k, row in qb.items()},
        )
    return None


def xp_gcd(a, b):
    """(g, a0/g, b0/g): the monic gcd g of the unit-stripped parts a0, b0 of
    two nonzero XPolys, and the cofactors.

    With kv the gcd of all v-exponents, a0 = A(v**kv) and b0 = B(v**kv), and
    the gcd is gcd(A, B)(v**kv); so the stages run on A and B, every degree
    they compare is a degree in v**kv, and the gcd and cofactors are
    inflated by kv on the way out.  Three stages, the first that decides
    wins:
    1. The GF(p) image gcd at a point that keeps both leading degrees.  Its
       degree d bounds the exact gcd degree from above, and d = 0 proves the
       operands coprime.
    2. If every coefficient is an integer Laurent polynomial in u, GCDHEU
       candidates G in Z[u][v], with u**ku for u when ku divides every
       u-exponent of the rows (u -> u**ku embeds Q(u) in itself, so the gcd
       over Q(u) is unchanged).  A candidate of v-degree d that divides both
       operands exactly is a common divisor of the largest possible degree,
       hence the gcd up to a unit of Q(u); G / lc(G) is the monic gcd and
       the division quotients give the cofactors.
    3. Euclid over Q(u), then exact division for the cofactors.
    """
    a0, _ = poly_strip(a)
    b0, _ = poly_strip(b)
    if len(a0) == 1 or len(b0) == 1:
        return XP_ONE, a0, b0
    k, (a1, b1) = _deflate((a0, b0))
    degree = _xp_image_gcd_degree(a1, b1)
    if degree == 0:
        return XP_ONE, a0, b0
    found = _xp_gcd_heuristic(a1, b1, degree) if degree is not None else None
    if found is None:
        x, y = a1, b1
        while y:
            x, y = y, xp_divmod(x, y)[1]
        g = xp_monic(x)
        if len(g) == 1:
            return XP_ONE, a0, b0
        found = g, xp_div_exact(a1, g), xp_div_exact(b1, g)
    g, qa, qb = found
    return _inflate(g, k), _inflate(qa, k), _inflate(qb, k)


def xp_eval_complex(a, u0, v0):
    t = 0j
    for k, c in a.items():
        t += qrat_eval_complex(c, u0) * v0 ** k
    return t


# ------------------------------------------------------------- binomials ----
#
# The binomial e is y - u**e, with y = x**2 = v**Y_DEG.  It is linear in y,
# hence irreducible, and every x-denominator the package builds is a product
# of such binomials (ratfunc.py).

Y_DEG = 2 * DENOM

# a primitive root of _P: u0**e takes a different value for every exponent e
# the package reaches, so distinct binomials keep distinct images
_U0 = 3
_U0_POWERS = {}
_PHI_AT_U0 = {}  # d -> the image of Phi_d(u0**Q_DEG)


def xp_binom_mul(a, e):
    """a * (y - u**e)."""
    out = {k + Y_DEG: c for k, c in a.items()}
    for k, c in a.items():
        t = qrat_monomial_mul(c, e)
        s = out.get(k)
        if s is None:
            out[k] = -t
        else:
            s = s - t
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def xp_binom_div(a, e):
    """a / (y - u**e) if the division is exact, else None.

    `a` is a polynomial in y: every exponent a multiple of Y_DEG, none below
    zero.  Synthetic division: the quotient coefficients are the running
    values of Horner's rule at y = u**e, and the last value is the remainder.
    """
    q = {}
    carry = QRAT_ZERO
    for k in range(max(a), 0, -Y_DEG):
        carry = a.get(k, QRAT_ZERO) + qrat_monomial_mul(carry, e)
        if carry:
            q[k - Y_DEG] = carry
    if a.get(0, QRAT_ZERO) + qrat_monomial_mul(carry, e):
        return None
    return q


def _u0_pow(e):
    got = _U0_POWERS.get(e)
    if got is None:
        got = _U0_POWERS[e] = pow(_U0, e, _P)
    return got


def _den_at_u0(qr):
    # the image of the denominator of qr at u0; for a factored one, the
    # product of the images of its factors
    if qr.fac is None:
        return _qp_at_u0(qr.den)
    t = 1
    for d, m in qr.fac.items():
        got = _PHI_AT_U0.get(d)
        if got is None:
            got = _PHI_AT_U0[d] = _qp_at_u0(_phi_u(d))
        t = t * pow(got, m, _P) % _P
    return t


def _qp_at_u0(a):
    t = 0
    for e, c in a.items():
        if type(c) is not int:
            c = coeff_mod(c, _P, _Z8)
        t += c * _u0_pow(e)
    return t % _P


def xp_y_image(a):
    """The image of a polynomial in y in GF(p)[y] at u = u0, as the list of
    its y-coefficients from y**0 up; None if a coefficient has no image."""
    out = [0] * (max(a) // Y_DEG + 1)
    try:
        for k, qr in a.items():
            m = _qp_at_u0(qr.num)
            if qr.fac != NO_FACTORS:
                m = m * pow(_den_at_u0(qr), -1, _P) % _P
            out[k // Y_DEG] = m
    except (ZeroDivisionError, ValueError):
        # a Fraction denominator divisible by p, or a denominator vanishing
        # at u0 (pow raises ValueError for a non-invertible base)
        return None
    return out


def y_image_root_order(image, e, limit):
    """How often y - u0**e divides `image`, counted up to `limit`.

    An upper bound on how often y - u**e divides the polynomial whose image
    this is, since exact division by a monic binomial commutes with taking
    images.
    """
    c = _u0_pow(e)
    count = 0
    while count < limit and len(image) > 1:
        quotient = [0] * (len(image) - 1)
        carry = 0
        for j in range(len(image) - 1, 0, -1):
            carry = (image[j] + c * carry) % _P
            quotient[j - 1] = carry
        if (image[0] + c * carry) % _P:
            break
        image = quotient
        count += 1
    return count


# ---------------------------------------------------------- lattice ops ----


def xp_qshift(a, m_units):
    """Image of the substitution x -> x*q**(m_units/D) on an XPoly."""
    if not m_units:
        return a
    out = {}
    for k, c in a.items():
        s = m_units * k
        if s % DENOM:
            raise LatticeError(
                "shift by %d/%d units leaves the lattice at x-exponent %d/%d"
                % (m_units, DENOM, k, DENOM)
            )
        out[k] = qrat_monomial_mul(c, s // DENOM)
    return out
