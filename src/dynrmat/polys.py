"""Layered exact Laurent-polynomial arithmetic and its canonical fractions.

A Laurent polynomial is a dict mapping integer exponents to nonzero
coefficients; poly_add, poly_neg, poly_sub, poly_shift and poly_strip serve
every level.  Level one: a QPoly is a Laurent polynomial in u = q**(1/D) with
rational coefficients.  Integral rationals are stored as int
where they are made (see coeffs.py), so integer polynomials multiply in int
arithmetic; an integral Fraction that slips through is still correct, because
equal values compare and hash equal whatever their type.  Level two: a QRat
is a canonical fraction of two QPolys.  Level three: an XNum is the flat
numerator of a RationalFunction (ratfunc.py), one Laurent polynomial in u
and v = x**(1/D) whose rows, the coefficients of the powers of v, are int
rows packed into one Python int each, over one content denominator (see
the flat numerators section).  A RationalFunction is N / (Dq * Dx): an
XNum over a common q-denominator and an x-denominator, both factored.

A CanonicalFraction holds the arithmetic of a fraction once.  A level
supplies only what differs: its polynomial product and scale, its
polynomial one, its coefficient one and the inverse of a coefficient, its
factor alphabet, how it factors a denominator and cancels factors from a
numerator, and its gcd.  QRat is one, and so is the nested form of the x
level, a fraction of nested XPolys (dicts v-exponent -> QRat), which holds
the x-level values the flat form cannot and runs its generic path.
Fractions of different levels do not mix.

Three rules of the arithmetic are written once, for every level:
- the sparse sum that never stores a zero: add_into, and poly_add and
  poly_mul (the product of both Laurent levels) on top of it.  The sparse
  dicts of every level sum through them, from QPoly terms and packed XNum
  rows to Scalar terms and operator entries.
- dividing the cyclotomic factors Phi_d out of rows: xp_qcancel, exact
  big-int division of packed rows, widened until the quotient's slots
  cannot wrap.  The QRat _cancel is its one-row case, Fraction coefficients
  over the content denominator, and cyclotomic and _factor divide through
  it too.  Multiplying factors in is packed too (CYCLOTOMICS).
- the factored sum and product: multisets.over_lcm and
  multisets.cancel_across.  CanonicalFraction uses them for its factors,
  and RationalFunction (ratfunc.py) for both Dq and Dx.

Canonical form of a fraction: numerator and denominator coprime (monic gcd
on the unit-stripped parts), denominator with minimum exponent
zero and leading coefficient one.  Structural equality is then value
equality, which is what every verifier in this package leans on.

Both levels keep the denominators the package builds factored, as multisets
of irreducible factors (multisets.py), and cancel by exact division by the
factors that can cancel:
- q level: the cyclotomic polynomials Phi_d(Q) in Q = q**2 = u**8, since
  q-integers, q-factorials and q - 1/q are monomials times products of them.
  A numerator that is a polynomial in u**8 shares with Phi_d(u**8) either
  all of it or nothing, since Phi_d(Q) is irreducible over Q.  The common
  q-denominator of an XNum cancels the same way, row by row.
- x level: the binomials y - u**e in y = x**2 = v**8, which the x-brackets
  x q**c - x**-1 q**-c put into every x-denominator.  Each is linear in y.
  One exact evaluation of the numerator at y = u**e rules a binomial in or
  out, and Horner's rule divides (the binomial kit below).
Both rest on deflation: when k divides every exponent of two polynomials,
they are A(t**k) and B(t**k), and their gcd is gcd(A, B)(t**k), because
Euclid on A and B and Euclid on A(t**k) and B(t**k) take the same steps.

The gcds qp_gcd and xp_gcd are the fallback only: for a numerator that is
no polynomial in u**8 (in y), or a denominator that is no product of the
factors.  No manifest entry and no GNF or recoupling check of the benchmark
reaches either.  Both are one dense modular gcd (Brown 1971) over Q, the q
level its univariate case.  The operands are deflated (in u too: u -> u**k
embeds Q(u) in itself) and cleared of u-denominators and u-contents, so in
Z[u][v].  With g their gcd and gamma the gcd of their leading coefficients,
it finds h = gamma * g / lc(g), a polynomial as lc(g) divides gamma.  Images
are taken mod primes p, one image per prime, and at the x level at points
u = x; a prime that divides a denominator, and a prime or point where a
leading coefficient vanishes, are skipped:
- No image's degree is below that of g: over Z[u], a unique factorization
  domain, g divides both operands and lc(g) their leading coefficients, so
  g's image divides both images and keeps its degree.  An image of degree 0
  proves the operands coprime.
- The images of least degree are kept.  Where that is g's degree, the monic
  image gcd times gamma(x) is h's image.  Interpolation in u at deg(gamma) +
  min(deg_u) + 1 points, CRT over primes and rational reconstruction (Wang
  1981) give a candidate once two primes agree.
- It is accepted only after exact trial division of gamma times each
  operand, which gives the cofactors too, and a common divisor of at least
  g's degree is g.  So the result is exact, and the same for any primes and
  points; unlucky ones are where a fixed nonzero resultant vanishes, and the
  primes have no end, so the gcd returns.
"""

import math
import operator
import sys
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, count

from . import multisets
from .coeffs import coeff_mod, demote
from .lattice import DENOM, LatticeError
from .multisets import NO_FACTORS, Alphabet

_F1 = Fraction(1)

QP_ZERO = {}
QP_ONE = {0: 1}


# ---------------------------------------------------- Laurent polynomials ----


def add_into(out, key, value):
    """Add value into the sparse dict `out` at `key`, in place: a zero value
    is never stored, and a key whose sum is zero is deleted, so `out` never
    holds a zero."""
    s = out.get(key)
    if s is None:
        if value:
            out[key] = value
    else:
        s = s + value
        if s:
            out[key] = s
        else:
            del out[key]


def poly_add(a, b):
    """The termwise sum of two sparse dicts, neither storing a zero; one of
    them is returned as it is when the other is empty."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for e, c in b.items():
        add_into(out, e, c)
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


def poly_mul(a, b, scale):
    """The product of two Laurent polynomials of one level, whose product
    with one coefficient is scale(p, c)."""
    if not a or not b:
        return {}
    if len(a) == 1:
        (e, c), = a.items()
        return poly_shift(scale(b, c), e)
    if len(b) == 1:
        (e, c), = b.items()
        return poly_shift(scale(a, c), e)
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            add_into(out, ea + eb, ca * cb)
    return out


def _long_div(a, b, quo, mul, sub, zero):
    """(q, r) with a = q * b + r, deg r < deg b, over a ring with product
    mul, difference sub and zero `zero`, where quo(c, lead) is c over b's
    leading coefficient, or None, and then so is q."""
    db = max(b)
    r, q = dict(a), {}
    while r:
        dr = max(r)
        if dr < db:
            break
        f = q[dr - db] = quo(r[dr], b[db])
        if f is None:
            return None, r
        for e, c in b.items():
            t = sub(r.pop(e + dr - db, zero), mul(c, f))
            if t:
                r[e + dr - db] = t
    return q, r


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
    return poly_mul(a, b, qp_scale)


def qp_divmod(a, b):
    # ordinary polynomials, b nonzero
    if not b:
        raise ZeroDivisionError("q-polynomial division by zero")
    inv = _F1 / b[max(b)]
    return _long_div(a, b, lambda c, _: demote(c * inv), operator.mul,
                     operator.sub, 0)


def qp_monic(a):
    lead = a[max(a)]
    if lead == 1:
        return a
    return qp_scale(a, _F1 / lead)


def qp_eval_complex(a, u0):
    t = 0j
    for e, c in a.items():
        t += complex(c) * u0 ** e
    return t


# ---------------------------------------------------------- cyclotomics ----
#
# The factor d is the cyclotomic polynomial Phi_d(Q) in Q = q**2 = u**Q_DEG.
# Phi_d is irreducible over Q, and q-integers, q-factorials and q - 1/q are
# monomials times products of them:
#     [n] = q**-(n-1) * prod(Phi_d(q**2), d | n, d > 1),
#     q - 1/q = q**-1 * Phi_1(q**2).
# Phi_d is kept dense, as its coefficients from Q**0 up; every division by
# one runs packed (xp_qcancel).

Q_DEG = 2 * DENOM


@cache
def cyclotomic(d):
    """Phi_d(Q) as the tuple of its int coefficients from Q**0 up, cached.

    Q**d - 1 is the product of Phi_e(Q) over the divisors e of d, so Phi_d is
    Q**d - 1 divided by the Phi_e of its proper divisors (xp_qcancel), which
    needs Phi_e for e < d only.
    """
    q, _ = xp_qcancel(xp_from_terms({0: {0: -1, Q_DEG * d: 1}}),
                      {e: 1 for e in range(1, d) if d % e == 0})
    return tuple(_digits(q.rows[0], q.b)[:_totient(d) + 1])


@cache
def _phi_u(d):
    """Phi_d(u**Q_DEG) as a QPoly."""
    return {Q_DEG * i: c for i, c in enumerate(cyclotomic(d)) if c}


@cache
def _phi_norm(d):
    """||Phi_d||_1, the sum of |coefficients| of Phi_d."""
    return sum(map(abs, cyclotomic(d)))


def _norm(fac):
    """prod ||Phi_d||_1**m over the items d: m of the multiset `fac`, where
    ||p||_1 is the sum of |coefficients| of p; it bounds ||product||_1."""
    out = 1
    for d, m in fac.items():
        out *= _phi_norm(d) ** m
    return out


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

    d0 is monic with minimum exponent 0.  Trial division of its packed row
    (xp_qcancel) in increasing d, over every d whose Phi_d is not longer
    than the quotient left, until the quotient is 1.  A product of
    cyclotomic polynomials is its own reverse up to sign, which rules most
    other polynomials out at once.
    """
    if len(d0) == 1:
        return NO_FACTORS
    top = max(d0)
    rev = {top - e: c for e, c in d0.items()}
    if rev != d0 and rev != poly_neg(d0):
        return None
    a = xp_from_terms({0: d0})
    if a.d != 1 or not xp_qsafe(a):
        return None
    fac = {}
    deg = top // Q_DEG
    limit = _max_index(deg)
    d = 1
    while deg:
        if d > limit:
            return None
        n = _totient(d)
        if n <= deg:
            # Phi_d divides the quotient at most deg / n times
            a, got = xp_qcancel(a, {d: deg // n})
            if got:
                fac[d] = got[d]
                deg -= n * got[d]
        d += 1
    return fac


def _cancel(t, fac):
    """(t / g, g) for g the largest product of cyclotomic factors from the
    multiset `fac` that divides t, with g as a multiset; None if t is not,
    after stripping, a polynomial in u**Q_DEG.

    Then the gcd of t with Phi_d(u**Q_DEG) is the gcd of the deflated t with
    Phi_d(Q), inflated again (module docstring), and Phi_d(Q) is
    irreducible over Q; so that gcd is Phi_d(u**Q_DEG) or 1, and exact
    division decides.  t is the one-row case of xp_qcancel: packed by
    xp_from_terms, its Fraction coefficients over the content denominator.
    """
    if len(t) == 1:
        return t, NO_FACTORS
    a = xp_from_terms({0: t})
    if not xp_qsafe(a):
        return None
    q, removed = xp_qcancel(a, fac)
    if not removed:
        return t, NO_FACTORS
    return xp_terms(q)[0], removed


class _PhiAlphabet(Alphabet):
    """QPolys times cyclotomic factors, and expanded q-denominators.

    Int QPolys are multiplied as packed ints, like the rows of an XNum (see
    the flat numerators section).  The terms of a QPoly whose exponents
    agree mod Q_DEG are a block u**o * P(Q), P a polynomial in Q = u**Q_DEG
    packed as P(2**b), so a product is one big-int product per factor and
    per block.  The slot width b holds max|p| * prod ||p_i||_1 *
    prod ||Phi_d||_1**m for the product of p, the p_i and the factors, with
    ||p||_1 the sum of |coefficients| of p: it is submultiplicative, so that
    bounds every slot of the product, and by the bound rule none wraps.
    Fraction operands take the loop of one polynomial product per
    factor.  Expanded products are cached by multiset (expand); products
    with a QPoly are not.
    """

    def times(self, p, fac):
        if not fac or not p:
            return p
        return self.sum_times((((p,), fac),))

    def sum_times(self, terms):
        """The sum over `terms` (ps, fac) of the product of the QPolys ps
        times the factors of the multiset fac: one packed sum when every
        coefficient is an int, whose slots hold the sum of the terms'
        bounds."""
        bound = 0
        products = []  # (fac, [(o, the dense P_i of one block)])
        for ps, fac in terms:
            top = None
            blocks = [(0, ())]
            for p in ps:
                for c in p.values():
                    if type(c) is not int:
                        return reduce(poly_add, (
                            Alphabet.times(self, reduce(qp_mul, ps), fac)
                            for ps, fac in terms), QP_ZERO)
                top = (max(map(abs, p.values())) if top is None
                       else top * sum(map(abs, p.values())))
                blocks = [(o + o2, ds + (d,)) for o, ds in blocks
                          for o2, d in _blocks(p)]
            bound += top * _norm(fac)
            products.append((fac, blocks))
        if not bound:
            return QP_ZERO
        b = _width(bound)
        phis = _phis_packed(b)
        lows = {}  # residue mod Q_DEG -> the least block offset in its class
        for _, blocks in products:
            for o, _ in blocks:
                if o < lows.get(o % Q_DEG, o + 1):
                    lows[o % Q_DEG] = o
        sums = dict.fromkeys(lows, 0)
        for fac, blocks in products:
            by = 1
            for d, m in fac.items():
                by *= phis[d] ** m
            for o, ds in blocks:
                n = by
                for dense in ds:
                    n *= dense[0] if len(dense) == 1 else _pack(dense, b)
                r = o % Q_DEG
                sums[r] += n << ((o - lows[r]) // Q_DEG * b)
        out = {}
        for r, n in sums.items():
            o = lows[r]
            for j, c in enumerate(_digits(n, b)):
                if c:
                    out[o + Q_DEG * j] = c
        return out


def _blocks(p):
    """The QPoly p as blocks (o, P): p is the sum of u**o * P(u**Q_DEG),
    one block for each residue class of p's exponents mod Q_DEG, with P a
    dense list whose first coefficient is not zero."""
    if len(p) == 1:
        (e, c), = p.items()
        return ((e, (c,)),)
    classes = {}
    for e, c in p.items():
        got = classes.get(e % Q_DEG)
        if got is None:
            classes[e % Q_DEG] = {e: c}
        else:
            got[e] = c
    out = []
    for terms in classes.values():
        o = min(terms)
        dense = [0] * ((max(terms) - o) // Q_DEG + 1)
        for e, c in terms.items():
            dense[(e - o) // Q_DEG] = c
        out.append((o, dense))
    return out


CYCLOTOMICS = _PhiAlphabet(QP_ONE, lambda p, d: qp_mul(p, _phi_u(d)))


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
        """na/fa + nb/fb, or None if _cancel declines the sum."""
        na, nb, tied, lcm = multisets.over_lcm(na, fa, nb, fb,
                                               self._alphabet.times)
        t = poly_add(na, nb)
        if not t:
            return self.ZERO
        if not tied:
            return type(self)(t, lcm)
        got = self._cancel(t, tied)
        if got is None:
            return None
        t, removed = got
        return type(self)(t, multisets.minus(lcm, removed))

    def _mul_factored(self, na, fa, nb, fb):
        """(na/fa) * (nb/fb), or None if _cancel declines a numerator."""
        got = multisets.cancel_across(na, fa, nb, fb, self._cancel)
        if got is None:
            return None
        na, fa, nb, fb = got
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


def qrat_monomial_mul(qr, s):
    if not s or not qr.num:
        return qr
    return QRat(poly_shift(qr.num, s), qr.fac, qr._den)


def qrat_eval_complex(qr, u0):
    return qp_eval_complex(qr.num, u0) / qp_eval_complex(qr.den, u0)


# ---------------------------------------------------------------- XPoly ----
#
# A nested XPoly is a dict v-exponent -> QRat.  The generic path of the x
# level (ratfunc.py) and the gcd below work on it; the flat numerators of
# the next section carry every other x-level operation.


XP_ZERO = {}
XP_ONE = {0: QRAT_ONE}


def xq_scale(a, qr):
    if not qr:
        return XP_ZERO
    if qr is QRAT_ONE:
        return a
    return {k: c * qr for k, c in a.items()}


def xq_mul(a, b):
    return poly_mul(a, b, xq_scale)


def xp_divmod(a, b):
    if not b:
        raise ZeroDivisionError("x-polynomial division by zero")
    inv = b[max(b)].inverse()
    return _long_div(a, b, lambda c, _: c * inv, operator.mul, operator.sub,
                     QRAT_ZERO)


def xq_monic(a):
    lead = a[max(a)]
    if lead is QRAT_ONE or lead == QRAT_ONE:
        return a
    return xq_scale(a, lead.inverse())


def xq_eval_complex(a, u0, v0):
    t = 0j
    for k, c in a.items():
        t += qrat_eval_complex(c, u0) * v0 ** k
    return t


# ---------------------------------------------------------- modular gcd ----


def _deflate(polys):
    """(k, [P, ...]) with every p = P(t**k) for the dicts `polys` of
    exponents of t: k is the gcd of all their exponents, or 1 if all are 0."""
    k = math.gcd(*chain.from_iterable(polys)) or 1
    return k, [{e // k: c for e, c in p.items()} for p in polys]


def _inflate(p, k):
    # the dict p(t**k), undoing _deflate
    return {k * e: c for e, c in p.items()}


@cache
def _prime(i):
    """The i-th prime from 2**31 up."""
    p = _prime(i - 1) + 2 if i else 2**31 + 1
    while any(p % f == 0 for f in range(3, math.isqrt(p) + 1, 2)):
        p += 2
    return p


def _primes():
    return map(_prime, count())


def _image(a, p):
    """a mod p, a list in v of dicts in u; raises ZeroDivisionError if p
    divides a denominator."""
    return [{e: coeff_mod(c, p) for e, c in a.get(k, {}).items()}
            for k in range(max(a) + 1)]


def _at(r, x, p):
    return sum(c * pow(x, e, p) for e, c in r.items()) % p


def _gf_gcd(a, b, p):
    """The monic gcd over GF(p) of dense lists, lowest first, tops nonzero."""
    while b:
        inv, n = pow(b[-1], -1, p), len(b) - 1
        for i in range(len(a) - 1, n - 1, -1):
            f = a[i] * inv % p
            for j, c in enumerate(b):
                a[i - n + j] = (a[i - n + j] - f * c) % p
        del a[n:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _interpolate(xs, ys, p):
    """c_0, c_1, ... with sum_i c_i[m] * xs[j]**i = ys[j][m] for all j, m."""
    c = [list(y) for y in ys]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            inv = pow(xs[i] - xs[i - j], -1, p)
            c[i] = [(s - t) * inv % p for s, t in zip(c[i], c[i - 1])]
    out = []  # Horner's rule: out * (u - x) + c_i, from the top
    for x, ci in zip(reversed(xs), reversed(c)):
        out = [
            [(s - x * t) % p for s, t in zip(hi, lo)]
            for hi, lo in zip([ci, *out], [*out, [0] * len(ci)])]
    return out


def _image_gcd(ia, ib, ig, e, p, points):
    """(n, c): c interpolates in u the image gcds, times gamma(x), of least
    length n at e + 1 points u = x; (1, None) as soon as an image is 1."""
    n, xs, ys = None, [], []
    while len(xs) <= e:
        x = next(points)
        va, vb = ([_at(r, x, p) for r in f] for f in (ia, ib))
        if not (va[-1] and vb[-1]):
            continue
        g = _gf_gcd(va, vb, p)
        if len(g) == 1:
            return 1, None
        if n is None or len(g) < n:
            n, xs, ys = len(g), [], []
        if len(g) == n:
            xs.append(x)
            ys.append([c * _at(ig, x, p) % p for c in g])
    return n, _interpolate(xs, ys, p)


def _ratrec(n, m):
    """r/s = n mod m with |r|, s <= sqrt(m/2), or None (Wang 1981)."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, n, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _div_exact(a, b):
    """a / b in Q[u][v], or None unless b divides a there."""
    def quo(c, lead):
        f, rest = qp_divmod(c, lead)
        return None if rest else f

    q, r = _long_div(a, b, quo, qp_mul, poly_sub, QP_ZERO)
    return None if r else q


def _modular_gcd(a, b, gamma):
    """(h, gamma * a / h, gamma * b / h) for h = gamma * g / lc(g), with g
    the gcd of a and b, dicts v-exponent -> QPoly in Q[u], and gamma a
    common divisor of their leading coefficients; None if g is 1."""
    ku, (gamma, *rows) = _deflate([gamma, *a.values(), *b.values()])
    a, b = dict(zip(a, rows)), dict(zip(b, rows[len(a):]))
    e = max(gamma) + min(max(map(max, f.values())) for f in (a, b))
    points = count(1)
    d = last = None  # the least degree so far, and the last reconstruction
    for p in _primes():
        try:
            ia, ib, ig = [_image(f, p) for f in (a, b, {0: gamma})]
        except ZeroDivisionError:
            continue
        if not (any(ia[-1].values()) and any(ib[-1].values())):
            continue
        dp, c = _image_gcd(ia, ib, ig[0], e, p, points)
        if dp == 1:
            return None
        if d is not None and d < dp:
            continue
        image = [c[i][j] for j in range(dp) for i in range(e + 1)]
        if dp != d:
            d, res, m, last = dp, image, p, None
        else:
            inv = pow(m, -1, p)
            res = [r + m * ((s - r) * inv % p) for r, s in zip(res, image)]
            m *= p
        cand = [_ratrec(r, m) for r in res]
        if None in cand or cand != last:
            last = cand  # accepted once one more prime agrees
            continue
        cs = [demote(c) for c in cand]
        rows = [{i: c for i, c in enumerate(cs[j * (e + 1):][:e + 1]) if c}
                for j in range(d)]
        h = {j: row for j, row in enumerate(rows) if row}
        qa = _div_exact({k: qp_mul(gamma, r) for k, r in a.items()}, h)
        qb = qa and _div_exact({k: qp_mul(gamma, r) for k, r in b.items()}, h)
        if qb:
            return [{k: _inflate(t, ku) for k, t in f.items()}
                    for f in (h, qa, qb)]
        last = None


def qp_gcd(a, b):
    """(g, a0/g, b0/g): the monic gcd g of the unit-stripped parts a0, b0 of
    two nonzero QPolys, and the cofactors."""
    a0, b0 = poly_strip(a)[0], poly_strip(b)[0]
    k, ab = _deflate((a0, b0))
    got = _modular_gcd(*({e: {0: c} for e, c in f.items()} for f in ab),
                       QP_ONE)
    if got is None:
        return QP_ONE, a0, b0
    return tuple(_inflate({e: t[0] for e, t in f.items()}, k) for f in got)


def _primitive(a):
    """(A, c, d, s), a = u**s * c * A / d for a nested XPoly a: A in
    Q[u][v] with content c in u, d the lcm of a's denominators."""
    dens = {frozenset(qr.den.items()): qr.den for qr in a.values()}
    d = reduce(lambda d, t: qp_mul(d, qp_gcd(d, t)[2]), dens.values())
    rows = {k: qp_mul(qr.num, qp_divmod(d, qr.den)[0]) for k, qr in a.items()}
    s = min(map(min, rows.values()))
    c = reduce(lambda c, t: qp_gcd(c, t)[0], rows.values())
    return ({k: qp_divmod(poly_shift(t, -s), c)[0] for k, t in rows.items()},
            c, d, s)


def xp_gcd(a, b):
    """(g, a0/g, b0/g): the monic gcd g of the unit-stripped parts a0, b0 of
    two nonzero XPolys, and the cofactors."""
    a0, b0 = poly_strip(a)[0], poly_strip(b)[0]
    if len(a0) == 1 or len(b0) == 1:
        return XP_ONE, a0, b0
    k, ab = _deflate((a0, b0))
    (pa, ca, da, sa), (pb, cb, db, sb) = map(_primitive, ab)
    la, lb = pa[max(pa)], pb[max(pb)]
    gamma = poly_shift(qp_gcd(la, lb)[0], min(min(la), min(lb)))
    got = _modular_gcd(pa, pb, gamma)
    if got is None:
        return XP_ONE, a0, b0
    return tuple(_inflate({j: qrat(poly_shift(qp_mul(c, t), s), d)
                           for j, t in f.items()}, k)
                 for f, (c, d, s) in zip(got, ((QP_ONE, gamma, 0),
                                               (ca, da, sa), (cb, db, sb))))


# ------------------------------------------------------- flat numerators ----
#
# The numerator N of a RationalFunction (ratfunc.py) is one Laurent
# polynomial in u and v, an XNum:
#     N = u**o * sum_k v**k * P_k(u**s) / d,
# with its int rows P_k by v-exponent k, a stride s that divides Q_DEG and
# a content denominator d.
#
# Each row is one Python int, P_k(2**b) (Kronecker substitution).  Slot j,
# b bits wide, holds the coefficient of u**(o + s*j), balanced and signed,
# so a product of rows is one big-int product and a sum one big-int sum.
# `bound` is an upper bound on every |slot|.  The bound rule: every slot
# a kit function makes, of its result or on the way to it, stays below
# 2**(b - 1) in absolute value.  So before it combines rows, each function
# bounds what it will make (a product: ba * bb times the row count and the
# slot count of the operand with fewer rows; a sum: ba + bb, after each
# side is scaled to the lcm of the two d; times y - u**e: 2b; division by
# y - u**e: b times the number of rows).  If that bound reaches 2**(b - 1),
# it first lowers the operands' bounds to their largest slots, and if that
# is not enough, repacks them to a wider b.  An overflow would be a silent
# wrong answer.  The offset is normalized: some row has a nonzero slot 0.
#
# The content denominator d is a positive int coprime to the content of the
# rows (the gcd of their coefficients), so d == 1 exactly when every
# coefficient of N is an int.  xp_from_terms makes d the lcm of the
# coefficients' denominators; a product, a sum of sides scaled to one d and
# a monomial scaling then divide d and the rows by their gcd (_lowered).
# Division by a monic binomial or a Phi_d keeps the content (Gauss's lemma)
# and d, and so do a shift, a negation and a repack.  A content is computed
# only when d > 1.
#
# Values compare by their coefficients: d and rows packed at one width and
# stride compare as ints, any other pair by d and slots (_slots), and
# xp_key, the hash key, reads the coefficients (xp_terms), so neither
# depends on the width or the stride at which a value was packed.

Y_DEG = 2 * DENOM  # y = x**2 = v**Y_DEG

SLOT = 64  # every slot width is a multiple of SLOT


class XNum:
    """An x-level numerator; see the section comment."""

    __slots__ = ("rows", "o", "s", "b", "bound", "tight", "d")

    def __init__(self, rows, o, s, b, bound, tight=False, d=1):
        self.rows = rows
        self.o = o
        self.s = s
        self.b = b
        self.bound = bound
        self.tight = tight  # whether bound was read off the slots
        self.d = d

    def __bool__(self):
        return bool(self.rows)

    def __repr__(self):
        return "XNum(%r)" % (xp_terms(self),)


XN_ZERO = XNum({}, 0, Q_DEG, SLOT, 0, True)


def _width(bound):
    """The narrowest slot width whose balanced slots hold every |c| <= bound."""
    return max(SLOT, -(-(bound.bit_length() + 1) // SLOT) * SLOT)


def _chunks(n, b):
    """The b-bit chunks of the two's complement bytes of n, signed, lowest
    first: each is its balanced slot, or that slot less one."""
    w = b >> 3
    raw = n.to_bytes(w * (n.bit_length() // b + 1), "little", signed=True)
    if b == SLOT and sys.byteorder == "little":
        return memoryview(raw).cast("q").tolist()
    return [int.from_bytes(raw[i:i + w], "little", signed=True)
            for i in range(0, len(raw), w)]


def _digits(n, b):
    """The balanced slots of n at width b, lowest first."""
    chunks = _chunks(n, b)
    # a chunk is its slot less one whenever the slots below it sum to a
    # negative number, that is whenever the chunk below it is negative
    return [c + (p < 0) for c, p in zip(chunks, [0] + chunks)]


def _top(n, b):
    """An upper bound on the |slots| of n at width b, at most one above the
    largest."""
    chunks = _chunks(n, b)
    return max(max(chunks) + 1, -min(chunks))


def _pack(digits, b):
    """The int whose balanced slots at width b are `digits`, lowest first."""
    n = 0
    for d in reversed(digits):
        n = (n << b) + d
    return n


def _pack_terms(rows, o, s, b, d=1):
    """The packed XNum of int rows {k: QPoly} over d, every exponent o + s*j
    with j >= 0, at slot width b or wider if its coefficients need it."""
    bound = max(abs(c) for row in rows.values() for c in row.values())
    b = max(b, _width(bound))
    out = {}
    for k, row in rows.items():
        digits = [0] * ((max(row) - o) // s + 1)
        for e, c in row.items():
            digits[(e - o) // s] = c
        out[k] = _pack(digits, b)
    return _packed(out, o, s, b, bound, True, d)


def _packed(rows, o, s, b, bound, tight=False, d=1):
    """The XNum of packed rows over d, none of them zero, with its offset
    normalized."""
    mask = (1 << b) - 1
    for n in rows.values():
        if n & mask:
            break
    else:
        if rows:
            t = (min((n & -n).bit_length() for n in rows.values()) - 1) // b
            rows = {k: n >> (t * b) for k, n in rows.items()}
            o += s * t
    return XNum(rows, o, s, b, bound, tight, d)


def _lowered(a):
    """a with d and its rows divided by the gcd of d and their content."""
    g = a.d
    for n in a.rows.values():
        g = math.gcd(g, *_digits(n, a.b))
        if g == 1:
            return a
    # every slot of a row is a multiple of g, so the row is too, and its
    # quotient's slots are the quotients of its slots
    return XNum({k: n // g for k, n in a.rows.items()}, a.o, a.s, a.b,
                a.bound // g, False, a.d // g)


def xp_monomial(k, e):
    """The XNum v**k * u**e."""
    return XNum({k: 1}, e, Q_DEG, SLOT, 1, True)


def xp_from_terms(rows):
    """The XNum of the rows {k: QPoly}, none of them zero."""
    if not rows:
        return XN_ZERO
    if len(rows) == 1:
        (k, row), = rows.items()
        if len(row) == 1:
            (e, c), = row.items()
            if type(c) is int and not abs(c) >> (SLOT - 1):
                return XNum({k: c}, e, Q_DEG, SLOT, abs(c), True)
    d = 1
    if not all(type(c) is int for row in rows.values() for c in row.values()):
        # the lcm of the reduced denominators: for each prime, a coefficient
        # whose denominator holds d's full power of it scales to a numerator
        # that the prime does not divide
        d = math.lcm(*(c.denominator for row in rows.values()
                       for c in row.values()))
        rows = {
            k: {e: c.numerator * (d // c.denominator) for e, c in row.items()}
            for k, row in rows.items()}
    o = min(min(row) for row in rows.values())
    s = math.gcd(Q_DEG, *(e - o for row in rows.values() for e in row))
    return _pack_terms(rows, o, s, SLOT, d)


def _slots(a):
    """The int rows of a, its coefficients times d, as QPolys in u."""
    o, s, b = a.o, a.s, a.b
    return {
        k: {o + s * j: c for j, c in enumerate(_digits(n, b)) if c}
        for k, n in a.rows.items()}


def xp_terms(a):
    """The rows of a as QPolys in u, by v-exponent."""
    rows = _slots(a)
    d = a.d
    if d == 1:
        return rows
    return {
        k: {e: demote(Fraction(c, d)) for e, c in row.items()}
        for k, row in rows.items()}


def xp_key(a):
    """A hashable name for the value of a, whatever its packing."""
    return frozenset((k, frozenset(row.items()))
                     for k, row in xp_terms(a).items())


def xp_equal(a, b):
    # d is a function of the value: a.d * N_b == b.d * N_a for int rows
    # N_a and N_b, each coprime to its d, forces a.d == b.d
    if a.d != b.d:
        return False
    if a.b == b.b and a.s == b.s:
        return a.o == b.o and a.rows == b.rows
    return _slots(a) == _slots(b)


def _repack(a, b, s):
    """a packed at slot width b, or wider if its coefficients need it, and
    at stride s, a divisor of a.s."""
    return _pack_terms(_slots(a), a.o, s, b, a.d)


def _tighten(a):
    """Lower a.bound to its slots' magnitude (_top)."""
    if not a.tight:
        a.bound = max(_top(n, a.b) for n in a.rows.values())
        a.tight = True


def _fit(xs, bound_of):
    """The XNums xs, of one width and stride, tightened and if need be
    repacked wider, so that bound_of(xs) fits a slot; and that bound."""
    for x in xs:
        _tighten(x)
    bound = bound_of(xs)
    if bound >> (xs[0].b - 1):
        b = _width(bound)
        xs = [_repack(x, b, x.s) for x in xs]
    return xs, bound


def _room(a, factor):
    """a at a width that holds `factor` times its bound."""
    if (a.bound * factor) >> (a.b - 1):
        (a,), _ = _fit((a,), lambda xs: xs[0].bound * factor)
    return a


def _aligned(a, b):
    """a and b at one slot width and one stride."""
    w = max(a.b, b.b)
    s = math.gcd(a.s, b.s)
    if a.b != w or a.s != s:
        a = _repack(a, w, s)
    if b.b != w or b.s != s:
        b = _repack(b, w, s)
    return a, b


def _mul_bound(xs):
    # the slot count of each row of the operand with fewer rows bounds the
    # number of products that meet in one slot of a row product
    a, b = xs
    if len(a.rows) > len(b.rows):
        a, b = b, a
    span = max(map(int.bit_length, a.rows.values())) // a.b + 1
    return a.bound * b.bound * len(a.rows) * span


def _add_bound(xs):
    return xs[0].bound + xs[1].bound


def xp_mul(a, b):
    """The product of two x-level numerators: one big-int product per pair
    of rows."""
    if not a.rows or not b.rows:
        return XN_ZERO
    if a.b != b.b or a.s != b.s:
        a, b = _aligned(a, b)
    bound = _mul_bound((a, b))
    if bound >> (a.b - 1):
        (a, b), bound = _fit((a, b), _mul_bound)
    out = {}
    for ka, pa in a.rows.items():
        for kb, pb in b.rows.items():
            k = ka + kb
            t = out.get(k)
            out[k] = pa * pb if t is None else t + pa * pb
    t = _packed({k: n for k, n in out.items() if n}, a.o + b.o, a.s, a.b,
                bound, False, a.d * b.d)
    return t if t.d == 1 else _lowered(t)


def xp_scaled(m, a):
    """m * a for a monomial m = c/d * v**k * u**e, by scaling a's rows by
    the int c and relabelling them; None unless m is such a monomial (its
    one packed row is one slot) and bound * |c| stays below a slot."""
    (k, c), = m.rows.items()
    bound = a.bound * abs(c)
    if abs(c) >> (m.b - 1) or bound >> (a.b - 1):
        return None
    t = XNum({j + k: r * c for j, r in a.rows.items()}, a.o + m.o, a.s, a.b,
             bound, a.tight and bound == a.bound, m.d * a.d)
    return t if t.d == 1 else _lowered(t)


def _over(a, d):
    """a's value over d, a multiple of a.d, with its rows scaled to match:
    a form whose d need not be the least."""
    m = d // a.d
    a = _room(a, m)
    return XNum({k: n * m for k, n in a.rows.items()}, a.o, a.s, a.b,
                a.bound * m, False, d)


def xp_add(a, b):
    """The sum of two x-level numerators: sides scaled to one d, offsets
    aligned by shifts, then one big-int sum per row."""
    if not a.rows:
        return b
    if not b.rows:
        return a
    if a.d != b.d:
        m = math.lcm(a.d, b.d)
        a, b = _over(a, m), _over(b, m)
    if a.b != b.b or a.s != b.s:
        a, b = _aligned(a, b)
    d = a.o - b.o
    if d % a.s:
        s = math.gcd(a.s, d)
        a, b = _repack(a, a.b, s), _repack(b, b.b, s)
    bound = a.bound + b.bound
    if bound >> (a.b - 1):
        (a, b), bound = _fit((a, b), _add_bound)
    ra, rb, s, w = a.rows, b.rows, a.s, a.b
    if d > 0:
        sh = d // s * w
        ra = {k: n << sh for k, n in ra.items()}
        o = b.o
    else:
        if d:
            sh = -d // s * w
            rb = {k: n << sh for k, n in rb.items()}
        o = a.o
    t = _packed(poly_add(ra, rb), o, s, w, bound, False, a.d)
    return t if t.d == 1 else _lowered(t)


def xp_neg(a):
    return XNum({k: -n for k, n in a.rows.items()}, a.o, a.s, a.b, a.bound,
                a.tight, a.d)


# ------------------------------------------------------------- binomials ----
#
# The binomial e is y - u**e.  It is linear in y, hence irreducible, and
# every x-denominator the package builds is a product of such binomials
# (ratfunc.py).  Division takes a numerator that is a polynomial in y times
# a power of v: all its v-exponents agree mod Y_DEG.


def _y_rows(rows):
    """(k0, [P_0, ..., P_J]) with rows = v**k0 * sum_j y**j P_j, or None if
    the v-exponents of rows do not all agree mod Y_DEG."""
    k0 = min(rows)
    ps = [0] * ((max(rows) - k0) // Y_DEG + 1)
    for k, p in rows.items():
        j, r = divmod(k - k0, Y_DEG)
        if r:
            return None
        ps[j] = p
    return k0, ps


def xp_binom_mul(a, e):
    """a * (y - u**e): a shift and a subtraction."""
    if not a.rows:
        return a
    if e % a.s:
        a = _repack(a, a.b, math.gcd(a.s, e))
    if a.bound >> (a.b - 2):
        a = _room(a, 2)
    sh = abs(e) // a.s * a.b
    if e >= 0:
        up, down, o = a.rows, {k: n << sh for k, n in a.rows.items()}, a.o
    else:
        up, down, o = {k: n << sh for k, n in a.rows.items()}, a.rows, a.o + e
    out = {k + Y_DEG: n for k, n in up.items()}
    for k, n in down.items():
        add_into(out, k, -n)
    return _packed(out, o, a.s, a.b, 2 * a.bound, False, a.d)


def xp_binom_div(a, e):
    """a / (y - u**e), or None if y - u**e does not divide a: the
    one-binomial case of xp_binom_cancel."""
    if not a.rows:
        return a
    q, removed = xp_binom_cancel(a, {e: 1})
    return q if removed else None


def xp_binom_cancel(a, fac):
    """(a / g, g) for g the largest product of binomials from the multiset
    `fac` that divides the nonzero a, with g as a multiset; None if a has
    more than one row and is no polynomial in y after stripping its lowest
    power of v.

    Every division runs on one list of y-rows (_binom_quotient): the rows
    are repacked once, at a stride that divides every e, and the quotient
    is packed once.  The bound rule holds step by step: a division makes
    slots up to the bound times the number of nonzero rows, so before a
    step whose bound could reach a slot the rows are tightened (_top), and
    if need be repacked wider.
    """
    if len(a.rows) == 1:
        return a, NO_FACTORS
    s = math.gcd(a.s, *fac)
    t = a if s == a.s else _repack(a, a.b, s)
    b, bound = t.b, t.bound
    got = _y_rows(t.rows)
    if got is None:
        return None
    k0, ps = got
    removed = {}
    for e, m in fac.items():
        for _ in range(m):
            n = len(ps) - ps.count(0)
            if (bound * n) >> (b - 1):
                bound = max(_top(p, b) for p in ps if p)
                if (bound * n) >> (b - 1):
                    w = _width(bound * n)
                    ps = [_pack(_digits(p, b), w) for p in ps]
                    b = w
            q = _binom_quotient(ps, e, abs(e) // s * b)
            if q is None:
                break
            ps = q
            bound *= n
            removed[e] = removed.get(e, 0) + 1
    if not removed:
        return a, NO_FACTORS
    rows = {k0 + Y_DEG * j: p for j, p in enumerate(ps) if p}
    return _packed(rows, t.o, s, b, bound, False, a.d), removed


def _binom_quotient(ps, e, sh):
    """The y-rows of (sum_j y**j ps[j]) / (y - u**e), lowest first, or None
    if y - u**e does not divide it; sh is the left shift that multiplies a
    row by u**|e|.

    Synthetic division, with u**|e| only ever a left shift: for e >= 0
    Horner's rule at y = u**e from the top, q_(j-1) = P_j + u**e q_j; for
    e < 0 from the bottom, q_j = u**-e (q_(j-1) - P_j), since a = q * (y -
    u**e) gives P_0 = -u**e q_0.  What is left over decides.
    """
    q = []
    carry = 0
    if e >= 0:
        for p in ps[:0:-1]:
            carry = p + (carry << sh)
            q.append(carry)
        if ps[0] + (carry << sh):
            return None
        q.reverse()
    else:
        for p in ps[:-1]:
            carry = (carry - p) << sh
            q.append(carry)
        if carry != ps[-1]:
            return None
    return q


# ------------------------------------------------- common q-denominators ----
#
# The q-denominator of a RationalFunction is common to all its rows: a
# multiset of cyclotomic factors Phi_d(u**Q_DEG).  Each factor divides a row
# wholly or not at all when the row is u**o times a polynomial in u**Q_DEG
# (the q level's _cancel); then the factors that divide every row cancel by
# exact division.


def xp_qsafe(a):
    """Whether every factor Phi_d(u**Q_DEG) divides each row of a wholly or
    not at all, as when a is packed at stride Q_DEG: then every exponent of
    u in a agrees mod Q_DEG.  A finer stride answers no, which is safe."""
    return a.s == Q_DEG


def xp_qtimes(a, fac):
    """a times the cyclotomic factors of the multiset `fac`."""
    if not fac or not a.rows:
        return a
    return xp_mul(a, _qtimes(multisets.key(fac)))


@cache
def _qtimes(key):
    """The XNum of the product of the cyclotomic factors of the multiset
    named `key` (multisets.key)."""
    return xp_from_terms({0: CYCLOTOMICS.expand(dict(key))})


def xp_qcancel(a, fac):
    """(a / g, g) for g the largest product of cyclotomic factors from the
    multiset `fac` that divides every row of a, with g as a multiset; a is
    nonzero and xp_qsafe(a), and is returned itself when nothing cancels.

    Exact big-int division decides (_divided), at a's slot width and then,
    while the quotient's slots could have wrapped, at
    max(2b, the width of a's bound times ||g||_1 for every product g of
    factors from `fac`).  The loop ends:
    - a product g that divides the rows has a quotient with bounded slots,
      so some width vouches for it;
    - a product g that does not divide a row P leaves a nonzero remainder
      R, deg R < deg g.  Once 2**b is past R's slots,
      0 < |R(2**b)| < g(2**b), so the big-int division leaves a remainder.
    """
    x = a
    while (got := _divided(x, fac)) is None:
        _tighten(x)
        x = _repack(x, max(2 * x.b, _width(x.bound * _norm(fac))), x.s)
    if not got[1]:
        return a, NO_FACTORS
    return got


class _PackedPhis(dict):
    """d -> Phi_d(2**b) at one slot width b, made on first use."""

    def __init__(self, b):
        super().__init__()
        self.b = b

    def __missing__(self, d):
        got = self[d] = _pack(cyclotomic(d), self.b)
        return got


@cache
def _phis_packed(b):
    """The _PackedPhis of slot width b."""
    return _PackedPhis(b)


def _divided(a, fac):
    """(a / g, g) by exact big-int division at a's slot width, or None if
    the quotient's slots could have wrapped.

    A stride-Q_DEG row n is P(2**b) for P a polynomial in Q = u**Q_DEG, so
    g | P gives g(2**b) | n: a nonzero remainder rules a factor out.  Zero
    ones give q = n / g(2**b), whose slots make a polynomial Q' with
    (Q' g)(2**b) = n.  When every slot of Q' times the sum of |coefficients|
    of g is below 2**(b - 1), Q' g and P have the same balanced slots, so
    P = Q' g: every division was exact, and q is the packed quotient.
    """
    b = a.b
    phis = _phis_packed(b)
    rows, removed = a.rows, {}
    for d, m in fac.items():
        phi = phis[d]
        k = 0
        while k < m:
            quotients = {}
            for key, n in rows.items():
                q, r = divmod(n, phi)
                if r:
                    break
                quotients[key] = q
            else:
                rows, k = quotients, k + 1
                continue
            break
        if k:
            removed[d] = k
    if not removed:
        return a, NO_FACTORS
    bound = max(_top(n, b) for n in rows.values())
    if (bound * _norm(removed)) >> (b - 1):
        return None
    return _packed(rows, a.o, Q_DEG, b, bound, True, a.d), removed


# ---------------------------------------------------------- lattice ops ----


def _shift_units(m_units, k):
    # the u-exponent by which x -> x*q**(m_units/D) multiplies v**k
    s = m_units * k
    if s % DENOM:
        raise LatticeError(
            "shift by %d/%d units leaves the lattice at x-exponent %d/%d"
            % (m_units, DENOM, k, DENOM)
        )
    return s // DENOM


def xp_qshift(a, m_units, s=0):
    """The substitution x -> x*q**(m_units/D) on a, times u**s."""
    shifts = {k: _shift_units(m_units, k) + s for k in a.rows}
    lo = min(shifts.values())
    g = math.gcd(a.s, *(t - lo for t in shifts.values()))
    if g != a.s:
        a = _repack(a, a.b, g)
    return _packed({k: n << ((shifts[k] - lo) // g * a.b)
                    for k, n in a.rows.items()},
                   a.o + lo, g, a.b, a.bound, a.tight, a.d)


def xq_qshift(a, m_units):
    """The substitution x -> x*q**(m_units/D) on a nested XPoly."""
    if not m_units:
        return a
    return {k: qrat_monomial_mul(c, _shift_units(m_units, k))
            for k, c in a.items()}
