"""Layered exact Laurent-polynomial arithmetic.

Level one: a QPoly is a Laurent polynomial in u = q**(1/D), stored as a dict
mapping integer u-exponents to nonzero coefficients (int, Fraction or
Cyclo).  Integral rationals are stored as int where they are made (see
coeffs.py), so integer polynomials multiply in int arithmetic; an integral
Fraction that slips through is still correct, because equal values compare
and hash equal whatever their type.
Level two: a QRat is a canonical fraction of two QPolys.  Level three: an
XPoly is a Laurent polynomial in v = x**(1/D) with QRat coefficients.  The
fraction field of XPolys lives in ratfunc.py.

Canonical form of a fraction: numerator and denominator coprime (monic
Euclidean gcd on the unit-stripped parts), denominator with minimum exponent
zero and leading coefficient one.  Structural equality of the dicts is then
value equality, which is what every verifier in this package leans on.

Gcds dominate the cost, and Euclid with Fraction arithmetic swells its
intermediate coefficients, so qp_gcd and xp_gcd decide the same way.  Both
first deflate: when k divides every exponent of both operands, they are
A(t**k) and B(t**k), and their gcd is gcd(A, B)(t**k), because Euclid on A
and B and Euclid on A(t**k) and B(t**k) take the same steps.  So the gcd runs
on A and B and its result is inflated again.  This pays at both levels:
q-integers are polynomials in q**2 = u**8, and the x-brackets
x q**c - x**-1 q**-c make every x-level operand a polynomial in
x**2 = v**8.  At the x level the u of integer rows is deflated too, which is
sound because u -> u**k embeds Q(u) in itself.  Then they map the operands
into GF(p) for p = 998244353, a prime with p = 1 mod 8 so the eighth-root
coefficients embed (3 is a primitive root, hence pow(3, (p-1)//8, p) has
order eight).  If the images keep their degrees, the degree of their gcd is
an upper bound on the degree of the exact gcd, and a bound of zero proves
the operands coprime.  When both operands have integer coefficients (in Z[u]
at the q level, in Z[u^±1][v] at the x level), the usual case for
q-integers, couplings and exchange matrices, a candidate is then computed by
GCDHEU (Char, Geddes and Gonnet 1989) from integer gcds and kept only if its
degree meets that bound and it divides both operands exactly.  Every other
outcome runs Euclid over the coefficient field.  The monic gcd is unique, so
neither the deflation nor the shortcuts can change a result, only the time
it takes.  Every gcd returns its cofactors too, so callers never divide
twice.

At the x level that gcd is only the fallback.  The x-denominators the
package builds are products of binomials y - u**e with y = v**8, which
ratfunc.py keeps factored and cancels by the binomial kit below: a GF(p)
image at a fixed point rules a binomial out, and exact synthetic division
rules it in.  xp_gcd runs only for a numerator that is not a polynomial in y
or a denominator that is no product of binomials, which no manifest entry
and no GNF check of the benchmark produces.
"""

import math
import random
from fractions import Fraction
from itertools import chain

from .coeffs import Cyclo, coeff_mod, coeff_to_complex, demote
from .lattice import DENOM, LatticeError

_F1 = Fraction(1)

_P = 998244353
_Z8 = pow(3, (_P - 1) // 8, _P)
_RNG = random.Random(0x51CA1A)

QP_ZERO = {}
QP_ONE = {0: 1}


# ---------------------------------------------------------------- QPoly ----


def qp_const(c):
    c = demote(c)
    return {0: c} if c else {}


def qp_add(a, b):
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


def qp_neg(a):
    return {e: -c for e, c in a.items()}


def qp_sub(a, b):
    if not b:
        return a
    return qp_add(a, qp_neg(b))


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


def qp_shift(a, s):
    if not s:
        return a
    return {e + s: c for e, c in a.items()}


def qp_mul(a, b):
    if not a or not b:
        return QP_ZERO
    if len(a) == 1:
        (e, c), = a.items()
        return qp_shift(qp_scale(b, c), e)
    if len(b) == 1:
        (e, c), = b.items()
        return qp_shift(qp_scale(a, c), e)
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


def qp_strip(a):
    """(min-exponent-zero copy, stripped exponent)."""
    s = min(a)
    if s:
        return {e - s: c for e, c in a.items()}, s
    return a, 0


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


def _qp_gcd_heuristic(a0, b0, degree):
    """(g, a0/g, b0/g) from the first GCDHEU candidate of degree `degree`
    that divides both operands exactly (stage 2 of qp_gcd), or None."""
    a = _qp_to_zu(a0)
    b = _qp_to_zu(b0)
    if a is None or b is None:
        return None
    for g in _zu_gcdheu(a, b):
        if not g or max(g) != degree:
            continue
        qa = _zu_div_exact(a, g)
        qb = _zu_div_exact(b, g) if qa is not None else None
        if qb is None:
            continue
        # a0 = g * qa, and the monic gcd is g / lc(g)
        lead = g[degree]
        return qp_monic(g), qp_scale(qa, lead), qp_scale(qb, lead)
    return None


def qp_gcd(a, b):
    """(g, a0/g, b0/g): the monic gcd g of the unit-stripped parts a0, b0 of
    two nonzero QPolys, and the cofactors.

    With k the gcd of all exponents, a0 = A(u**k) and b0 = B(u**k), and the
    gcd is gcd(A, B)(u**k); so the stages run on A and B, and the gcd and
    cofactors are inflated by k on the way out.  Three stages, the first
    that decides wins:
    1. The GF(p) image gcd, when both images keep their degrees.  Its degree
       d bounds the exact gcd degree from above, and d = 0 proves the
       operands coprime.
    2. If every coefficient is an integer, GCDHEU candidates G in Z[u].  A
       candidate of degree d that divides both operands exactly is a common
       divisor of the largest possible degree, hence the gcd up to a
       constant; G / lc(G) is the monic gcd and the division quotients give
       the cofactors.
    3. Euclid over Q(z8), then exact division for the cofactors.
    """
    a0, _ = qp_strip(a)
    b0, _ = qp_strip(b)
    if len(a0) == 1 or len(b0) == 1:
        return QP_ONE, a0, b0
    k, (a1, b1) = _deflate((a0, b0))
    degree = _qp_image_gcd_degree(a1, b1)
    if degree == 0:
        return QP_ONE, a0, b0
    found = _qp_gcd_heuristic(a1, b1, degree) if degree is not None else None
    if found is None:
        x, y = a1, b1
        while y:
            x, y = y, qp_divmod(x, y)[1]
        g = qp_monic(x)
        if len(g) == 1:
            return QP_ONE, a0, b0
        found = g, qp_div_exact(a1, g), qp_div_exact(b1, g)
    g, qa, qb = found
    return _inflate(g, k), _inflate(qa, k), _inflate(qb, k)


def qp_eval_complex(a, u0):
    t = 0j
    for e, c in a.items():
        t += coeff_to_complex(c) * u0 ** e
    return t


# ----------------------------------------------------------------- QRat ----


class QRat:
    """Canonical fraction of Laurent polynomials in u = q**(1/D)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        # raw constructor: callers guarantee canonical form
        self.num = num
        self.den = den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, QRat):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash(
            (
                tuple(sorted(self.num.items(), key=lambda kv: kv[0])),
                tuple(sorted(self.den.items(), key=lambda kv: kv[0])),
            )
        )

    def __repr__(self):
        return "QRat(%r, %r)" % (self.num, self.den)

    def __neg__(self):
        if not self.num:
            return self
        return QRat(qp_neg(self.num), self.den)

    def __add__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        na, da, nb, db = self.num, self.den, other.num, other.den
        if da == db:
            t = qp_add(na, nb)
            if not t:
                return QRAT_ZERO
            if da == QP_ONE:
                return QRat(t, QP_ONE)
            return _qrat_cancel(t, da)
        if da == QP_ONE:
            return QRat(qp_add(qp_mul(na, db), nb), db)
        if db == QP_ONE:
            return QRat(qp_add(qp_mul(nb, da), na), da)
        g, b1, d1 = qp_gcd(da, db)
        t = qp_add(qp_mul(na, d1), qp_mul(nb, b1))
        if not t:
            return QRAT_ZERO
        if max(g) > 0:
            t0, st = qp_strip(t)
            _, t0, g = qp_gcd(t0, g)
            t = qp_shift(t0, st)
        den = qp_mul(qp_mul(g, b1), d1)
        if den == QP_ONE:
            return QRat(t, QP_ONE)
        return QRat(t, den)

    def __sub__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        if not self.num or not other.num:
            return QRAT_ZERO
        if self is QRAT_ONE:
            return other
        if other is QRAT_ONE:
            return self
        na, da, nb, db = self.num, self.den, other.num, other.den
        if da == QP_ONE and db == QP_ONE:
            return QRat(qp_mul(na, nb), QP_ONE)
        na0, sa = qp_strip(na)
        nb0, sb = qp_strip(nb)
        if db != QP_ONE:
            _, na0, db = qp_gcd(na0, db)
        if da != QP_ONE:
            _, nb0, da = qp_gcd(nb0, da)
        num = qp_shift(qp_mul(na0, nb0), sa + sb)
        den = qp_mul(da, db)
        if den == QP_ONE:
            return QRat(num, QP_ONE)
        return QRat(num, den)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero q-rational")
        n0, s = qp_strip(self.num)
        den = self.den
        lead = n0[max(n0)]
        if lead != 1:
            inv = _F1 / lead
            n0 = qp_scale(n0, inv)
            den = qp_scale(den, inv)
        if n0 == QP_ONE:
            return QRat(qp_shift(den, -s), QP_ONE)
        return QRat(qp_shift(den, -s), n0)

    def __truediv__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        return self * other.inverse()


def _qrat_cancel(t, d):
    # t nonzero Laurent, d monic ordinary with nonzero constant term
    t0, st = qp_strip(t)
    _, t0, d = qp_gcd(t0, d)
    if d == QP_ONE:
        return QRat(qp_shift(t0, st), QP_ONE)
    return QRat(qp_shift(t0, st), d)


def qrat(num, den=QP_ONE):
    """Canonicalizing QRat factory."""
    if not num:
        return QRAT_ZERO
    if not den:
        raise ZeroDivisionError("zero denominator in q-rational")
    n0, sn = qp_strip(num)
    d0, sd = qp_strip(den)
    if len(n0) > 1 and len(d0) > 1:
        _, n0, d0 = qp_gcd(n0, d0)
    lead = d0[max(d0)]
    if lead != 1:
        inv = _F1 / lead
        n0 = qp_scale(n0, inv)
        d0 = qp_scale(d0, inv)
    if d0 == QP_ONE:
        d0 = QP_ONE
    return QRat(qp_shift(n0, sn - sd), d0)


QRAT_ZERO = QRat(QP_ZERO, QP_ONE)
QRAT_ONE = QRat(QP_ONE, QP_ONE)


def qrat_const(c):
    n = qp_const(c)
    return QRat(n, QP_ONE) if n else QRAT_ZERO


def qrat_qpow(units):
    return QRat({units: 1}, QP_ONE)


def qrat_scale(qr, c):
    """qr times a nonzero bare coefficient."""
    if not qr.num:
        return QRAT_ZERO
    return QRat(qp_scale(qr.num, c), qr.den)


def qrat_monomial_mul(qr, s):
    if not s or not qr.num:
        return qr
    return QRat(qp_shift(qr.num, s), qr.den)


def qrat_eval_complex(qr, u0):
    return qp_eval_complex(qr.num, u0) / qp_eval_complex(qr.den, u0)


# ---------------------------------------------------------------- XPoly ----


XP_ZERO = {}
XP_ONE = {0: QRAT_ONE}


def xp_add(a, b):
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def xp_neg(a):
    return {k: -c for k, c in a.items()}


def xp_sub(a, b):
    if not b:
        return a
    return xp_add(a, xp_neg(b))


def xp_scale(a, qr):
    if not qr:
        return XP_ZERO
    if qr is QRAT_ONE:
        return a
    return {k: c * qr for k, c in a.items()}


def xp_shift(a, s):
    if not s:
        return a
    return {k + s: c for k, c in a.items()}


def xp_mul(a, b):
    if not a or not b:
        return XP_ZERO
    if len(a) == 1:
        (k, c), = a.items()
        return xp_shift(xp_scale(b, c), k)
    if len(b) == 1:
        (k, c), = b.items()
        return xp_shift(xp_scale(a, c), k)
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


def xp_strip(a):
    s = min(a)
    if s:
        return {k - s: c for k, c in a.items()}, s
    return a, 0


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
        if qr.den != QP_ONE:
            d = _qp_eval_mod(qr.den, pw, lo)
            if d == 0:
                raise ZeroDivisionError("denominator vanished at filter point")
            m = m * pow(d, -1, _P) % _P
        if m:
            out[k] = m
    return out


def _xp_image_gcd_degree(a0, b0):
    # v-degree of the gcd of the GF(p) images at a point u0 that keeps both
    # leading degrees, an upper bound on the exact gcd degree; None if no
    # point tried works
    da, db = max(a0), max(b0)
    nums = [qr.num for p in (a0, b0) for qr in p.values()]
    dens = [qr.den for p in (a0, b0) for qr in p.values()]
    lo = min(0, min(map(min, nums)))
    hi = max(max(map(max, nums)), max(map(max, dens)))
    for _ in range(2):
        u0 = _RNG.randrange(2, _P - 1)
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
# a Z[u] row as it stands, so qp_mul and qp_sub serve the rows and a row is
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
        if qr.den != QP_ONE:
            return None
        row = _qp_to_zu(qr.num)
        if row is None:
            return None
        rows[k] = row
    s = min(min(row) for row in rows.values())
    if s:
        rows = {k: qp_shift(row, -s) for k, row in rows.items()}
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


def _zu_gcdheu(a, b):
    """Candidate gcds of a and b in Z[u] by GCDHEU.

    Evaluate at an integer xi, take the integer gcd, rebuild it by symmetric
    xi-adic expansion and divide out its content.  Each of six attempts grows
    xi; a candidate is only a guess until it is verified.
    """
    xi = _xi_norm(a, b)
    for _ in range(6):
        yield _zu_heu_step(a, b, xi)
        xi = xi * 73794 // 27011


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
            s = qp_sub(r.get(t, QP_ZERO), qp_mul(c, f))
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
            {k: QRat(_inflate(qp_mul(lead, row), ku, sa), QP_ONE)
             for k, row in qa.items()},
            {k: QRat(_inflate(qp_mul(lead, row), ku, sb), QP_ONE)
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
    a0, _ = xp_strip(a)
    b0, _ = xp_strip(b)
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
            if qr.den != QP_ONE:
                m = m * pow(_qp_at_u0(qr.den), -1, _P) % _P
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


def xp_qshift(a, m_units, denom):
    """Image of the substitution x -> x*q**(m_units/D) on an XPoly."""
    if not m_units:
        return a
    out = {}
    for k, c in a.items():
        s = m_units * k
        if s % denom:
            raise LatticeError(
                "shift by %d/%d units leaves the lattice at x-exponent %d/%d"
                % (m_units, denom, k, denom)
            )
        out[k] = qrat_monomial_mul(c, s // denom)
    return out
