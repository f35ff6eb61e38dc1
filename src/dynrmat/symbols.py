"""q-Wigner couplings, their continuation in one spin, and the dictionary
between them and the twist-family matrices.

The continuation replaces one spin by j(x) defined through x = q^(2 j(x)+1).
Writing K = 2 j(x), every continued q-number collapses to a two-term bracket,

    [K + c] = (x q^(c-1) - x^(-1) q^(1-c)) / (q - q^(-1)),

so continued factorials only ever appear through ratios [K+c1]!/[K+c2]!
which telescope into finite products of brackets.  ContinuedExpr tracks an
exact scalar prefactor together with the multiset of such factorial symbols
(with half-integer multiplicities coming from triangle factors) and reduces
to a Scalar once the multiplicities cancel.
"""

from fractions import Fraction

from .coeffs import minus_one_pow
from .lattice import to_units
from .scalar import (
    SC_ONE,
    SC_ZERO,
    Scalar,
    phase,
    qdiff,
    qfact,
    qpow,
    qrat_qfact_sum,
    sc_coeff,
    sc_from_qrat,
    sqrt_qdiff,
    sqrt_qfact,
    sqrt_qint,
    sqrt_xbracket,
    xbracket,
    xpow,
)

__all__ = [
    "three_j",
    "cg",
    "six_j",
    "six_j_brute",
    "six_j_cont",
    "six_j_u",
    "ContinuedExpr",
    "cont_spin",
    "m_element",
    "norm_xi",
    "norm_psi",
    "limit_three_j",
    "r_dict_entry",
    "f_dict_entry",
    "SYMBOL_RELATIONS",
]

# Pinned value of (-1)^K for the continued spin: fixed by requiring the
# stretched continued recouplings to match the finite-spin limits (checked
# in the dictionary identities, which compare against actual matrices).
SIGN_K = 1


def _fr(v):
    return Fraction(v)


def _is_int(v):
    return Fraction(v).denominator == 1


def _qd_pow(e):
    """(q - 1/q)^e for half-integer e >= 0."""
    e = Fraction(e)
    if e < 0:
        return _qd_pow(-e).inv()
    whole, rem = divmod(e, 1)
    out = qdiff() ** int(whole)
    if rem == Fraction(1, 2):
        out = out * sqrt_qdiff()
    elif rem:
        raise ValueError("exponent must be a half-integer")
    return out


def _triangle_ok(a, b, c):
    return (
        _is_int(a + b - c)
        and a + b - c >= 0
        and a - b + c >= 0
        and -a + b + c >= 0
    )


# ---------------------------------------------------------------------------
# finite couplings


# the brute-force 6j overlap meets the same couplings many times over
_THREE_J_CACHE = {}


def three_j(j1, j2, j3, m1, m2, m3):
    """Coupling coefficient normalised so columns are orthonormal.

    Vanishes unless m1 + m2 = m3 and the triangle rule holds.
    """
    args = _fr(j1), _fr(j2), _fr(j3), _fr(m1), _fr(m2), _fr(m3)
    key = args
    got = _THREE_J_CACHE.get(key)
    if got is None:
        got = _three_j(*args)
        _THREE_J_CACHE[key] = got
    return got


def _three_j(j1, j2, j3, m1, m2, m3):
    if m1 + m2 != m3 or not _triangle_ok(j1, j2, j3):
        return SC_ZERO
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return SC_ZERO
    if not (_is_int(j1 + m1) and _is_int(j2 + m2) and _is_int(j3 + m3)):
        return SC_ZERO
    delta = (
        phase(j1 + j2 - j3)
        * sqrt_qfact(-j1 + j2 + j3)
        * sqrt_qfact(j1 - j2 + j3)
        * sqrt_qfact(j1 + j2 - j3)
        / sqrt_qfact(j1 + j2 + j3 + 1)
        * sqrt_qint(2 * j3 + 1)
    )
    pref = qpow(
        -Fraction(1, 2) * (j1 + j2 - j3) * (j1 + j2 + j3 + 1) + j1 * m2 - j2 * m1
    )
    root = (
        sqrt_qfact(j1 + m1)
        * sqrt_qfact(j1 - m1)
        * sqrt_qfact(j2 + m2)
        * sqrt_qfact(j2 - m2)
        * sqrt_qfact(j3 + m3)
        * sqrt_qfact(j3 - m3)
    )
    terms = []
    plo = max(0, j1 - j3 - m2, j2 + m1 - j3)
    phi_ = min(j1 + j2 - j3, j2 - m2, j1 + m1)
    p = int(plo)
    while p <= phi_:
        terms.append((
            minus_one_pow(p),
            to_units(p * (j1 + j2 + j3 + 1)),
            (),
            (p, j1 + j2 - j3 - p, j2 - m2 - p, j1 + m1 - p,
             j3 - j1 + m2 + p, j3 - j2 - m1 + p),
        ))
        p += 1
    return delta * pref * root * sc_from_qrat(qrat_qfact_sum(terms))


def cg(j1, m1, j2, m2, j3, m3):
    """Clebsch-Gordan coefficient <j3 m3 | j1 m1, j2 m2>."""
    return three_j(j1, j2, j3, m1, m2, m3)


def six_j(j1, j2, j3, j4, j5, j6):
    """Recoupling symbol {j1 j2 j3; j4 j5 j6} by the single-sum formula."""
    js = tuple(_fr(j) for j in (j1, j2, j3, j4, j5, j6))
    j1, j2, j3, j4, j5, j6 = js
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    boxes = ((j1, j2, j4, j5), (j2, j3, j5, j6), (j3, j1, j6, j4))
    for t in triads:
        if not _triangle_ok(*t):
            return SC_ZERO
    pref = SC_ONE
    for a, b, c in triads:
        pref = (
            pref
            * sqrt_qfact(-a + b + c)
            * sqrt_qfact(a - b + c)
            * sqrt_qfact(a + b - c)
            / sqrt_qfact(a + b + c + 1)
        )
    zlo = max(sum(t) for t in triads)
    zhi = min(sum(b) for b in boxes)
    assert _is_int(zlo) and _is_int(zhi)
    terms = []
    z = int(zlo)
    while z <= zhi:
        terms.append((
            minus_one_pow(z),
            0,
            (z + 1,),
            [z - sum(t) for t in triads] + [sum(b) - z for b in boxes],
        ))
        z += 1
    return pref * sc_from_qrat(qrat_qfact_sum(terms))


def six_j_brute(j1, j2, j12, j3, jtot, j23):
    """{j1 j2 j12; j3 jtot j23} from the overlap of the two coupled bases.

    Independent of the single-sum formula: builds both recoupled vectors
    coefficient by coefficient and divides out the stated normalisation.
    """
    js = tuple(_fr(j) for j in (j1, j2, j12, j3, jtot, j23))
    j1, j2, j12, j3, jtot, j23 = js
    mtot = jtot
    overlap = SC_ZERO
    m1 = -j1
    while m1 <= j1:
        m2 = -j2
        while m2 <= j2:
            m3 = mtot - m1 - m2
            if abs(m3) <= j3:
                a = cg(j1, m1, j2, m2, j12, m1 + m2)
                if a:
                    b = cg(j12, m1 + m2, j3, m3, jtot, mtot)
                    c = cg(j2, m2, j3, m3, j23, m2 + m3)
                    d = cg(j1, m1, j23, m2 + m3, jtot, mtot)
                    overlap = overlap + a * b * c * d
            m2 += 1
        m1 += 1
    norm = phase(j1 + j2 + j3 + jtot) * sqrt_qint(2 * j12 + 1) * sqrt_qint(
        2 * j23 + 1
    )
    return overlap / norm


# ---------------------------------------------------------------------------
# continued expressions


def cont_spin(offset=0):
    """Position marker for a continued spin j(x) + offset."""
    return ("J", Fraction(offset))


def _pos(p):
    """Normalise a six_j_cont position to (weight, constant)."""
    if isinstance(p, tuple) and len(p) == 2 and p[0] == "J":
        return (1, Fraction(p[1]))
    return (0, Fraction(p))


class ContinuedExpr:
    """scalar * prod_c ([K+c]!)^mult_c with Fraction multiplicities."""

    __slots__ = ("scalar", "facts")

    def __init__(self, scalar=SC_ONE, facts=None):
        self.scalar = scalar
        self.facts = dict(facts) if facts else {}

    def _merged(self, other_facts, flip=False):
        out = dict(self.facts)
        for c, mult in other_facts.items():
            m = -mult if flip else mult
            got = out.get(c, 0) + m
            if got:
                out[c] = got
            elif c in out:
                del out[c]
        return out

    def __mul__(self, other):
        if isinstance(other, ContinuedExpr):
            return ContinuedExpr(self.scalar * other.scalar, self._merged(other.facts))
        return ContinuedExpr(self.scalar * other, self.facts)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ContinuedExpr):
            return ContinuedExpr(
                self.scalar / other.scalar, self._merged(other.facts, flip=True)
            )
        return ContinuedExpr(self.scalar / other, self.facts)

    def __neg__(self):
        return ContinuedExpr(-self.scalar, self.facts)

    def with_fact(self, c, mult):
        c = Fraction(c)
        if c.denominator != 1:
            raise ValueError("continued factorial offset must be an integer")
        out = dict(self.facts)
        got = out.get(c, 0) + Fraction(mult)
        if got:
            out[c] = got
        elif c in out:
            del out[c]
        return ContinuedExpr(self.scalar, out)

    def shift_x(self, m):
        """x -> x q^m, hence every symbol offset moves by m."""
        m = Fraction(m)
        if m.denominator != 1:
            raise ValueError("shift must keep offsets integral")
        return ContinuedExpr(
            self.scalar.shift_x(m), {c + m: mult for c, mult in self.facts.items()}
        )

    def reduce(self):
        """Collapse to a Scalar; multiplicities must sum to zero."""
        if not self.facts:
            return self.scalar
        if sum(self.facts.values()) != 0:
            raise ValueError("unbalanced continued factorials: %r" % (self.facts,))
        keys = sorted(self.facts)
        out = self.scalar
        base = keys[0]
        running = Fraction(0)
        # [K+c]! = [K+base]! * prod_{t=base+1}^{c} [K+t]; the [K+base]! parts
        # cancel since the multiplicities sum to zero, and the cumulative
        # exponent of each [K+t] is the mass of symbols at or above t
        for t in range(int(base) + 1, int(keys[-1]) + 1):
            running = sum(m for c, m in self.facts.items() if c >= t)
            if not running:
                continue
            whole, rem = divmod(running, 1)
            if whole:
                out = out * xbracket(t - 1) ** int(whole)
            if rem == Fraction(1, 2):
                # floor division left a +1/2 remainder even for negative
                # masses, so a single root factor always suffices here
                out = out * sqrt_xbracket(t - 1)
            elif rem:
                raise ValueError("multiplicity must be a half-integer")
        return out

    def __repr__(self):
        return "ContinuedExpr(%r, %r)" % (self.scalar, self.facts)


def _cont_tri_delta(pa, pb, pc):
    """Triangle factor of one six-j triad, with continued entries allowed.

    Returns a ContinuedExpr holding the square roots; only triads with zero
    or two continued positions occur in this paper's dictionaries.
    """
    half = Fraction(1, 2)
    expr = ContinuedExpr()
    for (w, c), mult in (
        ((pa[0] * -1 + pb[0] + pc[0], -pa[1] + pb[1] + pc[1]), half),
        ((pa[0] - pb[0] + pc[0], pa[1] - pb[1] + pc[1]), half),
        ((pa[0] + pb[0] - pc[0], pa[1] + pb[1] - pc[1]), half),
        ((pa[0] + pb[0] + pc[0], pa[1] + pb[1] + pc[1] + 1), -half),
    ):
        if w == 0:
            if c < 0 or not _is_int(c):
                raise ValueError("triangle violated in continued symbol")
            f = sqrt_qfact(c)
            expr = expr * (f if mult > 0 else f.inv())
        elif w == 2:
            expr = expr.with_fact(c, mult)
        else:
            raise ValueError("triad with a single continued entry")
    return expr


def six_j_cont(p1, p2, p3, p4, p5, p6):
    """Recoupling symbol with continued entries, reduced to a Scalar.

    Arguments are finite spins or cont_spin(offset) markers; the layout is
    the same as six_j.  The single-sum formula is continued termwise: the
    summation variable becomes K + y and each term telescopes exactly.
    """
    pos = tuple(_pos(p) for p in (p1, p2, p3, p4, p5, p6))
    triads = ((pos[0], pos[1], pos[2]), (pos[0], pos[4], pos[5]),
              (pos[3], pos[1], pos[5]), (pos[3], pos[4], pos[2]))
    boxes = ((pos[0], pos[1], pos[3], pos[4]),
             (pos[1], pos[2], pos[4], pos[5]),
             (pos[2], pos[0], pos[5], pos[3]))
    if all(w == 0 for w, _ in pos):
        return six_j(*(c for _, c in pos))

    pref = ContinuedExpr()
    for t in triads:
        pref = pref * _cont_tri_delta(*t)

    tri_sums = [(sum(w for w, _ in t), sum(c for _, c in t)) for t in triads]
    box_sums = [(sum(w for w, _ in b), sum(c for _, c in b)) for b in boxes]
    if not any(w == 2 for w, _ in tri_sums):
        raise ValueError("no continued triad; use six_j")
    ylo = max(c for w, c in tri_sums if w == 2)
    finite_hi = [c for w, c in box_sums if w == 2]
    if not finite_hi:
        raise ValueError("continued sum does not terminate")
    yhi = min(finite_hi)
    if not (_is_int(ylo) and _is_int(yhi)):
        raise ValueError("continued summation variable must be integral")

    total = SC_ZERO
    y = int(ylo)
    while y <= yhi:
        term = pref.with_fact(y + 1, 1) * (sc_coeff(SIGN_K) * phase(y))
        ok = True
        for w, c in tri_sums:
            if w == 2:
                arg = y - c
                if arg < 0:
                    ok = False
                    break
                term = term / qfact(arg)
            else:
                term = term.with_fact(y - c, -1)
        if ok:
            for w, c in box_sums:
                if w == 2:
                    arg = c - y
                    if arg < 0:
                        ok = False
                        break
                    term = term / qfact(arg)
                else:
                    term = term.with_fact(c - y, -1)
        if ok:
            total = total + term.reduce()
        y += 1
    return total


def six_j_u(p1, p2, p3, p4, p5, p6):
    """Recoupling symbol in overlap normalisation: the plain inner product
    of the two coupled bases, equal to
    (-1)^(p1+p2+p4+p5) sqrt([2 p3 + 1][2 p6 + 1]) times six_j.

    This is the normalisation the matrix dictionaries use; continued
    entries are allowed in any position.
    """
    pos = tuple(_pos(p) for p in (p1, p2, p3, p4, p5, p6))
    wsum = pos[0][0] + pos[1][0] + pos[3][0] + pos[4][0]
    csum = pos[0][1] + pos[1][1] + pos[3][1] + pos[4][1]
    if wsum % 2:
        raise ValueError("phase of a half-continued recoupling is undefined")
    norm = phase(csum) * sc_coeff(SIGN_K ** (wsum // 2))
    for w, c in (pos[2], pos[5]):
        if w == 0:
            norm = norm * sqrt_qint(2 * c + 1)
        else:
            norm = norm * sqrt_xbracket(2 * c)
    return norm * six_j_cont(p1, p2, p3, p4, p5, p6)


# ---------------------------------------------------------------------------
# the one-leg matrix in closed form and the limit coupling


def m_element(j, sigma, m):
    """Closed-form matrix element of the one-leg twist at row sigma, col m."""
    j, sigma, m = _fr(j), _fr(sigma), _fr(m)
    if abs(sigma) > j or abs(m) > j:
        return SC_ZERO
    if not (_is_int(j + sigma) and _is_int(j + m)):
        return SC_ZERO
    pre = (
        phase(2 * j + sigma + m)
        * sqrt_qfact(j + sigma)
        * sqrt_qfact(j - sigma)
        * sqrt_qfact(j + m)
        * sqrt_qfact(j - m)
        * qpow(sigma * (sigma - m))
        * xpow(sigma - m)
    )
    den = SC_ONE
    r = 1
    while r <= j + sigma:
        den = den * (SC_ONE - xpow(2) * qpow(2 * r))
        r += 1
    total = SC_ZERO
    plo = max(Fraction(0), m - sigma)
    p = int(plo)
    while p <= min(j - sigma, j + m):
        den_p = (
            qfact(p)
            * qfact(sigma - m + p)
            * qfact(j - sigma - p)
            * qfact(j + m - p)
        )
        total = total + qpow(2 * p * sigma) * xpow(2 * p) / den_p
        p += 1
    return pre * total / den


def norm_xi(m):
    """Field normalisation on the vertex side."""
    m = _fr(m)
    return phase(-Fraction(m, 2)) * qpow(Fraction(m, 2))


def norm_psi(j, sigma, shift=0):
    """Field normalisation on the face side, at argument x q^shift.

    Carries the continued triangle denominator, so the result is a
    ContinuedExpr; the continued parts cancel inside the dictionaries.
    """
    j, sigma, shift = _fr(j), _fr(sigma), _fr(shift)
    scal = (
        phase(j + Fraction(3 * sigma, 2))
        * sqrt_qfact(j + sigma)
        * sqrt_qfact(j - sigma)
        * _qd_pow(j)
        * xpow(j)
        * qpow(j * sigma)
    )
    den = SC_ONE
    r = 1
    while r <= j + sigma:
        den = den * (SC_ONE - xpow(2) * qpow(2 * r))
        r += 1
    scal = (scal / den).shift_x(shift)
    # triangle factor of (j, J', J'+sigma) with J' = j(x q^shift) = J + shift/2
    u = Fraction(shift, 2)
    tri = _cont_tri_delta((0, j), (1, u), (1, u + sigma))
    tri_phase = phase(j - sigma)
    # continued dimension root: [2 j(xq^shift) + 2 sigma + 1] = [K + shift + 2 sigma + 1]
    dimroot = sqrt_xbracket(shift + 2 * sigma)
    out = ContinuedExpr(scal) / (tri * (tri_phase * dimroot))
    return out


def limit_three_j(j, sigma, m):
    """Limit of the coupling (j, j(x), j(x)+sigma; m, mu, mu+m) as mu grows.

    Includes the continued triangle and dimension factors, mirroring
    norm_psi, so the product norm_psi/norm_xi * limit reduces exactly.
    """
    j, sigma, m = _fr(j), _fr(sigma), _fr(m)
    if abs(m) > j or abs(sigma) > j:
        return ContinuedExpr(SC_ZERO)
    scal = (
        sqrt_qfact(j + m)
        * sqrt_qfact(j - m)
        / _qd_pow(j)
        * phase(j + Fraction(m - sigma, 2))
        * xpow(sigma - j)
        * qpow(sigma * (sigma - j))
        * qpow(-Fraction(m, 2))
        * xpow(-m)
        * qpow(m * (1 - sigma))
    )
    total = SC_ZERO
    plo = max(Fraction(0), m - sigma)
    p = int(plo)
    while p <= min(j - sigma, j + m):
        den_p = (
            qfact(p)
            * qfact(j - sigma - p)
            * qfact(j + m - p)
            * qfact(sigma - m + p)
        )
        total = total + xpow(2 * p) * qpow(2 * p * sigma) / den_p
        p += 1
    tri = _cont_tri_delta((0, j), (1, Fraction(0)), (1, sigma))
    tri_phase = phase(j - sigma)
    dimroot = sqrt_xbracket(2 * sigma)
    return tri * (tri_phase * dimroot * scal * total)


# ---------------------------------------------------------------------------
# dictionary entries


def r_dict_entry(j1, j2, sp1, sp2, s1, s2):
    """Exchange-matrix element <sp1 sp2| R(x) |s1 s2> via the recoupling
    symbol with two continued spins."""
    j1, j2 = _fr(j1), _fr(j2)
    sp1, sp2, s1, s2 = _fr(sp1), _fr(sp2), _fr(s1), _fr(s2)
    if sp1 + sp2 != s1 + s2:
        return SC_ZERO
    s = s1 + s2
    combo = qpow(s * s + s - sp1 * sp1 - sp1 - s2 * s2 - s2) * (
        xpow(s1 - sp1) * qpow(sp1 - s1)
    )
    ratio = (
        norm_psi(j1, sp1)
        * norm_psi(j2, sp2, shift=2 * sp1)
        / (norm_psi(j1, s1, shift=2 * s2) * norm_psi(j2, s2))
    )
    sym = six_j_u(
        j2, cont_spin(s), cont_spin(sp1), j1, cont_spin(0), cont_spin(s2)
    )
    return phase(sp1 - s1) * combo * (ratio.reduce() * sym)


def f_dict_entry(j1, j2, s1, s2, sp1, sp2):
    """Twist element <s1 s2| F(x) |sp1 sp2> as a sum over the intermediate
    spin of couplings times continued recouplings."""
    j1, j2 = _fr(j1), _fr(j2)
    s1, s2, sp1, sp2 = _fr(s1), _fr(s2), _fr(sp1), _fr(sp2)
    if s1 + s2 != sp1 + sp2:
        return SC_ZERO
    s = s1 + s2
    total = SC_ZERO
    j12 = max(abs(j1 - j2), abs(s))
    while j12 <= j1 + j2:
        w = three_j(j1, j2, j12, s1, s2, s)
        if w:
            ratio = norm_psi(j12, s) / (
                norm_psi(j1, sp1, shift=2 * sp2) * norm_psi(j2, sp2)
            )
            sym = six_j_u(
                j1, j2, j12, cont_spin(0), cont_spin(s), cont_spin(sp2)
            )
            total = total + w * (ratio.reduce() * sym)
        j12 += 1
    return total


# ---------------------------------------------------------------------------
# relation builders: each returns a list of (label, lhs, rhs)


def _spin_range(j):
    j = _fr(j)
    vals = []
    m = j
    while m >= -j:
        vals.append(m)
        m -= 1
    return vals


def _build_rel_m_dictionary(j):
    """Closed-form matrix elements against the one-leg series matrix."""
    from .twist import boundary_m

    op = boundary_m(j)
    comparisons = []
    rng = _spin_range(j)
    for r, sigma in enumerate(rng):
        for c, m in enumerate(rng):
            comparisons.append(
                (
                    "entry sigma=%s m=%s" % (sigma, m),
                    op.entry(r, c),
                    m_element(j, sigma, m),
                )
            )
    return comparisons


def _build_rel_m_limit_formula(j):
    """Closed form == normalisation ratio times the continued coupling."""
    comparisons = []
    rng = _spin_range(j)
    for sigma in rng:
        for m in rng:
            lhs = m_element(j, sigma, m)
            rhs = (norm_psi(j, sigma) * limit_three_j(j, sigma, m)).reduce() / norm_xi(m)
            comparisons.append(("sigma=%s m=%s" % (sigma, m), lhs, rhs))
    return comparisons


def _build_rel_r_dictionary(j1, j2):
    from .twist import gnf_r

    op = gnf_r(j1, j2)
    space = op.space
    r1 = _spin_range(j1)
    r2 = _spin_range(j2)
    comparisons = []
    for a, sp1 in enumerate(r1):
        for b, sp2 in enumerate(r2):
            for c, s1 in enumerate(r1):
                for d, s2 in enumerate(r2):
                    if sp1 + sp2 != s1 + s2:
                        continue
                    row = space.index((a, b))
                    col = space.index((c, d))
                    comparisons.append(
                        (
                            "entry (%s,%s)<-(%s,%s)" % (sp1, sp2, s1, s2),
                            op.entry(row, col),
                            r_dict_entry(j1, j2, sp1, sp2, s1, s2),
                        )
                    )
    return comparisons


def _build_rel_f_dictionary(j1, j2):
    from .twist import twist_f

    op = twist_f(j1, j2)
    space = op.space
    r1 = _spin_range(j1)
    r2 = _spin_range(j2)
    comparisons = []
    for a, s1 in enumerate(r1):
        for b, s2 in enumerate(r2):
            for c, sp1 in enumerate(r1):
                for d, sp2 in enumerate(r2):
                    if s1 + s2 != sp1 + sp2:
                        continue
                    row = space.index((a, b))
                    col = space.index((c, d))
                    comparisons.append(
                        (
                            "entry (%s,%s)<-(%s,%s)" % (s1, s2, sp1, sp2),
                            op.entry(row, col),
                            f_dict_entry(j1, j2, s1, s2, sp1, sp2),
                        )
                    )
    return comparisons


def _build_rel_delta_m_decomposition(j1, j2):
    """Two-leg boundary twist decomposes over intermediate spins with
    coupling coefficients on both sides."""
    from .twist import delta_m

    op = delta_m(j1, j2)
    space = op.space
    r1 = _spin_range(j1)
    r2 = _spin_range(j2)
    comparisons = []
    for a, s1 in enumerate(r1):
        for b, s2 in enumerate(r2):
            for c, m1 in enumerate(r1):
                for d, m2 in enumerate(r2):
                    row = space.index((a, b))
                    col = space.index((c, d))
                    rhs = SC_ZERO
                    j12 = abs(j1 - j2)
                    while j12 <= j1 + j2:
                        w1 = three_j(j1, j2, j12, s1, s2, s1 + s2)
                        w2 = three_j(j1, j2, j12, m1, m2, m1 + m2)
                        if w1 and w2:
                            rhs = rhs + w1 * m_element(j12, s1 + s2, m1 + m2) * w2
                        j12 += 1
                    comparisons.append(
                        (
                            "entry (%s,%s)<-(%s,%s)" % (s1, s2, m1, m2),
                            op.entry(row, col),
                            rhs,
                        )
                    )
    return comparisons


def _build_rel_recoupling(j1, j2, j3):
    """Single-sum recoupling symbol against the brute-force overlap."""
    comparisons = []
    j12 = abs(j1 - j2)
    while j12 <= j1 + j2:
        j23 = abs(j2 - j3)
        while j23 <= j2 + j3:
            lo = max(abs(j12 - j3), abs(j1 - j23))
            hi = min(j12 + j3, j1 + j23)
            jtot = lo
            while jtot <= hi:
                comparisons.append(
                    (
                        "j12=%s j23=%s jtot=%s" % (j12, j23, jtot),
                        six_j(j1, j2, j12, j3, jtot, j23),
                        six_j_brute(j1, j2, j12, j3, jtot, j23),
                    )
                )
                jtot += 1
            j23 += 1
        j12 += 1
    return comparisons


SYMBOL_RELATIONS = {
    "M_DICTIONARY": (_build_rel_m_dictionary, 1),
    "M_LIMIT_FORMULA": (_build_rel_m_limit_formula, 1),
    "R_DICTIONARY": (_build_rel_r_dictionary, 2),
    "F_DICTIONARY": (_build_rel_f_dictionary, 2),
    "DELTA_M_DECOMPOSITION": (_build_rel_delta_m_decomposition, 2),
    "RECOUPLING": (_build_rel_recoupling, 3),
}

