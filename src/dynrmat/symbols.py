"""q-Wigner couplings, their continuation in one spin, and the dictionary
between them and the twist-family matrices.

The continuation replaces one spin by j(x) defined through x = q^(2 j(x)+1).
Writing K = 2 j(x), every continued q-number collapses to a two-term bracket,

    [K + c] = (x q^(c-1) - x^(-1) q^(1-c)) / (q - q^(-1)),

so continued factorials only ever appear through ratios [K+c1]!/[K+c2]!
which telescope into finite products of brackets.  ContinuedExpr tracks a
monomial prefactor, as the exponents of its known factors, together with
the multiset of such factorial symbols (with half-integer multiplicities
coming from triangle factors), and reduces to a Scalar once the
multiplicities cancel.  Every prefactor here, continued or not, is built by
one scalar.qint_monomial call, never by division.
"""

from fractions import Fraction
from functools import cache

from .lattice import DENOM, ratio_str, twice
from .polys import add_into
from .scalar import (
    QDIFF,
    SC_ONE,
    SC_ZERO,
    add_qfact,
    add_xbracket,
    known_product,
    known_sum,
    known_term,
    qint_monomial,
    qrat_qfact_sum,
    sc_from_qrat,
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

# Pinned value of (-1)^K for the continued spin, as the exponent of the
# eighth root of unity z8**K_PHASE: fixed by requiring the stretched
# continued recouplings to match the finite-spin limits (checked in the
# dictionary identities, which compare against actual matrices).
K_PHASE = 0

# Spins, projections and offsets enter once through lattice.twice and are
# doubled ints from then on, so J = 2 j; the relation builders work on the
# doubled ints throughout and print them with lattice.ratio_str.  A phase
# (-1)**t is z8**(4 t), the phase exponent 4 t of scalar.qint_monomial, and
# a q-exponent e is the u-exponent 4 e (lattice.py).  Multiplicities of
# continued factorials are doubled ints too.


def _triangle(a, b, c):
    """The triangle rule on doubled spins."""
    return not (a + b + c) % 2 and a <= b + c and b <= a + c and c <= a + b


def _add_triangle(halves, a, b, c):
    """Add the triangle factor of the doubled spins a, b, c,
    sqrt([a+b-c]! [a-b+c]! [-a+b+c]! / [a+b+c+1]!) on the spins, to the
    half-exponents `halves`.  Returns `halves`."""
    add_qfact(halves, (-a + b + c) // 2, 1)
    add_qfact(halves, (a - b + c) // 2, 1)
    add_qfact(halves, (a + b - c) // 2, 1)
    return add_qfact(halves, (a + b + c) // 2 + 1, -1)


# ---------------------------------------------------------------------------
# finite couplings


class _Parts:
    """c * u**units * prod f**(m/2) over the items f: m of `halves`
    (scalar.qint_monomial) times the q-factorial sum of `terms`
    (scalar.qrat_qfact_sum).  A single term joins the other factors; a
    longer sum is kept as the QRat `cof`, None for one."""

    __slots__ = ("c", "units", "halves", "cof", "_known", "_scalar")

    def __init__(self, c, units, halves, terms):
        cof = None
        if len(terms) == 1:
            (t, s, ns, ds), = terms
            c, units = c * t, units + s
            for n in ns:
                add_qfact(halves, n, 2)
            for n in ds:
                add_qfact(halves, n, -2)
        else:
            cof = qrat_qfact_sum(terms)
        self.c, self.units, self.halves, self.cof = c, units, halves, cof
        self._known = self._scalar = None

    def __bool__(self):
        return self.cof is None or bool(self.cof)

    def known(self):
        """The value as a KnownTerm, cached."""
        got = self._known
        if got is None:
            got = self._known = known_term(self.c, self.units, self.halves,
                                           self.cof)
        return got

    def scalar(self):
        """The value as a Scalar, cached."""
        got = self._scalar
        if got is None:
            got = qint_monomial(self.c, self.units, self.halves)
            if self.cof is not None:
                got = got * sc_from_qrat(self.cof)
            self._scalar = got
        return got


def three_j(j1, j2, j3, m1, m2, m3):
    """Coupling coefficient normalised so columns are orthonormal.

    Vanishes unless m1 + m2 = m3 and the triangle rule holds.
    """
    return _coupling(twice(j1), twice(j2), twice(j3),
                     twice(m1), twice(m2), twice(m3))


def _coupling(*key):
    got = _parts(*key)
    return SC_ZERO if got is None else got.scalar()


@cache
def _parts(J1, J2, J3, M1, M2, M3):
    """The _Parts of the coupling of the doubled spins, or None where it
    vanishes, cached: the brute-force 6j overlap meets the same couplings
    many times over."""
    if M1 + M2 != M3 or not _triangle(J1, J2, J3):
        return None
    if abs(M1) > J1 or abs(M2) > J2 or abs(M3) > J3:
        return None
    if (J1 + M1) % 2 or (J2 + M2) % 2 or (J3 + M3) % 2:
        return None
    a, s = J1 + J2 - J3, J1 + J2 + J3  # both even
    halves = _add_triangle({J3 + 1: 1}, J1, J2, J3)
    for j, m in ((J1, M1), (J2, M2), (J3, M3)):
        add_qfact(halves, (j + m) // 2, 1)
        add_qfact(halves, (j - m) // 2, 1)
    b1, b2 = (J2 - M2) // 2, (J1 + M1) // 2
    c1, c2 = (J3 - J1 + M2) // 2, (J3 - J2 - M1) // 2
    terms = [
        ((-1) ** p, 2 * p * (s + 2), (),
         (p, a // 2 - p, b1 - p, b2 - p, c1 + p, c2 + p))
        for p in range(max(0, -c1, -c2), min(a // 2, b1, b2) + 1)
    ]
    # (-1)**(j1+j2-j3) q**(-(j1+j2-j3)(j1+j2+j3+1)/2 + j1 m2 - j2 m1), with
    # j1 + j2 - j3 = a/2 an integer
    got = _Parts((-1) ** (a // 2), -a * (s + 2) // 2 + J1 * M2 - J2 * M1,
                 halves, terms)
    return got if got else None


def cg(j1, m1, j2, m2, j3, m3):
    """Clebsch-Gordan coefficient <j3 m3 | j1 m1, j2 m2>."""
    return three_j(j1, j2, j3, m1, m2, m3)


def six_j(j1, j2, j3, j4, j5, j6):
    """Recoupling symbol {j1 j2 j3; j4 j5 j6} by the single-sum formula."""
    return _six_j(*(twice(j) for j in (j1, j2, j3, j4, j5, j6)))


def _six_j(J1, J2, J3, J4, J5, J6):
    triads = ((J1, J2, J3), (J1, J5, J6), (J4, J2, J6), (J4, J5, J3))
    if not all(_triangle(*t) for t in triads):
        return SC_ZERO
    halves = {}
    for t in triads:
        _add_triangle(halves, *t)
    # the triangle rule makes every triad sum even, hence every box sum
    tri = [sum(t) // 2 for t in triads]
    box = [(J1 + J2 + J4 + J5) // 2, (J2 + J3 + J5 + J6) // 2,
           (J3 + J1 + J6 + J4) // 2]
    terms = [
        ((-1) ** z, 0, (z + 1,),
         [z - t for t in tri]
         + [b - z for b in box])
        for z in range(max(tri), min(box) + 1)
    ]
    return _Parts(1, 0, halves, terms).scalar()


def six_j_brute(j1, j2, j12, j3, jtot, j23):
    """{j1 j2 j12; j3 jtot j23} from the overlap of the two coupled bases.

    Independent of the single-sum formula: sums the products of the
    couplings of both recoupled vectors, coefficient by coefficient, and
    divides out the stated normalisation.  The products and the sum are
    taken in the exponents of known factors (scalar.known_sum), so the
    overlap is cancelled once per radical.
    """
    return _six_j_brute(*(twice(j) for j in (j1, j2, j12, j3, jtot, j23)))


def _six_j_brute(J1, J2, J12, J3, JT, J23):
    """six_j_brute on doubled spins."""
    terms = []
    for M1 in range(-J1, J1 + 1, 2):
        for M2 in range(-J2, J2 + 1, 2):
            M3 = JT - M1 - M2
            if abs(M3) <= J3:
                parts = (_parts(J1, J2, J12, M1, M2, M1 + M2),
                         _parts(J12, J3, JT, M1 + M2, M3, JT),
                         _parts(J2, J3, J23, M2, M3, M2 + M3),
                         _parts(J1, J23, JT, M1, M2 + M3, JT))
                if None not in parts:
                    terms.append(known_product([p.known() for p in parts]))
    # times the inverse of (-1)**(j1+j2+j3+jtot) sqrt([2 j12 + 1][2 j23 + 1])
    halves = {J12 + 1: -1}
    halves[J23 + 1] = halves.get(J23 + 1, 0) - 1
    return known_sum(terms, known_term(
        1, 0, halves, z8=-2 * (J1 + J2 + J3 + JT)))


# ---------------------------------------------------------------------------
# continued expressions


def cont_spin(offset=0):
    """Position marker for a continued spin j(x) + offset."""
    return ("J", Fraction(offset))


def _pos(p):
    """A six_j_cont position as (weight, doubled constant)."""
    if isinstance(p, tuple) and len(p) == 2 and p[0] == "J":
        return (1, twice(p[1]))
    return (0, twice(p))


def _merged(a, b, sign):
    """The multiset a + sign * b."""
    out = dict(a)
    for key, m in b.items():
        add_into(out, key, sign * m)
    return out


class ContinuedExpr:
    """scalar * z8**k * u**s * v**t * prod f**(m/2) * prod ([K+c]!)**(f_c/2)
    for (k, s, t) = `mono`, u = q**(1/D), v = x**(1/D), the items f: m of
    `halves` (the half-exponents of scalar.qint_monomial) and the items
    c: f_c of `facts`, doubled ints.

    The monomial part and the continued factorials are kept as exponents,
    so products and quotients add or subtract them; reduce() builds the
    monomial with one qint_monomial call and multiplies `scalar` in.
    """

    __slots__ = ("scalar", "facts", "mono", "halves")

    def __init__(self, scalar=SC_ONE, facts=None, mono=(0, 0, 0), halves=None):
        self.scalar = scalar
        self.facts = dict(facts or {})
        self.mono = mono
        self.halves = dict(halves or {})

    def _times(self, other, sign):
        by = other.scalar
        if sign < 0 and not by.is_one():
            by = by.inv()
        return ContinuedExpr(
            self.scalar * by, _merged(self.facts, other.facts, sign),
            tuple(a + sign * b for a, b in zip(self.mono, other.mono)),
            _merged(self.halves, other.halves, sign))

    def __mul__(self, other):
        return self._times(other, 1)

    def __truediv__(self, other):
        return self._times(other, -1)

    def with_fact(self, c, mult):
        """Times ([K+c]!)**mult, for an integer c and a half-integer mult."""
        c = Fraction(c)
        if c.denominator != 1:
            raise ValueError("continued factorial offset must be an integer")
        return self * ContinuedExpr(facts={int(c): twice(mult)})

    def shift_x(self, m):
        """x -> x q^m, hence every symbol offset moves by m."""
        m = Fraction(m)
        if m.denominator != 1:
            raise ValueError("shift must keep offsets integral")
        m = int(m)
        phase, units, x_units = self.mono
        halves = {("xbr", f[1] + DENOM * m) if type(f) is tuple and f[0] == "xbr"
                  else f: e for f, e in self.halves.items()}
        return ContinuedExpr(
            self.scalar.shift_x(m), {c + m: f for c, f in self.facts.items()},
            (phase, units + x_units * m, x_units), halves)

    def reduce(self):
        """Collapse to a Scalar; multiplicities must sum to zero."""
        if sum(self.facts.values()):
            raise ValueError("unbalanced continued factorials: %r" % (self.facts,))
        halves = dict(self.halves)
        if self.facts:
            # [K+c]! = [K+base]! * prod_{t=base+1}^{c} [K+t] with [K+t] =
            # <t-1>; the [K+base]! parts cancel since the multiplicities sum
            # to zero, and the cumulative exponent of each [K+t] is the mass
            # of symbols at or above t
            for t in range(min(self.facts) + 1, max(self.facts) + 1):
                running = sum(f for c, f in self.facts.items() if c >= t)
                if running:
                    add_xbracket(halves, DENOM * (t - 1), running)
        phase, units, x_units = self.mono
        return qint_monomial(1, units, halves, x_units,
                             z8=phase) * self.scalar

    def __repr__(self):
        return "ContinuedExpr(%r, %r, %r, %r)" % (
            self.scalar, self.facts, self.mono, self.halves)


def _cont_triangle(pa, pb, pc, halves, facts, sign=1):
    """Add the triangle factor of one six-j triad, raised to sign = +-1,
    with continued entries allowed: its finite q-factorials to the
    half-exponents `halves`, its continued ones to the doubled
    multiplicities `facts` of a ContinuedExpr.

    Only triads with zero or two continued positions occur in this paper's
    dictionaries.
    """
    (wa, a), (wb, b), (wc, c) = pa, pb, pc
    for w, n, e in (
        (-wa + wb + wc, -a + b + c, sign),
        (wa - wb + wc, a - b + c, sign),
        (wa + wb - wc, a + b - c, sign),
        (wa + wb + wc, a + b + c + 2, -sign),
    ):
        if w == 0:
            if n < 0 or n % 2:
                raise ValueError("triangle violated in continued symbol")
            add_qfact(halves, n // 2, e)
        elif w == 2:
            if n % 2:
                raise ValueError("continued factorial offset must be an integer")
            add_into(facts, n // 2, e)
        else:
            raise ValueError("triad with a single continued entry")


def six_j_cont(p1, p2, p3, p4, p5, p6):
    """Recoupling symbol with continued entries, reduced to a Scalar.

    Arguments are finite spins or cont_spin(offset) markers; the layout is
    the same as six_j.  The single-sum formula is continued termwise: the
    summation variable becomes K + y and each term telescopes exactly.
    """
    return _six_j_cont(tuple(_pos(p) for p in (p1, p2, p3, p4, p5, p6)))


def _six_j_cont(pos):
    if all(w == 0 for w, _ in pos):
        return _six_j(*(c for _, c in pos))
    triads = ((pos[0], pos[1], pos[2]), (pos[0], pos[4], pos[5]),
              (pos[3], pos[1], pos[5]), (pos[3], pos[4], pos[2]))
    boxes = ((pos[0], pos[1], pos[3], pos[4]),
             (pos[1], pos[2], pos[4], pos[5]),
             (pos[2], pos[0], pos[5], pos[3]))
    halves = {}
    facts = {}
    for t in triads:
        _cont_triangle(*t, halves, facts)

    tri_sums = [tuple(map(sum, zip(*t))) for t in triads]
    box_sums = [tuple(map(sum, zip(*b))) for b in boxes]
    if not any(w == 2 for w, _ in tri_sums):
        raise ValueError("no continued triad; use six_j")
    finite_hi = [c for w, c in box_sums if w == 2]
    if not finite_hi:
        raise ValueError("continued sum does not terminate")
    if any(c % 2 for _, c in tri_sums + box_sums):
        raise ValueError("continued summation variable must be integral")
    tri_sums = [(w, c // 2) for w, c in tri_sums]
    box_sums = [(w, c // 2) for w, c in box_sums]
    ylo = max(c for w, c in tri_sums if w == 2)
    yhi = min(finite_hi) // 2

    total = SC_ZERO
    for y in range(ylo, yhi + 1):
        # a triad or box with two continued entries leaves a finite
        # factorial 1/[y - c]! or 1/[c - y]! in the term, the others a
        # continued one
        args = [y - c for w, c in tri_sums if w == 2]
        args += [c - y for w, c in box_sums if w == 2]
        if min(args) < 0:
            continue
        h = dict(halves)
        for n in args:
            add_qfact(h, n, -2)
        f = dict(facts)
        add_into(f, y + 1, 2)
        for w, c in tri_sums:
            if w != 2:
                add_into(f, y - c, -2)
        for w, c in box_sums:
            if w != 2:
                add_into(f, c - y, -2)
        term = ContinuedExpr(facts=f, mono=(K_PHASE + 4 * y, 0, 0), halves=h)
        total = total + term.reduce()
    return total


def six_j_u(p1, p2, p3, p4, p5, p6):
    """Recoupling symbol in overlap normalisation: the plain inner product
    of the two coupled bases, equal to
    (-1)^(p1+p2+p4+p5) sqrt([2 p3 + 1][2 p6 + 1]) times six_j.

    This is the normalisation the matrix dictionaries use; continued
    entries are allowed in any position.
    """
    return _six_j_u(tuple(_pos(p) for p in (p1, p2, p3, p4, p5, p6)))


def _six_j_u(pos):
    wsum = pos[0][0] + pos[1][0] + pos[3][0] + pos[4][0]
    csum = pos[0][1] + pos[1][1] + pos[3][1] + pos[4][1]
    if wsum % 2:
        raise ValueError("phase of a half-continued recoupling is undefined")
    halves = {}
    for w, c in (pos[2], pos[5]):
        if w == 0:
            halves[c + 1] = halves.get(c + 1, 0) + 1
        else:
            # [2 p + 1] = [K + c + 1] = <c> for p = j(x) + c/2
            add_xbracket(halves, DENOM * c, 1)
    norm = qint_monomial(1, 0, halves,
                         z8=2 * csum + K_PHASE * (wsum // 2))
    return norm * _six_j_cont(pos)


# ---------------------------------------------------------------------------
# the one-leg matrix in closed form and the limit coupling


def _over_x_poles(halves, n, u=0):
    """1/prod (1 - x^2 q^(2 r)) over r = u+1..u+n, where 1 - x^2 q^(2 r) =
    -x q^r (q - q^-1) <r>: adds the q - 1/q and the brackets to the
    half-exponents `halves` and returns the z8-, u- and v-exponents of the
    rest."""
    halves[QDIFF] = halves.get(QDIFF, 0) - 2 * n
    for r in range(u + 1, u + n + 1):
        add_xbracket(halves, DENOM * r, -2)
    return 4 * n, -2 * n * (n + 1 + 2 * u), -DENOM * n


def _limit_sum(J, S, M):
    """sum over p of x^(2p) q^(2 p sigma) / ([p]! [j-sigma-p]! [j+m-p]!
    [sigma-m+p]!) for doubled j, sigma and m."""
    total = SC_ZERO
    for p in range(max(0, (M - S) // 2), min(J - S, J + M) // 2 + 1):
        h = {}
        for n in (p, (J - S) // 2 - p, (J + M) // 2 - p, (S - M) // 2 + p):
            add_qfact(h, n, -2)
        total = total + qint_monomial(1, 4 * p * S, h, 2 * DENOM * p)
    return total


def m_element(j, sigma, m):
    """Closed-form matrix element of the one-leg twist at row sigma, col m."""
    return _m_element(twice(j), twice(sigma), twice(m))


def _m_element(J, S, M):
    """m_element for doubled j, sigma and m."""
    if abs(S) > J or abs(M) > J or (J + S) % 2 or (J + M) % 2:
        return SC_ZERO
    halves = {}
    for n in ((J + S) // 2, (J - S) // 2, (J + M) // 2, (J - M) // 2):
        add_qfact(halves, n, 1)
    phase, units, x_units = _over_x_poles(halves, (J + S) // 2)
    # (-1)**(2j + sigma + m) q**(sigma (sigma - m)) x**(sigma - m)
    pre = qint_monomial(1, S * (S - M) + units, halves, 2 * (S - M) + x_units,
                        z8=2 * (2 * J + S + M) + phase)
    return pre * _limit_sum(J, S, M)


def norm_xi(m):
    """Field normalisation on the vertex side."""
    return _norm_xi(twice(m)).reduce()


def _norm_xi(M):
    """norm_xi as a ContinuedExpr monomial, for the doubled m."""
    # (-1)**(-m/2) q**(m/2)
    return ContinuedExpr(mono=(-M, M, 0))


def norm_psi(j, sigma, shift=0):
    """Field normalisation on the face side, at argument x q^shift.

    Carries the continued triangle denominator, so the result is a
    ContinuedExpr; the continued parts cancel inside the dictionaries.
    """
    u = twice(shift)
    if u % 2:
        raise ValueError("x-shift %s is not an integer" % (ratio_str(u, 2),))
    return _norm_psi(twice(j), twice(sigma), u // 2)


def _norm_psi(J, S, u):
    """norm_psi for doubled j and sigma at the integer shift u, which is
    also the doubled offset of j(x q^u) = j(x) + u/2."""
    halves = {QDIFF: J}
    add_qfact(halves, (J + S) // 2, 1)
    add_qfact(halves, (J - S) // 2, 1)
    # over the triangle factor of (j, J', J'+sigma), J' = j(x q^u) ...
    facts = {}
    _cont_triangle((0, J), (1, u), (1, u + S), halves, facts, sign=-1)
    # ... and its phase: (-1)**(j + 3 sigma/2) / (-1)**(j - sigma); all
    # of it x**(j/2) / prod (1 - x^2 q^(2r)), r = 1..j+sigma, at x q^u
    phase, units, x_units = _over_x_poles(halves, (J + S) // 2, u)
    # continued dimension root: [2 j(xq^u) + 2 sigma + 1] = [K + u + 2 sigma + 1]
    add_xbracket(halves, DENOM * (u + S), -1)
    mono = (2 * J + 3 * S - 2 * (J - S) + phase, J * S + 2 * J * u + units,
            2 * J + x_units)
    return ContinuedExpr(facts=facts, mono=mono, halves=halves)


def limit_three_j(j, sigma, m):
    """Limit of the coupling (j, j(x), j(x)+sigma; m, mu, mu+m) as mu grows.

    Includes the continued triangle and dimension factors, mirroring
    norm_psi, so the product norm_psi/norm_xi * limit reduces exactly.
    """
    return _limit_three_j(twice(j), twice(sigma), twice(m))


def _limit_three_j(J, S, M):
    """limit_three_j for doubled j, sigma and m."""
    if abs(M) > J or abs(S) > J:
        return ContinuedExpr(SC_ZERO)
    halves = {QDIFF: -J}
    add_qfact(halves, (J + M) // 2, 1)
    add_qfact(halves, (J - M) // 2, 1)
    facts = {}
    _cont_triangle((0, J), (1, 0), (1, S), halves, facts)
    # continued dimension root [2 j(x) + 2 sigma + 1]
    add_xbracket(halves, DENOM * S, 1)
    # (-1)**(j + (m - sigma)/2) (-1)**(j - sigma), the second the triangle's,
    # q**(sigma (sigma - j) - m/2 + m (1 - sigma)) x**(sigma - j - m)
    mono = (2 * J + M - S + 2 * (J - S), S * (S - J) + M - M * S,
            2 * (S - J - M))
    return ContinuedExpr(_limit_sum(J, S, M), facts, mono, halves)


# ---------------------------------------------------------------------------
# dictionary entries


def r_dict_entry(j1, j2, sp1, sp2, s1, s2):
    """Exchange-matrix element <sp1 sp2| R(x) |s1 s2> via the recoupling
    symbol with two continued spins."""
    return _r_dict_entry(*(twice(v) for v in (j1, j2, sp1, sp2, s1, s2)))


def _r_dict_entry(J1, J2, SP1, SP2, S1, S2):
    """r_dict_entry on doubled spins and projections."""
    if SP1 + SP2 != S1 + S2:
        return SC_ZERO
    S = S1 + S2
    # (-1)**(sp1 - s1) q**(s^2 + s - sp1^2 - sp1 - s2^2 - s2 + sp1 - s1)
    # x**(s1 - sp1)
    combo = ContinuedExpr(mono=(
        2 * (SP1 - S1),
        S * S + 2 * S - SP1 * SP1 - 2 * SP1 - S2 * S2 - 2 * S2 + 2 * (SP1 - S1),
        2 * (S1 - SP1),
    ))
    ratio = (
        combo
        * _norm_psi(J1, SP1, 0)
        * _norm_psi(J2, SP2, SP1)
        / (_norm_psi(J1, S1, S2) * _norm_psi(J2, S2, 0))
    )
    sym = _six_j_u(((0, J2), (1, S), (1, SP1), (0, J1), (1, 0), (1, S2)))
    return ratio.reduce() * sym


def f_dict_entry(j1, j2, s1, s2, sp1, sp2):
    """Twist element <s1 s2| F(x) |sp1 sp2> as a sum over the intermediate
    spin of couplings times continued recouplings."""
    return _f_dict_entry(*(twice(v) for v in (j1, j2, s1, s2, sp1, sp2)))


def _f_dict_entry(J1, J2, S1, S2, SP1, SP2):
    """f_dict_entry on doubled spins and projections."""
    if S1 + S2 != SP1 + SP2:
        return SC_ZERO
    S = S1 + S2
    total = SC_ZERO
    for J12 in range(max(abs(J1 - J2), abs(S)), J1 + J2 + 1, 2):
        w = _coupling(J1, J2, J12, S1, S2, S)
        if w:
            ratio = _norm_psi(J12, S, 0) / (
                _norm_psi(J1, SP1, SP2) * _norm_psi(J2, SP2, 0)
            )
            sym = _six_j_u(
                ((0, J1), (0, J2), (0, J12), (1, 0), (1, S), (1, SP2)))
            total = total + w * (ratio.reduce() * sym)
    return total


# ---------------------------------------------------------------------------
# relation builders: each returns a list of (label, lhs, rhs)


def _spin_range(J):
    """The doubled projections J, J - 2, ..., -J of the doubled spin J."""
    return range(J, -J - 1, -2)


def _entry_label(*doubled):
    """ "entry (a,b)<-(c,d)" for the doubled projections a, b, c, d."""
    return "entry (%s,%s)<-(%s,%s)" % tuple(ratio_str(t, 2) for t in doubled)


def _build_rel_m_dictionary(j):
    """Closed-form matrix elements against the one-leg series matrix."""
    from .twist import boundary_m

    op = boundary_m(j)
    J = twice(j)
    comparisons = []
    rng = _spin_range(J)
    for r, S in enumerate(rng):
        for c, M in enumerate(rng):
            comparisons.append(
                (
                    "entry sigma=%s m=%s" % (ratio_str(S, 2), ratio_str(M, 2)),
                    op.entry(r, c),
                    _m_element(J, S, M),
                )
            )
    return comparisons


def _build_rel_m_limit_formula(j):
    """Closed form == normalisation ratio times the continued coupling."""
    J = twice(j)
    comparisons = []
    rng = _spin_range(J)
    for S in rng:
        for M in rng:
            lhs = _m_element(J, S, M)
            rhs = (_norm_psi(J, S, 0) * _limit_three_j(J, S, M)
                   / _norm_xi(M)).reduce()
            comparisons.append(
                ("sigma=%s m=%s" % (ratio_str(S, 2), ratio_str(M, 2)), lhs, rhs))
    return comparisons


def _build_rel_r_dictionary(j1, j2):
    from .twist import gnf_r

    op = gnf_r(j1, j2)
    space = op.space
    J1, J2 = twice(j1), twice(j2)
    r1 = _spin_range(J1)
    r2 = _spin_range(J2)
    comparisons = []
    for a, SP1 in enumerate(r1):
        for b, SP2 in enumerate(r2):
            for c, S1 in enumerate(r1):
                for d, S2 in enumerate(r2):
                    if SP1 + SP2 != S1 + S2:
                        continue
                    row = space.index((a, b))
                    col = space.index((c, d))
                    comparisons.append(
                        (
                            _entry_label(SP1, SP2, S1, S2),
                            op.entry(row, col),
                            _r_dict_entry(J1, J2, SP1, SP2, S1, S2),
                        )
                    )
    return comparisons


def _build_rel_f_dictionary(j1, j2):
    from .twist import twist_f

    op = twist_f(j1, j2)
    space = op.space
    J1, J2 = twice(j1), twice(j2)
    r1 = _spin_range(J1)
    r2 = _spin_range(J2)
    comparisons = []
    for a, S1 in enumerate(r1):
        for b, S2 in enumerate(r2):
            for c, SP1 in enumerate(r1):
                for d, SP2 in enumerate(r2):
                    if S1 + S2 != SP1 + SP2:
                        continue
                    row = space.index((a, b))
                    col = space.index((c, d))
                    comparisons.append(
                        (
                            _entry_label(S1, S2, SP1, SP2),
                            op.entry(row, col),
                            _f_dict_entry(J1, J2, S1, S2, SP1, SP2),
                        )
                    )
    return comparisons


def _build_rel_delta_m_decomposition(j1, j2):
    """Two-leg boundary twist decomposes over intermediate spins with
    coupling coefficients on both sides."""
    from .twist import delta_m

    op = delta_m(j1, j2)
    space = op.space
    J1, J2 = twice(j1), twice(j2)
    r1 = _spin_range(J1)
    r2 = _spin_range(J2)
    comparisons = []
    for a, S1 in enumerate(r1):
        for b, S2 in enumerate(r2):
            for c, M1 in enumerate(r1):
                for d, M2 in enumerate(r2):
                    row = space.index((a, b))
                    col = space.index((c, d))
                    rhs = SC_ZERO
                    for J12 in range(abs(J1 - J2), J1 + J2 + 1, 2):
                        w1 = _coupling(J1, J2, J12, S1, S2, S1 + S2)
                        w2 = _coupling(J1, J2, J12, M1, M2, M1 + M2)
                        if w1 and w2:
                            rhs = rhs + w1 * _m_element(J12, S1 + S2, M1 + M2) * w2
                    comparisons.append(
                        (_entry_label(S1, S2, M1, M2), op.entry(row, col), rhs))
    return comparisons


def _build_rel_recoupling(j1, j2, j3):
    """Single-sum recoupling symbol against the brute-force overlap."""
    J1, J2, J3 = twice(j1), twice(j2), twice(j3)
    comparisons = []
    for J12 in range(abs(J1 - J2), J1 + J2 + 1, 2):
        for J23 in range(abs(J2 - J3), J2 + J3 + 1, 2):
            lo = max(abs(J12 - J3), abs(J1 - J23))
            hi = min(J12 + J3, J1 + J23)
            for JT in range(lo, hi + 1, 2):
                comparisons.append(
                    (
                        "j12=%s j23=%s jtot=%s" % (
                            ratio_str(J12, 2), ratio_str(J23, 2), ratio_str(JT, 2)),
                        _six_j(J1, J2, J12, J3, JT, J23),
                        _six_j_brute(J1, J2, J12, J3, JT, J23),
                    )
                )
    return comparisons


SYMBOL_RELATIONS = {
    "M_DICTIONARY": (_build_rel_m_dictionary, 1),
    "M_LIMIT_FORMULA": (_build_rel_m_limit_formula, 1),
    "R_DICTIONARY": (_build_rel_r_dictionary, 2),
    "F_DICTIONARY": (_build_rel_f_dictionary, 2),
    "DELTA_M_DECOMPOSITION": (_build_rel_delta_m_decomposition, 2),
    "RECOUPLING": (_build_rel_recoupling, 3),
}

