"""Scalars: rational functions of q and x extended by formal square roots.

A Scalar is a finite sum of terms  z8**k * rf * sqrt(prod of radicands),
stored as a dict mapping a sorted tuple of atoms to a RationalFunction with
rational coefficients.  Three radical atoms occur:

    ("qint", n)   radicand [n] = (q^n - q^-n)/(q - q^-1)
    ("xbr", c)    radicand (x q^c - x^-1 q^-c)/(q - q^-1), c in lattice units
    ("qdiff",)    radicand q - q^-1

and the phase z8**k, z8 = exp(i pi / 4) and k = 1, 2 or 3, is a last atom
("z8", k); z8**4 = -1 is folded into the sign of rf (_phased).  Products
square out repeated radical atoms into the rational part and add phases, so
each atom appears at most once per term.  Distinct atom tuples are
independent over Q(q, x).  No non-empty product of distinct radical atoms
is a square: modulo squares (monomials and -1 are squares) an atom is a
GF(2) vector over the irreducible Phi_d(q**2) and binomials x**2 - q**m:
[n] is the sum of the Phi_d, 1 < d | n, q - 1/q is Phi_1, an x-bracket atom
its binomial plus Phi_1.  Only it has its binomial, and only [n] has Phi_n
among atoms of index <= n; so an x-bracket atom, else the [n] of largest
index, else q - 1/q leaves a factor of odd multiplicity.  And the phases
add nothing dependent: Q(z8) = Q(sqrt(-1), sqrt(2)) meets Q(q, x) with the
radicals adjoined only in Q, because no product of distinct radical atoms,
the empty one included, is -1, 2 or -2 times a square: a constant is a
square in Q(q, x) only if it is one in Q.  Structural equality of
canonical terms is how every identity check in this package decides
equality; numeric evaluation (principal square roots) is the
safety net on top, never the proof.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, repeat

from .coeffs import demote, z8_div
from .lattice import DENOM, LatticeError, from_units, integer, to_units
from .multisets import NO_FACTORS
from .polys import (
    CYCLOTOMICS,
    QP_ONE,
    XP_ONE,
    add_into,
    poly_add,
    poly_shift,
    qp_mul,
    qp_scale,
    qrat,
    qrat_const,
    qrat_over_cyclotomics,
    xq_mul,
)
from .ratfunc import (
    RF_ONE,
    RF_ZERO,
    ratfn,
    rf_const,
    rf_product,
    rf_qpow_units,
    rf_xpow_units,
)

__all__ = [
    "Scalar",
    "DivergentLimit",
    "SC_ZERO",
    "SC_ONE",
    "sc_coeff",
    "sc_from_rf",
    "sc_from_qrat",
    "qpow",
    "qpow_units",
    "xpow",
    "qnum",
    "qfact",
    "qbinom",
    "qdiff",
    "xbracket",
    "sqrt_qint",
    "sqrt_qfact",
    "sqrt_xbracket",
    "sqrt_qdiff",
    "phase",
    "QDIFF",
    "add_qfact",
    "add_xbracket",
    "qint_monomial",
]


class DivergentLimit(ArithmeticError):
    """An x -> 0 or x -> infinity limit does not exist."""


# ------------------------------------------------------------- radicands ---

@cache
def _radicand_rf(atom):
    key = atom[1] if atom[0] == "qint" else atom
    return qint_monomial(1, 0, {key: 2}).terms[()]


def _atom_jsonable(atom):
    if atom[0] == "qint":
        return {"kind": "qint", "n": atom[1]}
    if atom[0] == "xbr":
        return {"kind": "xbracket", "c": str(from_units(atom[1]))}
    return {"kind": "qdiff"}


def _atom_from_jsonable(d):
    kind = d["kind"]
    if kind == "qint":
        return ("qint", int(d["n"]))
    if kind == "xbracket":
        return ("xbr", to_units(Fraction(d["c"])))
    if kind == "qdiff":
        return ("qdiff",)
    raise ValueError("unknown radical atom kind %r" % (kind,))


# ---------------------------------------------------------------- Scalar ---


class Scalar:
    __slots__ = ("terms",)

    def __init__(self, terms):
        # raw constructor: no zero coefficients, atoms sorted and unique
        self.terms = terms

    # ----------------------------------------------------------- basics

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return len(self.terms) == 1 and self.terms.get((), RF_ZERO).is_one()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return "Scalar<%s>" % (self,)

    def __str__(self):
        return scalar_text(self)

    # ------------------------------------------------------- arithmetic

    def __neg__(self):
        return Scalar({a: -rf for a, rf in self.terms.items()})

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(poly_add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return SC_ZERO
        return dot(((self, other),))

    __rmul__ = __mul__

    def inv(self):
        """Reciprocal; defined for scalars whose terms share one radical.

        1/(a sqrt(R)) = sqrt(R) / (a R), and a value a = sum z8**k a_k of
        several phases is inverted by its Galois conjugates (z8_div)."""
        if not self.terms:
            raise ZeroDivisionError("inverse of zero scalar")
        parts = [RF_ZERO] * 4
        radicals = set()
        for atoms, rf in self.terms.items():
            rad, k = _phase_of(atoms)
            radicals.add(rad)
            parts[k] = rf
        if len(radicals) != 1:
            raise ArithmeticError(
                "inverse of a scalar of %d radicals is not "
                "radical-representable" % len(radicals)
            )
        rad, = radicals
        norm = RF_ONE
        for a in rad:
            norm = norm * _radicand_rf(a)
        out = {}
        one = (RF_ONE, RF_ZERO, RF_ZERO, RF_ZERO)
        for k, rf in enumerate(z8_div(one, [p * norm for p in parts])):
            if rf:
                add_into(out, *_phased(rad, k, rf))
        return Scalar(out)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = SC_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # ------------------------------------------------------ lattice maps

    def shift_x_units(self, m_units):
        if not m_units or not self.terms:
            return self
        out = {}
        for atoms, rf in self.terms.items():
            shifted = tuple(
                sorted(
                    ("xbr", a[1] + m_units) if a[0] == "xbr" else a
                    for a in atoms
                )
            )
            out[shifted] = rf.shift_x(m_units)
        return Scalar(out)

    def shift_x(self, m):
        return self.shift_x_units(to_units(m))

    def is_x_free(self):
        return all(
            rf.is_x_free() and all(a[0] != "xbr" for a in atoms)
            for atoms, rf in self.terms.items()
        )

    def eval_x_at_signed_qpow(self, sign, a):
        """Exact substitution x = sign * q**a for radical-free x-radicals."""
        au = to_units(a)
        out = {}
        for atoms, rf in self.terms.items():
            if any(at[0] == "xbr" for at in atoms):
                raise ValueError("substitution into an x-dependent radical")
            rad, k = _phase_of(atoms)
            for j, qr in enumerate(rf.subs_signed_qpow(sign, au)):
                if qr:
                    add_into(out, *_phased(rad, k + j, rf_const(qr)))
        return Scalar(out)

    # ----------------------------------------------------------- limits

    def limit_x(self, at_zero):
        """Exact limit as x -> 0 (at_zero) or x -> infinity; may diverge."""
        if not self.terms:
            return SC_ZERO
        half = DENOM // 2
        total = SC_ZERO
        for atoms, rf in self.terms.items():
            e, lead = rf.edge(at_zero)
            nxbr = sum(1 for a in atoms if a[0] == "xbr")
            e_total = e + (-half * nxbr if at_zero else half * nxbr)
            if at_zero:
                if e_total < 0:
                    raise DivergentLimit(
                        "term with net x-exponent %s diverges at x -> 0"
                        % from_units(e_total)
                    )
                if e_total > 0:
                    continue
            else:
                if e_total > 0:
                    raise DivergentLimit(
                        "term with net x-exponent %s diverges at x -> infinity"
                        % from_units(e_total)
                    )
                if e_total < 0:
                    continue
            rest = tuple(a for a in atoms if a[0] != "xbr")
            val = Scalar({rest: rf_xpow_units(e).scale_q(lead)})
            for a in atoms:
                if a[0] == "xbr":
                    val = val * _xbr_limit_factor(a[1], at_zero)
            total = total + val
        return total

    # ---------------------------------------------------------- numeric

    def numeric_eval(self, q0, x0):
        """Principal-branch complex value at real q0, x0 > 0."""
        import cmath

        total = 0j
        for atoms, rf in self.terms.items():
            v = rf.eval_complex(q0, x0)
            rad, k = _phase_of(atoms)
            if k:
                v *= cmath.exp(1j * cmath.pi * k / 4)
            for a in rad:
                v *= cmath.sqrt(_radicand_rf(a).eval_complex(q0, x0))
            total += v
        return total

    # ------------------------------------------------------------- JSON

    def to_jsonable(self):
        terms = []
        for rad, rf in _by_radical(self):
            terms.append(
                {
                    "radical": [_atom_jsonable(a) for a in rad],
                    "coeff": rf_jsonable(rf),
                }
            )
        return {"lattice": DENOM, "terms": terms}

    @staticmethod
    def from_jsonable(d):
        out = {}
        for t in d["terms"]:
            rad = tuple(sorted(_atom_from_jsonable(a) for a in t["radical"]))
            for k, rf in enumerate(_rf_parts_from_jsonable(t["coeff"])):
                if rf:
                    add_into(out, *_phased(rad, k, rf))
        return Scalar(out)


def dot(pairs):
    """The sum of a * b over the pairs (a, b) of Scalars.  Each product of
    two terms is cancelled on its own (_term_mul) and added straight into
    the RationalFunction of its radical, so the Scalar is built once."""
    out = {}
    for a, b in pairs:
        for a1, r1 in a.terms.items():
            for a2, r2 in b.terms.items():
                add_into(out, *_term_mul(a1, r1, a2, r2))
    return Scalar(out)


def _term_mul(a1, r1, a2, r2):
    if not a1:
        return a2, r1 * r2
    if not a2:
        return a1, r1 * r2
    if a1[-1][0] == "z8" or a2[-1][0] == "z8":
        b1, k1 = _phase_of(a1)
        b2, k2 = _phase_of(a2)
        atoms, rf = _term_mul(b1, r1, b2, r2)
        return _phased(atoms, k1 + k2, rf)
    s1 = set(a1)
    s2 = set(a2)
    rf = r1 * r2
    for a in sorted(s1 & s2):
        rf = rf * _radicand_rf(a)
    return tuple(sorted(s1 ^ s2)), rf


def _phase_of(atoms):
    """(radical, k): the radical atoms of a term's atoms, and its phase k."""
    if atoms and atoms[-1][0] == "z8":
        return atoms[:-1], atoms[-1][1]
    return atoms, 0


def _phased(rad, k, rf):
    """(atoms, rf') with z8**k * rf * sqrt(rad) the term rf' of atoms:
    z8**4 = -1 folds into the sign, and z8**(k mod 4) is the last atom."""
    k %= 8
    if k >= 4:
        rf, k = -rf, k - 4
    return (rad + (("z8", k),) if k else rad), rf


def _xbr_limit_factor(c_units, at_zero):
    # sqrt<c> ~ i x^(-1/2) q^(-c/2) / sqrt(q - 1/q)      as x -> 0
    # sqrt<c> ~  -x^(+1/2) q^(+c/2) / sqrt(q - 1/q)      as x -> infinity
    # with 1/sqrt(q - 1/q) the half-exponent -1 of q - 1/q; signs chosen
    # to match principal branches at 0 < q < 1 < 1/x or x.
    if c_units % 2:
        raise LatticeError("half of bracket offset leaves the lattice")
    if at_zero:
        return qint_monomial(1, -(c_units // 2), {QDIFF: -1}, -(DENOM // 2),
                             z8=2)
    return qint_monomial(-1, c_units // 2, {QDIFF: -1}, DENOM // 2)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return sc_coeff(x)
    return NotImplemented


# -------------------------------------------------------------- builders ---


SC_ZERO = Scalar({})
SC_ONE = Scalar({(): RF_ONE})


def sc_coeff(c):
    if not c:
        return SC_ZERO
    return Scalar({(): rf_const(qrat_const(c))})


def sc_from_rf(rf):
    if not rf:
        return SC_ZERO
    return Scalar({(): rf})


def sc_from_qrat(qr):
    if not qr:
        return SC_ZERO
    return Scalar({(): rf_const(qr)})


def qpow_units(u):
    """q**(u/D), for an exponent u in lattice units."""
    return sc_from_rf(rf_qpow_units(u))


def qpow(e):
    return qpow_units(to_units(e))


def xpow(e):
    return sc_from_rf(rf_xpow_units(to_units(e)))


def qfact_factors(n):
    """(s, fac) with [n]! = u**s * prod Phi_d(q**2)**fac[d], u = q**(1/D).

    [i] = q**-(i-1) * prod Phi_d(q**2) over the divisors d > 1 of i, so
    Phi_d occurs once for each multiple of d up to n.
    """
    n = int(n)
    return -DENOM * n * (n - 1) // 2, {d: n // d for d in range(2, n + 1)}


def qrat_qfact_sum(terms):
    """The sum of c * u**s * prod [n]! / prod [a]! over `terms`, each a tuple
    (c, s, ns, as) of a coefficient, a u-exponent and the lists of the n and
    the a, as one canonical QRat (cyclotomic_sum)."""
    pairs = []
    for c, s, ns, ds in terms:
        fac = {}
        for n, w in chain(zip(ns, repeat(1)), zip(ds, repeat(-1))):
            shift, got = qfact_factors(n)
            s += w * shift
            for d, m in got.items():
                fac[d] = fac.get(d, 0) + w * m
        pairs.append((({s: c},), fac))
    return cyclotomic_sum(pairs)


def cyclotomic_sum(pairs, by=QP_ONE, by_fac=NO_FACTORS):
    """The sum of prod ps * prod Phi_d(q**2)**e[d] over `pairs` (ps, e) of a
    tuple of QPolys and a signed multiset, times the QPoly by and
    prod Phi_d(q**2)**by_fac[d], as one canonical QRat.

    The per-key minimum `low` of the multisets is factored out, so every
    remainder e - low is a multiset and the numerators sum as one QPoly
    (CYCLOTOMICS.sum_times).  The factors of low + by_fac are known: the
    positive ones are multiplied in and the sum is cancelled once against
    the negative ones.
    """
    keys = set().union(*(e for _, e in pairs))
    low = {}
    for d in keys:
        m = min(e.get(d, 0) for _, e in pairs)
        if m:
            low[d] = m
    num = CYCLOTOMICS.sum_times([
        (ps, {d: m for d in keys if (m := e.get(d, 0) - low.get(d, 0))})
        for ps, e in pairs])
    if by is not QP_ONE:
        num = qp_mul(num, by)
    for d, m in by_fac.items():
        low[d] = low.get(d, 0) + m
    return qrat_over_cyclotomics(
        CYCLOTOMICS.times(num, {d: m for d, m in low.items() if m > 0}),
        {d: -m for d, m in low.items() if m < 0})


class KnownTerm:
    """The x-free value c * z8**z8 * u**units * sqrt(prod of the atoms of
    `odd`) * prod Phi_d(q**2)**fac[d] * prod nums: a rational c, a phase
    exponent z8, the frozenset `odd` of the keys of qint_monomial whose
    atoms are in the radical, a signed multiset `fac` with no zero, and a
    tuple `nums` of QPolys, which are multiplied out only in sums.

    Products of KnownTerms add their exponents (known_product), and a sum
    of them factors out what each group of terms under one radical and
    phase has in common (known_sum), so no term is expanded or cancelled on
    its own.
    """

    __slots__ = ("c", "units", "odd", "fac", "nums", "z8")

    def __init__(self, c, units, odd, fac, nums=(), z8=0):
        self.c = c
        self.units = units
        self.odd = odd
        self.fac = fac
        self.nums = nums
        self.z8 = z8


def known_term(c, units, halves, cof=None, z8=0):
    """The KnownTerm of qint_monomial(c, units, halves, z8=z8) times the
    factored QRat cof (None for one)."""
    du, dv, odd, fac, binoms = _split(halves)
    if dv or binoms:
        raise ValueError("an x-bracket in an x-free term")
    nums = ()
    if cof is not None:
        if cof.fac is None:
            raise ValueError("an unfactored q-denominator in a known term")
        for d, m in cof.fac.items():
            fac[d] = fac.get(d, 0) - m
        nums = (cof.num,)
    return KnownTerm(c, units + du, frozenset(odd),
                     {d: m for d, m in fac.items() if m}, nums, z8)


def known_product(terms):
    """The KnownTerm of the product of the KnownTerms `terms`: an atom in
    the radicals of two of them squares out into its known factors."""
    c, z8, units, fac, nums, count = 1, 0, 0, {}, (), {}
    for t in terms:
        c *= t.c
        z8 += t.z8
        units += t.units
        for key in t.odd:
            count[key] = count.get(key, 0) + 1
        for d, m in t.fac.items():
            fac[d] = fac.get(d, 0) + m
        nums += t.nums
    odd = []
    for key, n in count.items():
        if n % 2:
            odd.append(key)
        if n > 1:
            du, _, ds, _ = _shape(key)
            units += du * (n // 2)
            for d, w in ds:
                fac[d] = fac.get(d, 0) + w * (n // 2)
    return KnownTerm(c, units, frozenset(odd),
                     {d: m for d, m in fac.items() if m}, nums, z8)


def known_sum(terms, by=None):
    """The Scalar sum of the KnownTerms `terms`, times the KnownTerm `by`.

    The terms under one radical and phase make one term of the Scalar, their
    sum over the common part of their multisets (cyclotomic_sum), times
    `by`; so the Scalar is cancelled once per radical and phase, not once
    per term.
    """
    groups = {}
    for t in terms:
        k = t.z8 % 8
        summand = (({t.units: -t.c if k >= 4 else t.c},) + t.nums, t.fac)
        got = groups.get((t.odd, k % 4))
        if got is None:
            groups[t.odd, k % 4] = [summand]
        else:
            got.append(summand)
    out = {}
    for (odd, k), group in groups.items():
        head = KnownTerm(1, 0, odd, NO_FACTORS, z8=k)
        if by is not None:
            head = known_product((head, by))
        qr = cyclotomic_sum(
            group, reduce(qp_mul, head.nums, {head.units: head.c}), head.fac)
        if qr:
            add_into(out, *_phased(tuple(sorted(map(_atom, head.odd))),
                                   head.z8, rf_const(qr)))
    return Scalar(out)


# The key of q - 1/q among the half-exponents of qint_monomial; it is also
# its radical atom, as ("xbr", c_units) is the key and the atom of <c>.
QDIFF = ("qdiff",)


@cache
def _shape(key):
    """(u-exponent, v-exponent, signed cyclotomic indices, binomial exponent
    or None) of the factors of the key [n], q - 1/q or <c>:
        [n] = q**-(n-1) * prod Phi_d(q**2) over the divisors d > 1 of n,
        q - 1/q = q**-1 * Phi_1(q**2),
        <c> = v**-D * u**(c_units + D) * (y - u**(-2 c_units)) / Phi_1(q**2),
    for u = q**(1/D), v = x**(1/D), y = x**2 and c = c_units/D; the first
    two are the bookkeeping of qfact_factors."""
    if key == QDIFF:
        return (-DENOM, 0, ((1, 1),), None)
    if type(key) is int and key >= 1:
        return (-DENOM * (key - 1), 0,
                tuple((d, 1) for d in range(2, key + 1) if key % d == 0),
                None)
    if (type(key) is tuple and len(key) == 2 and key[0] == "xbr"
            and type(key[1]) is int):
        return (key[1] + DENOM, -DENOM, ((1, -1),), -2 * key[1])
    raise ValueError("no factor %r in a prefactor" % (key,))


def add_qfact(halves, n, w):
    """Add [n]!**(w/2) to the half-exponents `halves`: w on each of
    [2]..[n].  Returns `halves`."""
    for i in range(2, n + 1):
        halves[i] = halves.get(i, 0) + w
    return halves


def add_xbracket(halves, c_units, w):
    """Add <c>**(w/2), c = c_units/D, to the half-exponents `halves`.
    Returns `halves`."""
    key = ("xbr", c_units)
    halves[key] = halves.get(key, 0) + w
    return halves


def qint_monomial(c, units, halves, x_units=0, z8=0):
    """The one-term Scalar c * z8**z8 * u**units * v**x_units * prod
    f**(m/2) over the items f: m of `halves`, for u = q**(1/D), v =
    x**(1/D), a rational c and an int z8.  A key n >= 1 stands for the
    q-integer [n], QDIFF for q - 1/q and ("xbr", c_units) for the x-bracket
    <c_units/D>.

    Each exponent splits as m = 2a + b with b in (0, 1).  An odd b puts the
    atom in the radical, and f**a adds its known factors a times (_shape),
    so the rational part is a unit times prod Phi_d(q**2)**e_d for a signed
    multiset e, times prod (y - u**e)**a over the brackets.  The positive
    parts are multiplied out for the numerator, and the negative parts are
    the denominators Dq and Dx, already factored.  The fraction is
    canonical as built: distinct Phi_d share no root, nor do distinct
    binomials, so numerator and denominator are coprime over Q; a unit
    c * u**s * v**k does not change that, and each denominator is monic with
    a nonzero constant term.  No inverse, gcd or factor search is needed,
    except that brackets whose offsets differ by a non-integer can leave
    rows that share part of a Phi_d(q**2), and those rows are reduced as
    QRats (ratfunc.rf_product).
    """
    if not c:
        return SC_ZERO
    du, dv, odd, fac, binoms = _split(halves)
    up = {d: e for d, e in fac.items() if e > 0}
    down = {d: -e for d, e in fac.items() if e < 0}
    num = poly_shift(qp_scale(CYCLOTOMICS.expand(up), c), units + du)
    rf = rf_product(x_units + dv, num, down, binoms)
    return Scalar(dict((_phased(tuple(sorted(map(_atom, odd))), z8, rf),)))


def _split(halves):
    """(du, dv, odd, fac, binoms) with prod f**(m/2) over the items f: m of
    `halves` = u**du * v**dv * sqrt(prod of the atoms of the keys `odd`) *
    prod Phi_d(q**2)**fac[d] * prod (y - u**e)**binoms[e] (qint_monomial);
    `fac` may hold zeros."""
    du = dv = 0
    odd = []
    fac = {}
    binoms = {}
    for key, m in halves.items():
        su, sv, ds, e = _shape(key)
        if not m or not ds:
            continue  # [1] = 1
        a, b = divmod(m, 2)
        if b:
            odd.append(key)
        if a:
            du += su * a
            dv += sv * a
            for d, w in ds:
                fac[d] = fac.get(d, 0) + w * a
            if e is not None:
                binoms[e] = a
    return du, dv, odd, fac, binoms


def _atom(key):
    """The radical atom of a key of qint_monomial."""
    return ("qint", key) if type(key) is int else key


def qnum(n):
    """[n] = (q^n - q^-n)/(q - q^-1)."""
    n = integer(n, "index")
    if not n:
        return SC_ZERO
    return qint_monomial(1 if n > 0 else -1, 0, {abs(n): 2})


def qfact(n):
    n = integer(n, "index")
    if n < 0:
        raise ValueError("q-factorial of a negative integer")
    return qint_monomial(1, 0, add_qfact({}, n, 2))


def qbinom(n, k):
    n, k = integer(n, "index"), integer(k, "index")
    if k < 0 or k > n:
        return SC_ZERO
    halves = add_qfact(add_qfact({}, n, 2), k, -2)
    return qint_monomial(1, 0, add_qfact(halves, n - k, -2))


def qdiff():
    return qint_monomial(1, 0, {QDIFF: 2})


def xbracket(c):
    """<c> = (x q^c - x^-1 q^-c)/(q - q^-1)."""
    return qint_monomial(1, 0, add_xbracket({}, to_units(c), 2))


def sqrt_qint(n):
    n = integer(n, "index")
    if n < 0:
        raise ValueError("square root of a negative-index q-integer")
    if n == 0:
        return SC_ZERO
    if n == 1:
        return SC_ONE
    return Scalar({(("qint", n),): RF_ONE})


def sqrt_qfact(n):
    n = integer(n, "index")
    if n < 0:
        raise ValueError("square root of a negative q-factorial")
    atoms = tuple(("qint", i) for i in range(2, n + 1))
    return Scalar({atoms: RF_ONE})


def sqrt_xbracket(c):
    return Scalar({(("xbr", to_units(c)),): RF_ONE})


def sqrt_qdiff():
    return Scalar({(("qdiff",),): RF_ONE})


def phase(t):
    """(-1)**t = z8**(4 t) on the quarter-integer lattice."""
    return qint_monomial(1, 0, {}, z8=4 * to_units(t) // DENOM)


# ------------------------------------------------------------- rendering ---
#
# One walk over the coefficient tower prints both plain text and LaTeX:
#   scalar = sum of terms rf * sqrt(radical atoms)
#   rf     = x-Laurent fraction whose coefficients are QRats
#   QRat   = q-Laurent fraction over rationals or Q(z8) coefficients
# The phases of one radical are printed as one rf over Q(z8) (_by_radical).
# A dialect holds only the strings in which the two forms differ.

_Dialect = namedtuple("_Dialect", (
    "rational zeta cyclo power mul q_frac group group_x_constant times"
    " x_join x_frac term_join xbracket qdiff sqrt atom_sep"))


def _sum(bits):
    return " + ".join(bits).replace("+ -", "- ")


def _wrap(body):
    """Parenthesize a sum, unless it is already one wrapped group."""
    if " + " not in body and " - " not in body:
        return body
    if body.startswith("\\left(") and body.endswith("\\right)"):
        depth = 0
        for i in range(len(body)):
            if body.startswith("\\left(", i):
                depth += 1
            elif body.startswith("\\right)", i):
                depth -= 1
                if depth == 0:
                    if i == len(body) - len("\\right)"):
                        return body
                    break
    return "\\left(%s\\right)" % body


def _tfrac(f):
    if f.denominator == 1:
        return str(f.numerator)
    mag = "\\tfrac{%d}{%d}" % (abs(f.numerator), f.denominator)
    return "-" + mag if f.numerator < 0 else mag


_TEXT = _Dialect(
    rational=str,                # an int or a Fraction
    zeta="z8^%d",
    cyclo=lambda parts: "(%s)" % " + ".join(parts),  # nonzero Q(z8) parts
    power="%s^(%s)",             # var^e for e != 1
    mul="%s*%s",                 # a coefficient times z8^i or q^e
    q_frac="(%s)/(%s)",
    group=lambda body: "(%s)" % body,  # a factor of a product
    group_x_constant=False,      # whether x^0's coefficient is grouped
    times="%s*%s",               # a group times x^e or a radical
    x_join=" + ".join,
    x_frac="(%s) / (%s)",
    term_join="  +  ".join,      # the radical terms of a scalar
    xbracket="<%s>",
    qdiff="(q-1/q)",
    sqrt="sqrt(%s)",             # of the atoms joined by atom_sep
    atom_sep="",
)

_LATEX = _Dialect(
    rational=_tfrac,
    zeta="\\zeta_8^{%d}",
    cyclo=lambda parts: "(%s)" % _sum(parts) if len(parts) > 1 else parts[0],
    power="%s^{%s}",
    mul="%s %s",
    q_frac="\\frac{%s}{%s}",
    group=_wrap,
    group_x_constant=True,
    times="%s \\, %s",
    x_join=_sum,
    x_frac="\\frac{%s}{%s}",
    term_join=_sum,
    xbracket="\\langle %s \\rangle",
    qdiff="(q - q^{-1})",
    sqrt="\\sqrt{%s}",
    atom_sep=" ",
)


def _coeff_str(c, d):
    if type(c) is not tuple:
        return d.rational(c)
    parts = []
    for i, comp in enumerate(c):
        if not comp:
            continue
        if i == 0:
            parts.append(d.rational(comp))
        elif comp == 1:
            parts.append(d.zeta % i)
        else:
            parts.append(d.mul % (d.rational(comp), d.zeta % i))
    return d.cyclo(parts)


def _power_str(var, units, d):
    e = from_units(units)
    return var if e == 1 else d.power % (var, e)


def _qp_str(p, d):
    bits = []
    for e in sorted(p, reverse=True):
        c = p[e]
        if e == 0:
            bits.append(_coeff_str(c, d))
        elif c == 1:
            bits.append(_power_str("q", e, d))
        elif c == -1:
            bits.append("-" + _power_str("q", e, d))
        else:
            bits.append(d.mul % (_coeff_str(c, d), _power_str("q", e, d)))
    return _sum(bits)


def _qrat_str(qr, d):
    if qr.den == QP_ONE:
        return _qp_str(qr.num, d)
    return d.q_frac % (_qp_str(qr.num, d), _qp_str(qr.den, d))


def _xp_str(xp, d):
    bits = []
    for k in sorted(xp, reverse=True):
        ct = _qrat_str(xp[k], d)
        if k == 0:
            bits.append(d.group(ct) if d.group_x_constant else ct)
        elif ct == "1":
            bits.append(_power_str("x", k, d))
        else:
            bits.append(d.times % (d.group(ct), _power_str("x", k, d)))
    return d.x_join(bits)


def _rf_str(rf, d):
    if rf.den == XP_ONE:
        return _xp_str(rf.num, d)
    return d.x_frac % (_xp_str(rf.num, d), _xp_str(rf.den, d))


def _atom_str(atom, d):
    if atom[0] == "qint":
        return "[%d]" % atom[1]
    if atom[0] == "xbr":
        return d.xbracket % from_units(atom[1])
    return d.qdiff


def _scalar_str(s, d):
    if not s.terms:
        return "0"
    parts = []
    for atoms, rf in _by_radical(s):
        body = _rf_str(rf, d)
        if atoms:
            rad = d.sqrt % d.atom_sep.join(_atom_str(a, d) for a in atoms)
            body = d.times % (d.group(body), rad)
        parts.append(body)
    return d.term_join(parts)


def scalar_text(s):
    return _scalar_str(s, _TEXT)


def scalar_latex(s):
    return _scalar_str(s, _LATEX)


# A radical's phases as one value over Q(z8), for the printers and the JSON.
# The parts z8**k * rf_k of a sum are independent over Q(q, x), and each is
# reduced, so no factor over Q of the lcm of their denominators cancels from
# the sum: it would divide every part's numerator over the lcm, and so the
# numerator of the part it came from.  So the x-denominator is the lcm of
# the parts' ones, each row's q-denominator the lcm of its parts' ones, and
# a coefficient with a phase is the tuple of its parts on 1, z8, z8**2,
# z8**3.  (A factor over Q(z8) of a Phi_d(q**2) with 4 | d can still cancel,
# as in (q**2 + z8**2) / (q**4 + 1); it is left in the printed form.)

_Frac = namedtuple("_Frac", "num den")


def _by_radical(s):
    """(radical, value) for the radicals of s in order, the value the
    RationalFunction of a radical without phases, else a _Frac over Q(z8)."""
    groups = {}
    for atoms, rf in s.terms.items():
        rad, k = _phase_of(atoms)
        groups.setdefault(rad, {})[k] = rf
    for rad in sorted(groups):
        parts = groups[rad]
        if list(parts) == [0]:
            yield rad, parts[0]
        else:
            den, nums = _over_lcm(
                parts, lambda a, b: xq_mul(a, ratfn(a, b).den), ratfn)
            yield rad, _Frac({j: _z8_qrat(row)
                              for j, row in _transposed(nums).items()}, den)


def _z8_qrat(parts):
    """sum z8**k parts[k] for QRats parts[k], as a _Frac."""
    den, nums = _over_lcm(parts, lambda a, b: qp_mul(a, qrat(a, b).den), qrat)
    return _Frac({e: cs[0] if list(cs) == [0]
                  else tuple(cs.get(i, 0) for i in range(4))
                  for e, cs in _transposed(nums).items()}, den)


def _over_lcm(parts, lcm, of_poly):
    """(den, {k: numerator}): the lcm of the denominators of the fractions
    parts[k], and the numerator of each over it."""
    den = None
    for f in parts.values():
        den = f.den if den is None else lcm(den, f.den)
    over = of_poly(den)
    return den, {k: (f * over).num for k, f in parts.items()}


def _transposed(nums):
    """{e: {k: c}} for the coefficients c of the polynomials nums[k]."""
    out = {}
    for k, num in nums.items():
        for e, c in num.items():
            out.setdefault(e, {})[k] = c
    return out


# ----------------------------------------------------------------- JSON ----


def _coeff_jsonable(c):
    if type(c) is tuple:
        return {"zeta8": [str(p) for p in c]}
    return str(c)


def _qp_jsonable(p):
    return {
        str(Fraction(e, DENOM)): _coeff_jsonable(c)
        for e, c in sorted(p.items())
    }


def qrat_jsonable(qr):
    return {"num": _qp_jsonable(qr.num), "den": _qp_jsonable(qr.den)}


def rf_jsonable(rf):
    return {
        "num": {
            str(Fraction(k, DENOM)): qrat_jsonable(c)
            for k, c in sorted(rf.num.items())
        },
        "den": {
            str(Fraction(k, DENOM)): qrat_jsonable(c)
            for k, c in sorted(rf.den.items())
        },
    }


def _parts_from_jsonable(d, parts_of):
    """The parts on 1, z8, z8**2, z8**3 of a polynomial in a dump, given
    parts_of(c), those of a coefficient."""
    parts = ({}, {}, {}, {})
    for s, c in d.items():
        e = to_units(Fraction(s))
        for part, x in zip(parts, parts_of(c)):
            if x:
                part[e] = x
    return parts


def _coeff_parts_from_jsonable(c):
    return [demote(Fraction(x))
            for x in (c["zeta8"] if isinstance(c, dict) else (c,))]


def _fraction_parts_from_jsonable(d, parts_of, fraction):
    """The parts of the fraction d["num"] / d["den"] in a dump, fraction(p)
    being the canonical fraction of a polynomial p of the level."""
    num = _parts_from_jsonable(d["num"], parts_of)
    den = _parts_from_jsonable(d["den"], parts_of)
    return z8_div(list(map(fraction, num)), list(map(fraction, den)))


def _qrat_parts_from_jsonable(d):
    return _fraction_parts_from_jsonable(d, _coeff_parts_from_jsonable, qrat)


def _rf_parts_from_jsonable(d):
    """The parts on 1, z8, z8**2, z8**3 of a coefficient in a dump."""
    return _fraction_parts_from_jsonable(d, _qrat_parts_from_jsonable, ratfn)


def rf_from_jsonable(d):
    rf, *phases = _rf_parts_from_jsonable(d)
    if any(phases):
        raise ValueError("an eighth root of unity in a rational coefficient")
    return rf
