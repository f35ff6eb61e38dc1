"""QRat arithmetic against sympy as an independent oracle.

Each operand is built from one spec in three ways: as a QRat through `qrat`
from its expanded numerator and denominator, as a QRat by multiplying and
dividing the package's own q-integers, q-factorials and q - 1/q, and in a
sympy rational function field, whose elements are always reduced.  The two
QRats must be equal, and every QRat result must equal the oracle's value and
be in canonical form: numerator and denominator coprime, denominator monic
with minimum exponent zero.

The oracle field is Q(u), with u = q**(1/4).

Operands are a coefficient times a power of u times products of q-integers
[n], q-factorials [n]!, q - 1/q and linear factors q**2 + a u**s (int and
Fraction a), over products of q-integers, q-factorials and
q - 1/q.  Some denominators also carry q**2 + 2 or q + 1, which are no
products of cyclotomic polynomials in q**2, and a linear factor with s not a
multiple of 8 is no polynomial in q**2.

Operand sizes are bounded by MAX_FACTORS and MAX_INDEX, to keep the run
short.
"""

import operator
from fractions import Fraction as F

import pytest

from dynrmat import polys
from dynrmat.polys import (
    CYCLOTOMICS,
    QP_ONE,
    QRAT_ONE,
    Q_DEG,
    cyclotomic,
    poly_add,
    poly_shift,
    qp_mul,
    qrat,
    qrat_const,
    qrat_qpow,
)
from dynrmat.ratfunc import RF_ONE, ratfn, rf_const, rf_xpow_units
from dynrmat.scalar import (
    QDIFF,
    add_qfact,
    qfact_factors,
    qint_monomial,
    qrat_qfact_sum,
)
from dynrmat.suite import default_manifest
from dynrmat.suite import verify_relation

sp = pytest.importorskip("sympy")
hyp = pytest.importorskip("hypothesis")
st = hyp.strategies

# at most this many q-integer, q-factorial or q - 1/q factors in a numerator
# or a denominator, each q-integer [n] and q-factorial [n]! with n at most
# MAX_INDEX
MAX_FACTORS = 4
MAX_INDEX = 5
# u-exponents of the monomial and of the linear factors, in units of q**(1/4)
MAX_SHIFT_UNITS = 8

SETTINGS = hyp.settings(
    max_examples=40,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=list(hyp.HealthCheck),
)


# ------------------------------------------------------------- operands ----

coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(2, 4)).map(
        lambda t: F(*t)),
)
shifts = st.integers(-MAX_SHIFT_UNITS, MAX_SHIFT_UNITS)
atoms = st.one_of(
    st.tuples(st.just("int"), st.integers(1, MAX_INDEX)),
    st.tuples(st.just("fact"), st.integers(0, MAX_INDEX)),
    st.just(("diff",)),
)
factors = st.lists(atoms, max_size=MAX_FACTORS)
linears = st.lists(st.tuples(coeffs, shifts), max_size=1)
extras = st.sampled_from([None, "q2+2", "q+1"])


@st.composite
def operands(draw, extra=extras, linear=linears):
    return {
        "coeff": draw(coeffs),
        "qpow": draw(shifts),
        "num": draw(factors),
        "lin": draw(linear),
        "den": draw(factors),
        "extra": draw(extra),
    }


# integer coefficients and denominators of cyclotomic factors only
cyclotomic_operands = operands(
    extra=st.just(None),
    linear=st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                              st.sampled_from([-8, 0, 8])), max_size=1),
).map(lambda s: dict(s, coeff=1))


def _qint_poly(n):
    return {4 * (n - 1 - 2 * i): 1 for i in range(n)}


def _atom_poly(atom):
    if atom[0] == "int":
        return _qint_poly(atom[1])
    if atom[0] == "fact":
        out = QP_ONE
        for i in range(2, atom[1] + 1):
            out = qp_mul(out, _qint_poly(i))
        return out
    return {4: 1, -4: -1}


def _atom_qrat(atom):
    """The atom as the package's prefactor builder makes it."""
    if atom[0] == "int":
        halves = {atom[1]: 2}
    elif atom[0] == "fact":
        halves = add_qfact({}, atom[1], 2)
    else:
        halves = {QDIFF: 2}
    return qint_monomial(1, 0, halves).terms[()].num[0]


def _qfact_qrat(n):
    """[n]! multiplied out, as a QRat."""
    return qrat(_atom_poly(("fact", n)))


_EXTRA = {"q2+2": {8: 1, 0: 2}, "q+1": {4: 1, 0: 1}}


def _product(polys):
    out = QP_ONE
    for p in polys:
        out = qp_mul(out, p)
    return out


def build(spec):
    """The operand through `qrat` from its expanded parts."""
    num = _product(
        [{spec["qpow"]: spec["coeff"]}]
        + [_atom_poly(a) for a in spec["num"]]
        + [poly_add({8: 1}, {s: a}) for a, s in spec["lin"]]
    )
    den = _product(
        [_atom_poly(a) for a in spec["den"]]
        + ([_EXTRA[spec["extra"]]] if spec["extra"] else [])
    )
    return qrat(num, den)


def build_by_arithmetic(spec):
    """The operand as a product and quotient of the package's builders."""
    out = qrat_const(spec["coeff"]) * qrat_qpow(spec["qpow"])
    for a in spec["num"]:
        out = out * _atom_qrat(a)
    for a, s in spec["lin"]:
        out = out * build(dict(_ONE_SPEC, lin=[(a, s)]))
    for a in spec["den"]:
        out = out / _atom_qrat(a)
    if spec["extra"]:
        out = out / qrat(_EXTRA[spec["extra"]])
    return out


_ONE_SPEC = {"coeff": 1, "qpow": 0, "num": [], "lin": [], "den": [],
             "extra": None}


# ---------------------------------------------------------------- oracle ----


class Field:
    """The oracle field Q(u)."""

    def __init__(self):
        self.K, self.u = sp.field("u", sp.QQ)

    def coeff(self, c):
        c = F(c)
        return self.K(sp.QQ(c.numerator, c.denominator))

    def atom(self, atom):
        u = self.u
        if atom[0] == "int":
            return (u ** (4 * atom[1]) - u ** (-4 * atom[1])) / (u ** 4 - u ** -4)
        if atom[0] == "fact":
            out = self.K(1)
            for i in range(2, atom[1] + 1):
                out *= self.atom(("int", i))
            return out
        return u ** 4 - u ** -4

    def spec(self, s):
        u = self.u
        num = self.coeff(s["coeff"]) * u ** s["qpow"]
        for a in s["num"]:
            num *= self.atom(a)
        for a, e in s["lin"]:
            num *= u ** 8 + self.coeff(a) * u ** e
        den = self.K(1)
        for a in s["den"]:
            den *= self.atom(a)
        if s["extra"] == "q2+2":
            den *= u ** 8 + 2
        elif s["extra"] == "q+1":
            den *= u ** 4 + 1
        return num / den

    def qpoly(self, p):
        return sum((self.coeff(c) * self.u ** e for e, c in p.items()),
                   self.K(0))

    def qrat(self, r):
        return self.qpoly(r.num) / self.qpoly(r.den)

    @staticmethod
    def span(poly):
        """Degree minus order of a polynomial of the field's ring."""
        exps = [m[0] for m in poly.monoms()]
        return max(exps) - min(exps)


FIELD = Field()


def assert_canonical(r, want):
    """r is canonical and equals want: equal values and equal reduced
    denominator degrees prove r coprime."""
    den = r.den
    if r:
        assert min(den) == 0 and den[max(den)] == 1
    else:
        assert r.num == {} and den == QP_ONE
    assert FIELD.qrat(r) - want == 0
    assert FIELD.span(want.denom) == max(den)


def oracle(specs, fn):
    return fn(*(FIELD.spec(s) for s in specs))


# ----------------------------------------------------------- properties ----


def test_operands_are_canonical_and_builders_agree():
    @SETTINGS
    @hyp.given(operands())
    def run(a):
        r = build(a)
        assert_canonical(r, oracle([a], lambda x: x))
        assert build_by_arithmetic(a) == r

    run()


BINARY = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "truediv": lambda x, y: x / y,
}


@pytest.mark.parametrize("op", sorted(BINARY))
def test_binary_operations_match_oracle(op):
    fn = BINARY[op]

    @SETTINGS
    @hyp.given(operands(), operands())
    def run(a, b):
        if op == "truediv" and not build(b):
            return
        assert_canonical(fn(build(a), build(b)), oracle([a, b], fn))

    run()


def test_sums_sharing_factors_match_oracle():
    # the same denominator factors on both sides, so factors can cancel
    @SETTINGS
    @hyp.given(cyclotomic_operands, cyclotomic_operands, factors)
    def run(a, b, shared):
        a = dict(a, den=a["den"] + shared)
        b = dict(b, den=b["den"] + shared)
        for fn in (BINARY["add"], BINARY["sub"]):
            assert_canonical(fn(build(a), build(b)), oracle([a, b], fn))

    run()


def test_products_cancelling_factors_match_oracle():
    # one operand's numerator factors reappear in the other's denominator
    @SETTINGS
    @hyp.given(cyclotomic_operands, cyclotomic_operands, factors)
    def run(a, b, shared):
        a = dict(a, num=a["num"] + shared)
        b = dict(b, den=b["den"] + shared)
        for fn in (BINARY["mul"], BINARY["truediv"]):
            if fn is BINARY["truediv"] and not build(b):
                continue  # a linear factor q**2 - q**2 makes b zero
            assert_canonical(fn(build(a), build(b)), oracle([a, b], fn))

    run()


def test_inverse_matches_oracle():
    @SETTINGS
    @hyp.given(operands())
    def run(a):
        r = build(a)
        assert_canonical(r.inverse(), oracle([a], lambda x: 1 / x))
        assert r.inverse().inverse() == r

    run()


def test_hash_follows_equality():
    @SETTINGS
    @hyp.given(operands())
    def run(a):
        r, s = build(a), build_by_arithmetic(a)
        assert r == s and hash(r) == hash(s)
        assert r + r == r * qrat_const(2)
        # (r x**2 + 1) / den one level up, with den = x**2 - q, a binomial,
        # and x**2 + q, which is none, built by the factory and by arithmetic
        for c in (-1, 1):
            den = {8: QRAT_ONE, 0: qrat({4: c})}
            f = ratfn({8: r, 0: QRAT_ONE}, den)
            g = (rf_const(s) * rf_xpow_units(8) + RF_ONE) / ratfn(den)
            assert f == g and hash(f) == hash(g)
            assert f + f == f * rf_const(qrat_const(2))

    run()


def test_levels_do_not_mix():
    # disjoint exponents, so that arithmetic that let the levels meet would
    # return a value rather than fail on adding a QRat to an int
    q, x = qrat({1: 1}), ratfn({4: QRAT_ONE})
    for a, b in [(q, x), (x, q)]:
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(a, b)
        assert a != b


# ------------------------------------------------------------- examples ----


def test_numerator_outside_q_squared_cancels_part_of_a_factor():
    # (q + 1) / (q**2 - 1) = 1 / (q - 1): q**2 - 1 is the cyclotomic factor
    # of index 1 in q**2, and the numerator shares only half of it
    r = qrat({4: 1, 0: 1}, {8: 1, 0: -1})
    assert r.num == {0: 1} and r.den == {4: 1, 0: -1}
    assert r * qrat({4: 1, 0: -1}) == qrat(QP_ONE)


# ------------------------------------------------------- cyclotomic kit ----


def test_cyclotomic_polynomials_match_sympy():
    # Phi_105 is the first with a coefficient -2; at 420 and 840 the
    # product of ||Phi_e||_1 over the proper divisors e passes 2**63, so
    # the packed division that makes Phi_d must widen
    Qs = sp.Symbol("Q")
    for d in [*range(1, 41), 105, 420, 840]:
        want = sp.Poly(sp.cyclotomic_poly(d, Qs), Qs).all_coeffs()[::-1]
        assert cyclotomic(d) == tuple(int(c) for c in want)


def test_max_index_bounds_every_index_of_small_totient():
    for n in range(1, 61):
        limit = polys._max_index(n)
        for d in range(limit + 1, 4 * limit):
            assert sp.totient(d) > n, (n, d)
        assert all(polys._totient(d) == sp.totient(d) for d in range(1, 200))


def test_factor_recovers_products_of_cyclotomic_factors():
    @SETTINGS
    @hyp.given(st.dictionaries(st.integers(1, 30), st.integers(1, 3),
                               max_size=4))
    def run(fac):
        assert polys._factor(CYCLOTOMICS.times(QP_ONE, fac)) == fac

    run()


@pytest.mark.parametrize("den", [
    {16: 1, 8: 3, 0: 1},  # q**4 + 3 q**2 + 1, its own reverse
    {32: 1, 24: -1, 16: -1, 8: -1, 0: 1},  # Phi_10(q**2) with one sign off
    {8: 1, 0: 2},  # q**2 + 2
    {4: 1, 0: 1},  # q + 1, no polynomial in q**2
    {8: 1, 0: F(1, 2)},  # not integral
])
def test_factor_rejects_other_denominators(den):
    assert polys._factor(den) is None


def test_qfact_factors_expand_to_the_q_factorial():
    for n in range(0, 9):
        s, fac = qfact_factors(n)
        want = _qfact_qrat(n).num
        assert poly_shift(CYCLOTOMICS.times(QP_ONE, fac), s) == want


def test_qfact_sum_matches_term_by_term_arithmetic():
    term = st.tuples(
        st.sampled_from([1, -1, 2]),
        st.sampled_from([-Q_DEG, 0, Q_DEG, 2 * Q_DEG]),
        st.lists(st.integers(0, 5), max_size=2),
        st.lists(st.integers(0, 5), max_size=3),
    )

    @SETTINGS
    @hyp.given(st.lists(term, min_size=1, max_size=4))
    def run(terms):
        want = qrat_const(0)
        for c, s, ns, ds in terms:
            t = qrat_const(c) * qrat_qpow(s)
            for n in ns:
                t = t * _qfact_qrat(n)
            for a in ds:
                t = t / _qfact_qrat(a)
            want = want + t
        assert qrat_qfact_sum(terms) == want

    run()


# ------------------------------------------------------------ fallback ----


GUARDED = [("RECOUPLING", (1, 1, 1)), ("RECOUPLING", (F(3, 2),) * 3)] + [
    (e.relation, e.spins) for e in default_manifest() if e.family == "symbols"
]


@pytest.mark.parametrize("relation,spins", GUARDED,
                         ids=["%s%s" % (r, tuple(map(str, s))) for r, s in GUARDED])
def test_symbol_relations_never_reach_the_generic_gcd(monkeypatch, relation, spins):
    # every q-denominator of these checks is a product of cyclotomic factors,
    # and every numerator is a polynomial in q**2 after stripping
    def refuse(a, b):
        raise AssertionError("generic q-level gcd reached")

    monkeypatch.setattr(polys, "qp_gcd", refuse)
    assert verify_relation(relation, spins).ok
