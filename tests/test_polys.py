"""The gcds of both polynomial levels against independent references.

`xp_gcd` and `qp_gcd` are one dense modular gcd: images over GF(p) at
primes p = 1 mod 8, and at the x level at points u = u0, combined and
accepted only after exact trial division.  The gcd must equal the one a
plain Euclid loop computes, or on operands where that loop swells, the one
sympy computes over Q[u, v]; and the cofactors must multiply back to the
unit-stripped operands.  The x-level operands are nested XPolys, packed
for `xp_gcd` over the product of their q-denominators (`nested_gcd`).
"""

import math
from fractions import Fraction as F

import pytest

from dynrmat import polys, ratfunc
from dynrmat.coeffs import coeff_mod
from dynrmat.polys import (
    QP_ONE,
    XP_ONE,
    QRat,
    _div_exact,
    add_into,
    poly_add,
    poly_strip,
    qp_divmod,
    qp_gcd,
    qp_monic,
    qp_mul,
    qp_scale,
    qrat,
    xp_add,
    xp_binom_div,
    xp_binoms_mul,
    xp_divmod,
    xp_from_terms,
    xp_gcd,
    xp_key,
    xp_mul,
    xp_terms,
)
from dynrmat.suite import verify_relation


def xq_scale(a, c):
    """The nested XPoly a times the QRat c."""
    return {k: t * c for k, t in a.items()} if c else {}


def xq_mul(a, b):
    """The product of two nested XPolys, term by term."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            add_into(out, ka + kb, ca * cb)
    return out


def xq_monic(a):
    return xq_scale(a, a[max(a)].inverse())


def packed(a):
    """(A, c): the XNum A = c * a of a nested XPoly a, for c the product of
    the distinct q-denominators of a."""
    c = QP_ONE
    for d in {frozenset(t.den.items()): t.den for t in a.values()}.values():
        c = qp_mul(c, d)
    return xp_from_terms({k: qp_mul(t.num, qp_divmod(c, t.den)[0])
                          for k, t in a.items()}), c


def nested_gcd(a, b):
    """(g, a0/g, b0/g): the monic gcd g over Q(u) of the parts a0, b0 of
    two nonzero nested XPolys stripped of their lowest power of v, and the
    cofactors, from xp_gcd on the packed operands."""
    (pa, ca), (pb, cb) = packed(a), packed(b)
    g, qa, qb = xp_gcd(pa, pb)
    rows = xp_terms(g)
    top = rows[max(rows)]

    def cofactor(q, c, lo):
        return {k - lo: qrat(qp_mul(row, top), c)
                for k, row in xp_terms(q).items()}

    return ({k: qrat(row, top) for k, row in rows.items()},
            cofactor(qa, ca, min(a)), cofactor(qb, cb, min(b)))


def qr(terms):
    """QRat from {u-exponent: coefficient}."""
    return qrat({e: F(c) for e, c in terms.items()})


def xp(rows):
    """XPoly from {v-exponent: {u-exponent: coefficient}}."""
    return {k: qr(row) for k, row in rows.items()}


def bracket(c):
    """v**8 * u**(8c) - 1, that is x**2 q**(2c) - 1."""
    return xp({8: {8 * c: 1}, 0: {0: -1}})


def reference_gcd(a, b):
    x, y = poly_strip(a)[0], poly_strip(b)[0]
    while y:
        x, y = y, xp_divmod(x, y)[1]
    return xq_monic(x)


def product(*factors):
    out = XP_ONE
    for f in factors:
        out = xq_mul(out, f)
    return out


def check(a, b):
    g, qa, qb = nested_gcd(a, b)
    assert g == reference_gcd(a, b)
    assert xq_mul(g, qa) == poly_strip(a)[0]
    assert xq_mul(g, qb) == poly_strip(b)[0]
    return g


P = xp({0: {0: 2, 4: -1}, 4: {-4: 3}, 8: {8: 1}})
Q = xp({0: {-8: 1}, 4: {0: -2, 2: 5}})


@pytest.mark.parametrize("shared", [(1,), (-2,), (1, -2), (3, 3)])
def test_planted_brackets_are_found(shared):
    common = product(*map(bracket, shared))
    a = xq_mul(common, P)
    b = xq_mul(common, xq_mul(Q, {5: qr({0: 1})}))
    assert check(a, b) == xq_monic(common)


def test_one_of_two_brackets_shared():
    a = product(bracket(1), bracket(2), P)
    b = product(bracket(2), Q)
    assert check(a, b) == xq_monic(bracket(2))


def test_integer_division_rejects_non_divisors():
    # the trial division that accepts a candidate gcd is exact in
    # Q[u][v]: a unit of Q is no obstacle, a power of u or of v is
    v8_minus_1 = {8: {0: 1}, 0: {0: -1}}
    assert _div_exact({16: {0: 1}, 0: {0: -1}}, v8_minus_1) == {
        8: {0: 1}, 0: {0: 1}}
    assert _div_exact({16: {0: 1}, 0: {0: 1}}, v8_minus_1) is None
    assert _div_exact({8: {0: 3}, 0: {0: -3}}, {8: {0: 2}, 0: {0: -2}}) == {
        0: {0: F(3, 2)}}
    assert _div_exact({8: {2: 1}, 0: {0: -1}}, {8: {1: 1}, 0: {0: -1}}) is None


def test_coprime_operands():
    assert check(xq_mul(bracket(1), P), xq_mul(bracket(3), Q)) == XP_ONE


def test_monomial_operand_gives_trivial_gcd():
    g, qa, qb = nested_gcd({3: qr({1: 2})}, P)
    assert (g, qa, qb) == (XP_ONE, {0: qr({1: 2})}, P)


@pytest.mark.parametrize(
    "scale",
    [
        qrat({0: F(1)}, {0: F(1), 4: F(1)}),  # a non-unit denominator
        qrat({0: F(1, 2)}),  # a non-integer Fraction
    ],
    ids=["denominator", "fraction"],
)
def test_non_integer_coefficients_fall_back_to_euclid(scale):
    # every coefficient type takes the one modular gcd
    a = xq_mul(bracket(1), xq_scale(P, scale))
    b = xq_mul(bracket(1), Q)
    assert check(a, b) == xq_monic(bracket(1))


def test_image_reads_every_denominator():
    # two coefficients with different denominators add up to one whose
    # numerator alone does not carry the shared bracket
    def plus(m):
        return {4: qr({0: 1}), 0: qrat({0: F(1)}, {0: F(1), 4 * m: F(1)})}

    a = product(bracket(1), plus(1), plus(2), P)
    b = product(bracket(1), Q)
    assert check(a, b) == xq_monic(bracket(1))


def image_degrees(monkeypatch):
    """The v-degree of every x-level GF(p) image gcd computed from now on,
    leaving out the q-level gcds of contents and leading coefficients."""
    seen = []
    inside_q = []
    gf_gcd, q_gcd = polys._gf_gcd, polys.qp_gcd

    def spy(a, b, p):
        g = gf_gcd(a, b, p)
        if not inside_q:
            seen.append(len(g) - 1)
        return g

    def q_spy(a, b):
        inside_q.append(1)
        try:
            return q_gcd(a, b)
        finally:
            inside_q.pop()

    monkeypatch.setattr(polys, "_gf_gcd", spy)
    monkeypatch.setattr(polys, "qp_gcd", q_spy)
    return seen


def test_image_degree_bounds_the_gcd_degree(monkeypatch):
    # no image's degree is below that of the true gcd, here 16 in v, that
    # is 4 in the v**4 the operands are deflated to
    seen = image_degrees(monkeypatch)
    a = product(bracket(1), bracket(-1), P)
    b = product(bracket(-1), bracket(1), Q)
    assert max(check(a, b)) == 16
    assert seen and min(seen) >= 4


def x_rows(st):
    # integer powers of x (v**4 = x), as in the exchange matrices; free
    # v-exponents can make the reference Euclid take minutes
    return st.dictionaries(
        st.integers(0, 2).map(lambda k: 4 * k),
        st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool),
                        min_size=1, max_size=2),
        min_size=1,
        max_size=3,
    )


def test_gcd_matches_reference_on_random_planted_inputs():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rows = x_rows(st)

    @hyp.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hyp.given(rows, rows, st.lists(st.integers(-2, 2), max_size=2))
    def run(pa, pb, shared):
        common = product(*map(bracket, shared))
        check(xq_mul(common, xp(pa)), xq_mul(common, xp(pb)))

    run()


def sympy_monic_gcd(a, b):
    """The monic gcd in v over Q(u) of two XPolys with polynomial
    coefficients, computed by sympy over Q[u, v], as an XPoly."""
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v")

    def poly(x):
        x = poly_strip(x)[0]
        lo = min(min(c.num) for c in x.values())
        return sp.Poly(sum(v**k * u**(e - lo) * sp.Rational(str(c))
                           for k, qc in x.items() for e, c in qc.num.items()),
                       v, u)

    def qpoly(t):
        return {e: F(int(c.p), int(c.q))
                for (e,), c in sp.Poly(t, u).as_dict().items()}

    def as_qrat(expr):
        num, den = sp.fraction(sp.cancel(expr))
        return qrat(qpoly(num), qpoly(den))

    g = sp.Poly(sp.gcd(poly(a), poly(b)).as_expr(), v)
    top = g.LC()
    return {k: as_qrat(c / top) for (k,), c in g.as_dict().items()}


def test_fraction_coefficient_does_not_swell():
    # Euclid over Q(u) ran for minutes on these operands: two shared
    # x-brackets times 3-row, 2-term cofactors with free v-exponents, and
    # one coefficient 1/2
    pa = xp({0: {0: 2, 3: -1}, 5: {-4: 3, 1: 1}, 8: {2: 1, -3: -2}})
    pb = xp({1: {0: 1, 4: 2}, 6: {-2: -3, 2: 1}, 7: {3: 1, 0: F(1, 2)}})
    common = product(bracket(1), bracket(-2))
    a, b = xq_mul(common, pa), xq_mul(common, pb)
    g, qa, qb = nested_gcd(a, b)
    assert g == sympy_monic_gcd(a, b) == xq_monic(common)
    assert xq_mul(g, qa) == poly_strip(a)[0]
    assert xq_mul(g, qb) == poly_strip(b)[0]


def test_gcd_matches_sympy_with_free_exponents_and_fractions():
    # Euclid, the reference above, swells on these; sympy does not
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coeff = st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3)).map(
        lambda t: F(*t))
    rows = st.dictionaries(
        st.integers(0, 8),
        st.dictionaries(st.integers(-4, 4), coeff, min_size=1, max_size=2),
        min_size=1,
        max_size=3,
    )

    @hyp.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hyp.given(rows, rows, st.lists(st.integers(-2, 2), max_size=2))
    def run(pa, pb, shared):
        common = product(*map(bracket, shared))
        a, b = xq_mul(common, xp(pa)), xq_mul(common, xp(pb))
        g, qa, qb = nested_gcd(a, b)
        assert g == sympy_monic_gcd(a, b)
        assert xq_mul(g, qa) == poly_strip(a)[0]
        assert xq_mul(g, qb) == poly_strip(b)[0]

    run()


def test_unlucky_first_point_is_outvoted(monkeypatch):
    # at u = 1, the first point, both cofactors are x**2 - 1, so the image
    # there has degree 2 in x**2; the gcd has degree 1
    seen = image_degrees(monkeypatch)
    common = bracket(1)
    a = xq_mul(common, xp({8: {0: 1}, 0: {8: -1}}))
    b = xq_mul(common, xp({8: {0: 1}, 0: {0: -1}}))
    assert check(a, b) == xq_monic(common)
    assert seen[0] == 2 and min(seen) == 1
    # the points and primes are fixed sequences: no random state
    assert not hasattr(polys, "_RNG")


# ------------------------------------------------------------ q level ----


def qp(terms):
    """QPoly from {u-exponent: coefficient}."""
    return {e: F(c) for e, c in terms.items()}


def qint(n):
    """The q-integer [n] = (q**n - q**-n) / (q - 1/q), with u**4 = q."""
    return qp({4 * (n - 1 - 2 * i): 1 for i in range(n)})


def qp_product(*factors):
    out = QP_ONE
    for f in factors:
        out = qp_mul(out, f)
    return out


def reference_qp_gcd(a, b):
    x, y = poly_strip(a)[0], poly_strip(b)[0]
    while y:
        x, y = y, qp_divmod(x, y)[1]
    return qp_monic(x)


def check_q(a, b):
    g, qa, qb = qp_gcd(a, b)
    assert g == reference_qp_gcd(a, b)
    assert qp_mul(g, qa) == poly_strip(a)[0]
    assert qp_mul(g, qb) == poly_strip(b)[0]
    return g


PQ = qp({0: 2, 3: -1, 6: 1})
QQ = qp({-2: 1, 1: 3, 5: -2})


# [n] and [m] share the cyclotomic factors of q**2 at the common divisors
# of n and m, so these products share more than their common q-integers
@pytest.mark.parametrize(
    "ns, ms",
    [((2,), (4,)), ((4, 6), (6, 9)), ((5, 6), (10,)), ((3, 3), (3,)), ((6,), (8, 9))],
)
def test_planted_q_integers_are_found(ns, ms):
    a = qp_mul(qp_product(*map(qint, ns)), PQ)
    b = qp_mul(qp_product(*map(qint, ms)), QQ)
    assert max(check_q(a, b)) > 0


def test_polynomials_in_a_power_of_u():
    # q-integers and their products are polynomials in u**8 = q**2
    def in_u8(a):
        return {8 * e: c for e, c in a.items()}

    a = qp_product(qint(4), qint(6), in_u8(PQ))
    b = qp_product(qint(6), qint(9), in_u8(QQ))
    assert max(check_q(a, b)) > 0


def test_q_coprime_operands():
    assert check_q(qp_mul(qint(3), PQ), qp_mul(qint(4), QQ)) == QP_ONE


def test_q_monomial_operand_gives_trivial_gcd():
    assert qp_gcd(qp({3: 2}), PQ) == (QP_ONE, qp({0: 2}), PQ)


@pytest.mark.parametrize(
    "scale", [F(1, 2)], ids=["fraction"]
)
def test_q_non_integer_coefficients_fall_back_to_euclid(scale):
    common = qp_mul(qint(2), qint(3))
    a = qp_mul(common, qp_scale(PQ, scale))
    b = qp_mul(common, QQ)
    assert check_q(a, b) == qp_monic(poly_strip(common)[0])


def test_unlucky_first_prime_is_outvoted(monkeypatch):
    # mod 17, u + 20 = u + 3, so the image there has degree 2; the gcd u + 1
    # has degree 1
    primes = polys._primes

    def substituted():
        yield 17
        yield from primes()

    monkeypatch.setattr(polys, "_primes", substituted)
    seen = []
    gf_gcd = polys._gf_gcd

    def spy(a, b, p):
        g = gf_gcd(a, b, p)
        seen.append((p, len(g) - 1))
        return g

    monkeypatch.setattr(polys, "_gf_gcd", spy)
    a = qp_mul(qp({0: 1, 1: 1}), qp({0: 3, 1: 1}))
    b = qp_mul(qp({0: 1, 1: 1}), qp({0: 20, 1: 1}))
    assert check_q(a, b) == {0: 1, 1: 1}
    assert seen[0] == (17, 2) and min(d for _, d in seen) == 1


def test_q_gcd_matches_reference_on_random_planted_inputs():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    polys = st.dictionaries(st.integers(-4, 8), st.integers(-3, 3).filter(bool),
                            min_size=1, max_size=4)

    @hyp.settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @hyp.given(polys, polys, st.lists(st.integers(1, 6), max_size=3))
    def run(pa, pb, shared):
        common = qp_product(*map(qint, shared))
        check_q(qp_mul(common, qp(pa)), qp_mul(common, qp(pb)))

    run()


# ------------------------------------------------- int coefficients ----
#
# Integral coefficients are stored as int.  Every division must still start
# from a Fraction, since 1 / n is a float; each result below must be exact
# and equal to the same computation on all-Fraction operands.


def as_fractions(p):
    return {e: F(c) for e, c in p.items()}


def assert_exact(p):
    for c in p.values():
        assert type(c) in (int, F), c
        assert type(c) is int or c.denominator != 1, c


def assert_exact_qrat(r):
    assert_exact(r.num)
    assert_exact(r.den)


def test_monic_of_an_int_polynomial_is_exact():
    got = qp_monic({0: 1, 1: 3})
    assert got == {0: F(1, 3), 1: 1}
    assert got == qp_monic(as_fractions({0: 1, 1: 3}))
    assert_exact(got)
    assert_exact(qp_monic({0: 4, 2: -2}))


def test_divmod_by_an_int_polynomial_is_exact():
    a, b = {0: 1, 2: 1}, {0: 1, 1: 3}
    q, r = qp_divmod(a, b)
    assert (q, r) == ({0: F(-1, 9), 1: F(1, 3)}, {0: F(10, 9)})
    assert (q, r) == qp_divmod(as_fractions(a), as_fractions(b))
    assert_exact(q)
    assert_exact(r)
    # an integral quotient stays int
    q, r = qp_divmod({0: -6, 1: -2, 2: 4}, {0: 2, 1: 2})
    assert (q, r) == ({0: -3, 1: 2}, {})
    assert_exact(q)


def test_qrat_and_its_inverse_are_exact():
    num, den = {0: 1, 1: 1}, {0: 2, 1: 3}
    x = qrat(num, den)
    assert x == qrat(as_fractions(num), as_fractions(den))
    assert x.den == {0: F(2, 3), 1: 1}
    assert_exact_qrat(x)
    y = qrat({0: 2, 1: 4})
    inv = y.inverse()
    assert inv == qrat(QP_ONE, as_fractions({0: 2, 1: 4}))
    assert inv.num == {0: F(1, 4)} and inv.den == {0: F(1, 2), 1: 1}
    assert_exact_qrat(inv)
    quot = x / y
    assert quot == qrat(num, qp_mul(den, {0: 2, 1: 4}))
    assert_exact_qrat(quot)
    assert_exact_qrat(quot * y)
    assert quot * y == x


def test_int_path_matches_fraction_path():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    # each coefficient an int or the equal integral Fraction
    coeff = st.tuples(st.integers(-4, 4).filter(bool), st.booleans()).map(
        lambda cb: F(cb[0]) if cb[1] else cb[0])
    polys = st.dictionaries(st.integers(0, 5), coeff, min_size=1, max_size=4)

    def no_float(p):
        assert not any(isinstance(c, float) for c in p.values())

    @hyp.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hyp.given(polys, polys, polys)
    def run(a, b, c):
        fa, fb, fc = as_fractions(a), as_fractions(b), as_fractions(c)
        results = [
            (qp_mul(a, b), qp_mul(fa, fb)),
            (poly_add(a, b), poly_add(fa, fb)),
            (qp_monic(a), qp_monic(fa)),
            *zip(qp_divmod(a, b), qp_divmod(fa, fb)),
            *zip(qp_gcd(a, b), qp_gcd(fa, fb)),
        ]
        for got, want in results:
            no_float(got)
            assert got == want
        x, y = qrat(a, b), qrat(c, a)
        fx, fy = qrat(fa, fb), qrat(fc, fa)
        for got, want in [(x, fx), (x + y, fx + fy), (x * y, fx * fy),
                          (x / y, fx / fy), (x.inverse(), fx.inverse())]:
            assert isinstance(got, QRat)
            no_float(got.num)
            no_float(got.den)
            assert got == want
            assert hash(got) == hash(want)

    run()


# ----------------------------------------------------------- deflation ----
#
# Both gcds run on operands deflated to the gcd k of their exponents, since
# gcd(A(t**k), B(t**k)) = gcd(A, B)(t**k).  xp_gcd deflates v, and the u of
# integer rows too.  The x-brackets x q**m - x**-1 q**-m make every operand
# of the GNF checks a polynomial in x**2 = v**8.


def xbr(m):
    """v**8 - u**(4m), that is x**2 - q**m."""
    return xp({8: {0: 1}, 0: {4 * m: -1}})


def inflate_x(a, kv=1, ku=1):
    """a(u**ku, v**kv) for an XPoly a."""
    def up(p):
        return {ku * e: c for e, c in p.items()}
    return {kv * k: qrat(up(c.num), up(c.den)) for k, c in a.items()}


def inflate_q(a, k):
    return {k * e: c for e, c in a.items()}


# cofactors with rows in u**8 and v-exponents multiples of 8
P8 = inflate_x(P, 2, 8)
Q8 = inflate_x(Q, 2, 8)


@pytest.mark.parametrize(
    "ma, mb",
    [((2,), (2,)), ((2, 4), (4, -2)), ((2, 2, 6), (2, 6)), ((-4,), (2, 4))],
)
def test_planted_x_brackets_in_u8(ma, mb):
    a = product(*map(xbr, ma), P8)
    b = product(*map(xbr, mb), Q8)
    shared = [m for m in mb if m in ma]
    assert check(a, b) == xq_monic(poly_strip(product(*map(xbr, shared)))[0])


@pytest.mark.parametrize(
    "fa, fb, shared",
    [
        # v-exponent gcd 8, u-exponent gcd 1
        ({0: {0: 2, 1: -1}, 8: {0: 1}}, {0: {-16: 1}, 16: {0: -2, 8: 5}}, 3),
        # v-exponent gcd 1, u-exponent gcd 8
        ({0: {0: 1}, 1: {8: 2}}, {0: {8: 1}, 3: {0: -1}}, 2),
    ],
    ids=["v8-u1", "v1-u8"],
)
def test_exponent_gcd_one_at_one_level(fa, fb, shared):
    a = product(xbr(shared), xbr(4), xp(fa))
    b = product(xbr(shared), xbr(-2), xp(fb))
    assert check(a, b) == xq_monic(xbr(shared))


def test_gcd_commutes_with_inflation():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rows = x_rows(st)
    polys_q = st.dictionaries(st.integers(-4, 8), st.integers(-3, 3).filter(bool),
                              min_size=1, max_size=4)
    ks = st.sampled_from([1, 2, 3, 8])

    @hyp.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hyp.given(rows, rows, st.lists(st.integers(-2, 2), max_size=2),
               polys_q, polys_q, st.lists(st.integers(1, 6), max_size=2), ks, ks)
    def run(pa, pb, shared, qa, qb, qshared, k1, k2):
        common = product(*map(bracket, shared))
        a, b = xq_mul(common, xp(pa)), xq_mul(common, xp(pb))
        want = [inflate_x(r, k1, k2) for r in nested_gcd(a, b)]
        a, b = inflate_x(a, k1, k2), inflate_x(b, k1, k2)
        got = nested_gcd(a, b)
        assert list(got) == want
        assert xq_mul(got[0], got[1]) == poly_strip(a)[0]
        assert xq_mul(got[0], got[2]) == poly_strip(b)[0]

        common = qp_product(*map(qint, qshared))
        a, b = qp_mul(common, qp(qa)), qp_mul(common, qp(qb))
        want = [inflate_q(r, k1) for r in qp_gcd(a, b)]
        a, b = inflate_q(a, k1), inflate_q(b, k1)
        got = qp_gcd(a, b)
        assert list(got) == want
        assert qp_mul(got[0], got[1]) == poly_strip(a)[0]
        assert qp_mul(got[0], got[2]) == poly_strip(b)[0]

    run()


def test_coeff_mod_of_an_int_matches_the_fraction_path():
    p = next(polys._primes())
    for n in [0, 1, -1, -7, p - 1, p, -p - 3,
              10**40 + 7, -(10**40) - 7, 3**200]:
        assert coeff_mod(n, p) == coeff_mod(F(n), p)


def test_gcdheu_sees_deflated_operands(monkeypatch):
    # every pair of images the modular gcd takes for a GNF check is of
    # operands deflated in v and in u, so the gcd of their exponents is at
    # most 1, or 0 when every row is a constant (as at the q level, whose
    # variable takes the place of v).  GNF cancels its factored denominators
    # without any gcd, so the check is driven through the generic path.
    rf = ratfunc.RationalFunction
    monkeypatch.setattr(rf, "_add_factored", rf._add_general)
    monkeypatch.setattr(rf, "_mul_factored", rf._mul_general)
    seen = []
    image_gcd = polys._image_gcd

    def spy(ia, ib, *args):
        # the exponents of the nonzero coefficients of two dense images
        dense = [(k, i) for f in (ia, ib) for k, row in enumerate(f)
                 for i, c in enumerate(row) if c]
        seen.append((math.gcd(*(k for k, _ in dense)),
                     math.gcd(*(i for _, i in dense))))
        return image_gcd(ia, ib, *args)

    monkeypatch.setattr(polys, "_image_gcd", spy)
    assert verify_relation("GNF", (1, 1, F(1, 2))).ok
    assert seen
    assert all(kv <= 1 and ku <= 1 for kv, ku in seen), set(seen)


# ------------------------------------------------------------ binomials ----


def xn(rows):
    """XNum from {v-exponent: {u-exponent: coefficient}}, packed when every
    coefficient is an int."""
    return xp_from_terms({k: {e: c for e, c in row.items()}
                          for k, row in rows.items()})


# The oracle of the packed kit: sympy's sparse polynomials over QQ in u and
# v.  A Laurent polynomial of the kit, times (u*v)**(SHIFT * n), is one of
# them, for n the number of factors it stands for.
SHIFT = 128


def oracle():
    """sympy's ring QQ[u, v] and its generators."""
    sp = pytest.importorskip("sympy")
    return sp.ring("u v", sp.QQ)


def sym(rows, n=1):
    """The rows {v-exponent: {u-exponent: coefficient}} times (u*v)**(SHIFT
    * n), in the oracle's ring."""
    R, _, _ = oracle()
    terms = {(e + SHIFT * n, k + SHIFT * n): R.domain(c.numerator, c.denominator)
             for k, row in rows.items() for e, c in row.items()}
    assert all(min(t) >= 0 for t in terms)
    return R(terms)


def sym_binomial(e):
    """y - u**e over its monomial factor, which the Laurent ring inverts."""
    _, u, v = oracle()
    return v**8 - u**e if e >= 0 else u**-e * v**8 - 1


def binomial_divides(n, e):
    """Whether y - u**e divides the XNum n, by the oracle."""
    return sym(xp_terms(n)).rem(sym_binomial(e)) == 0


def content_ok(a):
    """The invariants of a kit result: packed at a width of whole slots,
    with a content denominator d >= 1 coprime to its rows' content, and
    d == 1 exactly when every coefficient is an int."""
    assert a.b and a.b % polys.SLOT == 0 and a.d >= 1
    assert a.s and polys.Q_DEG % a.s == 0
    slots = [c for row in polys._slots(a).values() for c in row.values()]
    assert math.gcd(a.d, *slots) == 1
    coeffs = [c for row in xp_terms(a).values() for c in row.values()]
    assert (a.d == 1) == all(type(c) is int for c in coeffs)
    return a


def test_binomial_division_undoes_multiplication_and_nothing_else():
    # a = 2 + (q**(3/4) + c) x**2 does not vanish at x**2 = q; c = 1/2 puts
    # a over d = 2, c = 1 over d = 1
    for coeff in (F(1, 2), 1):
        a = xn({0: {0: 2}, 8: {3: 1, 0: coeff}})
        assert content_ok(a).d == (2 if coeff == F(1, 2) else 1)
        b = xp_binoms_mul(a, {4: 2})
        binomial = xn({8: {0: 1}, 0: {4: -1}})
        assert xp_terms(b) == xp_terms(xp_mul(a, xp_mul(binomial, binomial)))
        assert sym(xp_terms(b), 3) == sym(xp_terms(a)) * sym(
            xp_terms(binomial))**2
        once = xp_binom_div(b, 4)
        assert xp_terms(once) == xp_terms(xp_binoms_mul(a, {4: 1}))
        assert xp_terms(xp_binom_div(once, 4)) == xp_terms(a)
        assert xp_binom_div(a, 4) is None and not binomial_divides(a, 4)
        assert xp_binom_div(b, 8) is None and not binomial_divides(b, 8)


def test_negative_binomial_exponents_shift_the_other_way():
    a = xn({0: {0: 3, 8: -1}, 8: {16: 2}})
    for e in (-8, -4, -1):
        b = xp_binoms_mul(a, {e: 1})
        assert xp_terms(b) == xp_terms(xp_mul(a, xn({8: {0: 1}, 0: {e: -1}})))
        assert xp_terms(xp_binom_div(b, e)) == xp_terms(a)
        assert xp_binom_div(b, -e) is None


# coefficients within a few units of 2**(SLOT - 2) and 2**(SLOT - 1), on
# both sides, so that every kind of result and every intermediate sum of
# the kit crosses the slot limit of the narrowest width
def _near_limit(st):
    magnitudes = st.sampled_from([1 << (polys.SLOT - 2), 1 << (polys.SLOT - 1)])
    near = st.tuples(magnitudes, st.integers(-4, 3), st.sampled_from([1, -1]))
    return st.one_of(near.map(lambda t: t[2] * (t[0] + t[1])),
                     st.integers(-3, 3).filter(bool))


# the same over small denominators that share primes, so that sums scale
# their sides to an lcm and products and sums cancel part of d
def _near_limit_over(st):
    return st.tuples(_near_limit(st), st.sampled_from([1, 1, 2, 3, 4, 6, 10])
                     ).map(lambda t: t[0] if t[1] == 1 else F(*t))


def _big_rows(st, kv, coeffs=_near_limit):
    # u-exponents either all in one class mod 8 (packed at stride 8) or free
    residue = st.integers(-3, 4)
    eights = st.tuples(st.integers(-2, 6), residue).map(lambda t: 8 * t[0] + t[1])
    exps = st.one_of(eights, st.integers(-16, 40))
    row = st.dictionaries(exps, coeffs(st), min_size=1, max_size=8)
    return st.dictionaries(st.integers(-2, 3).map(lambda j: kv * j), row,
                           min_size=1, max_size=5)


def test_packed_kit_matches_sympy_near_the_slot_limit():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    es = st.integers(-20, 20)

    @hyp.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hyp.given(_big_rows(st, 8, _near_limit_over),
               _big_rows(st, 8, _near_limit_over), es, es)
    def run(ra, rb, e, f):
        a, b = xn(ra), xn(rb)
        sa, sb = sym(ra), sym(rb)
        assert sym(xp_terms(content_ok(xp_mul(a, b))), 2) == sa * sb
        assert sym(xp_terms(content_ok(xp_add(a, b)))) == sa + sb
        assert xp_terms(xp_add(a, polys.xp_neg(a))) == {}
        ab = content_ok(xp_binoms_mul(a, {e: 1}))
        assert sym(xp_terms(ab), 2) == sa * sym({8: {0: 1}, 0: {e: -1}})
        abf = content_ok(xp_binoms_mul(ab, {f: 1}))
        for n in (ab, abf, a):
            for g in (e, f, e + 1):
                q = xp_binom_div(n, g)
                assert (q is not None) == binomial_divides(n, g)
                if q is not None:
                    assert xp_terms(xp_binoms_mul(content_ok(q), {g: 1})) == xp_terms(n)
        assert xp_terms(xp_binom_div(ab, e)) == xp_terms(a)
        assert xp_terms(xp_binom_div(xp_binom_div(abf, f), e)) == xp_terms(a)

    run()


def test_many_binomials_at_once_match_sympy_near_the_slot_limit():
    # v-exponents in several classes mod Y_DEG, so that each class is its
    # own list of y-rows, and up to twelve binomials at once, negative
    # exponents and exponents off the stride included, so that the slots
    # must widen before the first one
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    counts = st.dictionaries(st.integers(-12, 12), st.integers(1, 3),
                             min_size=1, max_size=4)

    @hyp.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hyp.given(_big_rows(st, 3, _near_limit_over), counts)
    def run(rows, fac):
        a = xn(rows)
        got = content_ok(xp_binoms_mul(a, fac))
        want, one = sym(rows), a
        for e, m in fac.items():
            want *= sym({8: {0: 1}, 0: {e: -1}}) ** m
            for _ in range(m):
                one = xp_binoms_mul(one, {e: 1})
        assert sym(xp_terms(got), 1 + sum(fac.values())) == want
        assert xp_terms(got) == xp_terms(one)

    run()


def _binom_loop(a, fac):
    """(a / g, g) for the largest product g of binomials from fac, one
    xp_binom_div at a time."""
    removed = {}
    for e, m in fac.items():
        for _ in range(m):
            q = xp_binom_div(a, e)
            if q is None:
                break
            a = q
            removed[e] = removed.get(e, 0) + 1
    return a, removed


def test_one_pass_binomial_cancel_matches_the_one_binomial_loop():
    # numerators near the slot limit times up to three copies of each of a
    # few binomials, negative exponents and exponents off the stride
    # included, cancelled against multisets that ask for more copies than
    # were multiplied in, so that divisions fail partway
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    counts = st.dictionaries(st.integers(-12, 12), st.integers(0, 3),
                             max_size=4)

    @hyp.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hyp.given(_big_rows(st, 8, _near_limit_over), counts, counts)
    def run(rows, built, extra):
        n = xn(rows)
        for e, m in built.items():
            for _ in range(m):
                n = xp_binoms_mul(n, {e: 1})
        fac = {e: min(3, built.get(e, 0) + extra.get(e, 0))
               for e in set(built) | set(extra)}
        fac = {e: m for e, m in fac.items() if m}
        q, removed = polys.xp_binom_cancel(n, fac)
        want, want_removed = _binom_loop(n, fac)
        assert removed == want_removed
        assert xp_terms(content_ok(q)) == xp_terms(want)
        back = sym(xp_terms(q))
        for e, m in removed.items():
            back *= sym({8: {0: 1}, 0: {e: -1}}) ** m
        assert back == sym(xp_terms(n), 1 + sum(removed.values()))
        for e, m in fac.items():
            assert removed.get(e, 0) >= min(m, built.get(e, 0))
            if removed.get(e, 0) < m:
                assert xp_binom_div(q, e) is None
                assert not binomial_divides(q, e)

    run()
    # a numerator at stride 8 tried against exponents off that stride
    a = xp_binoms_mul(xn({0: {0: 3, 8: -1}, 8: {16: 2}}), {-8: 1})
    assert a.s == 8
    q, removed = polys.xp_binom_cancel(a, {3: 1, -8: 2, 4: 1})
    assert removed == {-8: 1} and q.s == 1
    assert xp_terms(q) == xp_terms(xn({0: {0: 3, 8: -1}, 8: {16: 2}}))
    # a quotient whose slots outgrow the numerator's: n = (y - 1) q with
    # q's rows c, 2c, ..., 8c, ..., c and q(1) = 2**64 - u**8, which a
    # second division adding q's rows in 64-bit slots would take for zero
    c = 1 << 58
    rows = {8 * j: {0: c * min(j + 1, 15 - j)} for j in range(15)}
    rows[0][8] = -1
    q = xn(rows)
    n = xp_binoms_mul(q, {0: 1})
    assert n.b == polys.SLOT
    got, removed = polys.xp_binom_cancel(n, {0: 2})
    assert removed == {0: 1} and xp_terms(got) == xp_terms(q)


def test_every_route_to_a_value_gives_one_canonical_xnum():
    # the XNum contract: every kit result is packed over a content
    # denominator d >= 1 coprime to its rows' content, d == 1 exactly when
    # every coefficient is an int, and equal values compare and hash equal
    # whatever their width, stride or construction route
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    from dynrmat.multisets import NO_FACTORS
    from dynrmat.ratfunc import RationalFunction

    half, two = xn({0: {0: F(1, 2)}}), xn({0: {0: 2}})

    def same(a, other):
        content_ok(other)
        assert polys.xp_equal(a, other) and polys.xp_equal(other, a)
        assert xp_key(a) == xp_key(other)
        ra = RationalFunction(a, NO_FACTORS, NO_FACTORS)
        rb = RationalFunction(other, NO_FACTORS, NO_FACTORS)
        assert ra == rb and hash(ra) == hash(rb)

    @hyp.settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @hyp.given(_big_rows(st, 4, _near_limit_over),
               _big_rows(st, 4, _near_limit_over))
    def run(rows, other_rows):
        a = content_ok(xn(rows))
        b = content_ok(xn(other_rows))
        wide = polys._repack(a, 2 * a.b, a.s)
        assert wide.b == 2 * a.b
        routes = [wide, polys._repack(a, a.b, 1),
                  xp_mul(a, polys.xp_monomial(0, 0)),
                  xp_mul(xp_mul(a, two), half),
                  xp_add(xp_add(a, b), polys.xp_neg(b)),
                  xp_add(xp_add(b, a), polys.xp_neg(b)),
                  xp_mul(xp_add(a, a), half),
                  xp_from_terms(xp_terms(a))]
        scaled = polys.xp_scaled(two, a)
        if scaled is not None:
            routes.append(polys.xp_scaled(half, content_ok(scaled)))
        for other in routes:
            same(a, other)
        # one more unit in one slot is another value at every width
        k = min(rows)
        e = min(rows[k])
        bumped = xn({**rows, k: {**rows[k], e: rows[k][e] + 1}})
        assert not polys.xp_equal(bumped, wide)

    run()
    # sums and products whose content cancels part or all of d
    third, sixth = xn({0: {0: F(1, 3)}}), xn({0: {0: F(1, 6)}})
    same(half, xp_add(third, sixth))
    same(two, xp_mul(xp_add(half, half), two))
    same(xn({0: {0: 1}}), xp_add(half, half))
    same(xn({0: {0: F(1, 3), 8: F(2, 3)}}),
         xp_add(xn({0: {0: F(1, 2), 8: F(5, 6)}}),
                xn({0: {0: F(-1, 6), 8: F(-1, 6)}})))


def test_root_test_and_division_widen_before_slots_could_carry():
    # y = 1 is no root of a = P_0 + P_1 y + P_2 y**2 with P_0 = h - u**8,
    # P_1 = h and P_2 = 2 for h = 2**63 - 1: a(1) = 2**64 - u**8.  Packed
    # at 64 bits, that sum is 2**64 - 2**64 = 0, so a division that added
    # the rows in 64-bit slots would accept it.
    h = (1 << (polys.SLOT - 1)) - 1
    a = xn({0: {0: h, 8: -1}, 8: {0: h}, 16: {0: 2}})
    assert a.b == polys.SLOT
    assert xp_binom_div(a, 0) is None
    assert not binomial_divides(a, 0)


def sym_qcancel(rows, fac):
    """({k: row / g}, g) in the oracle's ring, for the rows {v-exponent:
    {u-exponent: coefficient}} and g the largest product of Phi_d(u**8)
    from the multiset fac that divides every row, with g as a multiset."""
    sp = pytest.importorskip("sympy")
    R, _, _ = oracle()
    X = sp.Symbol("X")
    ps = {k: sym({0: row}) for k, row in rows.items()}
    removed = {}
    for d, m in fac.items():
        coeffs = sp.Poly(sp.cyclotomic_poly(d, X), X).all_coeffs()[::-1]
        phi = R({(8 * i, 0): c for i, c in enumerate(coeffs) if c})
        while removed.get(d, 0) < m and all(
                p.rem(phi) == 0 for p in ps.values()):
            ps = {k: p.exquo(phi) for k, p in ps.items()}
            removed[d] = removed.get(d, 0) + 1
    return ps, removed


def test_packed_q_cancel_matches_sympy_near_the_slot_limit():
    # rows u**r times polynomials in u**8, times cyclotomic factors, with
    # coefficients near the slot limit: the exact big-int division must
    # cancel what sympy's division cancels, and divide again at a wider slot
    # where its quotient slots could have wrapped
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    ds = st.sampled_from([1, 2, 3, 4, 6, 8])
    row = st.dictionaries(st.integers(-2, 5).map(lambda j: 8 * j),
                          _near_limit_over(st), min_size=1, max_size=6)

    @hyp.settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @hyp.given(st.dictionaries(st.integers(-1, 2).map(lambda j: 4 * j), row,
                               min_size=1, max_size=3),
               st.integers(0, 7), st.lists(ds, max_size=3),
               st.dictionaries(ds, st.integers(1, 2), max_size=3))
    def run(rows, r, planted, fac):
        a = xn({k: {e + r: c for e, c in row.items()} for k, row in rows.items()})
        for d in planted:
            a = polys.xp_qtimes(a, {d: 1})
        assert polys.xp_qsafe(content_ok(a))
        got, removed = polys.xp_qcancel(a, fac)
        want, wanted = sym_qcancel(xp_terms(a), fac)
        assert removed == wanted
        assert {k: sym({0: row}) for k, row in xp_terms(content_ok(got)).items()} == want
        # the QRat cancel, packed too, divides each row alike
        for row in xp_terms(a).values():
            want, wanted = sym_qcancel({0: row}, fac)
            got, removed = polys._cancel(row, fac)
            assert (sym({0: got}), removed) == (want[0], wanted)

    run()
    # 2**62 (Q**3 - 1) / (Q - 1): the quotient's slots times the two of
    # Q - 1 reach 2**63, so the packed division must not vouch for it
    h = 1 << (polys.SLOT - 2)
    a = xn({0: {24: h, 0: -h}})
    got, removed = polys.xp_qcancel(a, {1: 1})
    assert removed == {1: 1}
    assert xp_terms(got) == {0: {0: h, 8: h, 16: h}}
    # P = h' + h' Q + Q**2 with h' = 2**63 - 1 has P(1) = 2**64 - 1, so
    # Phi_1(2**64) = 2**64 - 1 divides P(2**64) although Q - 1 does not
    # divide P: only the slot check tells the two apart
    h = (1 << (polys.SLOT - 1)) - 1
    a = xn({0: {0: h, 8: h, 16: 1}})
    assert a.b == polys.SLOT and a.rows[0] % ((1 << polys.SLOT) - 1) == 0
    got, removed = polys.xp_qcancel(a, {1: 1})
    assert removed == {} and got is a
    assert polys._cancel(xp_terms(a)[0], {1: 1}) == (xp_terms(a)[0], {})
    # a Fraction row whose ints over its content denominator need two slots:
    # the QRat cancel packs it too, and both divide as sympy does
    big = F((1 << polys.SLOT) + 1, 3)
    t = qp_mul({0: big, 8: F(-1, 2), 24: 1}, qp_mul(
        polys._phi_u(1), qp_mul(polys._phi_u(1), polys._phi_u(6))))
    a = content_ok(xn({0: t}))
    assert a.d == 6 and a.b > polys.SLOT
    for fac in ({1: 3, 6: 1, 2: 1}, {2: 2, 3: 1}):
        want, wanted = sym_qcancel({0: t}, fac)
        got, removed = polys.xp_qcancel(a, fac)
        assert (sym(xp_terms(content_ok(got))), removed) == (want[0], wanted)
        got, removed = polys._cancel(t, fac)
        assert (sym({0: got}), removed) == (want[0], wanted)


# ------------------------------------------------------- shared kernels ----


def test_poly_add_and_add_into_match_a_plain_dict_sum():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    keys, values = st.integers(-3, 3), st.integers(-2, 2)
    terms = st.dictionaries(keys, values.filter(bool), max_size=6)

    @hyp.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hyp.given(terms, terms, st.lists(st.tuples(keys, values), max_size=10))
    def run(a, b, adds):
        a0, b0 = dict(a), dict(b)
        want = {e: a.get(e, 0) + b.get(e, 0) for e in {*a, *b}}
        assert poly_add(a, b) == {e: c for e, c in want.items() if c}
        assert (a, b) == (a0, b0)
        out, ref = dict(a), dict(a)
        for key, value in adds:
            add_into(out, key, value)
            ref[key] = ref.get(key, 0) + value
            assert 0 not in out.values()
        assert out == {e: c for e, c in ref.items() if c}

    run()


def _minus_itself(level):
    """The stored terms of a - a for a value a of one level of the tower."""
    from dynrmat.lame import hamiltonian, lax_matrix, shift_operator
    from dynrmat.scalar import qpow, sqrt_qint, xbracket
    from dynrmat.twist import gnf_r

    if level == "qpoly":
        a = {0: 1, 3: F(1, 2), 8: -2}
        return polys.poly_sub(a, a)
    if level == "packed":
        a = xn({0: {0: 3, 8: -1}, 8: {16: 2}})
        assert a.b
        return xp_add(a, polys.xp_neg(a)).rows
    if level == "scalar":
        a = sqrt_qint(2) * xbracket(1) + qpow(1)
        return (a - a).terms
    if level == "operator":
        a = gnf_r(F(1, 2), 1)
    elif level == "qdiff":
        a = hamiltonian(1) @ shift_operator(1)
    else:
        a = lax_matrix(1) @ lax_matrix(1)
    return (a - a).data


@pytest.mark.parametrize("level", ["qpoly", "packed", "scalar", "operator",
                                   "qdiff", "qdo_matrix"])
def test_a_minus_a_stores_nothing(level):
    assert _minus_itself(level) == {}


def test_q_cancel_is_the_one_row_x_cancel():
    # the QRat cancel and the common q-denominator cancel of a one-row XNum
    # accept alike and divide alike, as sympy divides
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    ds = st.sampled_from([1, 2, 3, 4, 6, 8, 12])
    coeff = st.one_of(st.integers(-3, 3).filter(bool),
                      st.sampled_from([F(1, 2), F(-2, 3)]))
    row = st.dictionaries(st.integers(-2, 4).map(lambda j: 8 * j), coeff,
                          min_size=1, max_size=5)

    def agree(t, fac):
        want = polys._cancel(t, fac)
        a = xn({0: t})
        assert polys.xp_qsafe(a) == (want is not None)
        if want is not None:
            got, removed = polys.xp_qcancel(a, fac)
            assert (xp_terms(content_ok(got)), removed) == ({0: want[0]},
                                                            want[1])
            rows, wanted = sym_qcancel({0: t}, fac)
            assert (rows[0], wanted) == (sym({0: want[0]}), want[1])
        return want

    @hyp.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hyp.given(row, st.integers(0, 7), st.lists(ds, max_size=3),
               st.dictionaries(ds, st.integers(1, 2), min_size=1, max_size=3))
    def run(row, r, planted, fac):
        t = {e + r: c for e, c in row.items()}
        for d in planted:
            t = qp_mul(t, polys._phi_u(d))
        agree(t, fac)

    run()
    t = qp_scale(polys._phi_u(4), F(1, 2))
    assert agree(t, {4: 1}) == ({0: F(1, 2)}, {4: 1})
    assert agree({8: F(1, 2)}, {4: 1, 8: 2}) == ({8: F(1, 2)}, {})
    assert agree(t, {2: 1}) == (t, {})
    assert agree(polys._phi_u(4), {4: 1}) == ({0: 1}, {4: 1})


def test_packed_cyclotomic_product_matches_the_dict_loop(monkeypatch):
    # CYCLOTOMICS.times and sum_times multiply int QPolys as packed ints;
    # the reference is one qp_mul per factor and per QPoly.  The
    # coefficients run past the first slot width, the exponents cover every
    # residue mod 8 and the multiplicities go up to 3; a Fraction
    # coefficient must take the loop, without packing
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    from dynrmat.multisets import Alphabet

    loop = Alphabet(QP_ONE, lambda p, d: qp_mul(p, polys._phi_u(d)))
    edge = 2 ** (polys.SLOT - 1)
    ints = st.one_of(
        st.integers(-5, 5).filter(bool),
        st.sampled_from([edge - 1, 1 - edge, edge, -edge, 3 * edge,
                         -edge ** 2]),
        st.integers(-edge ** 2, edge ** 2).filter(bool))
    others = st.sampled_from([F(1, 2), F(-3, 4)])
    poly = st.dictionaries(st.integers(-20, 40), ints, min_size=1, max_size=6)
    fac = st.dictionaries(
        st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 30]),
        st.integers(1, 3), max_size=4)
    packed = []
    phis_packed = polys._phis_packed
    monkeypatch.setattr(polys, "_phis_packed",
                        lambda b: packed.append(b) or phis_packed(b))

    @hyp.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hyp.given(st.lists(st.tuples(st.lists(poly, min_size=1, max_size=3), fac),
                        min_size=1, max_size=4),
               st.one_of(st.none(), st.tuples(st.integers(-20, 40), others)))
    def run(terms, other):
        if other is not None:
            e, c = other
            (p, *ps), f = terms[0]
            terms = [([{**p, e: c}, *ps], f)] + terms[1:]
        want = {}
        for ps, f in terms:
            p = ps[0]
            for q in ps[1:]:
                p = qp_mul(p, q)
            want = poly_add(want, loop.times(p, f))
        del packed[:]
        assert polys.CYCLOTOMICS.sum_times(terms) == want
        assert bool(packed) == (other is None)
        (p, *_), f = terms[0]
        assert polys.CYCLOTOMICS.times(p, f) == loop.times(p, f)

    run()
