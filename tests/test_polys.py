"""The x-level gcd against an independent reference Euclid.

`xp_gcd` answers from a verified integer heuristic when both operands have
integer Laurent coefficients and from Euclid over Q(u) otherwise; either way
its gcd must equal the one a plain Euclid loop computes, and its cofactors
must multiply back to the unit-stripped operands.
"""

from fractions import Fraction as F

import pytest

from dynrmat.coeffs import imaginary_unit
from dynrmat.polys import (
    XP_ONE,
    _xp_gcd_heuristic,
    _xp_image_gcd_degree,
    _xp_to_zuv,
    _zuv_div_exact,
    qrat,
    xp_divmod,
    xp_gcd,
    xp_monic,
    xp_mul,
    xp_scale,
    xp_strip,
)


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
    x, y = xp_strip(a)[0], xp_strip(b)[0]
    while y:
        x, y = y, xp_divmod(x, y)[1]
    return xp_monic(x)


def product(*factors):
    out = XP_ONE
    for f in factors:
        out = xp_mul(out, f)
    return out


def check(a, b):
    g, qa, qb = xp_gcd(a, b)
    assert g == reference_gcd(a, b)
    assert xp_mul(g, qa) == xp_strip(a)[0]
    assert xp_mul(g, qb) == xp_strip(b)[0]
    return g


P = xp({0: {0: 2, 4: -1}, 4: {-4: 3}, 8: {8: 1}})
Q = xp({0: {-8: 1}, 4: {0: -2, 2: 5}})


def heuristic_accepts(a, b):
    a0, b0 = xp_strip(a)[0], xp_strip(b)[0]
    degree = _xp_image_gcd_degree(a0, b0)
    return degree is not None and _xp_gcd_heuristic(a0, b0, degree) is not None


@pytest.mark.parametrize("shared", [(1,), (-2,), (1, -2), (3, 3)])
def test_planted_brackets_are_found(shared):
    common = product(*map(bracket, shared))
    a = xp_mul(common, P)
    b = xp_mul(common, xp_mul(Q, {5: qr({0: 1})}))
    assert check(a, b) == xp_monic(common)
    assert heuristic_accepts(a, b)


def test_one_of_two_brackets_shared():
    a = product(bracket(1), bracket(2), P)
    b = product(bracket(2), Q)
    assert check(a, b) == xp_monic(bracket(2))


def test_heuristic_accepts_only_the_image_degree():
    a0 = product(bracket(1), bracket(2), P)
    b0 = product(bracket(1), bracket(2), Q)
    assert _xp_gcd_heuristic(a0, b0, 16) is not None
    assert _xp_gcd_heuristic(a0, b0, 8) is None
    assert _xp_gcd_heuristic(a0, b0, 24) is None


def test_integer_division_rejects_non_divisors():
    v8_minus_1 = {8: {0: 1}, 0: {0: -1}}
    assert _zuv_div_exact({16: {0: 1}, 0: {0: -1}}, v8_minus_1) == {
        8: {0: 1}, 0: {0: 1}}
    assert _zuv_div_exact({16: {0: 1}, 0: {0: 1}}, v8_minus_1) is None
    assert _zuv_div_exact({8: {0: 3}, 0: {0: -3}}, {8: {0: 2}, 0: {0: -2}}) is None
    assert _zuv_div_exact({8: {2: 1}, 0: {0: -1}}, {8: {1: 1}, 0: {0: -1}}) is None


def test_coprime_operands():
    assert check(xp_mul(bracket(1), P), xp_mul(bracket(3), Q)) == XP_ONE


def test_monomial_operand_gives_trivial_gcd():
    g, qa, qb = xp_gcd({3: qr({1: 2})}, P)
    assert (g, qa, qb) == (XP_ONE, {0: qr({1: 2})}, P)


@pytest.mark.parametrize(
    "scale",
    [
        qrat({0: imaginary_unit()}),  # a Cyclo coefficient
        qrat({0: F(1)}, {0: F(1), 4: F(1)}),  # a non-unit denominator
        qrat({0: F(1, 2)}),  # a non-integer Fraction
    ],
    ids=["cyclo", "denominator", "fraction"],
)
def test_non_integer_coefficients_fall_back_to_euclid(scale):
    a = xp_mul(bracket(1), xp_scale(P, scale))
    b = xp_mul(bracket(1), Q)
    assert _xp_to_zuv(xp_strip(a)[0]) is None
    assert check(a, b) == xp_monic(bracket(1))


def test_image_degree_bounds_the_gcd_degree():
    a = product(bracket(1), bracket(-1), P)
    b = product(bracket(-1), bracket(1), Q)
    a0, b0 = xp_strip(a)[0], xp_strip(b)[0]
    degree = _xp_image_gcd_degree(a0, b0)
    assert degree is None or degree >= 16


def test_gcd_matches_reference_on_random_planted_inputs():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    # integer powers of x (v**4 = x), as in the exchange matrices; free
    # v-exponents can make the reference Euclid take minutes
    rows = st.dictionaries(
        st.integers(0, 2).map(lambda k: 4 * k),
        st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool),
                        min_size=1, max_size=2),
        min_size=1,
        max_size=3,
    )

    @hyp.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hyp.given(rows, rows, st.lists(st.integers(-2, 2), max_size=2))
    def run(pa, pb, shared):
        common = product(*map(bracket, shared))
        check(xp_mul(common, xp(pa)), xp_mul(common, xp(pb)))

    run()
