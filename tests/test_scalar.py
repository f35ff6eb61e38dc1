import cmath
import json
import random
from fractions import Fraction as F

import pytest

from dynrmat import (
    SC_ONE,
    SC_ZERO,
    DivergentLimit,
    Scalar,
    phase,
    qbinom,
    qdiff,
    qfact,
    qnum,
    qpow,
    sc_coeff,
    sqrt_qdiff,
    sqrt_qfact,
    sqrt_qint,
    sqrt_xbracket,
    xbracket,
    xpow,
)
from dynrmat.lattice import DENOM, LatticeError, from_units, to_units
from dynrmat.polys import QP_ONE, QRAT_ONE, qp_gcd, qrat
from dynrmat.ratfunc import ratfn
from dynrmat.scalar import (
    QDIFF,
    add_qfact,
    add_xbracket,
    qint_monomial,
    sc_from_rf,
)


# ----------------------------------------------------------- q machinery ---


@pytest.mark.parametrize("build", [
    qnum, qfact, sqrt_qint, sqrt_qfact,
    lambda n: qbinom(n, 1), lambda k: qbinom(7, k),
], ids=["qnum", "qfact", "sqrt_qint", "sqrt_qfact", "qbinom-n", "qbinom-k"])
def test_builders_refuse_a_fractional_index(build):
    # int() would truncate each of these to 2 without a word
    for v in (F(5, 2), "5/2", 2.7):
        with pytest.raises(ValueError, match="needs an integer index"):
            build(v)
    assert build(F(4, 2)) == build("2") == build(2.0) == build(2)


def test_qnum_small_values():
    assert qnum(0) == SC_ZERO
    assert qnum(1) == SC_ONE
    assert qnum(2) == qpow(1) + qpow(-1)
    assert qnum(3) == qpow(2) + 1 + qpow(-2)
    assert qnum(-3) == -qnum(3)


def test_qnum_defining_ratio():
    # [n] * (q - 1/q) == q^n - q^-n
    for n in range(1, 7):
        assert qnum(n) * qdiff() == qpow(n) - qpow(-n)


def test_qfact_and_qbinom():
    assert qfact(0) == SC_ONE
    assert qfact(3) == qnum(2) * qnum(3)
    assert qbinom(3, 1) == qpow(2) + 1 + qpow(-2)
    assert qbinom(4, 2) * qfact(2) * qfact(2) == qfact(4)
    assert qbinom(5, 7) == SC_ZERO
    # symmetric
    for n in range(6):
        for k in range(n + 1):
            assert qbinom(n, k) == qbinom(n, n - k)


def test_pascal_rule():
    # [n k] = q^k [n-1 k] + q^(k-n) [n-1 k-1]
    for n in range(1, 7):
        for k in range(n + 1):
            lhs = qbinom(n, k)
            rhs = qpow(k) * qbinom(n - 1, k) + qpow(k - n) * qbinom(n - 1, k - 1)
            assert lhs == rhs, (n, k)


# --------------------------------------------------------------- radicals ---


def test_radicals_square_out():
    assert sqrt_qint(2) * sqrt_qint(2) == qnum(2)
    assert sqrt_qfact(4) ** 2 == qfact(4)
    assert sqrt_qdiff() ** 2 == qdiff()
    s = sqrt_qint(2) * sqrt_qint(3)
    assert s * s == qnum(2) * qnum(3)
    t = sqrt_xbracket(F(1, 2))
    assert t * t == xbracket(F(1, 2))


def test_radical_edge_cases():
    assert sqrt_qint(0) == SC_ZERO
    assert sqrt_qint(1) == SC_ONE
    assert sqrt_qfact(1) == SC_ONE


def test_radical_inverse():
    s = qnum(2) * sqrt_qint(3) * sqrt_xbracket(1)
    assert (s * s.inv()).is_one()
    # several phases under one radical: 1/((1 + z8) q)
    s = (SC_ONE + phase("1/4")) * qpow(1)
    assert (s * s.inv()).is_one()
    assert str(s.inv()) == "(1/2 - 1/2*z8^1 + 1/2*z8^2 - 1/2*z8^3)*q^(-1)"
    with pytest.raises(ArithmeticError):
        (sqrt_qint(2) + sqrt_qint(3)).inv()
    with pytest.raises(ZeroDivisionError):
        SC_ZERO.inv()


def test_distinct_radicals_do_not_merge():
    s = sqrt_qint(2) + sqrt_qint(3)
    assert len(s.terms) == 2
    assert s - sqrt_qint(3) == sqrt_qint(2)


# ------------------------------------------------------ prefactor builder ---


def _same(a, b):
    """a and b are equal, term by term in value and in hash."""
    assert a == b
    assert ({k: hash(rf) for k, rf in a.terms.items()}
            == {k: hash(rf) for k, rf in b.terms.items()})


def _root(key):
    if key == QDIFF:
        return sqrt_qdiff()
    if type(key) is tuple:
        return sqrt_xbracket(from_units(key[1]))
    return sqrt_qint(key)


def _prefactor_by_division(k, units, halves, qfacts, x_units=0):
    """z8**k q**(units/4) x**(x_units/4) prod f**(m/2) prod [n]!**(w/2),
    built from the radical builders with * and / alone."""
    out = phase(F(k, 4)) * qpow(F(units, 4)) * xpow(F(x_units, 4))
    factors = [(_root(key), m) for key, m in halves.items()]
    factors += [(sqrt_qfact(n), w) for n, w in qfacts]
    for root, m in factors:
        for _ in range(abs(m)):
            out = out * root if m > 0 else out / root
    return out


def test_prefactor_builder_matches_division():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    exps = st.integers(-3, 3)

    @hyp.settings(max_examples=200, deadline=None, database=None,
                  derandomize=True)
    @hyp.given(
        st.dictionaries(st.integers(1, 12), exps, max_size=4),
        st.one_of(st.none(), exps),
        st.lists(st.tuples(st.integers(0, 12), exps), max_size=2),
        st.dictionaries(st.integers(-12, 12), exps, max_size=3),
        st.integers(0, 7),
        st.integers(-24, 24),
        st.integers(-8, 8),
    )
    def run(qints, qd, qfacts, brackets, k, units, x_units):
        halves = dict(qints)
        if qd is not None:
            halves[QDIFF] = qd
        for c, m in brackets.items():
            add_xbracket(halves, c, m)
        want = _prefactor_by_division(k, units, halves, qfacts, x_units)
        for n, w in qfacts:
            add_qfact(halves, n, w)
        got = qint_monomial(1, units, halves, x_units, z8=k)
        _same(got, want)
        (rf,) = got.terms.values()
        assert all(m > 0 for qr in rf.num.values() if qr.fac
                   for m in qr.fac.values())

    run()


def test_bracket_builder_matches_powers_of_the_root():
    # c on the quarter lattice in [-3, 3], every power m/2 for |m| <= 4:
    # negative powers of the root go through Scalar.inv
    for c_units in range(-3 * DENOM, 3 * DENOM + 1):
        root = sqrt_xbracket(from_units(c_units))
        for m in range(-4, 5):
            _same(qint_monomial(1, 0, add_xbracket({}, c_units, m)), root ** m)
    assert qint_monomial(1, 0, add_xbracket({}, 3, 2)) == xbracket(F(3, 4))


def _xqc(c):
    return xpow(1) * qpow(c) - xpow(-1) * qpow(-c)


def test_twist_prefactors_match_division():
    from dynrmat import twist

    pref = twist._pref_value

    def rd(i, wa, wb):
        return (qdiff() ** i) / qfact(i) * qpow(
            F(wa * wb, 2) + F(i * (wa - wb), 2) - F(i * (i + 1), 2))

    def f(k, wa, wb, nus, sign):
        out = sc_coeff(sign) * (qdiff() ** k) / qfact(k)
        out = out * xpow(k) * qpow(F(k * (wa + wb), 2))
        for nu in nus:
            out = out / _xqc(nu + wb)
        return out

    def m_coeff(n, m):
        out = sc_coeff((-1) ** m) * xpow(m)
        out = out * qpow(F(n * (n - 1), 2) + m * (n - m))
        out = out / (qfact(n) * qfact(m))
        for nu in range(1, n + 1):
            out = out / _xqc(nu)
        return out

    for k in range(5):
        for wa in range(-4, 5):
            for wb in range(-4, 5):
                _same(pref(twist._pref_rd, k, wa, wb), rd(k, wa, wb))
                _same(pref(twist._pref_f, k, wa, wb),
                      f(k, wa, wb, range(k, 2 * k), (-1) ** k))
                _same(pref(twist._pref_f_inv, k, wa, wb),
                      f(k, wa, wb, range(1, k + 1), 1))
        for m in range(5):
            _same(twist._m_coeff(k, m), m_coeff(k, m))


def test_lame_prefactors_match_division():
    from dynrmat import lame

    def two_brackets(a, b):
        return _xqc(a) * _xqc(b)

    for j in (0, F(1, 2), 1, F(3, 2), 2, 3):
        for shift in (0, 1, F(-1, 2), -2):
            den = two_brackets(0, -1)
            _same(lame.c_function(j, shift),
                  (two_brackets(j, -j - 1) / den).shift_x(shift))
            _same(lame.d_function(j, shift),
                  (two_brackets(-j, -j - 1) / den).shift_x(shift))
            _same(lame._brackets(to_units(shift), (0, -2)),
                  (qdiff() / (xpow(1) - xpow(-1))).shift_x(shift))
    for j in range(4):
        for k in (-2, 0, 3):
            for n, got in enumerate(lame.wavefunction_terms(j, k)):
                num = den = SC_ONE
                for r in range(1, n + 1):
                    num = num * _xqc(r - j - 1)
                    den = den * _xqc(r)
                wave = qpow(k * (2 * n - j)) * xpow(k) - qpow(-k * (2 * n - j)) * xpow(-k)
                binom = qfact(j) / (qfact(n) * qfact(j - n))
                _same(got, phase(n) * binom * num / den * wave)


def test_symbol_prefactors_match_division():
    from dynrmat import symbols
    from dynrmat.symbols import ContinuedExpr

    def over_x_poles(n):
        den = SC_ONE
        for r in range(1, n + 1):
            den = den * (SC_ONE - xpow(2) * qpow(2 * r))
        return SC_ONE / den

    def monomial(ce):
        # the part of a ContinuedExpr that is no continued factorial
        rest = ContinuedExpr(facts={c: -f for c, f in ce.facts.items()})
        return (ce * rest).reduce()

    for J in range(5):
        for S in range(-J, J + 1, 2):
            halves = add_qfact(add_qfact({}, (J + S) // 2, 1), (J - S) // 2, 1)
            for M in range(-J, J + 1, 2):
                h = add_qfact(add_qfact(dict(halves), (J + M) // 2, 1),
                              (J - M) // 2, 1)
                pre = qint_monomial(1, S * (S - M), h,
                                    z8=2 * (2 * J + S + M)) * xpow(F(S - M, 2))
                want = pre * symbols._limit_sum(J, S, M) * over_x_poles(
                    (J + S) // 2)
                _same(symbols.m_element(F(J, 2), F(S, 2), F(M, 2)), want)
            for u in (-1, 0, 2):
                h = dict(halves)
                h[QDIFF] = J
                facts = {}
                symbols._cont_triangle((0, J), (1, u), (1, u + S), h, facts,
                                       sign=-1)
                scal = qint_monomial(1, J * S, h, z8=2 * J + 3 * S
                                     - 2 * (J - S)) * xpow(F(J, 2))
                scal = (scal * over_x_poles((J + S) // 2)).shift_x(u)
                got = symbols._norm_psi(J, S, u)
                assert got.facts == facts
                _same(monomial(got), scal / sqrt_xbracket(u + S))
    # the continued dimension roots of six_j_u
    cont = symbols.cont_spin
    args = (F(1, 2), cont(0), cont(F(1, 2)), F(1, 2), cont(0), cont(F(-1, 2)))
    want = (phase(1) * sqrt_xbracket(1) * sqrt_xbracket(-1)
            * symbols.six_j_cont(*args))
    assert want
    _same(symbols.six_j_u(*args), want)


def test_prefactor_builder_edges():
    assert qint_monomial(0, 4, {2: 1}) == SC_ZERO
    assert qint_monomial(1, 0, {1: 3}) == SC_ONE
    assert qint_monomial(-1, 4, {}) == -qpow(1)
    assert add_qfact({2: 1}, 3, -2) == {2: -1, 3: -2}
    with pytest.raises(ValueError):
        qint_monomial(1, 0, {0: 1})


# ----------------------------------------------------------------- phases ---


def test_eighth_root_phases():
    assert phase(1) == sc_coeff(-1)
    assert phase(2) == SC_ONE
    assert phase(F(1, 2)) ** 2 == phase(1)
    assert phase(F(1, 4)) ** 8 == SC_ONE
    assert phase(F(-1, 2)) * phase(F(1, 2)) == SC_ONE
    # i as the phase z8**2 of a term
    i = phase(F(1, 2))
    assert i.terms == {(("z8", 2),): sc_coeff(1).terms[()]}
    v = i.numeric_eval(0.5, 0.5)
    assert abs(v - 1j) < 1e-12


def test_phase_off_lattice_rejected():
    with pytest.raises(ValueError):
        phase(F(1, 8))


# ------------------------------------------------------------------ shifts ---


def test_shift_x_on_brackets():
    assert xbracket(F(1, 2)).shift_x(1) == xbracket(F(3, 2))
    assert xpow(1).shift_x(F(1, 2)) == xpow(1) * qpow(F(1, 2))
    assert xpow(F(1, 2)).shift_x(1) == xpow(F(1, 2)) * qpow(F(1, 2))
    s = xbracket(2) / xbracket(0)
    assert s.shift_x(1).shift_x(-1) == s


def test_shift_x_is_multiplicative():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        m = rng.choice([1, -1, 2, F(1, 2), F(-3, 2)])
        assert (a * b).shift_x(m) == a.shift_x(m) * b.shift_x(m)
        assert (a + b).shift_x(m) == a.shift_x(m) + b.shift_x(m)


def test_shift_x_off_lattice_raises():
    # x^(1/4) -> x^(1/4) q^(1/16) falls off the quarter lattice
    with pytest.raises(LatticeError):
        xpow(F(1, 4)).shift_x(F(1, 4))


# ------------------------------------------------------------ substitution ---


def test_signed_qpow_substitution():
    # <c> vanishes at x = q^-c and at x = -q^-c
    for c in (0, 1, F(1, 2)):
        z = xbracket(c).eval_x_at_signed_qpow(1, -c)
        assert z == SC_ZERO
        z = xbracket(c).eval_x_at_signed_qpow(-1, -c)
        assert z == SC_ZERO
    # x*q - 1/(x*q) at x = -q: -(q^2 - q^-2)
    f = xpow(1) * qpow(1) - xpow(-1) * qpow(-1)
    got = f.eval_x_at_signed_qpow(-1, 1)
    assert got == -(qpow(2) - qpow(-2))


def test_substitution_rejects_x_radicals():
    with pytest.raises(ValueError):
        sqrt_xbracket(1).eval_x_at_signed_qpow(1, 0)


# ----------------------------------------------------------------- limits ---


def test_limits_of_bracket_ratios():
    r = xbracket(1) / xbracket(0)
    assert r.limit_x(at_zero=True) == qpow(-1)
    assert r.limit_x(at_zero=False) == qpow(1)
    with pytest.raises(DivergentLimit):
        xbracket(0).limit_x(True)
    assert (SC_ONE / xbracket(2)).limit_x(True) == SC_ZERO
    assert (SC_ONE / xbracket(2)).limit_x(False) == SC_ZERO


def test_limits_of_radical_ratios():
    s = sqrt_xbracket(3) / sqrt_xbracket(1)
    assert s.limit_x(True) == qpow(-1)
    assert s.limit_x(False) == qpow(1)
    # the limit agrees numerically with the principal branch
    q0 = 0.6
    for x0, at_zero in ((1e-8, True), (1e8, False)):
        lhs = s.numeric_eval(q0, x0)
        rhs = s.limit_x(at_zero).numeric_eval(q0, x0)
        assert abs(lhs - rhs) < 1e-6 * abs(rhs)


def test_radical_limit_branches_match_numerics():
    # sqrt<c>, damped to a finite limit: exact limit matches principal branch
    for c in (0, 1, F(1, 2)):
        s = sqrt_xbracket(c)
        lim0 = (s * xpow(F(1, 2))).limit_x(True)
        vnum = (s * xpow(F(1, 2))).numeric_eval(0.6, 1e-10)
        vlim = lim0.numeric_eval(0.6, 1e-10)
        assert abs(vnum - vlim) < 1e-4 * abs(vlim)
        limi = (s * xpow(F(-1, 2))).limit_x(False)
        vnum = (s * xpow(F(-1, 2))).numeric_eval(0.6, 1e10)
        vlim = limi.numeric_eval(0.6, 1e10)
        assert abs(vnum - vlim) < 1e-4 * abs(vlim)


# ---------------------------------------------------------------- numerics ---


def test_numeric_eval_basics():
    assert abs(qnum(2).numeric_eval(2.0, 0.3) - 2.5) < 1e-12
    v = xbracket(0).numeric_eval(0.5, 0.25)
    x, q = 0.25, 0.5
    assert abs(v - (x - 1 / x) / (q - 1 / q)) < 1e-12


def test_numeric_eval_is_multiplicative():
    rng = random.Random(11)
    for _ in range(10):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        q0, x0 = 0.7, 0.4
        va, vb = a.numeric_eval(q0, x0), b.numeric_eval(q0, x0)
        vab = (a * b).numeric_eval(q0, x0)
        scale = max(1.0, abs(va * vb))
        assert abs(vab - va * vb) < 1e-9 * scale


# -------------------------------------------------------------- field laws ---


def _random_qrat(rng):
    def poly():
        return {
            rng.randrange(-6, 7): F(rng.randrange(-4, 5), rng.randrange(1, 4))
            for _ in range(rng.randrange(1, 4))
        }

    num = {k: v for k, v in poly().items() if v}
    den = {k: v for k, v in poly().items() if v}
    if not den:
        den = dict(QP_ONE)
    return qrat(num, den) if num else qrat(QP_ONE)


def _random_rf(rng):
    def xpoly():
        return {
            rng.randrange(-4, 5) * 2: _random_qrat(rng)
            for _ in range(rng.randrange(1, 3))
        }

    num = {k: v for k, v in xpoly().items() if v}
    den = {k: v for k, v in xpoly().items() if v}
    if not num:
        num = {0: QRAT_ONE}
    if not den:
        den = {0: QRAT_ONE}
    return ratfn(num, den)


def _random_scalar(rng):
    s = SC_ZERO
    for _ in range(rng.randrange(1, 3)):
        atoms = rng.choice(
            [SC_ONE, sqrt_qint(2), sqrt_qint(3), sqrt_xbracket(1), sqrt_qdiff()]
        )
        s = s + sc_from_rf(_random_rf(rng)) * atoms
    return s


def test_field_laws_random_sweep():
    rng = random.Random(42)
    for _ in range(25):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a - a == SC_ZERO
        assert a * SC_ONE == a


def test_distinct_atom_tuples_are_numerically_independent():
    # a structurally non-zero Scalar of several atom tuples is a non-zero
    # element of the radical extension, so it is non-zero at a random point
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    roots = [sqrt_qdiff()] + [sqrt_qint(n) for n in range(2, 7)] + [
        sqrt_xbracket(F(c, 4)) for c in (-4, -1, 0, 2, 5)]
    # first every z8**k sqrt(T1) -+ z8**j sqrt(T2) for distinct tuples of up
    # to two atoms and phases k, j < 4
    tuples = [SC_ONE, *roots, *(r * t for i, r in enumerate(roots)
                                for t in roots[i + 1:])]
    tuples = [phase(F(k, 4)) * t for k in range(4) for t in tuples]
    values = [t.numeric_eval(1.37, 0.83) for t in tuples]
    for i, v in enumerate(values):
        for w in values[:i]:
            assert min(abs(v - w), abs(v + w)) > 1e-9 * abs(v), (i, v, w)
    terms = st.lists(
        st.tuples(st.integers(-3, 3).filter(bool), st.integers(-2, 2),
                  st.integers(-2, 2), st.sets(st.sampled_from(range(len(roots))),
                                              max_size=3),
                  st.integers(0, 7)),
        min_size=2, max_size=4)

    @hyp.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hyp.given(terms, st.floats(1.1, 2.5), st.floats(0.3, 3.0))
    def run(spec, q0, x0):
        s = SC_ZERO
        for c, a, b, picks, k in spec:
            t = sc_coeff(c) * phase(F(k, 4)) * qpow(a) * xpow(b)
            for i in picks:
                t = t * roots[i]
            s = s + t
        hyp.assume(len(s.terms) >= 2)
        values = [abs(Scalar({k: rf}).numeric_eval(q0, x0))
                  for k, rf in s.terms.items()]
        # a point where a radicand vanishes, such as x0 = q0 for <-1>, is
        # no random point
        hyp.assume(all(values))
        assert abs(s.numeric_eval(q0, x0)) > 1e-9 * sum(values)

    run()


# Scalars with phases and radicals against complex evaluation.  A term is
# c z8**k q**(s/4) x**(e/4) sqrt(prod of atoms) f, for a factor f from
# _FACTORS; its value is computed here with cmath from the same spec, with
# principal roots, and (-1)**e = exp(i pi e) for x = -|x|.

_ROOTS = [("qdiff",), ("qint", 2), ("qint", 3), ("qint", 5), ("xbr", -1),
          ("xbr", 2)]
# (kind, index, power) of the factor f: [n]**power or <c/4>**power
_FACTORS = [None, ("qnum", 3, 1), ("qnum", 4, -1), ("xbr", 1, 1),
            ("xbr", -3, -1), ("xbr", 0, -1)]


def _qn(q, n):
    return (q ** n - q ** -n) / (q - 1 / q)


def _xb(q, x, c_units):
    y = x * q ** (c_units / 4)
    return (y - 1 / y) / (q - 1 / q)


def _root_scalar(atom):
    if atom[0] == "qdiff":
        return sqrt_qdiff()
    if atom[0] == "qint":
        return sqrt_qint(atom[1])
    return sqrt_xbracket(F(atom[1], 4))


def _root_value(atom, q, x):
    if atom[0] == "qdiff":
        return cmath.sqrt(q - 1 / q)
    if atom[0] == "qint":
        return cmath.sqrt(_qn(q, atom[1]))
    return cmath.sqrt(_xb(q, x, atom[1]))


def _spec_scalar(spec):
    out = SC_ZERO
    for c, k, s, e, roots, f in spec:
        t = sc_coeff(c) * phase(F(k, 4)) * qpow(F(s, 4)) * xpow(F(e, 4))
        for i in roots:
            t = t * _root_scalar(_ROOTS[i])
        f = _FACTORS[f]
        if f is not None:
            kind, n, power = f
            g = qnum(n) if kind == "qnum" else xbracket(F(n, 4))
            t = t * g if power > 0 else t / g
        out = out + t
    return out


def _spec_terms(spec, q, x):
    """The complex value of each term of spec at q and x."""
    out = []
    for c, k, s, e, roots, f in spec:
        v = c * cmath.exp(1j * cmath.pi * k / 4) * q ** (s / 4)
        v *= complex(x) ** (e / 4)
        for i in roots:
            v *= _root_value(_ROOTS[i], q, x)
        f = _FACTORS[f]
        if f is not None:
            kind, n, power = f
            g = _qn(q, n) if kind == "qnum" else _xb(q, x, n)
            v = v * g if power > 0 else v / g
        out.append(v)
    return out


def _close(got, want, scale):
    assert abs(got - want) <= 1e-8 * max(1.0, scale), (got, want)


def test_phase_algebra_matches_complex_evaluation():
    # products, sums, inverses and the substitution x = +-q**a of Scalars
    # with phases and radicals, against the complex values of their specs
    from dynrmat.ratfunc import PoleAtSubstitution

    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    term = st.tuples(st.integers(-3, 3).filter(bool), st.integers(0, 7),
                     st.integers(-6, 6), st.integers(-6, 6),
                     st.sets(st.sampled_from(range(len(_ROOTS))), max_size=2),
                     st.sampled_from(range(len(_FACTORS))))
    specs = st.lists(term, min_size=1, max_size=3)

    @hyp.settings(max_examples=80, deadline=None, database=None,
                  derandomize=True)
    @hyp.given(specs, specs, st.floats(0.2, 0.9), st.floats(0.2, 0.9),
               st.sampled_from([1, -1]), st.integers(-2, 2))
    def run(sa, sb, q0, x0, sign, m):
        a, b = _spec_scalar(sa), _spec_scalar(sb)
        ta, tb = _spec_terms(sa, q0, x0), _spec_terms(sb, q0, x0)
        va, vb = sum(ta), sum(tb)
        na = sum(map(abs, ta))
        nb = sum(map(abs, tb))
        _close(a.numeric_eval(q0, x0), va, na)
        _close((a * b).numeric_eval(q0, x0), va * vb, na * nb)
        _close((a + b).numeric_eval(q0, x0), va + vb, na + nb)
        _close((a - b).numeric_eval(q0, x0), va - vb, na + nb)
        # one radical: every term takes the first term's atoms
        one = [t[:4] + (sa[0][4],) + t[5:] for t in sa]
        s = _spec_scalar(one)
        if s:
            inv = s.inv()
            assert (s * inv).is_one()
            ts = _spec_terms(one, q0, x0)
            if abs(sum(ts)) > 1e-3 * sum(map(abs, ts)):
                _close(inv.numeric_eval(q0, x0), 1 / sum(ts),
                       sum(map(abs, ts)) / abs(sum(ts)) ** 2)
        # x = sign * q**m, on the terms without an x-bracket root
        free = [t[:4] + (frozenset(i for i in t[4] if _ROOTS[i][0] != "xbr"),)
                + t[5:] for t in sa]
        s = _spec_scalar(free)
        x = sign * q0 ** m
        try:
            got = s.eval_x_at_signed_qpow(sign, m)
        except PoleAtSubstitution:
            return
        tf = _spec_terms(free, q0, x)
        _close(got.numeric_eval(q0, 0.5), sum(tf), sum(map(abs, tf)))

    run()


def test_division_round_trip():
    rng = random.Random(43)
    for _ in range(25):
        a = _random_scalar(rng)
        b = sc_from_rf(_random_rf(rng)) * rng.choice(
            [SC_ONE, sqrt_qint(2), sqrt_xbracket(1)]
        )
        if not b:
            continue
        assert (a * b) / b == a
        assert b.inv().inv() == b


def test_canonical_invariants_after_arithmetic():
    rng = random.Random(44)
    for _ in range(40):
        r = _random_rf(rng)
        s = _random_rf(rng)
        for t in (r + s, r * s, r - s):
            if not t:
                continue
            assert min(t.den) == 0
            lead = t.den[max(t.den)]
            assert lead == QRAT_ONE
            for qr in list(t.num.values()) + list(t.den.values()):
                assert qr  # stored coefficients are never zero
                assert min(qr.den) == 0
                assert qr.den[max(qr.den)] == F(1)
                if qr.den != QP_ONE:
                    g = qp_gcd(qr.num, qr.den)[0]
                    assert max(g) == 0


# ------------------------------------------------------------------- JSON ----


def test_json_round_trip():
    rng = random.Random(45)
    for _ in range(10):
        s = _random_scalar(rng)
        blob = json.dumps(s.to_jsonable(), sort_keys=True)
        t = Scalar.from_jsonable(json.loads(blob))
        assert t == s
    # determinism: same object, same bytes
    s = _random_scalar(random.Random(9))
    b1 = json.dumps(s.to_jsonable(), sort_keys=True)
    b2 = json.dumps(s.to_jsonable(), sort_keys=True)
    assert b1 == b2
