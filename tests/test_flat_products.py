"""Products on the flat x-level form: the monomial rule, the own-factor
rule, and the canonical-form invariant both rest on.

A canonical numerator N over Dq * Dx is coprime in v to the binomials of
Dx, and no Phi_d of a Dq that N's rows divide wholly or not at all
(polys.xp_qsafe) divides every row.  So a product tries each numerator only
against the other operand's factors that its own multisets lack, and a
monomial factor c * v**k * u**e only scales and relabels the other's rows.
The invariant is audited here on every flat value that three relations
build, and a sample of those is checked against sympy.
"""

from fractions import Fraction as F

import pytest

from dynrmat import ratfunc
from dynrmat.multisets import NO_FACTORS
from dynrmat.polys import (
    Y_DEG,
    cyclotomic,
    xp_binom_div,
    xp_from_terms,
    xp_qcancel,
    xp_qsafe,
    xp_terms,
)
from dynrmat.ratfunc import RationalFunction, rf_product
from dynrmat.suite import verify_relation

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies

SETTINGS = hyp.settings(max_examples=150, deadline=None, database=None,
                        derandomize=True,
                        suppress_health_check=list(hyp.HealthCheck))


# ----------------------------------------------------- monomial products ----

# ints near 2**62 and 2**63, on both sides, and small ones
_near = st.tuples(st.sampled_from([1 << 62, 1 << 63]), st.integers(-3, 3),
                  st.sampled_from([1, -1])).map(lambda t: t[2] * (t[0] + t[1]))
ints = st.one_of(_near, st.integers(-5, 5).filter(bool))


@st.composite
def monomials(draw):
    """A monomial c * v**k * u**e over 1, or now and then a single row of
    two terms, which is no monomial."""
    k, e, c = draw(st.integers(-12, 12)), draw(st.integers(-20, 20)), draw(ints)
    row = {e: c}
    if draw(st.integers(0, 4)) == 0:
        row[e + draw(st.integers(1, 9))] = draw(ints)
    return RationalFunction(xp_from_terms({k: row}), NO_FACTORS, NO_FACTORS)


@st.composite
def flat_values(draw):
    """A canonical flat value: a numerator over 1 with rows near the slot
    limit, times a product of binomials and Phi_d over known factors."""
    rows = draw(st.dictionaries(
        st.integers(-1, 2).map(lambda j: Y_DEG * j),
        st.dictionaries(st.integers(-16, 24), ints, min_size=1, max_size=4),
        min_size=1, max_size=3))
    shift = draw(st.integers(-4, 4))
    base = RationalFunction(
        xp_from_terms({k + shift: r for k, r in rows.items()}), NO_FACTORS,
        NO_FACTORS)
    dq = draw(st.dictionaries(st.sampled_from([1, 2, 3, 4, 6]),
                              st.integers(1, 2), max_size=2))
    binoms = draw(st.dictionaries(st.integers(-12, 12),
                                  st.integers(-2, 2).filter(bool), max_size=3))
    x = base * rf_product(0, {0: 1}, dq, binoms)
    hyp.assume(x.g is None and x.n.b)
    return x


def test_monomial_product_is_the_factored_product():
    # negative c, v-shifts and u-offsets off the stride of the other
    # factor; where bound * |c| could reach a slot, the rule must decline
    @SETTINGS
    @hyp.given(monomials(), flat_values())
    def run(m, x):
        want = m._mul_factored(x)
        assert want == x._mul_factored(m)
        got = ratfunc._scaled(m, x)
        (row,) = xp_terms(m.n).values()
        c = list(row.values())[0] if len(row) == 1 else None
        if c is None or (x.n.bound * abs(c)) >> (x.n.b - 1):
            assert got is None
        else:
            assert got is not None
            assert got == want and hash(got) == hash(want)
            assert got.dq == want.dq and got.fac == want.fac
            top = max(abs(v) for r in xp_terms(got.n).values()
                      for v in r.values())
            assert top <= got.n.bound and not got.n.bound >> (got.n.b - 1)
        assert m * x == want and x * m == want

    run()


# ---------------------------------------------- the canonical invariant ----

AUDITED = [("GNF", (1, 1, 1)), ("COCYCLE", (F(1, 2), 1, F(1, 2))),
           ("RECOUPLING", (1, 1, 1))]


def _record_flat(monkeypatch):
    """Every flat RationalFunction built from now on, in order."""
    built = []
    init = RationalFunction.__init__

    def recording(self, n, dq, fac, g=None):
        init(self, n, dq, fac, g)
        if g is None:
            built.append(self)

    monkeypatch.setattr(RationalFunction, "__init__", recording)
    return built


def _sympy_checks(r, sp, u, v):
    """No binomial of Dx shares a factor with N, and no Phi_d of Dq divides
    every row of N, over Q[u, v]."""
    rows = xp_terms(r.n)
    lo = min(e for row in rows.values() for e in row)
    kmin = min(rows)
    n = sum(sp.Integer(c) * u ** (e - lo) * v ** (k - kmin)
            for k, row in rows.items() for e, c in row.items())
    for e in r.fac:
        binomial = v ** Y_DEG - u ** e if e >= 0 else u ** -e * v ** Y_DEG - 1
        assert sp.gcd(n, binomial).is_number
    for d in r.dq:
        phi = sum(c * u ** (8 * j) for j, c in enumerate(cyclotomic(d)))
        assert any(sp.rem(sum(sp.Integer(c) * u ** (e - lo)
                              for e, c in row.items()), phi, u)
                   for row in rows.values())


@pytest.mark.parametrize("relation,spins", AUDITED,
                         ids=["%s%s" % (r, tuple(map(str, s)))
                              for r, s in AUDITED])
def test_every_flat_value_built_is_canonical(monkeypatch, relation, spins):
    built = _record_flat(monkeypatch)
    assert verify_relation(relation, spins).ok
    assert built
    sampled = []
    for r in built:
        rows = r.n.rows
        if r.fac and len(rows) > 1:
            k0 = min(rows)
            assert not any((k - k0) % Y_DEG for k in rows)
            for e in r.fac:
                assert xp_binom_div(r.n, e) is None
        if r.dq and xp_qsafe(r.n):
            for d in r.dq:
                assert xp_qcancel(r.n, {d: 1})[1] == {}
        if (r.fac or r.dq) and r.n.b:
            sampled.append(r)
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v")
    for r in sampled[::max(1, len(sampled) // 25)]:
        _sympy_checks(r, sp, u, v)


def test_no_root_test_targets_the_numerators_own_binomials(monkeypatch):
    # a canonical numerator is coprime to its own Dx, so a root test against
    # one of those binomials can only fail: none may be made
    built = _record_flat(monkeypatch)  # keeps every numerator alive
    owners, seen = {}, [0]
    cancel = ratfunc.xp_binom_cancel
    tests = {"own": 0, "other": 0}

    def counting(t, fac):
        for r in built[seen[0]:]:
            owners[id(r.n)] = r.fac
        seen[0] = len(built)
        own = owners.get(id(t), NO_FACTORS)
        for e, m in fac.items():
            tests["own" if e in own else "other"] += m
        return cancel(t, fac)

    monkeypatch.setattr(ratfunc, "xp_binom_cancel", counting)
    assert verify_relation("GNF", (1, 1, 1)).ok
    assert tests["other"] > 0
    assert tests["own"] == 0
