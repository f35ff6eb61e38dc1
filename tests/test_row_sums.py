"""The signed-sum row test against the canonical rows it stands in for.

`report._rows_agree` decides a row of an exact operator comparison by one
signed sum per column, radical and phase, which it never cancels.  It must
say exactly what comparing the canonical rows says, `lrow == rrow`, on
every row.  The sides are random 2- and 3-factor Products of the embedded
pair twists, some shifted by a leg weight or with Fraction entries, against
an equal side (the same factors regrouped, the evaluated product, or two
factors scaled by c and 1/c) or against one with a planted entry: a sign, a
factor q, an added radical term, a binomial ratio or a z8 phase.  A nested
value is summed canonically.
"""

import contextlib
import io
from fractions import Fraction as F
from functools import cache, reduce

import pytest

from dynrmat import report, twist
from dynrmat.cli import main
from dynrmat.polys import QRAT_ONE, XP_ONE
from dynrmat.ratfunc import ratfn
from dynrmat.scalar import (
    qint_monomial,
    qpow,
    sc_coeff,
    sc_from_rf,
    sqrt_qint,
    xbracket,
)
from dynrmat.spins import (
    GradedOperator,
    Product,
    Spin,
    TensorSpace,
    embed,
    finish,
)

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies

SETTINGS = hyp.settings(max_examples=100, deadline=None, database=None,
                        derandomize=True,
                        suppress_health_check=list(hyp.HealthCheck))

H = F(1, 2)
SPACES = [(H, H, H), (1, H, H), (H, 1, H), (1, 1, H)]
BUILDS = [twist._build_f, twist._build_f_inv, twist._build_rd,
          twist._build_gnf_r]
LEGS = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]


@cache
def _space(spins):
    return TensorSpace(tuple(Spin(s) for s in spins))


@cache
def _factor(spins, build, legs, form="plain"):
    """A pair twist embedded on `legs`: "shifted" by the weight of the third
    leg, or with "fractions", entry (r, c) divided by (r + c) % 3 + 1, so
    that terms of one sum have different content denominators."""
    space = _space(spins)
    op = embed(build(space.spins[legs[0]], space.spins[legs[1]]), space, legs)
    if form == "shifted":
        other, = {0, 1, 2} - set(legs)
        op = op.shift_x_by_weight(1, space.leg_weights[other])
    elif form == "fractions":
        op = GradedOperator(space, {(r, c): s * sc_coeff(F(1, (r + c) % 3 + 1))
                                    for (r, c), s in op.data.items()})
    return op


def _scaled(op, c):
    return GradedOperator(op.space, {k: s * c for k, s in op.data.items()})


# one factor is scaled by c and the next by 1/c: a Fraction, a ratio of
# q-integers, phases that sum past z8**4, a radical and a binomial ratio
SCALES = [sc_coeff(F(2, 3)), qint_monomial(1, 0, {3: 2, 2: -2}),
          qint_monomial(1, 0, {}, z8=3), sqrt_qint(2),
          qint_monomial(-1, 0, {3: 1}, z8=1), xbracket(1) / xbracket(-1)]


# what a planted entry is multiplied by, or has added to it
PLANTS = {
    "sign": lambda s: -s,
    "q": lambda s: s * qpow(1),
    "radical": lambda s: s + sqrt_qint(3) * xbracket(1),
    "binomial ratio": lambda s: s * xbracket(1) * xbracket(-1).inv(),
    "z8": lambda s: s * qint_monomial(1, 0, {}, z8=1),
}


def _planted(op, k, plant):
    data = dict(op.data)
    key = sorted(data)[k % len(data)]
    data[key] = PLANTS[plant](data[key])
    return GradedOperator(op.space, data)


def _row_tests(lhs, rhs):
    """(row test, canonical comparison) of every row of lhs and rhs."""
    out = []
    for (_, *ls), (_, *rs) in zip(lhs.stages(), rhs.stages()):
        out.append((report._rows_agree(ls, rs),
                    finish(*ls) == finish(*rs)))
    return out


def _agrees(lhs, rhs):
    got = _row_tests(lhs, rhs)
    assert [a for a, _ in got] == [b for _, b in got]
    return got


factors = st.tuples(st.sampled_from(range(len(BUILDS))),
                    st.sampled_from(LEGS),
                    st.sampled_from(["plain", "shifted", "fractions"]))


@SETTINGS
@hyp.given(
    st.sampled_from(SPACES),
    st.lists(factors, min_size=2, max_size=3),
    st.sampled_from(["regrouped", "evaluated", "scaled"] + sorted(PLANTS)),
    st.integers(0, 2),
    st.integers(0, 10 ** 6),
)
def test_row_test_is_the_canonical_comparison(spins, picks, other, which, k):
    ops = [_factor(spins, BUILDS[b], legs, form) for b, legs, form in picks]
    lhs = Product(*ops)
    which %= len(ops)
    if other == "regrouped":
        rhs = Product(ops[0] @ ops[1], *ops[2:])
    elif other == "evaluated":
        rhs = reduce(GradedOperator.__matmul__, ops)
    elif other == "scaled":
        c = SCALES[k % len(SCALES)]
        rhs = Product(*(_scaled(op, c) if i == which else
                        _scaled(op, c.inv()) if i == (which + 1) % len(ops)
                        else op for i, op in enumerate(ops)))
    else:
        rhs = Product(*(_planted(op, k, other) if i == which else op
                        for i, op in enumerate(ops)))
    got = _agrees(lhs, rhs)
    if other in ("regrouped", "evaluated", "scaled"):
        assert all(a for a, _ in got)


def test_planted_rows_fail_and_equal_rows_pass():
    # one fixed case of each kind, so that the kinds are seen whatever
    # examples the search draws
    spins = (1, H, H)
    ops = [_factor(spins, twist._build_f, (0, 1), "fractions"),
           _factor(spins, twist._build_gnf_r, (1, 2), "shifted"),
           _factor(spins, twist._build_f_inv, (2, 0))]
    lhs = Product(*ops)
    assert all(a for a, _ in _agrees(lhs, Product(ops[0], ops[1] @ ops[2])))
    assert all(a for a, _ in _agrees(lhs, reduce(GradedOperator.__matmul__,
                                                 ops)))
    for c in SCALES:
        for i in range(2):
            rhs = Product(*ops[:i], _scaled(ops[i], c),
                          _scaled(ops[i + 1], c.inv()), *ops[i + 2:])
            assert all(a for a, _ in _agrees(lhs, rhs))
    for plant in PLANTS:
        for i in range(3):
            rhs = Product(*(_planted(op, 5, plant) if j == i else op
                            for j, op in enumerate(ops)))
            assert not all(a for a, _ in _agrees(lhs, rhs)), (plant, i)


def test_nested_values_are_summed_canonically():
    # 1/(x**2 + x + 1) is no product of binomials x**2 - q**m, so its
    # RationalFunction keeps its whole denominator as G, and the row test
    # takes G as one more factor of the common multiple of the groups that
    # hold it
    nested = sc_from_rf(ratfn(XP_ONE, {8: QRAT_ONE, 4: QRAT_ONE,
                                       0: QRAT_ONE}))
    assert next(iter(nested.terms.values())).g is not None
    spins = (1, H, H)
    space = _space(spins)
    diag = GradedOperator(space, {(i, i): nested * qpow(i)
                                  for i in range(space.dim)})
    r = _factor(spins, twist._build_gnf_r, (0, 1))
    f = _factor(spins, twist._build_f, (1, 2), "shifted")
    lhs = Product(diag, r, f)
    assert all(a for a, _ in _agrees(lhs, Product(diag @ r, f)))
    assert all(a for a, _ in _agrees(lhs, diag @ r @ f))
    for plant in PLANTS:
        rhs = Product(_planted(diag, 3, plant), r, f)
        assert not all(a for a, _ in _agrees(lhs, rhs)), plant


def _verify_all_json():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "all", "--format", "json", "--jobs", "1"])
    return code, out.getvalue()


def test_verify_all_is_the_same_with_canonical_rows_only(monkeypatch):
    want = _verify_all_json()
    monkeypatch.setattr(report, "_rows_agree", lambda lstage, rstage: False)
    assert want[0] == 0 and _verify_all_json() == want
