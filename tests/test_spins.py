"""Representation layer: generator relations, coproducts, embeddings."""

import operator
from fractions import Fraction as F
from functools import reduce

import pytest

from dynrmat import spins, twist
from dynrmat.report import run_comparisons
from dynrmat.scalar import SC_ONE, dot, qpow, sc_coeff, sqrt_qint, xpow
from dynrmat.spins import (
    GradedOperator,
    Product,
    Spin,
    TensorSpace,
    check_algebra,
    check_coproduct_algebra,
    coproduct,
    coproduct_eminus,
    coproduct_eplus,
    coproduct_h,
    diag_scalars,
    embed,
    identity_op,
    relations,
    rep_eminus,
    rep_eplus,
    rep_h,
    zero_weight_indices,
)

H = F(1, 2)


def test_single_spin_algebra():
    for twice in range(6):
        ok, msg = check_algebra(Spin(F(twice, 2)))
        assert ok, msg


@pytest.mark.parametrize("pair", [(H, H), (H, 1), (1, H)])
@pytest.mark.parametrize("flipped", [False, True])
def test_coproduct_algebra(pair, flipped):
    space = TensorSpace(pair)
    ok, msg = check_coproduct_algebra(space, flipped)
    assert ok, msg


# The pair coproduct of each generator, as (space2, flipped) -> operator.
_PAIR = {
    rep_h: lambda space2, flipped: coproduct_h(space2),
    rep_eplus: coproduct_eplus,
    rep_eminus: coproduct_eminus,
}


def _on_group(rep, space, legs, flipped):
    """rep on one leg, or its pair coproduct on two, embedded in space."""
    sub = TensorSpace([space.spins[l] for l in legs])
    op = rep(sub.spins[0]) if len(legs) == 1 else _PAIR[rep](sub, flipped)
    return embed(op, space, legs)


def _dress(space, legs, sign):
    """The diagonal q^(sign H/2), H the summed weight of `legs`."""
    weights = map(sum, zip(*(space.leg_weights[l] for l in legs)))
    return diag_scalars(space, [qpow(F(sign * w, 2)) for w in weights])


def _two_step(rep, space, left, right, flipped):
    """The coproduct on three legs in one bracketing: the two-leg rule
    applied to the leg groups `left` and `right`, one of them a pair."""
    a = _on_group(rep, space, left, flipped)
    b = _on_group(rep, space, right, flipped)
    if rep is rep_h:
        return a + b
    sign = -1 if flipped else 1
    return a @ _dress(space, right, sign) + _dress(space, left, -sign) @ b


@pytest.mark.parametrize("three", [(H, H, H), (H, 1, H), (1, H, 1)])
@pytest.mark.parametrize("flipped", [False, True])
def test_iterated_coproduct_matches_both_bracketings(three, flipped):
    space = TensorSpace(three)
    images = []
    for rep in (rep_h, rep_eplus, rep_eminus):
        full = coproduct(rep, space, (0, 1, 2), flipped)
        assert full == _two_step(rep, space, (0,), (1, 2), flipped)
        assert full == _two_step(rep, space, (0, 1), (2,), flipped)
        images.append(full)
    for label, lhs, rhs in relations(*images, space.total_weights):
        assert lhs == rhs, label


def test_reversed_legs_give_the_flipped_coproduct():
    space = TensorSpace((H, 1))
    for rep in (rep_eplus, rep_eminus):
        assert coproduct(rep, space, (1, 0)) == coproduct(
            rep, space, (0, 1), flipped=True)


@pytest.mark.parametrize("wrong, failing", [
    # [H, E+] = 2 E+ is linear in E+, so a multiple of E+ keeps it
    (lambda s: rep_eplus(s) * qpow(1), "[E+, E-] = [H]"),
    (lambda s: rep_eplus(s) + rep_eminus(s), "[H, E+] = 2 E+"),
])
def test_shared_relations_catch_a_wrong_raising_generator(
        monkeypatch, wrong, failing):
    s = Spin(1)
    planted = wrong(s)
    monkeypatch.setattr(spins, "rep_eplus", lambda spin: planted)
    ok, message = check_algebra(s)
    assert not ok
    assert message.startswith(failing)
    h = rep_h(s)
    report = run_comparisons("ALGEBRA", (1,), relations(
        h, planted, rep_eminus(s), h.space.total_weights))
    assert report.status == "fail"
    assert report.failing_entry["check"] == failing


def test_coproduct_on_lowest_vector():
    # D(E+)|--> must come out with weights q^(-1/2) and q^(+1/2)
    space = TensorSpace((H, H))
    op = coproduct_eplus(space)
    low = space.dim - 1
    assert op.entry(1, low) == qpow(F(-1, 2))
    assert op.entry(2, low) == qpow(F(1, 2))


def test_ladder_matrix_elements_spin_one():
    s = Spin(1)
    ep = rep_eplus(s)
    em = rep_eminus(s)
    # E+ |1,0> = sqrt([1][2]) |1,1>, and [1] = 1
    assert ep.entry(0, 1) == sqrt_qint(1) * sqrt_qint(2)
    assert ep.entry(1, 2) == sqrt_qint(2) * sqrt_qint(1)
    assert em.entry(1, 0) == sqrt_qint(2)
    assert em.entry(2, 1) == sqrt_qint(2)
    assert ep.entry(0, 2) is not None or True  # absent entries read as zero
    assert not ep.entry(0, 0)


def test_weight_tables():
    space = TensorSpace((H, 1))
    assert space.dim == 6
    assert space.leg_weights[0] == (1, 1, 1, -1, -1, -1)
    assert space.leg_weights[1] == (2, 0, -2, 2, 0, -2)
    assert space.total_weights == (3, 1, -1, 1, -1, -3)


def test_embed_permutation():
    # embedding with swapped legs must transport the operator accordingly
    sub = TensorSpace((H, 1))
    big = TensorSpace((1, H))
    op = embed(rep_eplus(Spin(H)), sub, (0,))
    moved = embed(op, big, (1, 0))
    direct = embed(rep_eplus(Spin(H)), big, (1,))
    assert moved == direct


def test_embed_three_legs():
    big = TensorSpace((H, H, H))
    sub = TensorSpace((H, H))
    op = coproduct_eplus(sub)
    emb = embed(op, big, (0, 2))
    # acting only on legs 0 and 2: middle leg index must be preserved
    for (r, c) in emb.data:
        rm = big.multi(r)
        cm = big.multi(c)
        assert rm[1] == cm[1]


def test_zero_weight_indices():
    space = TensorSpace((1, 1))
    idx = zero_weight_indices(space)
    assert len(idx) == 3
    assert all(space.total_weights[i] == 0 for i in idx)


def test_matmul_and_identity():
    space = TensorSpace((H, H))
    ident = identity_op(space)
    op = coproduct_eplus(space)
    assert ident @ op == op
    assert op @ ident == op
    assert op * sc_coeff(1) == op


def test_shift_guard_rejects_nonconserving():
    space = TensorSpace((H, H))
    op = coproduct_eplus(space)  # changes leg weights
    with pytest.raises(ValueError):
        op.shift_x_by_weight(1, space.leg_weights[0])


def test_json_round_trip_shape():
    space = TensorSpace((H,))
    op = embed(rep_h(Spin(H)), space, (0,))
    blob = op.to_jsonable()
    assert sorted(blob["entries"]) == ["0,0", "1,1"]


# ------------------------------------------------------ row-by-row products


def _whole_product(a, b):
    """a @ b formed over the whole operator at once, the pairs of each entry
    in the order of a's storage: the reference for the row kernel."""
    by_row = {}
    for (k, c), s in b.data.items():
        by_row.setdefault(k, []).append((c, s))
    pairs = {}
    for (r, k), sa in a.data.items():
        for c, sb in by_row.get(k, ()):
            pairs.setdefault((r, c), []).append((sa, sb))
    out = {}
    for rc, entry in pairs.items():
        s = dot(entry)
        if s:
            out[rc] = s
    return GradedOperator(a.space, out)


def _check_rows(product):
    """The rows of a Product are those of the whole product, row for row and
    with each row's columns in the same order (the order in which the next
    factor's pairs reach dot), and the product evaluated with @ agrees."""
    rows = list(product.rows())
    assert [r for r, _ in rows] == list(range(product.space.dim))
    whole = reduce(_whole_product, product.factors)
    want = [[] for _ in rows]
    for (r, c), s in whole.data.items():
        want[r].append((c, s))
    assert [list(row.items()) for _, row in rows] == want
    assert reduce(operator.matmul, product.factors) == whole


# every twist relation with a side that is an unevaluated product
_PRODUCT_RELATIONS = [
    "RD_INTERTWINER", "RD_FUSION", "GNF", "COCYCLE", "COBOUNDARY", "PHI_FORMS",
    "SHIFTED_COASSOC", "PHI_CONJUGATION", "QUASI_YBE", "QUASITRIANG_LEFT",
    "QUASITRIANG_RIGHT", "TWIST_LIMITS",
]


@pytest.mark.parametrize("three", [(H, H, H), (1, H, 1)])
@pytest.mark.parametrize("name", _PRODUCT_RELATIONS)
def test_product_sides_have_the_rows_of_the_evaluated_product(name, three):
    build, arity = twist.RELATIONS[name]
    sides = [side for _, lhs, rhs in build(*three[:arity])
             for side in (lhs, rhs) if isinstance(side, Product)]
    assert sides
    for side in sides:
        _check_rows(side)


def test_product_refuses_factors_on_different_spaces():
    with pytest.raises(ValueError):
        Product(identity_op(TensorSpace((H,))), identity_op(TensorSpace((1,))))


def test_random_row_products_match_whole_products():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    values = [sc_coeff(2), sc_coeff(-1), qpow(H), xpow(1) - SC_ONE,
              sqrt_qint(2), sqrt_qint(3) * qpow(-1)]

    @st.composite
    def factor(draw, space):
        kind = draw(st.sampled_from(["sparse", "e+", "e-", "h", "zero"]))
        if kind == "zero":
            return GradedOperator(space, {})
        if kind != "sparse":
            rep = {"e+": rep_eplus, "e-": rep_eminus, "h": rep_h}[kind]
            legs = tuple(draw(st.permutations(range(len(space.spins)))))
            return coproduct(rep, space, legs)
        # a sparse operator whose rows avoid a drawn set, so empty rows occur
        index = st.integers(0, space.dim - 1)
        skip = draw(st.sets(index, max_size=space.dim // 2))
        entries = draw(st.dictionaries(
            st.tuples(index.filter(lambda r: r not in skip), index),
            st.sampled_from(values), max_size=2 * space.dim))
        return GradedOperator(space, entries)

    @hyp.settings(max_examples=80, deadline=None, database=None,
                  derandomize=True)
    @hyp.given(st.data())
    def run(data):
        three = data.draw(st.sampled_from(
            [(H,), (1,), (H, H), (H, 1), (1, H), (H, H, H)]))
        space = TensorSpace(three)
        factors = data.draw(st.lists(factor(space), min_size=1, max_size=4))
        _check_rows(Product(*factors))

    run()
