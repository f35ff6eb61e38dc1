"""Representation layer: generator relations, coproducts, embeddings."""

from fractions import Fraction as F

import pytest

from dynrmat import spins
from dynrmat.report import run_comparisons
from dynrmat.scalar import SC_ONE, qpow, sc_coeff, sqrt_qint
from dynrmat.spins import (
    GradedOperator,
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


def test_first_nonzero_witness_is_deterministic():
    space = TensorSpace((H, H))
    op = coproduct_eplus(space)
    r, c, s = op.first_nonzero()
    assert (r, c) == min(op.data)
    assert s == op.entry(r, c)


def test_json_round_trip_shape():
    space = TensorSpace((H,))
    op = embed(rep_h(Spin(H)), space, (0,))
    blob = op.to_jsonable()
    assert sorted(blob["entries"]) == ["0,0", "1,1"]
