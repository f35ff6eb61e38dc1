"""Twist families, exchange matrices and the identity checkers."""

from fractions import Fraction as F

import pytest

from dynrmat import twist
from dynrmat.scalar import SC_ONE, qdiff, qpow, xpow
from dynrmat.spins import Spin, TensorSpace, identity_op
from dynrmat.twist import (
    RELATIONS,
    associator_phi,
    associator_phi_inv,
    boundary_m,
    drinfeld_r,
    gnf_r,
    twist_f,
    twist_f_inv,
)
from dynrmat.suite import verify_relation

H = F(1, 2)


def test_constant_exchange_matrix_pinned():
    rd = drinfeld_r(H, H)
    assert rd.entry(0, 0) == qpow(H)
    assert rd.entry(1, 1) == qpow(-H)
    assert rd.entry(2, 2) == qpow(-H)
    assert rd.entry(3, 3) == qpow(H)
    assert rd.entry(1, 2) == qpow(-H) * qdiff()
    assert len(rd.data) == 5


def test_twist_pinned_entry():
    f = twist_f(H, H)
    assert f.entry(1, 2) == -(qdiff() * xpow(1)) / (xpow(1) - xpow(-1))
    for i in range(4):
        assert f.entry(i, i) == SC_ONE


def test_twist_inverse_two_routes():
    # the closed-form inverse series must agree with the matrix inverse
    # computed by a plain geometric series in (1 - F), which terminates
    # because 1 - F is strictly triangular in the weight filtration
    for pair in [(H, H), (H, 1)]:
        f = twist_f(*pair)
        finv = twist_f_inv(*pair)
        space = f.space
        ident = identity_op(space)
        n = ident - f
        series = ident
        term = ident
        while term.data:
            term = term @ n
            series = series + term
        assert finv == series
        assert f @ finv == ident
        assert finv @ f == ident


def test_boundary_twist_matrix_pinned():
    m = boundary_m(H)
    den = SC_ONE - xpow(2) * qpow(2)
    assert m.entry(0, 0) == SC_ONE / den
    assert m.entry(0, 1) == -(qpow(H) * xpow(1)) / den
    assert m.entry(1, 0) == -qpow(-H) * xpow(1)
    assert m.entry(1, 1) == SC_ONE


def test_delta_m_matches_coboundary_product():
    rep = verify_relation("COBOUNDARY", (H, H))
    assert rep.ok, rep.line()


def test_associator_inverse():
    phi = associator_phi(H, H, H)
    inv = associator_phi_inv(H, H, H)
    ident = identity_op(phi.space)
    assert phi @ inv == ident
    assert inv @ phi == ident


def test_associator_conserves_total_weight():
    phi = associator_phi(H, H, 1)
    space = phi.space
    for (r, c) in phi.data:
        assert space.total_weights[r] == space.total_weights[c]


@pytest.mark.parametrize(
    "name,spins",
    [
        ("RD_INTERTWINER", (H, H)),
        ("RD_INTERTWINER", (H, 1)),
        ("RD_FUSION", (H, H, H)),
        ("RD_FUSION", (H, 1, H)),
        ("GNF", (H, H, H)),
        ("GNF", (H, H, 1)),
        ("COCYCLE", (H, H, H)),
        ("COCYCLE", (H, 1, H)),
        ("COBOUNDARY", (H, 1)),
        ("PHI_FORMS", (H, H, H)),
        ("SHIFTED_COASSOC", (H, H, H)),
        ("PHI_CONJUGATION", (H, H, H)),
        ("QUASI_YBE", (H, H, H)),
        ("QUASITRIANG_LEFT", (H, H, H)),
        ("QUASITRIANG_RIGHT", (H, H, H)),
        ("DELTAX_HOMOMORPHISM", (H, H)),
        ("DELTAX_HOMOMORPHISM", (H, 1)),
        ("TWIST_LIMITS", (H, H)),
        ("TWIST_LIMITS", (H, 1)),
        ("GNF", (F(3, 2), 1, H)),
        ("GNF", (F(3, 2), F(3, 2), H)),
    ],
)
def test_relation_exact(name, spins):
    rep = verify_relation(name, spins)
    assert rep.ok, rep.line()


def test_relation_numeric_mode():
    rep = verify_relation("GNF", (H, H, H), mode="numeric", q0=0.43, x0=0.67)
    assert rep.ok, rep.line()


def test_relation_catches_wrong_identity():
    # sanity of the harness itself: a deliberately false comparison fails
    from dynrmat.report import run_comparisons

    space = TensorSpace((F(1, 2), F(1, 2)))
    lhs = drinfeld_r(H, H)
    rhs = identity_op(space)
    rep = run_comparisons("SANITY", (H, H), [("broken", lhs, rhs)])
    assert not rep.ok
    assert rep.failing_entry is not None
    assert rep.residual_rank is not None and rep.residual_rank > 0


def test_registry_arities():
    for name, (_build, arity) in RELATIONS.items():
        assert arity in (2, 3)


def test_gnf_r_acts_block_diagonally():
    r = gnf_r(H, 1)
    space = r.space
    for (row, col) in r.data:
        assert space.total_weights[row] == space.total_weights[col]


def test_report_json_shape():
    rep = verify_relation("GNF", (H, H, H))
    blob = rep.to_jsonable(stable=True)
    assert blob == {
        "relation": "GNF",
        "spins": ["1/2", "1/2", "1/2"],
        "mode": "exact",
        "status": "pass",
    }


def test_gnf_products_need_no_q_level_products_or_images(monkeypatch):
    # the x-level numerators of GNF(1,1,1) are packed integer rows, so an
    # x-level product multiplies big ints with no QPoly product under it,
    # and a binomial is ruled in or out exactly, with no GF(p) image
    from dynrmat import polys, ratfunc

    assert not hasattr(polys, "_qp_at_u0")
    calls = {"xp_mul": 0, "qp_mul under xp_mul": 0, "image": 0}
    inside = []

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    def counted_xp_mul(a, b, xp_mul=ratfunc.xp_mul):
        calls["xp_mul"] += 1
        inside.append(1)
        try:
            return xp_mul(a, b)
        finally:
            inside.pop()

    def counted_qp_mul(a, b, qp_mul=polys.qp_mul):
        if inside:
            calls["qp_mul under xp_mul"] += 1
        return qp_mul(a, b)

    monkeypatch.setattr(ratfunc, "xp_mul", counted_xp_mul)
    monkeypatch.setattr(polys, "qp_mul", counted_qp_mul)
    for name in ("_image",):
        monkeypatch.setattr(polys, name, counted("image", getattr(polys, name)))
    assert verify_relation("GNF", (1, 1, 1)).ok
    assert calls["xp_mul"] > 0
    assert calls["qp_mul under xp_mul"] == 0 and calls["image"] == 0, calls


# the product engine, kept for the multi-leg groups of triple spaces, is the
# oracle of the closed-form pair twists
_PAIR_KINDS = [(twist._build_rd, twist._pref_rd),
               (twist._build_f, twist._pref_f),
               (twist._build_f_inv, twist._pref_f_inv)]


@pytest.mark.parametrize("a", range(7))
def test_pair_twists_equal_the_product_engine(a):
    s1 = Spin(F(a, 2))
    for b in range(7):
        s2 = Spin(F(b, 2))
        engine = TensorSpace((s1, s2))
        for build, pref in _PAIR_KINDS:
            assert build(s1, s2) == twist._row_dressed_series(
                engine, (0,), (1,), pref), (a, b, pref.__name__)


def test_building_a_pair_twist_multiplies_no_operators(monkeypatch,
                                                       cold_caches):
    def no_times(*args):
        raise AssertionError("spins._times called")

    monkeypatch.setattr("dynrmat.spins._times", no_times)
    for pair in [(1, H), (F(3, 2), 1), (2, 2)]:
        for build, _ in _PAIR_KINDS:
            assert build(*map(Spin, pair))
