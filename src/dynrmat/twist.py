"""Dynamical twist, exchange matrices and the quasi-Hopf associator.

Everything here is a finite sum of raising/lowering monomials dressed with
diagonal weight factors, so each object is assembled by one of two series
engines:

* a row-dressed series  sum_k pref(k, row) * A_+^k B_-^k   where the whole
  diagonal prefactor is evaluated at the output row (used for the constant
  exchange matrix, the dynamical twist and its inverse, in any coproduct
  arrangement of the two roles), and
* a column-dressed double series for the one-leg boundary twist, whose
  Cartan factor sits to the right of the nilpotent monomials.

All operators live over the exact scalar field; the x argument of a family
is always the bare one, shifted versions are produced afterwards through
the weight-shift automorphism.  Every prefactor is a product of known
factors, a phase, powers of q and x, q-factorials, q - 1/q and x-brackets
<c> = (x q^c - x^-1 q^-c)/(q - q^-1), and is built by one
scalar.qint_monomial call, never by division.
"""

from fractions import Fraction
from functools import cache

from .lattice import DENOM
from .polys import add_into
from .scalar import (
    QDIFF,
    add_qfact,
    add_xbracket,
    qint_monomial,
    qnum,
    qpow,
    sc_coeff,
)
from .spins import (
    GradedOperator,
    Spin,
    TensorSpace,
    coproduct_eminus,
    coproduct_eplus,
    coproduct_h,
    diag_scalars,
    diag_weight_qpow,
    embed,
    identity_op,
    rep_eminus,
    rep_eplus,
    rep_h,
)

__all__ = [
    "drinfeld_r",
    "twist_f",
    "twist_f_inv",
    "gnf_r",
    "boundary_m",
    "delta_m",
    "associator_phi",
    "associator_phi_inv",
    "associator_phi_short",
    "phi_embedded",
    "phi_inv_embedded",
    "RELATIONS",
]

# ---------------------------------------------------------------------------
# prefactors


@cache
def _pref_rd(i, wa, wb):
    """(q - 1/q)**i / [i]! * q**(wa wb/2 + i (wa - wb)/2 - i (i + 1)/2)."""
    return qint_monomial(1, 2 * (wa * wb + i * (wa - wb) - i * (i + 1)),
                         add_qfact({QDIFF: 2 * i}, i, -2))


def _pref_twist(k, wa, wb, nus, sign):
    """sign * (q - 1/q)**k / [k]! * x**k * q**(k (wa + wb)/2) / prod
    (x q**(nu + wb) - x**-1 q**-(nu + wb)) over the k values nu in `nus`:
    each bracket there is (q - 1/q) <nu + wb>, so q - 1/q cancels."""
    halves = add_qfact({}, k, -2)
    for nu in nus:
        add_xbracket(halves, DENOM * (nu + wb), -2)
    return qint_monomial(sign, 2 * k * (wa + wb), halves, DENOM * k)


@cache
def _pref_f(k, wa, wb):
    return _pref_twist(k, wa, wb, range(k, 2 * k), (-1) ** k)


@cache
def _pref_f_inv(k, wa, wb):
    return _pref_twist(k, wa, wb, range(1, k + 1), 1)


@cache
def _m_coeff(n, m):
    """(-1)**m x**m q**(n (n - 1)/2 + m (n - m)) / ([n]! [m]!
    prod_(nu=1..n) (x q**nu - x**-1 q**-nu))."""
    halves = add_qfact(add_qfact({QDIFF: -2 * n}, n, -2), m, -2)
    for nu in range(1, n + 1):
        add_xbracket(halves, DENOM * nu, -2)
    return qint_monomial((-1) ** m, 2 * n * (n - 1) + 4 * m * (n - m), halves,
                         DENOM * m)


# ---------------------------------------------------------------------------
# series engines


def _side_ops(space, side):
    """Raising/lowering operator pair and weight table for one series role.

    side is ("leg", i) for a bare tensor leg or ("cop", i, j) for the
    coproduct spread over legs i and j.
    """
    if side[0] == "leg":
        i = side[1]
        spin = space.spins[i]
        plus = embed(rep_eplus(spin), space, (i,))
        minus = embed(rep_eminus(spin), space, (i,))
        weights = space.leg_weights[i]
        return plus, minus, weights
    if side[0] == "cop":
        i, j = side[1], side[2]
        sub = TensorSpace((space.spins[i], space.spins[j]))
        plus = embed(coproduct_eplus(sub), space, (i, j))
        minus = embed(coproduct_eminus(sub), space, (i, j))
        wi = space.leg_weights[i]
        wj = space.leg_weights[j]
        weights = tuple(a + b for a, b in zip(wi, wj))
        return plus, minus, weights
    raise ValueError("unknown side %r" % (side,))


def _row_dressed_series(space, aside, bside, pref):
    """sum_k pref(k, wa[r], wb[r]) * plusA^k minusB^k with output-row dressing."""
    plus_a, _, wa = _side_ops(space, aside)
    _, minus_b, wb = _side_ops(space, bside)
    acc = {}
    term = identity_op(space)
    k = 0
    while term.data:
        for (r, c), s in term.data.items():
            p = pref(k, wa[r], wb[r])
            if p:
                add_into(acc, (r, c), s * p)
        term = plus_a @ term @ minus_b
        k += 1
    return GradedOperator(space, acc)


def _rd_series(space, aside, bside):
    return _row_dressed_series(space, aside, bside, _pref_rd)


def _f_series(space, aside, bside, inverse=False):
    pref = _pref_f_inv if inverse else _pref_f
    return _row_dressed_series(space, aside, bside, pref)


def _m_series(space, plus, minus, weights):
    """Double series sum_{n,m} c_nm * plus^n minus^m * q^((n+m) w/2) at the column."""
    plus_pows = [identity_op(space)]
    while plus_pows[-1].data:
        plus_pows.append(plus @ plus_pows[-1])
    plus_pows.pop()
    minus_pows = [identity_op(space)]
    while minus_pows[-1].data:
        minus_pows.append(minus @ minus_pows[-1])
    minus_pows.pop()

    acc = {}
    for n, pn in enumerate(plus_pows):
        for m, pm in enumerate(minus_pows):
            op = pn @ pm
            if not op.data:
                continue
            cnm = _m_coeff(n, m)
            for (r, c), s in op.data.items():
                add_into(acc, (r, c),
                         s * cnm * qpow(Fraction((n + m) * weights[c], 2)))
    return GradedOperator(space, acc)


# ---------------------------------------------------------------------------
# two-leg and one-leg families, cached on their Spins


@cache
def _build_rd(s1, s2):
    space = TensorSpace((s1, s2))
    return _rd_series(space, ("leg", 0), ("leg", 1))


@cache
def _build_f(s1, s2):
    space = TensorSpace((s1, s2))
    return _f_series(space, ("leg", 0), ("leg", 1))


@cache
def _build_f_inv(s1, s2):
    space = TensorSpace((s1, s2))
    return _f_series(space, ("leg", 0), ("leg", 1), inverse=True)


@cache
def _build_gnf_r(s1, s2):
    space = TensorSpace((s1, s2))
    f21_inv = embed(_build_f_inv(s2, s1), space, (1, 0))
    return f21_inv @ _build_rd(s1, s2) @ _build_f(s1, s2)


@cache
def _build_m(s):
    space = TensorSpace((s,))
    plus = embed(rep_eplus(s), space, (0,))
    minus = embed(rep_eminus(s), space, (0,))
    return _m_series(space, plus, minus, space.total_weights)


@cache
def _build_delta_m(s1, s2):
    space = TensorSpace((s1, s2))
    plus = coproduct_eplus(space)
    minus = coproduct_eminus(space)
    return _m_series(space, plus, minus, space.total_weights)


@cache
def _build_phi(s1, s2, s3):
    space = TensorSpace((s1, s2, s3))
    f23_inv = embed(_build_f_inv(s2, s3), space, (1, 2))
    mid_inv = _f_series(space, ("leg", 0), ("cop", 1, 2), inverse=True)
    mid = _f_series(space, ("cop", 0, 1), ("leg", 2))
    f12 = embed(_build_f(s1, s2), space, (0, 1))
    return f23_inv @ mid_inv @ mid @ f12


@cache
def _build_phi_inv(s1, s2, s3):
    space = TensorSpace((s1, s2, s3))
    f12_inv = embed(_build_f_inv(s1, s2), space, (0, 1))
    mid_inv = _f_series(space, ("cop", 0, 1), ("leg", 2), inverse=True)
    mid = _f_series(space, ("leg", 0), ("cop", 1, 2))
    f23 = embed(_build_f(s2, s3), space, (1, 2))
    return f12_inv @ mid_inv @ mid @ f23


def drinfeld_r(j1, j2):
    """Constant exchange matrix on the (j1, j2) pair, normalised so the
    highest vector is an eigenvector with eigenvalue q^(2 j1 j2)."""
    return _build_rd(Spin(j1), Spin(j2))


def twist_f(j1, j2):
    return _build_f(Spin(j1), Spin(j2))


def twist_f_inv(j1, j2):
    return _build_f_inv(Spin(j1), Spin(j2))


def gnf_r(j1, j2):
    """Dynamical exchange matrix obtained by twisting the constant one."""
    return _build_gnf_r(Spin(j1), Spin(j2))


def boundary_m(j):
    """One-leg companion twist entering the coboundary identity."""
    return _build_m(Spin(j))


def delta_m(j1, j2):
    """Coproduct image of the one-leg companion twist on a pair."""
    return _build_delta_m(Spin(j1), Spin(j2))


def associator_phi(j1, j2, j3):
    return _build_phi(Spin(j1), Spin(j2), Spin(j3))


def associator_phi_inv(j1, j2, j3):
    return _build_phi_inv(Spin(j1), Spin(j2), Spin(j3))


def associator_phi_short(j1, j2, j3):
    """Associator in its two-factor form: the inverse pair twist with the
    argument shifted by the third weight, times the bare pair twist."""
    space = TensorSpace((Spin(j1), Spin(j2), Spin(j3)))
    f12_inv = embed(twist_f_inv(j1, j2), space, (0, 1))
    f12 = embed(twist_f(j1, j2), space, (0, 1))
    return f12_inv.shift_x_by_weight(1, space.leg_weights[2]) @ f12


def phi_embedded(space, perm):
    js = tuple(space.spins[p].j for p in perm)
    return embed(associator_phi(*js), space, perm)


def phi_inv_embedded(space, perm):
    js = tuple(space.spins[p].j for p in perm)
    return embed(associator_phi_inv(*js), space, perm)


# ---------------------------------------------------------------------------
# embedding helpers used by the relation builders


def _triple(j1, j2, j3):
    return TensorSpace((Spin(j1), Spin(j2), Spin(j3)))


def _on(build, space, a, b):
    """The two-leg family `build` (a cached _build_*) on legs a and b."""
    return embed(build(space.spins[a], space.spins[b]), space, (a, b))


def _shift(op, leg):
    return op.shift_x_by_weight(1, op.space.leg_weights[leg])


# ---------------------------------------------------------------------------
# relation builders: each returns a list of (label, lhs, rhs)


def _build_rel_rd_intertwiner(j1, j2):
    space = TensorSpace((Spin(j1), Spin(j2)))
    rd = _on(_build_rd, space, 0, 1)
    out = []
    for name, straight, flipped in (
        ("h", coproduct_h(space), coproduct_h(space)),
        ("e+", coproduct_eplus(space), coproduct_eplus(space, flipped=True)),
        ("e-", coproduct_eminus(space), coproduct_eminus(space, flipped=True)),
    ):
        out.append(("intertwines %s" % name, rd @ straight, flipped @ rd))
    return out


def _build_rel_rd_fusion(j1, j2, j3):
    space = _triple(j1, j2, j3)
    left = _rd_series(space, ("cop", 0, 1), ("leg", 2))
    right = _rd_series(space, ("leg", 0), ("cop", 1, 2))
    rd02 = _on(_build_rd, space, 0, 2)
    return [
        ("first pair fused", left, rd02 @ _on(_build_rd, space, 1, 2)),
        ("second pair fused", right, rd02 @ _on(_build_rd, space, 0, 1)),
    ]


def _build_rel_gnf(j1, j2, j3):
    space = _triple(j1, j2, j3)
    r12 = _on(_build_gnf_r, space, 0, 1)
    r13 = _on(_build_gnf_r, space, 0, 2)
    r23 = _on(_build_gnf_r, space, 1, 2)
    lhs = r12 @ _shift(r13, 1) @ r23
    rhs = _shift(r23, 0) @ r13 @ _shift(r12, 2)
    return [("dynamical braid relation", lhs, rhs)]


def _build_rel_cocycle(j1, j2, j3):
    space = _triple(j1, j2, j3)
    lhs = (_f_series(space, ("leg", 0), ("cop", 1, 2))
           @ _on(_build_f, space, 1, 2))
    rhs = (_f_series(space, ("cop", 0, 1), ("leg", 2))
           @ _shift(_on(_build_f, space, 0, 1), 2))
    return [("shifted two-cocycle", lhs, rhs)]


def _build_rel_coboundary(j1, j2):
    space = TensorSpace((Spin(j1), Spin(j2)))
    m1 = embed(boundary_m(j1), space, (0,))
    m2 = embed(boundary_m(j2), space, (1,))
    lhs = _on(_build_f, space, 0, 1) @ _shift(m1, 1) @ m2
    return [("coboundary factorisation", lhs, delta_m(j1, j2))]


def _build_rel_phi_forms(j1, j2, j3):
    phi = associator_phi(j1, j2, j3)
    space = phi.space
    short = associator_phi_short(j1, j2, j3)
    inv = associator_phi_inv(j1, j2, j3)
    return [
        ("two-factor equals four-factor", short, phi),
        ("associator times inverse", phi @ inv, identity_op(space)),
    ]


def _build_rel_shifted_coassoc(j1, j2, j3):
    space = _triple(j1, j2, j3)
    f23 = _on(_build_f, space, 1, 2)
    f23_inv = _on(_build_f_inv, space, 1, 2)
    mid_r = _f_series(space, ("leg", 0), ("cop", 1, 2))
    mid_r_inv = _f_series(space, ("leg", 0), ("cop", 1, 2), inverse=True)
    f12s = _shift(_on(_build_f, space, 0, 1), 2)
    f12s_inv = _shift(_on(_build_f_inv, space, 0, 1), 2)
    mid_l = _f_series(space, ("cop", 0, 1), ("leg", 2))
    mid_l_inv = _f_series(space, ("cop", 0, 1), ("leg", 2), inverse=True)

    h = coproduct_h
    ep = coproduct_eplus
    em = coproduct_eminus
    out = []
    for name, two_step in (
        ("h", lambda sp: _cascade(sp, rep_h, h)),
        ("e+", lambda sp: _cascade(sp, rep_eplus, ep)),
        ("e-", lambda sp: _cascade(sp, rep_eminus, em)),
    ):
        full = two_step(space)
        lhs = f23_inv @ mid_r_inv @ full @ mid_r @ f23
        rhs = f12s_inv @ mid_l_inv @ full @ mid_l @ f12s
        out.append(("coassociativity on %s" % name, lhs, rhs))
    return out


def _cascade(space, single_rep, pair_cop):
    """Two-step coproduct of a generator on a three-leg space.

    For the Cartan generator this is the plain sum of leg weights; for the
    raising/lowering generators it is the weight-dressed three-term sum,
    built here from the pair coproduct applied on legs (1, 2) after the
    one-leg embedding rule on leg 0.
    """
    s0 = space.spins[0]
    sub = TensorSpace((space.spins[1], space.spins[2]))
    if single_rep is rep_h:
        g0 = embed(rep_h(s0), space, (0,))
        g12 = embed(pair_cop(sub), space, (1, 2))
        return g0 + g12
    half = Fraction(1, 2)
    w0 = space.leg_weights[0]
    w12 = tuple(a + b for a, b in zip(space.leg_weights[1], space.leg_weights[2]))
    g0 = embed(single_rep(s0), space, (0,))
    g12 = embed(pair_cop(sub), space, (1, 2))
    # same grouping for both nilpotent generators: g0 q^(H_{23}/2) + q^(-H_0/2) g12
    d12 = diag_weight_qpow(space, w12, half)
    d0 = diag_weight_qpow(space, w0, -half)
    return g0 @ d12 + d0 @ g12


def _build_rel_phi_conjugation(j1, j2, j3):
    space = _triple(j1, j2, j3)
    r12 = _on(_build_gnf_r, space, 0, 1)
    lhs = _shift(r12, 2)
    rhs = phi_embedded(space, (1, 0, 2)) @ r12 @ phi_inv_embedded(space, (0, 1, 2))
    return [("argument shift as conjugation", lhs, rhs)]


def _build_rel_quasi_ybe(j1, j2, j3):
    space = _triple(j1, j2, j3)
    r12 = _on(_build_gnf_r, space, 0, 1)
    r13 = _on(_build_gnf_r, space, 0, 2)
    r23 = _on(_build_gnf_r, space, 1, 2)
    lhs = (
        phi_inv_embedded(space, (2, 1, 0))
        @ r12
        @ phi_embedded(space, (2, 0, 1))
        @ r13
        @ phi_inv_embedded(space, (0, 2, 1))
        @ r23
    )
    rhs = (
        r23
        @ phi_inv_embedded(space, (1, 2, 0))
        @ r13
        @ phi_embedded(space, (1, 0, 2))
        @ r12
        @ phi_inv_embedded(space, (0, 1, 2))
    )
    return [("hexagonal braid relation", lhs, rhs)]


def _build_rel_quasitriangular_left(j1, j2, j3):
    space = _triple(j1, j2, j3)
    f12 = _on(_build_f, space, 0, 1)
    f12_inv = _on(_build_f_inv, space, 0, 1)
    spread_r = (
        _f_series(space, ("leg", 2), ("cop", 0, 1), inverse=True)
        @ _rd_series(space, ("cop", 0, 1), ("leg", 2))
        @ _f_series(space, ("cop", 0, 1), ("leg", 2))
    )
    lhs = f12_inv @ spread_r @ f12
    r13 = _on(_build_gnf_r, space, 0, 2)
    r23 = _on(_build_gnf_r, space, 1, 2)
    rhs_dyn = _shift(r13, 1) @ r23 @ _shift(f12_inv, 2) @ f12
    rhs_axiom = (
        phi_embedded(space, (2, 0, 1))
        @ r13
        @ phi_inv_embedded(space, (0, 2, 1))
        @ r23
        @ phi_embedded(space, (0, 1, 2))
    )
    return [
        ("fusion with shifted factors", lhs, rhs_dyn),
        ("coproduct axiom form", lhs, rhs_axiom),
    ]


def _build_rel_quasitriangular_right(j1, j2, j3):
    space = _triple(j1, j2, j3)
    f23 = _on(_build_f, space, 1, 2)
    f23_inv = _on(_build_f_inv, space, 1, 2)
    spread_r = (
        _f_series(space, ("cop", 1, 2), ("leg", 0), inverse=True)
        @ _rd_series(space, ("leg", 0), ("cop", 1, 2))
        @ _f_series(space, ("leg", 0), ("cop", 1, 2))
    )
    lhs = f23_inv @ spread_r @ f23
    r12 = _on(_build_gnf_r, space, 0, 1)
    r13 = _on(_build_gnf_r, space, 0, 2)
    rhs_dyn = f23_inv @ _shift(f23, 0) @ r13 @ _shift(r12, 2)
    rhs_axiom = (
        phi_inv_embedded(space, (1, 2, 0))
        @ r13
        @ phi_embedded(space, (1, 0, 2))
        @ r12
        @ phi_inv_embedded(space, (0, 1, 2))
    )
    return [
        ("fusion with shifted factors", lhs, rhs_dyn),
        ("coproduct axiom form", lhs, rhs_axiom),
    ]


def _build_rel_deltax_homomorphism(j1, j2):
    space = TensorSpace((Spin(j1), Spin(j2)))
    f = _on(_build_f, space, 0, 1)
    finv = _on(_build_f_inv, space, 0, 1)
    bh = finv @ coproduct_h(space) @ f
    bp = finv @ coproduct_eplus(space) @ f
    bm = finv @ coproduct_eminus(space) @ f
    w = space.total_weights
    card = diag_scalars(space, tuple(qnum(m) for m in w))
    two = sc_coeff(2)
    return [
        ("cartan image undeformed", bh, coproduct_h(space)),
        ("raising weight", bh @ bp - bp @ bh, two * bp),
        ("lowering weight", bh @ bm - bm @ bh, -two * bm),
        ("ladder commutator", bp @ bm - bm @ bp, card),
    ]


def _limit_op(op, at_zero):
    data = {}
    for key, s in op.data.items():
        v = s.limit_x(at_zero)
        if v:
            data[key] = v
    return GradedOperator(op.space, data)


def _build_rel_twist_limits(j1, j2):
    space = TensorSpace((Spin(j1), Spin(j2)))
    f = twist_f(j1, j2)
    finv = twist_f_inv(j1, j2)
    r = gnf_r(j1, j2)
    rd = drinfeld_r(j1, j2)
    rd21 = embed(drinfeld_r(j2, j1), space, (1, 0))
    wa = space.leg_weights[0]
    wb = space.leg_weights[1]
    half_cartan_inv = diag_scalars(
        space, tuple(qpow(-Fraction(a * b, 2)) for a, b in zip(wa, wb))
    )
    half_cartan = diag_scalars(
        space, tuple(qpow(Fraction(a * b, 2)) for a, b in zip(wa, wb))
    )
    return [
        ("twist at the origin", _limit_op(f, True), identity_op(space)),
        ("exchange matrix at the origin", _limit_op(r, True), rd),
        ("inverse twist at infinity", _limit_op(finv, False), half_cartan_inv @ rd),
        ("exchange matrix at infinity", _limit_op(r, False), half_cartan_inv @ rd21 @ half_cartan),
    ]


RELATIONS = {
    "RD_INTERTWINER": (_build_rel_rd_intertwiner, 2),
    "RD_FUSION": (_build_rel_rd_fusion, 3),
    "GNF": (_build_rel_gnf, 3),
    "COCYCLE": (_build_rel_cocycle, 3),
    "COBOUNDARY": (_build_rel_coboundary, 2),
    "PHI_FORMS": (_build_rel_phi_forms, 3),
    "SHIFTED_COASSOC": (_build_rel_shifted_coassoc, 3),
    "PHI_CONJUGATION": (_build_rel_phi_conjugation, 3),
    "QUASI_YBE": (_build_rel_quasi_ybe, 3),
    "QUASITRIANG_LEFT": (_build_rel_quasitriangular_left, 3),
    "QUASITRIANG_RIGHT": (_build_rel_quasitriangular_right, 3),
    "DELTAX_HOMOMORPHISM": (_build_rel_deltax_homomorphism, 2),
    "TWIST_LIMITS": (_build_rel_twist_limits, 2),
}

