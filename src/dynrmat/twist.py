"""Dynamical twist, exchange matrices and the quasi-Hopf associator.

Everything here is a finite sum of raising/lowering monomials dressed with
diagonal weight factors:

* on a pair of legs, the constant exchange matrix, the dynamical twist and
  its inverse are  sum_k pref(k, row) * E+^k (x) E-^k  with the diagonal
  prefactor evaluated at the output row, and each entry is written in
  closed form: the prefactor times the known matrix elements of E+^k and
  E-^k, one product of q-integers (_pair_series);
* the same series with a role spread over several legs is assembled by a
  row-dressed series engine, which multiplies operators: each of the two
  roles A and B is an ordered tuple of legs, say (0,) for a bare leg or
  (1, 2) for the coproduct spread over legs 1 and 2, and its generator is
  the iterated coproduct spins.coproduct over those legs; and
* a column-dressed double series for the boundary twist on all legs of a
  space, whose Cartan factor sits to the right of the nilpotent monomials.

All operators live over the exact scalar field; the x argument of a family
is always the bare one, shifted versions are produced afterwards through
the weight-shift automorphism.  Every prefactor is a product of known
factors, a phase, powers of q and x, q-factorials, q - 1/q and x-brackets
<c> = (x q^c - x^-1 q^-c)/(q - q^-1), and is given as the arguments of
one scalar.qint_monomial call, never built by division; a pair entry adds
its matrix elements to those arguments.

A relation side that is a plain product of operators is returned as an
unevaluated spins.Product, which report.run_comparisons checks one row at
a time; row r of a product is e_r times its factors, so that is exact for
any factors and never holds the whole product.  A side that two
comparisons share, the cached family builders and the operands of the
`relations` commutators stay evaluated.
"""

from functools import cache

from .lattice import DENOM
from .polys import add_into
from .scalar import QDIFF, add_qfact, add_xbracket, qint_monomial, qpow_units
from .spins import (
    GradedOperator,
    Product,
    Spin,
    TensorSpace,
    coproduct,
    diag_scalars,
    embed,
    identity_op,
    leg_weights,
    relations,
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
# prefactors: each returns the qint_monomial arguments (c, units, halves,
# x_units) of the value its docstring gives, with a fresh halves dict


def _pref_rd(i, wa, wb):
    """(q - 1/q)**i / [i]! * q**(wa wb/2 + i (wa - wb)/2 - i (i + 1)/2)."""
    return (1, 2 * (wa * wb + i * (wa - wb) - i * (i + 1)),
            add_qfact({QDIFF: 2 * i}, i, -2), 0)


def _pref_twist(k, wa, wb, nus, sign):
    """sign * (q - 1/q)**k / [k]! * x**k * q**(k (wa + wb)/2) / prod
    (x q**(nu + wb) - x**-1 q**-(nu + wb)) over the k values nu in `nus`:
    each bracket there is (q - 1/q) <nu + wb>, so q - 1/q cancels."""
    halves = add_qfact({}, k, -2)
    for nu in nus:
        add_xbracket(halves, DENOM * (nu + wb), -2)
    return sign, 2 * k * (wa + wb), halves, DENOM * k


def _pref_f(k, wa, wb):
    return _pref_twist(k, wa, wb, range(k, 2 * k), (-1) ** k)


def _pref_f_inv(k, wa, wb):
    return _pref_twist(k, wa, wb, range(1, k + 1), 1)


@cache
def _pref_value(pref, k, wa, wb):
    """The prefactor pref(k, wa, wb), given as its qint_monomial arguments,
    as a Scalar."""
    return qint_monomial(*pref(k, wa, wb))


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


def _row_dressed_series(space, a, b, pref):
    """sum_k pref(k, wa[r], wb[r]) * A_+^k B_-^k with output-row dressing,
    A_+ raising on the legs a, B_- lowering on the legs b, and wa, wb
    their summed weights."""
    plus_a = coproduct(rep_eplus, space, a)
    minus_b = coproduct(rep_eminus, space, b)
    wa = leg_weights(space, a)
    wb = leg_weights(space, b)
    acc = {}
    term = identity_op(space)
    k = 0
    while term.data:
        for (r, c), s in term.data.items():
            add_into(acc, (r, c), s * _pref_value(pref, k, wa[r], wb[r]))
        term = plus_a @ term @ minus_b
        k += 1
    return GradedOperator(space, acc)


def _m_series(space):
    """Double series sum_{n,m} c_nm * D(E+)^n D(E-)^m * q^((n+m) w/2) at the
    column, D the coproduct over all legs of space and w their total weight."""
    legs = tuple(range(len(space.spins)))
    plus = coproduct(rep_eplus, space, legs)
    minus = coproduct(rep_eminus, space, legs)
    weights = space.total_weights
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
                units = DENOM * (n + m) * weights[c] // 2
                add_into(acc, (r, c), s * cnm * qpow_units(units))
    return GradedOperator(space, acc)


# ---------------------------------------------------------------------------
# two-leg and one-leg families, cached on their Spins


def _pair_series(s1, s2, pref):
    """sum_k pref(k, wa, wb) * E+^k (x) E-^k on the pair (s1, s2), with
    the prefactor at the output row, each entry one qint_monomial.  On
    doubled spins a, b, column (ia, ib) meets row (ia - k, ib + k) in
    sqrt([ia]!/[ia-k]! [a-ia+k]!/[a-ia]!) for E+^k and
    sqrt([b-ib]!/[b-ib-k]! [ib+k]!/[ib]!) for E-^k, which are added to
    the fresh half-exponents pref returns."""
    a, b = s1.twice, s2.twice
    acc = {}
    for k in range(min(a, b) + 1):
        for ia in range(k, a + 1):
            for ib in range(b - k + 1):
                ra, rb = ia - k, ib + k
                c, units, halves, x_units = pref(k, a - 2 * ra, b - 2 * rb)
                for n, w in ((ia, 1), (ra, -1), (a - ra, 1), (a - ia, -1),
                             (b - ib, 1), (b - rb, -1), (rb, 1), (ib, -1)):
                    add_qfact(halves, n, w)
                acc[(ra * (b + 1) + rb, ia * (b + 1) + ib)] = qint_monomial(
                    c, units, halves, x_units)
    return GradedOperator(TensorSpace((s1, s2)), acc)


@cache
def _build_rd(s1, s2):
    return _pair_series(s1, s2, _pref_rd)


@cache
def _build_f(s1, s2):
    return _pair_series(s1, s2, _pref_f)


@cache
def _build_f_inv(s1, s2):
    return _pair_series(s1, s2, _pref_f_inv)


@cache
def _build_gnf_r(s1, s2):
    space = TensorSpace((s1, s2))
    f21_inv = embed(_build_f_inv(s2, s1), space, (1, 0))
    return f21_inv @ _build_rd(s1, s2) @ _build_f(s1, s2)


@cache
def _build_m(s):
    return _m_series(TensorSpace((s,)))


@cache
def _build_delta_m(s1, s2):
    return _m_series(TensorSpace((s1, s2)))


@cache
def _build_phi(s1, s2, s3):
    space = TensorSpace((s1, s2, s3))
    f23_inv = embed(_build_f_inv(s2, s3), space, (1, 2))
    mid_inv = _row_dressed_series(space, (0,), (1, 2), _pref_f_inv)
    mid = _row_dressed_series(space, (0, 1), (2,), _pref_f)
    f12 = embed(_build_f(s1, s2), space, (0, 1))
    return f23_inv @ mid_inv @ mid @ f12


@cache
def _build_phi_inv(s1, s2, s3):
    space = TensorSpace((s1, s2, s3))
    f12_inv = embed(_build_f_inv(s1, s2), space, (0, 1))
    mid_inv = _row_dressed_series(space, (0, 1), (2,), _pref_f_inv)
    mid = _row_dressed_series(space, (0,), (1, 2), _pref_f)
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
    return embed(_build_phi(*(space.spins[p] for p in perm)), space, perm)


def phi_inv_embedded(space, perm):
    return embed(_build_phi_inv(*(space.spins[p] for p in perm)), space, perm)


# ---------------------------------------------------------------------------
# embedding helpers used by the relation builders


def _triple(j1, j2, j3):
    return TensorSpace((Spin(j1), Spin(j2), Spin(j3)))


def _on(build, space, a, b):
    """The two-leg family `build` (a cached _build_*) on legs a and b."""
    return embed(build(space.spins[a], space.spins[b]), space, (a, b))


def _shift(op, leg):
    return op.shift_x_by_weight(1, op.space.leg_weights[leg])


_GENERATORS = (("h", rep_h), ("e+", rep_eplus), ("e-", rep_eminus))


# ---------------------------------------------------------------------------
# relation builders: each returns a list of (label, lhs, rhs)


def _build_rel_rd_intertwiner(j1, j2):
    space = TensorSpace((Spin(j1), Spin(j2)))
    rd = _on(_build_rd, space, 0, 1)
    return [
        ("intertwines %s" % name, Product(rd, coproduct(rep, space, (0, 1))),
         Product(coproduct(rep, space, (0, 1), flipped=True), rd))
        for name, rep in _GENERATORS
    ]


def _build_rel_rd_fusion(j1, j2, j3):
    space = _triple(j1, j2, j3)
    left = _row_dressed_series(space, (0, 1), (2,), _pref_rd)
    right = _row_dressed_series(space, (0,), (1, 2), _pref_rd)
    rd02 = _on(_build_rd, space, 0, 2)
    return [
        ("first pair fused", left, Product(rd02, _on(_build_rd, space, 1, 2))),
        ("second pair fused", right, Product(rd02, _on(_build_rd, space, 0, 1))),
    ]


def _build_rel_gnf(j1, j2, j3):
    space = _triple(j1, j2, j3)
    r12 = _on(_build_gnf_r, space, 0, 1)
    r13 = _on(_build_gnf_r, space, 0, 2)
    r23 = _on(_build_gnf_r, space, 1, 2)
    lhs = Product(r12, _shift(r13, 1), r23)
    rhs = Product(_shift(r23, 0), r13, _shift(r12, 2))
    return [("dynamical braid relation", lhs, rhs)]


def _build_rel_cocycle(j1, j2, j3):
    space = _triple(j1, j2, j3)
    lhs = Product(_row_dressed_series(space, (0,), (1, 2), _pref_f),
                  _on(_build_f, space, 1, 2))
    rhs = Product(_row_dressed_series(space, (0, 1), (2,), _pref_f),
                  _shift(_on(_build_f, space, 0, 1), 2))
    return [("shifted two-cocycle", lhs, rhs)]


def _build_rel_coboundary(j1, j2):
    space = TensorSpace((Spin(j1), Spin(j2)))
    m1 = embed(boundary_m(j1), space, (0,))
    m2 = embed(boundary_m(j2), space, (1,))
    lhs = Product(_on(_build_f, space, 0, 1), _shift(m1, 1), m2)
    return [("coboundary factorisation", lhs, delta_m(j1, j2))]


def _build_rel_phi_forms(j1, j2, j3):
    phi = associator_phi(j1, j2, j3)
    space = phi.space
    short = associator_phi_short(j1, j2, j3)
    inv = associator_phi_inv(j1, j2, j3)
    return [
        ("two-factor equals four-factor", short, phi),
        ("associator times inverse", Product(phi, inv), identity_op(space)),
    ]


def _build_rel_shifted_coassoc(j1, j2, j3):
    space = _triple(j1, j2, j3)
    f23 = _on(_build_f, space, 1, 2)
    f23_inv = _on(_build_f_inv, space, 1, 2)
    mid_r = _row_dressed_series(space, (0,), (1, 2), _pref_f)
    mid_r_inv = _row_dressed_series(space, (0,), (1, 2), _pref_f_inv)
    f12s = _shift(_on(_build_f, space, 0, 1), 2)
    f12s_inv = _shift(_on(_build_f_inv, space, 0, 1), 2)
    mid_l = _row_dressed_series(space, (0, 1), (2,), _pref_f)
    mid_l_inv = _row_dressed_series(space, (0, 1), (2,), _pref_f_inv)
    out = []
    for name, rep in _GENERATORS:
        full = coproduct(rep, space, (0, 1, 2))
        lhs = Product(f23_inv, mid_r_inv, full, mid_r, f23)
        rhs = Product(f12s_inv, mid_l_inv, full, mid_l, f12s)
        out.append(("coassociativity on %s" % name, lhs, rhs))
    return out


def _build_rel_phi_conjugation(j1, j2, j3):
    space = _triple(j1, j2, j3)
    r12 = _on(_build_gnf_r, space, 0, 1)
    lhs = _shift(r12, 2)
    rhs = Product(phi_embedded(space, (1, 0, 2)), r12,
                  phi_inv_embedded(space, (0, 1, 2)))
    return [("argument shift as conjugation", lhs, rhs)]


def _build_rel_quasi_ybe(j1, j2, j3):
    space = _triple(j1, j2, j3)
    r12 = _on(_build_gnf_r, space, 0, 1)
    r13 = _on(_build_gnf_r, space, 0, 2)
    r23 = _on(_build_gnf_r, space, 1, 2)
    lhs = Product(
        phi_inv_embedded(space, (2, 1, 0)),
        r12,
        phi_embedded(space, (2, 0, 1)),
        r13,
        phi_inv_embedded(space, (0, 2, 1)),
        r23,
    )
    rhs = Product(
        r23,
        phi_inv_embedded(space, (1, 2, 0)),
        r13,
        phi_embedded(space, (1, 0, 2)),
        r12,
        phi_inv_embedded(space, (0, 1, 2)),
    )
    return [("hexagonal braid relation", lhs, rhs)]


def _build_rel_quasitriangular_left(j1, j2, j3):
    space = _triple(j1, j2, j3)
    f12 = _on(_build_f, space, 0, 1)
    f12_inv = _on(_build_f_inv, space, 0, 1)
    spread_r = (
        _row_dressed_series(space, (2,), (0, 1), _pref_f_inv)
        @ _row_dressed_series(space, (0, 1), (2,), _pref_rd)
        @ _row_dressed_series(space, (0, 1), (2,), _pref_f)
    )
    lhs = f12_inv @ spread_r @ f12
    r13 = _on(_build_gnf_r, space, 0, 2)
    r23 = _on(_build_gnf_r, space, 1, 2)
    rhs_dyn = Product(_shift(r13, 1), r23, _shift(f12_inv, 2), f12)
    rhs_axiom = Product(
        phi_embedded(space, (2, 0, 1)),
        r13,
        phi_inv_embedded(space, (0, 2, 1)),
        r23,
        phi_embedded(space, (0, 1, 2)),
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
        _row_dressed_series(space, (1, 2), (0,), _pref_f_inv)
        @ _row_dressed_series(space, (0,), (1, 2), _pref_rd)
        @ _row_dressed_series(space, (0,), (1, 2), _pref_f)
    )
    lhs = f23_inv @ spread_r @ f23
    r12 = _on(_build_gnf_r, space, 0, 1)
    r13 = _on(_build_gnf_r, space, 0, 2)
    rhs_dyn = Product(f23_inv, _shift(f23, 0), r13, _shift(r12, 2))
    rhs_axiom = Product(
        phi_inv_embedded(space, (1, 2, 0)),
        r13,
        phi_embedded(space, (1, 0, 2)),
        r12,
        phi_inv_embedded(space, (0, 1, 2)),
    )
    return [
        ("fusion with shifted factors", lhs, rhs_dyn),
        ("coproduct axiom form", lhs, rhs_axiom),
    ]


def _build_rel_deltax_homomorphism(j1, j2):
    space = TensorSpace((Spin(j1), Spin(j2)))
    f = _on(_build_f, space, 0, 1)
    finv = _on(_build_f_inv, space, 0, 1)
    d = [coproduct(rep, space, (0, 1)) for _, rep in _GENERATORS]
    bh, bp, bm = (finv @ g @ f for g in d)
    return ([("cartan image undeformed", bh, d[0])]
            + relations(bh, bp, bm, space.total_weights))


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
        space, tuple(qpow_units(-DENOM * a * b // 2) for a, b in zip(wa, wb))
    )
    half_cartan = diag_scalars(
        space, tuple(qpow_units(DENOM * a * b // 2) for a, b in zip(wa, wb))
    )
    return [
        ("twist at the origin", _limit_op(f, True), identity_op(space)),
        ("exchange matrix at the origin", _limit_op(r, True), rd),
        ("inverse twist at infinity", _limit_op(finv, False),
         Product(half_cartan_inv, rd)),
        ("exchange matrix at infinity", _limit_op(r, False),
         Product(half_cartan_inv, rd21, half_cartan)),
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

