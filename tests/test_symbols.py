"""Coupling coefficients, recoupling symbols and the matrix dictionaries."""

import math
from fractions import Fraction as F

import pytest

from dynrmat import symbols
from dynrmat.polys import QRat
from dynrmat.scalar import (
    SC_ONE,
    SC_ZERO,
    Scalar,
    phase,
    qpow,
    sqrt_qint,
    xbracket,
)
from dynrmat.symbols import (
    ContinuedExpr,
    cg,
    cont_spin,
    m_element,
    norm_xi,
    six_j,
    six_j_brute,
    six_j_cont,
    six_j_u,
    three_j,
)
from dynrmat.suite import verify_relation

H = F(1, 2)


def _mrange(j):
    out = []
    m = j
    while m >= -j:
        out.append(m)
        m -= 1
    return out


def _jrange(j1, j2):
    out = []
    j = abs(j1 - j2)
    while j <= j1 + j2:
        out.append(j)
        j += 1
    return out


# --------------------------------------------------------------- couplings


def test_three_j_selection_rules():
    assert three_j(H, H, 1, H, H, 0) == SC_ZERO
    assert three_j(H, H, 2, H, H, 1) == SC_ZERO
    assert three_j(1, 1, 1, 1, 1, 2) == SC_ZERO


def test_three_j_pinned_values():
    # top of the spin-1 triplet and both middle components
    assert three_j(H, H, 1, H, H, 1) == SC_ONE
    s = sqrt_qint(2)
    assert three_j(H, H, 1, H, -H, 0) == qpow(-H) / s
    assert three_j(H, H, 1, -H, H, 0) == qpow(H) / s
    # singlet carries the quantum dimension
    assert three_j(H, H, 0, H, -H, 0) == qpow(H) / s
    assert three_j(H, H, 0, -H, H, 0) == -qpow(-H) / s


@pytest.mark.parametrize("j1,j2", [(H, H), (H, 1), (1, 1)])
def test_three_j_orthonormality(j1, j2):
    for j3 in _jrange(j1, j2):
        for j3p in _jrange(j1, j2):
            for m3 in _mrange(min(j3, j3p)):
                acc = SC_ZERO
                for m1 in _mrange(j1):
                    m2 = m3 - m1
                    if abs(m2) <= j2:
                        acc = acc + three_j(j1, j2, j3, m1, m2, m3) * three_j(
                            j1, j2, j3p, m1, m2, m3
                        )
                assert acc == (SC_ONE if j3 == j3p else SC_ZERO)


def test_three_j_completeness():
    # resolving the identity on the product of two spin-1/2 lines
    for m1 in _mrange(H):
        for m2 in _mrange(H):
            for n1 in _mrange(H):
                n2 = m1 + m2 - n1
                if abs(n2) > H:
                    continue
                acc = SC_ZERO
                for j3 in _jrange(H, H):
                    acc = acc + three_j(H, H, j3, m1, m2, m1 + m2) * three_j(
                        H, H, j3, n1, n2, m1 + m2
                    )
                want = SC_ONE if (m1, m2) == (n1, n2) else SC_ZERO
                assert acc == want


def test_classical_limit_of_coupling():
    # independent float oracle: the undeformed coefficient by the plain
    # van der Waerden sum with ordinary factorials
    def classical(j1, j2, j3, m1, m2):
        m3 = m1 + m2
        f = math.factorial

        def fa(v):
            return f(int(v))

        pre = math.sqrt(
            fa(-j1 + j2 + j3) * fa(j1 - j2 + j3) * fa(j1 + j2 - j3)
            / fa(j1 + j2 + j3 + 1)
            * (2 * j3 + 1)
            * fa(j1 + m1) * fa(j1 - m1) * fa(j2 + m2) * fa(j2 - m2)
            * fa(j3 + m3) * fa(j3 - m3)
        )
        tot = 0.0
        p = 0
        while True:
            args = (
                j1 + j2 - j3 - p,
                j2 - m2 - p,
                j1 + m1 - p,
                j3 - j1 + m2 + p,
                j3 - j2 - m1 + p,
            )
            if min(args[:3]) < 0:
                break
            if min(args) >= 0:
                den = fa(p)
                for a in args:
                    den *= fa(a)
                tot += (-1) ** p / den
            p += 1
        return (-1) ** int(j1 + j2 - j3) * pre * tot

    q0 = 1.0 + 1e-8
    for (j1, j2, j3, m1, m2) in [
        (H, H, 1, H, -H),
        (1, H, F(3, 2), 0, H),
        (1, 1, 2, 1, -1),
        (1, 1, 1, 1, 0),
    ]:
        got = three_j(j1, j2, j3, m1, m2, m1 + m2).numeric_eval(q0, 1.0)
        assert abs(got.imag) < 1e-6
        assert abs(got.real - classical(j1, j2, j3, m1, m2)) < 1e-4


# -------------------------------------------------------------- recoupling


@pytest.mark.parametrize(
    "triple",
    [(H, H, H), (H, H, 1), (H, 1, H), (1, 1, 1), (H, 1, F(3, 2)),
     (F(3, 2), F(3, 2), F(3, 2)), (2, F(3, 2), F(3, 2))],
)
def test_recoupling_two_routes(triple):
    assert verify_relation("RECOUPLING", triple).ok


def test_six_j_pinned_value():
    # both intermediate channels of three spin-1/2 lines; the classical
    # values are 1/6 and 1/2
    two = sqrt_qint(2) * sqrt_qint(2)
    three = sqrt_qint(3) * sqrt_qint(3)
    assert six_j(H, H, 1, H, H, 1) == SC_ONE / (two * three)
    assert six_j(H, H, 0, H, H, 1) == SC_ONE / two


def test_six_j_triangle_gate():
    assert six_j(H, H, 2, H, H, 1) == SC_ZERO


def test_overlap_normalisation_matches_brute_force():
    for (j12, j23) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        raw = SC_ZERO
        jtot = H
        # explicit overlap at the highest weight of the total spin-1/2
        for m1 in _mrange(H):
            for m2 in _mrange(H):
                m3 = jtot - m1 - m2
                if abs(m3) > H:
                    continue
                raw = raw + (
                    cg(H, m1, H, m2, j12, m1 + m2)
                    * cg(j12, m1 + m2, H, m3, jtot, jtot)
                    * cg(H, m2, H, m3, j23, m2 + m3)
                    * cg(H, m1, j23, m2 + m3, jtot, jtot)
                )
        assert six_j_u(H, H, j12, H, jtot, j23) == raw
        assert six_j_brute(H, H, j12, H, jtot, j23) == six_j(
            H, H, j12, H, jtot, j23
        )


def test_prefactors_need_no_inverse_or_factor_search(monkeypatch,
                                                     cold_caches):
    # the prefactors are built from known q-integer factors, so neither
    # Scalar.inv nor the cyclotomic factor search runs on either side
    calls = {"inv": 0, "factor": 0}
    inv, factor = Scalar.inv, QRat._factor

    def counted_inv(self):
        calls["inv"] += 1
        return inv(self)

    def counted_factor(d):
        calls["factor"] += 1
        return factor(d)

    monkeypatch.setattr(Scalar, "inv", counted_inv)
    monkeypatch.setattr(QRat, "_factor", staticmethod(counted_factor))
    triple = (2, F(3, 2), F(3, 2))
    assert three_j(*triple, 1, H, F(3, 2)) != SC_ZERO
    for label, lhs, rhs in symbols._build_rel_recoupling(*triple):
        assert lhs == rhs, label
    assert calls == {"inv": 0, "factor": 0}


def test_three_j_cache_is_keyed_by_doubled_spins():
    symbols._parts.cache_clear()
    a = three_j(1, H, "3/2", 0, "1/2", H)
    b = three_j(F(1), "1/2", F(3, 2), F(0), H, "1/2")
    assert a is b
    assert symbols._parts(2, 1, 3, 0, 1, 1).scalar() is a
    info = symbols._parts.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)


def _overlap_by_products(j1, j2, j12, j3, jtot, j23):
    """six_j_brute as the Scalar products of its couplings, a * b * c * d,
    summed term by term and divided by the normalisation: the reference."""
    overlap = SC_ZERO
    for m1 in _mrange(j1):
        for m2 in _mrange(j2):
            m3 = jtot - m1 - m2
            if abs(m3) <= j3:
                a = three_j(j1, j2, j12, m1, m2, m1 + m2)
                if a:
                    b = three_j(j12, j3, jtot, m1 + m2, m3, jtot)
                    c = three_j(j2, j3, j23, m2, m3, m2 + m3)
                    d = three_j(j1, j23, jtot, m1, m2 + m3, jtot)
                    overlap = overlap + a * b * c * d
    return overlap * phase(-(j1 + j2 + j3 + jtot)) / (
        sqrt_qint(2 * j12 + 1) * sqrt_qint(2 * j23 + 1))


def _same(a, b):
    """Structural equality, hashes included."""
    return a.terms == b.terms and (
        {k: hash(rf) for k, rf in a.terms.items()}
        == {k: hash(rf) for k, rf in b.terms.items()})


def test_overlap_in_exponents_matches_the_products_and_the_single_sum():
    spins = [F(k, 2) for k in range(1, 5)]
    count = 0
    for j1 in spins:
        for j2 in spins:
            for j3 in spins:
                for j12 in _jrange(j1, j2):
                    for j23 in _jrange(j2, j3):
                        for jtot in _jrange(j12, j3):
                            if not abs(j1 - j23) <= jtot <= j1 + j23:
                                continue
                            got = six_j_brute(j1, j2, j12, j3, jtot, j23)
                            want = _overlap_by_products(j1, j2, j12, j3, jtot,
                                                        j23)
                            label = (j1, j2, j12, j3, jtot, j23)
                            assert _same(got, want), label
                            assert _same(got, six_j(*label)), label
                            count += 1
    assert count == 1208


def test_overlap_expands_no_term_on_its_own(monkeypatch, cold_caches):
    # the overlap sums its terms in known-factor exponents, so with every
    # cache cold a RECOUPLING(2,3/2,3/2) pass adds no expanded product to
    # the cache of them in six_j_brute, and at most one per single-sum six_j
    from dynrmat.multisets import Alphabet

    def expanded():
        return Alphabet._expanded.cache_info().currsize

    added = []
    brute = symbols._six_j_brute

    def counted(*spins):
        n = expanded()
        got = brute(*spins)
        added.append(expanded() - n)
        return got

    monkeypatch.setattr(symbols, "_six_j_brute", counted)
    comparisons = symbols._build_rel_recoupling(2, F(3, 2), F(3, 2))
    assert len(added) == len(comparisons) == 40
    assert added == [0] * 40
    assert expanded() <= len(comparisons)


@pytest.mark.parametrize(
    "call",
    [
        lambda: three_j(F(1, 3), F(1, 3), 0, F(1, 3), F(-1, 3), 0),
        lambda: three_j(1, 1, 1, F(1, 3), 0, F(1, 3)),
        lambda: six_j(F(1, 3), H, H, H, H, H),
        lambda: six_j_brute(F(1, 3), H, H, H, H, H),
        lambda: six_j_u(F(1, 3), H, H, H, H, H),
        lambda: six_j_u(H, cont_spin(F(1, 3)), H, H, H, H),
    ],
)
def test_off_lattice_spins_are_rejected(call):
    with pytest.raises(ValueError, match="not a half-integer"):
        call()


# ------------------------------------------------------ continued symbols


def test_continued_expr_reduce_ratio():
    # fact(3)/fact(1) = [K+2][K+3] = <1><2>
    e = ContinuedExpr().with_fact(3, 1).with_fact(1, -1)
    assert e.reduce() == xbracket(1) * xbracket(2)


def test_continued_expr_half_masses():
    e = ContinuedExpr().with_fact(2, F(1, 2)).with_fact(1, -F(1, 2))
    sq = e.reduce()
    assert sq * sq == xbracket(1)


def test_continued_expr_unbalanced_raises():
    with pytest.raises(ValueError):
        ContinuedExpr().with_fact(2, 1).reduce()


def test_continued_expr_shift():
    e = ContinuedExpr().with_fact(2, 1).with_fact(0, -1).shift_x(2)
    assert e.reduce() == xbracket(3) * xbracket(2)


def test_continued_symbol_specialises_to_finite():
    # substituting x = q^(2j+1) into the continued symbol must reproduce
    # the finite one; compared numerically since the exact value carries
    # x-dependent square roots
    q0 = 0.77
    for jx in (1, F(3, 2), 2):
        x0 = q0 ** float(2 * jx + 1)
        contval = six_j_u(
            H, cont_spin(0), cont_spin(H), H, cont_spin(0), cont_spin(H)
        ).numeric_eval(q0, x0)
        finval = six_j_u(H, jx, jx + H, H, jx, jx + H).numeric_eval(q0, 1.0)
        assert abs(contval - finval) < 1e-12 * max(1.0, abs(finval))


def test_single_continued_entry_rejected():
    with pytest.raises(ValueError):
        six_j_cont(H, cont_spin(0), H, H, H, 1)


# ------------------------------------------------------------ dictionaries


@pytest.mark.parametrize("j", [H, 1, F(3, 2)])
def test_m_dictionary(j):
    assert verify_relation("M_DICTIONARY", (j,)).ok


@pytest.mark.parametrize("j", [H, 1, F(3, 2)])
def test_m_limit_formula(j):
    assert verify_relation("M_LIMIT_FORMULA", (j,)).ok


def test_m_element_pinned():
    from dynrmat.twist import boundary_m

    m = boundary_m(H)
    assert m_element(H, H, H) == m.entry(0, 0)
    assert m_element(H, H, -H) == m.entry(0, 1)
    assert m_element(H, -H, H) == m.entry(1, 0)
    assert m_element(H, -H, -H) == m.entry(1, 1)
    assert m_element(H, -H, -H) == SC_ONE


def test_norm_xi_phase_lives_on_eighth_roots():
    # opposite arguments cancel to a rational, equal ones do not
    assert norm_xi(H) * norm_xi(-H) == SC_ONE
    assert norm_xi(H) * norm_xi(H) == phase(-H) * qpow(H)


@pytest.mark.parametrize("pair", [(H, H), (H, 1), (1, H), (1, 1)])
def test_r_dictionary(pair):
    assert verify_relation("R_DICTIONARY", pair).ok


@pytest.mark.parametrize("pair", [(H, H), (H, 1), (1, H)])
def test_f_dictionary(pair):
    assert verify_relation("F_DICTIONARY", pair).ok


@pytest.mark.parametrize("pair", [(H, H), (H, 1), (1, 1)])
def test_delta_m_decomposition(pair):
    assert verify_relation("DELTA_M_DECOMPOSITION", pair).ok


def test_relation_registry_dispatch():
    rep = verify_relation("M_DICTIONARY", (H,))
    assert rep.ok and rep.relation == "M_DICTIONARY"
    with pytest.raises(ValueError):
        verify_relation("R_DICTIONARY", (H,))


def test_numeric_mode_dictionary():
    rep = verify_relation("R_DICTIONARY", (H, H), mode="numeric", q0=0.43, x0=0.67)
    assert rep.ok and rep.mode == "numeric"
