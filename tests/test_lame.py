"""Skew difference-operator ring, Lax matrix, and the spectral problem."""

from fractions import Fraction as F

import pytest

from dynrmat.lame import (
    QDiffOperator,
    c_function,
    classical_limit_check,
    classical_limit_table,
    d_function,
    energy,
    hamiltonian,
    lax_matrix,
    lax_matrix_blocks,
    qdo_func,
    qdo_shift,
    rll_sides,
    shift_operator,
    transfer_and_restrict,
    transfer_operator,
    verify_classical_limit,
    wavefunction,
    wavefunction_closed,
    wavefunction_recursive,
)
from dynrmat.lattice import to_units
from dynrmat.scalar import SC_ONE, SC_ZERO, qdiff, qnum, qpow, sc_coeff, xpow
from dynrmat.spins import Spin, TensorSpace, embed
from dynrmat.suite import verify_relation

H = F(1, 2)


# ------------------------------------------------------------ skew ring


def test_skew_ring_basics():
    t = qdo_shift(1)
    tinv = qdo_shift(-1)
    assert t @ tinv == qdo_func(SC_ONE)
    # defining rewrite: T . x = qx . T
    x = qdo_func(xpow(1))
    assert t @ x == QDiffOperator({1: xpow(1) * qpow(1)})


def test_apply_plane_wave():
    h0 = hamiltonian(0)
    for k in (0, 1, 3, -2):
        wave = xpow(k)
        assert h0.apply(wave) == energy(k) * wave


def test_skew_ring_associativity():
    a = QDiffOperator({H: xpow(1), -1: qpow(2)})
    b = QDiffOperator({F(3, 2): xpow(-1) * qdiff(), 0: xpow(1) - xpow(-1)})
    c = QDiffOperator({-H: qnum(2), 1: xpow(2)})
    assert (a @ b) @ c == a @ (b @ c)


def test_apply_is_module_action():
    a = QDiffOperator({1: xpow(1), -H: qpow(1)})
    b = QDiffOperator({0: xpow(2) - qpow(1), H: sc_coeff(3)})
    f = xpow(3) - qpow(1) * xpow(-2) + sc_coeff(2)
    assert (a @ b).apply(f) == a.apply(b.apply(f))


# ----------------------------------------------------------- coefficients


def test_c_function_free_case():
    assert c_function(0) == SC_ONE
    h0 = hamiltonian(0)
    assert h0 == QDiffOperator({1: SC_ONE, -1: SC_ONE})


def test_c_function_displayed_ratio():
    num = (xpow(1) * qpow(1) - xpow(-1) * qpow(-1)) * (
        xpow(1) * qpow(-2) - xpow(-1) * qpow(2)
    )
    den = (xpow(1) - xpow(-1)) * (xpow(1) * qpow(-1) - xpow(-1) * qpow(1))
    assert c_function(1) == num / den


@pytest.mark.parametrize("j", [1, 2, 3])
def test_one_minus_c_identity(j):
    # 1 - c_j(x) = (q - q^-1)^2 [j][j+1] / ((x - x^-1)(q^-1 x - q x^-1))
    den = (xpow(1) - xpow(-1)) * (xpow(1) * qpow(-1) - xpow(-1) * qpow(1))
    rhs = qdiff() * qdiff() * qnum(j) * qnum(j + 1) / den
    assert SC_ONE - c_function(j) == rhs


def test_hamiltonian_supports():
    h3 = hamiltonian(3)
    h0 = hamiltonian(0)
    diff = h3 - h0
    assert sorted(diff.data) == [to_units(1)]
    assert diff.data[to_units(1)] == c_function(3, shift=1) - SC_ONE


# ------------------------------------------------------------ intertwining


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_intertwining(j):
    assert verify_relation("INTERTWINING", (j,)).ok


def test_intertwining_numeric_mode():
    assert verify_relation(
        "INTERTWINING", (2,), mode="numeric", q0=0.43, x0=0.67
    ).ok


# ------------------------------------------------------------ wavefunctions


def test_seed_wavefunction():
    for k in (1, 4):
        want = xpow(k) - xpow(-k)
        assert wavefunction(0, k, method="closed") == want
        assert wavefunction(0, k, method="recursive") == want
    with pytest.raises(ValueError):
        wavefunction(1, 1, method="magic")


def test_fractional_wave_number_is_rejected():
    # a wave number of 5/2 once truncated silently to 2
    with pytest.raises(ValueError, match="integer wave number"):
        wavefunction_closed(1, F(5, 2))
    with pytest.raises(ValueError, match="integer wave number"):
        classical_limit_table(1, F(5, 2), 0.5)
    # both routes of wavefunction refuse it alike
    for method in ("closed", "recursive"):
        with pytest.raises(ValueError, match="integer wave number"):
            wavefunction(1, F(5, 2), method=method)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_wavefunction_routes(j):
    assert verify_relation("WAVEFUNCTION_ROUTES", (j,)).ok


@pytest.mark.parametrize("j", [1, 2, 3])
def test_wavefunction_antisymmetry(j):
    for k in (0, 2, j + 1, 5):
        assert wavefunction_closed(j, -k) == -wavefunction_closed(j, k)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_eigen_equation(j):
    assert verify_relation("EIGEN_EQUATION", (j,)).ok


@pytest.mark.parametrize("j", [1, 2, 3])
def test_exclusion(j):
    assert verify_relation("EXCLUSION", (j,)).ok
    # boundary sanity: the first allowed mode does not vanish
    assert wavefunction_closed(j, j + 1) != SC_ZERO


@pytest.mark.parametrize("j", [1, 2, 3])
def test_residues(j):
    assert verify_relation("RESIDUES", (j,)).ok


def test_spectral_properties_combined():
    assert verify_relation("SPECTRAL_PROPERTIES", (2,)).ok


@pytest.mark.parametrize("j", [1, 2])
def test_ladder_coherence(j):
    # composing the Hamiltonian with the full ladder and applying it to the
    # seed must reproduce the energy times the closed form
    cascade = hamiltonian(j)
    for level in range(j, 0, -1):
        cascade = cascade @ shift_operator(level)
    for k in range(-5, 6):
        seed = xpow(k) - xpow(-k)
        assert cascade.apply(seed) == energy(k) * wavefunction_closed(j, k)


def test_wavefunction_numeric_oracle():
    # independent float recomputation of the closed sum at a sample point
    import math

    q0, x0 = 0.61, 0.37
    j, k = 2, 3

    def qn(n):
        return (q0 ** n - q0 ** (-n)) / (q0 - 1.0 / q0)

    def qfact(n):
        out = 1.0
        for i in range(2, n + 1):
            out *= qn(i)
        return out

    total = 0.0
    for n in range(j + 1):
        ratio = 1.0
        for r in range(1, n + 1):
            ratio *= (q0 ** (r - j - 1) * x0 - q0 ** (j + 1 - r) / x0) / (
                q0 ** r * x0 - q0 ** (-r) / x0
            )
        binom = qfact(j) / (qfact(n) * qfact(j - n))
        wave = q0 ** (k * (2 * n - j)) * x0 ** k - q0 ** (-k * (2 * n - j)) * x0 ** (-k)
        total += (-1) ** n * binom * ratio * wave
    got = wavefunction_closed(j, k).numeric_eval(q0, x0)
    assert abs(got.imag) < 1e-12
    assert math.isclose(got.real, total, rel_tol=1e-12)


# ---------------------------------------------------------------- lax


@pytest.mark.parametrize("j", [0, H, 1])
def test_lax_routes(j):
    assert verify_relation("LAX_ROUTES", (j,)).ok


def test_lax_free_case_shape():
    lx = lax_matrix(0)
    assert lx.data == {
        (0, 0): QDiffOperator({-1: SC_ONE}),
        (1, 1): QDiffOperator({1: SC_ONE}),
    }


def test_lax_top_left_block():
    lx = lax_matrix_blocks(1)
    space = lx.space
    spin = space.spins[1]
    for i in range(spin.dim):
        idx = space.index((0, i))
        m = F(spin.twice_m(i), 2)
        assert lx.entry(idx, idx) == qdo_shift(-1, qpow(m))


def test_transfer_weight_diagonal():
    t = transfer_operator(1)
    assert all(r == c for (r, c) in t.data)


@pytest.mark.parametrize("j", [1, 2])
def test_transfer_restriction(j):
    assert verify_relation("TRANSFER_RESTRICTION", (j,)).ok
    assert transfer_and_restrict(j) == hamiltonian(j)


def test_transfer_restriction_needs_integer_spin():
    with pytest.raises(ValueError):
        transfer_and_restrict(H)


@pytest.mark.parametrize("j", [H, 1])
def test_rll(j):
    assert verify_relation("RLL", (j,)).ok


def test_rll_negative_control():
    # dropping the exchange matrix (identity in its place) breaks the
    # relation: the two Lax factors do not commute on their own
    space = TensorSpace((Spin(H), Spin(H), Spin(H)))
    lax = lax_matrix(H)
    l13 = embed(lax, space, (0, 2))
    l23 = embed(lax, space, (1, 2))
    assert (l13 @ l23) != (l23 @ l13)


def test_rll_sides_match():
    lhs, rhs = rll_sides(H)
    assert lhs == rhs


# ------------------------------------------------------- classical limit


def test_classical_limit_values():
    import math

    extrap, target, order = classical_limit_check(1, 3, 1.0)
    assert math.isclose(target, 9.0 - 2.0 / math.sinh(1.0) ** 2, rel_tol=1e-15)
    assert abs(extrap - target) / abs(target) < 1e-4
    assert 1.8 <= order <= 2.2


@pytest.mark.parametrize("j", [1, 2])
def test_classical_limit_reports(j):
    rep = verify_classical_limit(j)
    assert rep.ok
    assert rep.mode == "numeric"


# ------------------------------------------------------------- registry


def test_registry_dispatch():
    assert verify_relation("INTERTWINING", (F(2),)).ok
    assert verify_relation("RLL", (H,)).ok
    with pytest.raises(ValueError):
        verify_relation("RLL", (H, H))
    with pytest.raises(KeyError):
        verify_relation("NOPE", (H,))


def test_d_function_differs_from_c():
    assert c_function(1) != d_function(1)
