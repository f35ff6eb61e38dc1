"""Floating-point mirrors: series rebuilds, continued factorials, limits."""

import random
from fractions import Fraction as F

import pytest

from dynrmat.lame import wavefunction_closed
from dynrmat.numeric import (
    _inv,
    _matmul,
    gnf_r_num,
    log_qfact_real,
    prelimit_three_j_num,
    psi_closed_num,
    verify_numeric_coherence,
    verify_prelimit_convergence,
)
from dynrmat.scalar import qfact
from dynrmat.symbols import limit_three_j
from dynrmat.twist import gnf_r


def test_log_qfact_matches_integer_factorials():
    q = 0.7
    for n in range(8):
        sgn, lg = log_qfact_real(float(n), q)
        assert sgn == 1
        exact = qfact(n).numeric_eval(q, 0.5).real
        import math

        assert abs(math.exp(lg) - exact) < 1e-12 * exact


def test_log_qfact_recurrence_at_fractional_argument():
    import math

    q = 0.62
    for z in (0.37, 1.81, 4.26):
        s1, l1 = log_qfact_real(z, q)
        s0, l0 = log_qfact_real(z - 1.0, q)
        bracket = (q ** z - q ** (-z)) / (q - 1.0 / q)
        lhs = s1 * math.exp(l1)
        rhs = s0 * math.exp(l0) * bracket
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_log_qfact_memo_returns_the_computed_values():
    # memoized, and bit for bit what the function computes
    for z in (0.0, 0.37, 2.0, -0.63):
        for q in (0.62, 0.7):
            got = log_qfact_real(z, q)
            assert got == log_qfact_real.__wrapped__(z, q)
            assert log_qfact_real(z, q) is got


@pytest.mark.parametrize("point", [(0.55, 0.77), (0.31, 0.42)])
def test_gnf_r_num_matches_exact_entries(point):
    q0, x0 = point
    num = gnf_r_num(q0, x0, 1, 2)
    exact = gnf_r(F(1, 2), F(1))
    for (r, c), v in exact.data.items():
        ev = v.numeric_eval(q0, x0)
        assert abs(ev - num[r][c]) <= 1e-12 * max(1.0, abs(ev))
    # structural zeros of the weight blocks survive the float rebuild
    support = set(exact.data)
    for r in range(6):
        for c in range(6):
            if (r, c) not in support:
                assert abs(num[r][c]) < 1e-12


@pytest.mark.parametrize("point", [(0.55, 0.77), (0.31, 0.42)])
def test_gnf_r_num_matches_exact_entries_spin_one_pair(point):
    # a square 9x9 pair: the kron and matmul helpers see a second shape
    q0, x0 = point
    num = gnf_r_num(q0, x0, 2, 2)
    exact = gnf_r(F(1), F(1))
    assert len(num) == 9 and all(len(row) == 9 for row in num)
    for r in range(9):
        for c in range(9):
            ev = exact.entry(r, c).numeric_eval(q0, x0)
            assert abs(ev - num[r][c]) <= 1e-12 * max(1.0, abs(ev))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_inv_matches_numpy(n):
    np = pytest.importorskip("numpy")
    rng = random.Random(1000 + n)
    for _ in range(5):
        # diagonally dominant, hence well conditioned
        a = [
            [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            for _ in range(n)
        ]
        for r in range(n):
            a[r][r] += 2 * n
        got = np.array(_inv(a))
        want = np.linalg.inv(np.array(a))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_inv_needs_pivoting():
    # a zero leading entry: only a row swap gets past the first column
    a = [[0.0, 2.0, 1.0], [1.0, 0.0, 3.0], [4.0, 1.0, 0.0]]
    prod = _matmul(_inv(a), a)
    for r in range(3):
        for c in range(3):
            assert abs(prod[r][c] - (r == c)) < 1e-14


@pytest.mark.parametrize(
    "a",
    [
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [1.0, 3.0, 4.0]],
    ],
)
def test_inv_raises_on_singular(a):
    with pytest.raises(ZeroDivisionError):
        _inv(a)


def test_gnf_r_num_is_sensitive():
    # same entries at a shifted point must NOT match: the comparison is
    # between two genuinely independent evaluations
    q0, x0 = 0.55, 0.77
    num = gnf_r_num(q0 * 1.001, x0, 1, 2)
    exact = gnf_r(F(1, 2), F(1))
    worst = max(
        abs(v.numeric_eval(q0, x0) - num[r][c])
        for (r, c), v in exact.data.items()
    )
    assert worst > 1e-6


def test_psi_closed_num_matches_exact():
    for (j, k) in ((1, 2), (2, 3), (3, 4)):
        for (q0, x0) in ((0.61, 0.37), (0.44, 0.81)):
            ev = wavefunction_closed(j, k).numeric_eval(q0, x0)
            nv = psi_closed_num(j, k, q0, x0)
            assert abs(ev - nv) <= 1e-11 * max(1.0, abs(ev))


@pytest.mark.parametrize(
    "j,sigma,m",
    [
        (F(1, 2), F(1, 2), F(1, 2)),
        (F(1, 2), F(1, 2), F(-1, 2)),
        (F(1), F(0), F(0)),
        (F(1), F(-1), F(1)),
        (F(3, 2), F(1, 2), F(-1, 2)),
    ],
)
def test_prelimit_converges_to_limit(j, sigma, m):
    q0, x0 = 0.7, 0.3
    lim = limit_three_j(j, sigma, m).reduce().numeric_eval(q0, x0)
    errs = []
    for mu in (20, 30, 40):
        pre = prelimit_three_j_num(j, sigma, m, mu, q0, x0)
        errs.append(abs(pre - lim) / max(1.0, abs(lim)))
    assert errs[2] <= errs[1] <= errs[0]
    assert errs[2] < 1e-6


def test_prelimit_branch_is_parity_stable():
    # consecutive mu land on the same limit: no alternating sign artifact
    q0, x0 = 0.7, 0.3
    lim = limit_three_j(F(1), F(0), F(1)).reduce().numeric_eval(q0, x0)
    for mu in (39, 40, 41):
        pre = prelimit_three_j_num(F(1), F(0), F(1), mu, q0, x0)
        assert abs(pre - lim) < 1e-6 * max(1.0, abs(lim))


def test_prelimit_reaches_imaginary_limits():
    # odd sigma - m rows have purely imaginary limits; the branch rule
    # must land on the right side of the axis
    q0, x0 = 0.7, 0.3
    lim = limit_three_j(F(1, 2), F(1, 2), F(-1, 2)).reduce().numeric_eval(q0, x0)
    pre = prelimit_three_j_num(F(1, 2), F(1, 2), F(-1, 2), 40, q0, x0)
    assert abs(lim.real) < 1e-12 and abs(lim.imag) > 0.1
    assert abs(pre - lim) < 1e-6


def test_verify_prelimit_convergence_passes():
    rep = verify_prelimit_convergence()
    assert rep.ok
    assert rep.mode == "numeric"


def test_verify_numeric_coherence_passes():
    rep = verify_numeric_coherence(points=5)
    assert rep.ok


def test_verify_numeric_coherence_detects_bad_tolerance():
    rep = verify_numeric_coherence(points=2, tol=1e-17)
    assert not rep.ok


def test_psi_closed_num_refuses_a_fractional_spin_or_wave_number():
    for v in (F(5, 2), "5/2", 2.7):
        with pytest.raises(ValueError, match="needs an integer spin"):
            psi_closed_num(v, 1, 0.5, 0.7)
        with pytest.raises(ValueError, match="needs an integer wave number"):
            psi_closed_num(2, v, 0.5, 0.7)
    assert psi_closed_num(F(4, 2), "3", 0.5, 0.7) == psi_closed_num(2, 3, 0.5, 0.7)
