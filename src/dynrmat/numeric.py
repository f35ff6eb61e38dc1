"""Floating-point rebuilds of the defining series.

Nothing in this module touches the exact scalar field: representations,
series prefactors and sums are reconstructed from plain floats, with
matrices as lists of rows.  Agreement with the exact layer evaluated at the
same point is therefore a real two-route coherence check, not a tautology.
"""

import math
import random
from fractions import Fraction
from functools import cache

from .lattice import integer, ratio_str, twice
from .report import VerificationReport

__all__ = [
    "gnf_r_num",
    "psi_closed_num",
    "log_qfact_real",
    "prelimit_three_j_num",
    "verify_numeric_coherence",
    "verify_prelimit_convergence",
]


# ----------------------------------------------------------- tiny q helpers


def _qn(n, q):
    return (q ** n - q ** (-n)) / (q - 1.0 / q)


def _qfact_int(n, q):
    out = 1.0
    for i in range(2, n + 1):
        out *= _qn(i, q)
    return out


# ------------------------------------------------ list-of-rows matrices


def _eye(n):
    return [
        [1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]


def _kron(a, b):
    return [
        [x * y for x in ra for y in rb] for ra in a for rb in b]


def _matmul(a, b):
    """Product a @ b that skips the zero entries of a's rows."""
    out = []
    for row in a:
        acc = [0.0] * len(b[0])
        for k, v in enumerate(row):
            if v:
                for c, w in enumerate(b[k]):
                    acc[c] += v * w
        out.append(acc)
    return out


def _inv(a):
    """Gauss-Jordan inverse with partial pivoting."""
    n = len(a)
    m = [list(row) + e for row, e in zip(a, _eye(n))]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if not m[piv][col]:
            raise ZeroDivisionError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        scale = 1.0 / m[col][col]
        prow = m[col] = [v * scale for v in m[col]]
        for r in range(n):
            f = m[r][col]
            if r != col and f:
                m[r] = [v - f * p for v, p in zip(m[r], prow)]
    return [row[n:] for row in m]


# ------------------------------------------------------- exchange matrix


def _rep_filled(twice, q):
    """Raising/lowering matrices and the weight list for one spin leg."""
    dim = twice + 1
    ep = [[0.0] * dim for _ in range(dim)]
    em = [[0.0] * dim for _ in range(dim)]
    for i in range(1, dim):
        ep[i - 1][i] = math.sqrt(_qn(i, q) * _qn(twice - i + 1, q))
    for i in range(dim - 1):
        em[i + 1][i] = math.sqrt(_qn(twice - i, q) * _qn(i + 1, q))
    return ep, em, [twice - 2 * i for i in range(dim)]


def _row_dressed_series_num(plus_a, minus_b, wa, wb, pref):
    n = len(plus_a)
    acc = [[0.0] * n for _ in range(n)]
    term = _eye(n)
    k = 0
    while any(any(row) for row in term):
        for r, row in enumerate(term):
            if any(row):
                p = pref(k, wa[r], wb[r])
                acc[r] = [a + p * t for a, t in zip(acc[r], row)]
        term = _matmul(_matmul(plus_a, term), minus_b)
        k += 1
    return acc


def gnf_r_num(q0, x0, twice1=1, twice2=2):
    """Dynamical exchange matrix on (j1, j2) rebuilt in floats, as rows.

    The two twist series and the constant exchange series are resummed in
    floats; the flipped inverse twist is replaced by a Gauss-Jordan matrix
    inverse, which makes the route independent of the closed-form inverse
    series too.
    """
    q, x = float(q0), float(x0)
    ep1, em1, w1 = _rep_filled(twice1, q)
    ep2, em2, w2 = _rep_filled(twice2, q)
    id1, id2 = _eye(twice1 + 1), _eye(twice2 + 1)
    plus1 = _kron(ep1, id2)
    minus1 = _kron(em1, id2)
    plus2 = _kron(id1, ep2)
    minus2 = _kron(id1, em2)
    wa = [a for a in w1 for _ in w2]
    wb = [b for _ in w1 for b in w2]
    qd = q - 1.0 / q

    def pref_rd(i, ra, rb):
        val = qd ** i / _qfact_int(i, q)
        return val * q ** (ra * rb / 2.0 + i * (ra - rb) / 2.0 - i * (i + 1) / 2.0)

    def pref_f(k, ra, rb):
        val = (-1.0) ** k * qd ** k / _qfact_int(k, q)
        val *= x ** k * q ** (k * (ra + rb) / 2.0)
        for nu in range(k, 2 * k):
            val /= x * q ** (nu + rb) - q ** (-nu - rb) / x
        return val

    rd = _row_dressed_series_num(plus1, minus2, wa, wb, pref_rd)
    f12 = _row_dressed_series_num(plus1, minus2, wa, wb, pref_f)
    # the flipped twist raises on leg 2 and lowers on leg 1
    f21 = _row_dressed_series_num(plus2, minus1, wb, wa, pref_f)
    return _matmul(_matmul(_inv(f21), rd), f12)


def psi_closed_num(j, k, q0, x0):
    """Closed-sum wavefunction at a numeric point."""
    j, k = integer(j, "spin"), integer(k, "wave number")
    q, x = float(q0), float(x0)
    total = 0.0
    for n in range(j + 1):
        ratio = 1.0
        for r in range(1, n + 1):
            ratio *= (q ** (r - j - 1) * x - q ** (j + 1 - r) / x) / (
                q ** r * x - q ** (-r) / x
            )
        binom = _qfact_int(j, q) / (_qfact_int(n, q) * _qfact_int(j - n, q))
        wave = q ** (k * (2 * n - j)) * x ** k - q ** (-k * (2 * n - j)) * x ** (-k)
        total += (-1.0) ** n * binom * ratio * wave
    return total


# ------------------------------------------------- continued q-factorials


def _log_pochhammer(a, Q):
    """(sign, log magnitude) of the infinite product (Q^a; Q)_infinity."""
    sgn = 1
    tot = 0.0
    n = 0
    while True:
        v = Q ** (a + n)
        if v < 1e-18:
            # the tail sums to -v/(1-Q) up to machine noise
            tot -= v / (1.0 - Q)
            return sgn, tot
        t = 1.0 - v
        if t < 0.0:
            sgn = -sgn
        elif t == 0.0:
            return 0, float("-inf")
        tot += math.log(abs(t))
        n += 1


@cache
def log_qfact_real(z, q):
    """(sign, log magnitude) of the q-factorial continued to real argument.

    [z]! = q^(-z(z-1)/2) (Q; Q)_z / (1-Q)^z with Q = q^2 and the Pochhammer
    ratio (Q; Q)_z = (Q; Q)_inf / (Q^(z+1); Q)_inf.  For nonnegative integer
    z this reproduces the product of the symmetric q-integers.  Memoized: a
    pure float function that the prelimit check calls with few distinct
    arguments many times over.
    """
    Q = q * q
    s_num, l_num = _log_pochhammer(1.0, Q)
    s_den, l_den = _log_pochhammer(z + 1.0, Q)
    if s_den == 0:
        raise ZeroDivisionError("continued q-factorial pole")
    sign = s_num * s_den
    logmag = (
        -z * (z - 1.0) / 2.0 * math.log(q)
        + l_num
        - l_den
        - z * math.log(1.0 - Q)
    )
    return sign, logmag


def _bracket_real(z, q):
    return (q ** z - q ** (-z)) / (q - 1.0 / q)


def _log_qfact_stepped(c, steps, q):
    """(negative-bracket count, log magnitude) of [c + steps]!.

    Anchored at the fractional base [c]! in the principal region and
    extended by integer steps through the symmetric-bracket recurrence,
    which is the continuation under which the large-shift asymptotics of
    factorial ratios hold.  The count records how many brackets at
    negative argument the extension crossed; the magnitude sign is
    (-1)**count since the base is positive.
    """
    while c <= -1.0:
        c += 1.0
        steps -= 1
    _, tot = log_qfact_real(c, q)
    neg = 0
    if steps >= 0:
        for t in range(1, steps + 1):
            v = _bracket_real(c + t, q)
            if v < 0.0:
                neg += 1
            tot += math.log(abs(v))
    else:
        for t in range(0, -steps):
            v = _bracket_real(c - t, q)
            if v == 0.0:
                raise ZeroDivisionError("bracket vanished during descent")
            if v < 0.0:
                neg += 1
            tot -= math.log(abs(v))
    return neg, tot


def prelimit_three_j_num(j, sigma, m, mu, q0, x0):
    """Coupling (j, j(x), j(x)+sigma; m, mu, m+mu) at a large finite mu.

    Direct float evaluation of the closed one-sum coupling formula with the
    second and third spins continued to j(x) and j(x)+sigma.  Factorials
    whose argument carries mu are anchored at their fractional offset and
    extended by integer bracket steps.  The mu-carrying factorials are
    grouped into the ratios that stay bounded, with the two divided-out
    factorials restored inside the sum, so the terms stay sign-stable in
    mu.  The square-root branch is fixed once per weight configuration by
    a per-radical rule: brackets at negative argument contribute a
    quarter turn each, oriented up for the bounded ratio group and the
    dimension bracket, down for the triangle factorials, and a half turn
    per unit of j - sigma orients the root of the q - 1/q deficit on the
    same side as the exact limit.
    """
    return _prelimit_three_j(twice(j), twice(sigma), twice(m), mu, q0, x0)


def _prelimit_three_j(J, S, M, mu, q0, x0):
    """prelimit_three_j_num for doubled j, sigma and m."""
    q, x = float(q0), float(x0)
    j = J / 2
    sigma = S / 2
    m = M / 2
    mu = int(mu)
    jx = (math.log(x) / math.log(q) - 1.0) / 2.0
    j1, j2, j3 = j, jx, jx + sigma
    m1 = m

    def lf(z):
        return log_qfact_real(z, q)

    quarter = 0

    # triangle factor and the mu-free square roots
    tri_log = 0.0
    for z in (-j1 + j2 + j3, j1 - j2 + j3, j1 + j2 - j3):
        ng, l = _log_qfact_stepped(z, 0, q)
        quarter -= ng
        tri_log += l
    tri_log -= lf(j1 + j2 + j3 + 1.0)[1]
    tri_log /= 2.0
    root_log = 0.5 * (lf(j1 + m1)[1] + lf(j1 - m1)[1])
    dv = _qn(2.0 * j3 + 1.0, q)
    if dv < 0.0:
        quarter += 1
    dim_log = 0.5 * math.log(abs(dv))

    # bounded ratio group under the square root:
    #   [j2+mu]! [j3+m3]! [j2-mu]! [j3-m3]!  /  ([j3-j1+mu]! [j2-mu]!)^2
    # the compensating [j3-j1+mu]! [j2-mu]! go back into the p-terms
    grp_log = 0.0
    for base, steps, way in (
        (j2, mu, +1),
        (j3 + m1, mu, +1),
        (j2, -mu, +1),
        (j3 - m1, -mu, +1),
        (j3 - j1, mu, -2),
        (j2, -mu, -2),
    ):
        ng, lg = _log_qfact_stepped(base, steps, q)
        quarter += way * ng
        grp_log += way * lg
    root = (1j ** (quarter % 4)) * math.exp(0.5 * grp_log)
    root *= (-1.0) ** int((J - S) / 2)

    pref_log = (j1 * mu - j2 * m1) * math.log(q) - 0.5 * (j1 + j2 - j3) * (
        j1 + j2 + j3 + 1.0
    ) * math.log(q)

    # p-sum over the integer window, in log space
    comp = [_log_qfact_stepped(j3 - j1, mu, q), _log_qfact_stepped(j2, -mu, q)]
    plo = max(0, int(round(m1 - sigma)))
    phi = int(round(min(j1 - sigma, j1 + m1)))
    terms = []
    for p in range(plo, phi + 1):
        lg = p * (j1 + j2 + j3 + 1.0) * math.log(q)
        neg = 0
        for ng, zl in comp:
            neg += ng
            lg += zl
        for z in (float(p), j1 + j2 - j3 - p, j1 + m1 - p, j3 - j2 - m1 + p):
            ng, zl = _log_qfact_stepped(z, 0, q)
            neg += ng
            lg -= zl
        for base, steps in ((j2 - p, -mu), (j3 - j1 + p, mu)):
            ng, zl = _log_qfact_stepped(base, steps, q)
            neg += ng
            lg -= zl
        terms.append(((-1) ** (p + neg), lg))
    if not terms:
        return 0.0
    top = max(lg for _, lg in terms)
    ssum = sum(sg * math.exp(lg - top) for sg, lg in terms)
    scale = tri_log + root_log + dim_log + pref_log + top
    return ssum * root * math.exp(scale)


# ------------------------------------------------------------ verification


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def verify_numeric_coherence(points=20, seed=20260825, tol=1e-10):
    """Exact entries vs the float rebuild at random sample points."""
    from .twist import gnf_r
    from .lame import wavefunction_closed

    rng = random.Random(seed)
    exact_r = gnf_r(Fraction(1, 2), 1)
    exact_psi = wavefunction_closed(2, 3)
    dim = exact_r.space.dim
    failing = None
    for n in range(points):
        q0 = rng.uniform(0.2, 0.9)
        x0 = rng.uniform(0.2, 0.9)
        num = gnf_r_num(q0, x0)
        for r in range(dim):
            for c in range(dim):
                have = exact_r.entry(r, c).numeric_eval(q0, x0)
                want = num[r][c]
                if _rel_err(have, want) > tol:
                    failing = {
                        "check": "point %d exchange entry (%d, %d)" % (n, r, c),
                        "q0": repr(q0),
                        "x0": repr(x0),
                        "exact": repr(have),
                        "series": repr(want),
                    }
                    break
            if failing:
                break
        if failing:
            break
        have = exact_psi.numeric_eval(q0, x0)
        want = psi_closed_num(2, 3, q0, x0)
        if _rel_err(have, want) > tol:
            failing = {
                "check": "point %d wavefunction" % n,
                "q0": repr(q0),
                "x0": repr(x0),
                "exact": repr(have),
                "series": repr(want),
            }
            break
    return VerificationReport(
        relation="NUMERIC_COHERENCE",
        spins=(Fraction(1, 2), Fraction(1)),
        mode="numeric",
        status="pass" if failing is None else "fail",
        failing_entry=failing,
    )


def verify_prelimit_convergence(q0=0.7, x0=0.3, mus=(20, 30, 40), tol=1e-6):
    """Finite-mu couplings against the continued-limit formula.

    For each spin and each (sigma, m) pair the finite coupling must approach
    the exact limit value, reaching the tolerance at the largest mu.
    """
    from .symbols import _limit_three_j

    failing = None
    for J in (1, 2):
        for S in range(-J, J + 1, 2):
            for M in range(-J, J + 1, 2):
                lim = _limit_three_j(J, S, M).reduce().numeric_eval(q0, x0)
                if abs(lim) < 1e-14:
                    continue
                errs = [
                    abs(_prelimit_three_j(J, S, M, mu, q0, x0) - lim)
                    / abs(lim)
                    for mu in mus
                ]
                if errs[-1] > tol or not all(
                    a >= b for a, b in zip(errs, errs[1:])
                ):
                    failing = {
                        "check": "j=%s sigma=%s m=%s" % (
                            ratio_str(J, 2), ratio_str(S, 2), ratio_str(M, 2)),
                        "limit": repr(lim),
                        "relative_errors": [repr(e) for e in errs],
                    }
                    break
            if failing:
                break
        if failing:
            break
    return VerificationReport(
        relation="PRELIMIT_3J",
        spins=(Fraction(1, 2), Fraction(1)),
        mode="numeric",
        status="pass" if failing is None else "fail",
        failing_entry=failing,
    )
