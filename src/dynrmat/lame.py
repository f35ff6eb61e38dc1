"""The trigonometric difference equation solved by the exchange matrices.

Everything acts on Laurent-type functions of x through the scale shift
T: f(x) -> f(q x).  Operators are kept in the normal form sum_s a_s(x) T^s,
so composition uses a(x) T^s . b(x) T^t = a(x) b(q^s x) T^(s+t).  Shifts,
bracket offsets and q-powers are kept in lattice units (lattice.py); spins
and wave numbers given by a caller are parsed once, to ints.

The potential, the ladder coefficients, the eigenfunction summands and the
Lax entries are products of x-brackets <c> = (x q^c - x^-1 q^-c)/(q - q^-1)
and q-binomials; each is built by one scalar.qint_monomial call, never by
division.
"""

from fractions import Fraction
from functools import cache

from .lattice import DENOM, from_units, integer, ratio_str, to_units
from .polys import add_into, poly_add
from .scalar import (
    SC_ONE,
    SC_ZERO,
    add_qfact,
    add_xbracket,
    qint_monomial,
    qpow,
    qpow_units,
    xpow,
)
from .spins import Spin, TensorSpace, embed, rep_eminus, rep_eplus
from .report import VerificationReport

__all__ = [
    "QDiffOperator",
    "QDOMatrix",
    "c_function",
    "d_function",
    "hamiltonian",
    "shift_operator",
    "wavefunction",
    "wavefunction_recursive",
    "wavefunction_closed",
    "wavefunction_terms",
    "energy",
    "lax_matrix",
    "lax_matrix_blocks",
    "transfer_operator",
    "transfer_and_restrict",
    "rll_sides",
    "classical_limit_check",
    "classical_limit_table",
    "classical_limit_verdict",
    "verify_classical_limit",
    "LAME_RELATIONS",
]


_HALF = Spin(Fraction(1, 2))


class QDiffOperator:
    """Finite sum of scale shifts with exact function coefficients.

    `data` maps the shift s of each T^s, in lattice units, to its nonzero
    coefficient.  The constructor takes the shifts as exact values;
    `of_units` takes them in units.
    """

    __slots__ = ("data",)

    def __init__(self, data=None):
        self.data = {to_units(s): a for s, a in (data or {}).items() if a}

    @classmethod
    def of_units(cls, data):
        """The operator with the coefficients of `data`, keyed by units."""
        op = cls.__new__(cls)
        op.data = {u: a for u, a in data.items() if a}
        return op

    def __bool__(self):
        return bool(self.data)

    def __eq__(self, other):
        if not isinstance(other, QDiffOperator):
            return NotImplemented
        return self.data == other.data

    def __add__(self, other):
        return QDiffOperator.of_units(poly_add(self.data, other.data))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return QDiffOperator.of_units({s: -a for s, a in self.data.items()})

    def __matmul__(self, other):
        out = {}
        for s, a in self.data.items():
            for t, b in other.data.items():
                add_into(out, s + t, a * b.shift_x_units(s))
        return QDiffOperator.of_units(out)

    def scale(self, c):
        return QDiffOperator.of_units({s: a * c for s, a in self.data.items()})

    def apply(self, psi):
        """Act on a function of x."""
        out = SC_ZERO
        for s, a in self.data.items():
            out = out + a * psi.shift_x_units(s)
        return out

    def __repr__(self):
        shifts = {from_units(s): a for s, a in self.data.items()}
        return "QDiffOperator(%r)" % (shifts,)

    def __str__(self):
        if not self.data:
            return "0"
        return " + ".join(
            "(%s) T^(%s)" % (a, ratio_str(s))
            for s, a in sorted(self.data.items())
        )


QDO_ZERO = QDiffOperator()


def qdo_shift(s, coeff=SC_ONE):
    return QDiffOperator.of_units({to_units(s): coeff})


def qdo_func(a):
    return QDiffOperator.of_units({0: a})


# --------------------------------------------------------------- operators


def _brackets(shift, *pairs):
    """prod <c + shift>**(w/2) over the pairs (c, w), the offsets c and
    shift in lattice units, as one Scalar."""
    halves = {}
    for c, w in pairs:
        add_xbracket(halves, c + shift, w)
    return qint_monomial(1, 0, halves)


def c_function(j, shift=0):
    """Potential coefficient <j><-j-1>/(<0><-1>) at argument x q^shift."""
    ju = to_units(j)
    return _brackets(to_units(shift), (ju, 2), (-ju - DENOM, 2), (0, -2),
                     (-DENOM, -2))


def d_function(j, shift=0):
    """Forward coefficient <-j><-j-1>/(<0><-1>) of the ladder operator at
    x q^shift."""
    ju = to_units(j)
    return _brackets(to_units(shift), (-ju, 2), (-ju - DENOM, 2), (0, -2),
                     (-DENOM, -2))


def hamiltonian(j):
    """T^-1 + c_j(qx) T."""
    return QDiffOperator.of_units(
        {-DENOM: SC_ONE, DENOM: c_function(j, shift=1)})


def shift_operator(j):
    """T^-1 - d_j(qx) T, mapping level j-1 eigenfunctions to level j."""
    return QDiffOperator.of_units(
        {-DENOM: SC_ONE, DENOM: -d_function(j, shift=1)})


def energy(k):
    return qpow(k) + qpow(-k)


def wavefunction_recursive(j, k):
    """Eigenfunction by the ladder cascade from the free solution."""
    j, k = integer(j, "spin"), integer(k, "wave number")
    psi = xpow(k) - xpow(-k)
    for level in range(1, j + 1):
        psi = shift_operator(level).apply(psi)
    return psi


def wavefunction(j, k, method="closed"):
    if method == "closed":
        return wavefunction_closed(j, k)
    if method == "recursive":
        return wavefunction_recursive(j, k)
    raise ValueError("method must be 'closed' or 'recursive'")


@cache
def _wave_terms(j, k):
    """The summands of the closed form at int (j, k), a tuple."""
    terms = []
    for n in range(j + 1):
        # (-1)**n [j choose n] prod_(r=1..n) <r-j-1>/<r>
        halves = add_qfact(add_qfact(add_qfact({}, j, 2), n, -2), j - n, -2)
        for r in range(1, n + 1):
            add_xbracket(halves, DENOM * (r - j - 1), 2)
            add_xbracket(halves, DENOM * r, -2)
        wave = (qpow_units(DENOM * k * (2 * n - j)) * xpow(k)
                - qpow_units(-DENOM * k * (2 * n - j)) * xpow(-k))
        terms.append(qint_monomial((-1) ** n, 0, halves) * wave)
    return tuple(terms)


def wavefunction_terms(j, k):
    """Summands of the closed form, kept apart for residue inspection."""
    return list(_wave_terms(integer(j, "spin"), integer(k, "wave number")))


def wavefunction_closed(j, k):
    return _wave_closed(integer(j, "spin"), integer(k, "wave number"))


@cache
def _wave_closed(j, k):
    """The sum of _wave_terms(j, k)."""
    return sum(_wave_terms(j, k), SC_ZERO)


# ------------------------------------------------------------- lax matrix


def _aux_quantum_space(j):
    return TensorSpace((_HALF, Spin(j)))


class QDOMatrix:
    """Matrix of q-difference operators over a tensor-product basis."""

    __slots__ = ("space", "data")

    def __init__(self, space, data=None):
        self.space = space
        clean = {}
        for rc, op in (data or {}).items():
            if op:
                clean[rc] = op
        self.data = clean

    def entry(self, r, c):
        return self.data.get((r, c), QDO_ZERO)

    def __eq__(self, other):
        if not isinstance(other, QDOMatrix):
            return NotImplemented
        return self.space.dims == other.space.dims and self.data == other.data

    def __add__(self, other):
        return QDOMatrix(self.space, poly_add(self.data, other.data))

    def __sub__(self, other):
        return self + other.scale(-SC_ONE)

    def scale(self, c):
        return QDOMatrix(self.space, {rc: op.scale(c) for rc, op in self.data.items()})

    def __matmul__(self, other):
        by_row = {}
        for (r, k), op in self.data.items():
            by_row.setdefault(r, []).append((k, op))
        # group the right factor by its row for the contraction
        right_rows = {}
        for (r, c), op in other.data.items():
            right_rows.setdefault(r, []).append((c, op))
        out = {}
        for r, row in by_row.items():
            acc = {}
            for k, op1 in row:
                for c, op2 in right_rows.get(k, ()):
                    add_into(acc, c, op1 @ op2)
            for c, op in acc.items():
                out[(r, c)] = op
        return QDOMatrix(self.space, out)


def lax_matrix(j):
    """Dressing route: scale-shift conjugation of the exchange matrix.

    Entries pick up x-shifts and shift powers set by the weights of the
    auxiliary and quantum legs.
    """
    from .twist import gnf_r

    r_op = gnf_r(_HALF, j)
    space = r_op.space
    w_aux = space.leg_weights[0]
    w_qua = space.leg_weights[1]
    data = {}
    for (r, c), v in r_op.data.items():
        # in units: lead = -(w_aux + w_qua/2), tpow = lead + w_qua'/2
        lead = -DENOM * w_aux[r] - DENOM * w_qua[r] // 2
        tpow = lead + DENOM * w_qua[c] // 2
        data[(r, c)] = QDiffOperator.of_units({tpow: v.shift_x_units(lead)})
    return QDOMatrix(space, data)


def lax_matrix_blocks(j):
    """Display route: the 2x2 auxiliary block form with ladder entries."""
    space = _aux_quantum_space(j)
    spin = space.spins[1]
    dim = spin.dim
    eplus = rep_eplus(spin)
    eminus = rep_eminus(spin)
    weights = [spin.twice_m(i) for i in range(dim)]

    def fx(shift):
        # (q - q^-1)/(x - x^-1) = 1/<0> at argument x q^shift, in units
        return _brackets(shift, (0, -2))

    data = {}
    half = DENOM // 2
    for i in range(dim):
        m = DENOM * weights[i] // 2
        upper, lower = space.index((0, i)), space.index((1, i))
        # upper-left: T^-1 q^(H/2)
        data[(upper, upper)] = QDiffOperator.of_units({-DENOM: qpow_units(m)})
        # lower-right: T q^(-H/2) (1 - f(x q^(-H/2)) f(x q^(H/2-1)) E+ E-);
        # E+E- is diagonal here, and pulling T left->right shifts every x
        val = SC_ZERO
        if i + 1 < dim:
            val = eplus.entry(i, i + 1) * eminus.entry(i + 1, i)
        coeff = qpow_units(-m) * (SC_ONE - fx(-m) * fx(m - DENOM) * val)
        data[(lower, lower)] = QDiffOperator.of_units(
            {DENOM: coeff.shift_x_units(DENOM)})
    for (r, c), v in eminus.data.items():
        # upper-right: -q^(-1/2) x^-1 f(x q^(H/2)) q^(-H/2) E-, with the
        # diagonal factors acting on the lowered state (weight of the row)
        m_out = DENOM * weights[r] // 2
        ent = -qpow_units(-half) * xpow(-1) * fx(m_out) * qpow_units(-m_out) * v
        data[(space.index((0, r)), space.index((1, c)))] = qdo_func(ent)
    for (r, c), v in eplus.data.items():
        # lower-left: q^(-1/2) x f(x q^(-H/2+1)) q^(H/2) E+
        m_out = DENOM * weights[r] // 2
        ent = (qpow_units(-half) * xpow(1) * fx(-m_out + DENOM)
               * qpow_units(m_out) * v)
        data[(space.index((1, r)), space.index((0, c)))] = qdo_func(ent)
    return QDOMatrix(space, data)


def transfer_operator(j):
    """Partial trace of the Lax matrix over the auxiliary leg."""
    lax = lax_matrix(j)
    big = lax.space
    spin = big.spins[1]
    small = TensorSpace((spin,))
    data = {}
    for (r, c), op in lax.data.items():
        ra, ri = big.multi(r)
        ca, ci = big.multi(c)
        if ra == ca:
            add_into(data, (ri, ci), op)
    return QDOMatrix(small, data)


def transfer_and_restrict(j):
    """Transfer operator on the zero-weight state."""
    t = transfer_operator(integer(j, "spin"))
    spin = t.space.spins[0]
    zero = next(i for i in range(spin.dim) if spin.twice_m(i) == 0)
    return t.entry(zero, zero)


def _r12_with_aux_shift(space, sign):
    """Exchange matrix on the two auxiliary legs, argument dressed by the
    weight of the quantum leg."""
    from .twist import gnf_r

    r12 = embed(gnf_r(_HALF, _HALF), space, (0, 1))
    w3 = space.leg_weights[2]
    data = {}
    for (r, c), v in r12.data.items():
        data[(r, c)] = qdo_func(v.shift_x_units(sign * DENOM * w3[r] // 2))
    return QDOMatrix(space, data)


def rll_sides(j):
    """Both sides of the exchange relation for the Lax matrix."""
    space = TensorSpace((_HALF, _HALF, Spin(j)))
    lax = lax_matrix(j)
    l13 = embed(lax, space, (0, 2))
    l23 = embed(lax, space, (1, 2))
    lhs = _r12_with_aux_shift(space, -1) @ l13 @ l23
    rhs = l23 @ l13 @ _r12_with_aux_shift(space, +1)
    return lhs, rhs


# ------------------------------------------------------------ verification
# relation builders: each returns a list of (label, lhs, rhs)


def _shift_pairs(a, b):
    """Pair up the shift coefficients of two difference operators."""
    return [
        ("shift %s" % ratio_str(s),
         a.data.get(s, SC_ZERO), b.data.get(s, SC_ZERO))
        for s in sorted(set(a.data) | set(b.data))
    ]


def _qdo_pairs(label, a, b):
    """Flatten two operator matrices into comparable scalar pairs."""
    pairs = []
    for rc in sorted(set(a.data) | set(b.data)):
        for shift, lhs, rhs in _shift_pairs(a.entry(*rc), b.entry(*rc)):
            pairs.append(("%s entry %s %s" % (label, rc, shift), lhs, rhs))
    return pairs


def _build_rel_intertwining(j):
    """H_j D_j = D_j H_(j-1)."""
    j = integer(j, "spin")
    lhs = hamiltonian(j) @ shift_operator(j)
    rhs = shift_operator(j) @ hamiltonian(j - 1)
    return _shift_pairs(lhs, rhs)


def _build_rel_wavefunction_routes(j, kmax=5):
    """The recursive and closed routes agree for |k| <= kmax.  Both vanish
    for |k| <= j (EXCLUSION), so kmax must exceed j for any check to have
    substance."""
    j = integer(j, "spin")
    if kmax <= j:
        raise ValueError("kmax must exceed j = %d, got %d" % (j, kmax))
    return [
        ("k=%d" % k, wavefunction_recursive(j, k), wavefunction_closed(j, k))
        for k in range(-kmax, kmax + 1)
    ]


def _build_rel_eigen_equation(j, kmax=5):
    """H psi_k = E(k) psi_k for |k| <= kmax.  psi_k vanishes for |k| <= j
    (EXCLUSION), so kmax must exceed j for any check to have substance."""
    j = integer(j, "spin")
    if kmax <= j:
        raise ValueError("kmax must exceed j = %d, got %d" % (j, kmax))
    h = hamiltonian(j)
    comparisons = []
    for k in range(-kmax, kmax + 1):
        psi = wavefunction_closed(j, k)
        comparisons.append(("eigen k=%d" % k, h.apply(psi), energy(k) * psi))
    return comparisons


def _build_rel_exclusion(j, methods=("recursive", "closed")):
    """Each route in `methods` annihilates the free solutions with |k| <= j."""
    j = integer(j, "spin")
    return [
        ("%s k=%d" % (method, k), wavefunction(j, k, method=method), SC_ZERO)
        for k in range(-j, j + 1)
        for method in methods
    ]


def _residue_rows(j, k):
    """Exact residue probes at x = +- q^-r for one wavefunction.

    Row 'termwise': the closed-form summands each have at most a simple
    pole; multiply by the vanishing factor, substitute, and sum.  Row
    'reduced': the same probe on the wavefunction brought over its common
    denominator.  Both must vanish.
    """
    rows = []
    terms = wavefunction_terms(j, k)
    reduced = wavefunction_closed(j, k)
    for r in range(1, j + 1):
        factor = xpow(1) * qpow(r) - xpow(-1) * qpow(-r)
        for sign in (1, -1):
            acc = SC_ZERO
            for t in terms:
                acc = acc + (t * factor).eval_x_at_signed_qpow(sign, -r)
            rows.append(
                ("termwise k=%d r=%d sign=%+d" % (k, r, sign), acc, SC_ZERO)
            )
            red = (reduced * factor).eval_x_at_signed_qpow(sign, -r)
            rows.append(
                ("reduced k=%d r=%d sign=%+d" % (k, r, sign), red, SC_ZERO)
            )
    return rows


def _build_rel_residues(j):
    """Residues of the wavefunctions cancel at x = +- q^-r, 1 <= r <= j."""
    j = integer(j, "spin")
    return _residue_rows(j, j + 1) + _residue_rows(j, j + 2)


def _build_rel_spectral_properties(j, kmax=5):
    """Eigen-equation, exclusion and residue vanishing in one list."""
    return (_build_rel_eigen_equation(j, kmax)
            + _build_rel_exclusion(j, methods=("closed",))
            + _build_rel_residues(j))


def _build_rel_lax_routes(j):
    return _qdo_pairs("lax", lax_matrix(j), lax_matrix_blocks(j))


def _build_rel_transfer_restriction(j):
    return _shift_pairs(transfer_and_restrict(j), hamiltonian(j))


def _build_rel_rll(j):
    return _qdo_pairs("rll", *rll_sides(j))


def classical_limit_table(j, k, z, eps_values=(1e-2, 1e-3)):
    """Epsilon sweep of the scaled operator action at one (k, z) point.

    The action of the difference operator on x^k, evaluated at
    q = e^(+-eps) and averaged so the result is an even function of eps,
    approaches k^2 - j(j+1)/sinh(z)^2 quadratically.  Returns
    (rows, extrapolated, target, order) with rows pairing each eps with
    the symmetrized value.  The one-sided action carries an odd eps term
    (the test function is not an eigenfunction), which the symmetrization
    removes.  Raises ValueError at z = 0, where the target has a pole.
    """
    import math

    j, k = integer(j, "spin"), integer(k, "wave number")
    if z == 0:
        raise ValueError("the classical limit has a pole at z = 0")
    cj = c_function(j, shift=1)
    x0 = math.exp(z)

    def action(q0):
        cval = cj.numeric_eval(q0, x0).real
        return q0 ** (-k) + q0 ** k * cval - 2.0

    def v(eps):
        return (action(math.exp(eps)) + action(math.exp(-eps))) / (
            2.0 * eps ** 2
        )

    target = k * k - j * (j + 1) / math.sinh(z) ** 2
    rows = [(eps, v(eps)) for eps in eps_values]
    (e1, v1), (e2, v2) = rows[-2], rows[-1]
    ratio = (e1 / e2) ** 2
    extrap = (ratio * v2 - v1) / (ratio - 1.0)
    order = math.log(abs(v1 - target) / abs(v2 - target)) / math.log(e1 / e2)
    return rows, extrap, target, order


def classical_limit_check(j, k, z):
    """(extrapolated value, target, observed order) at one (k, z) point."""
    rows, extrap, target, order = classical_limit_table(j, k, z)
    return extrap, target, order


_TOL, _ORDER_WINDOW = 1e-4, (1.8, 2.2)  # the default pass rule


def classical_limit_verdict(extrap, target, order, tol=_TOL,
                            order_window=_ORDER_WINDOW):
    """(relative error, whether the point passes) for one sampled (k, z):
    it passes when the extrapolated value is within tol of the continuum
    value, relative to max(1, |target|), and the observed order lies in
    order_window."""
    rel = abs(extrap - target) / max(1.0, abs(target))
    return rel, rel <= tol and order_window[0] <= order <= order_window[1]


def verify_classical_limit(j, ks=(2, 3), zs=(0.5, 1.0), tol=_TOL,
                           order_window=_ORDER_WINDOW):
    """Pass when every sampled (k, z) extrapolates to the continuum value
    at second order (classical_limit_verdict).  The check is numeric
    whatever mode is asked for."""
    failing = None
    for k in ks:
        for z in zs:
            extrap, target, order = classical_limit_check(j, k, z)
            rel, ok = classical_limit_verdict(extrap, target, order, tol,
                                              order_window)
            if not ok:
                failing = {
                    "check": "k=%d z=%s" % (k, z),
                    "extrapolated": repr(extrap),
                    "target": repr(target),
                    "relative_error": repr(rel),
                    "order": repr(order),
                }
                break
        if failing:
            break
    return VerificationReport(
        relation="CLASSICAL_LIMIT",
        spins=(Fraction(j),),
        mode="numeric",
        status="pass" if failing is None else "fail",
        failing_entry=failing,
    )


LAME_RELATIONS = {
    "INTERTWINING": (_build_rel_intertwining, 1),
    "WAVEFUNCTION_ROUTES": (_build_rel_wavefunction_routes, 1),
    "EIGEN_EQUATION": (_build_rel_eigen_equation, 1),
    "EXCLUSION": (_build_rel_exclusion, 1),
    "RESIDUES": (_build_rel_residues, 1),
    "SPECTRAL_PROPERTIES": (_build_rel_spectral_properties, 1),
    "LAX_ROUTES": (_build_rel_lax_routes, 1),
    "TRANSFER_RESTRICTION": (_build_rel_transfer_restriction, 1),
    "RLL": (_build_rel_rll, 1),
    "CLASSICAL_LIMIT": (verify_classical_limit, 1),
}
