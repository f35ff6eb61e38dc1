"""Verification reports shared by every identity checker in the package.

Operator sides, evaluated GradedOperators and unevaluated spins.Products
alike, are compared one row at a time in increasing row order, and each
row is dropped once it is checked.  Row r of a product A1 ... An is
e_r A1 ... An, so a row is exact on its own whatever the factors are, and a
product side is never held whole.  The first row that differs holds the
least failing (row, col), the entry an evaluated difference would report;
only then are the remaining rows built, for the residual rank.
"""

from fractions import Fraction

from .polys import poly_sub
from .scalar import SC_ZERO, Scalar
from .spins import GradedOperator, Product

__all__ = ["VerificationReport", "run_comparisons", "check_point",
           "NUMERIC_TOL"]

NUMERIC_TOL = 1e-9
_DEFAULT_POINT = (0.37, 0.81)


def check_point(mode, q0=None, x0=None):
    """Raise ValueError unless mode is "exact" or "numeric" and a given
    point is one where numeric mode can tell values apart: q0 > 0, x0 > 0
    and q0 != 1 (at q = 1 every q-deformation collapses)."""
    if mode not in ("exact", "numeric"):
        raise ValueError("unknown mode %r" % (mode,))
    if q0 is not None and (q0 <= 0 or q0 == 1):
        raise ValueError("numeric mode needs q0 > 0 and q0 != 1")
    if x0 is not None and x0 <= 0:
        raise ValueError("numeric mode needs x0 > 0")


class VerificationReport:
    def __init__(
        self,
        relation,
        spins,
        mode,
        status,
        failing_entry=None,
        residual_rank=None,
        elapsed_ms=0.0,
    ):
        self.relation = relation
        self.spins = spins
        self.mode = mode
        self.status = status
        self.failing_entry = failing_entry
        self.residual_rank = residual_rank
        self.elapsed_ms = elapsed_ms

    @property
    def ok(self):
        return self.status == "pass"

    def to_jsonable(self, stable=False):
        d = {
            "relation": self.relation,
            "spins": [str(Fraction(s)) for s in self.spins],
            "mode": self.mode,
            "status": self.status,
        }
        if self.failing_entry is not None:
            d["failing_entry"] = self.failing_entry
        if self.residual_rank is not None:
            d["residual_rank"] = self.residual_rank
        if not stable:
            d["elapsed_ms"] = round(self.elapsed_ms, 3)
        return d

    def line(self):
        spins = ",".join(str(Fraction(s)) for s in self.spins)
        head = "PASS" if self.ok else "FAIL"
        out = "%s %s (%s) [%s]" % (head, self.relation, spins, self.mode)
        if self.failing_entry is not None:
            out += " first failure: %s" % (self.failing_entry,)
        return out


def _float_rank(rows, tol=1e-8):
    """Rank of a dense complex matrix by Gaussian elimination with complete
    pivoting; elimination stops at the first pivot of modulus <= tol."""
    rank = 0
    while rows and rows[0]:
        i, j = max(
            ((i, j) for i in range(len(rows)) for j in range(len(rows[0]))),
            key=lambda ij: abs(rows[ij[0]][ij[1]]),
        )
        pivot = rows[i][j]
        if abs(pivot) <= tol:
            break
        rank += 1
        prow = rows[i]
        rows = [
            [v - row[j] / pivot * p for c, (v, p) in enumerate(zip(row, prow))
             if c != j]
            for k, row in enumerate(rows)
            if k != i
        ]
    return rank


def _numeric_residual_rank(diff):
    """Rank of the difference at the default point, over its nonzero rows
    and columns; diagnostics only, the exact result is already decided."""
    q0, x0 = _DEFAULT_POINT
    try:
        vals = {key: s.numeric_eval(q0, x0) for key, s in diff.data.items()}
    except (ZeroDivisionError, ArithmeticError):
        return None
    rows = sorted({r for (r, _), v in vals.items() if v})
    cols = sorted({c for (_, c), v in vals.items() if v})
    return _float_rank([
        [vals.get((r, c), 0) for c in cols] for r in rows])


def _row_failure_numeric(label, r, lrow, rrow, q0, x0, tol):
    for c in sorted(lrow.keys() | rrow.keys()):
        va = lrow.get(c, SC_ZERO).numeric_eval(q0, x0)
        vb = rrow.get(c, SC_ZERO).numeric_eval(q0, x0)
        scale = max(1.0, abs(va), abs(vb))
        if abs(va - vb) > tol * scale:
            return {"check": label, "row": r, "col": c,
                    "lhs": repr(va), "rhs": repr(vb)}
    return None


def _operator_failure(label, lhs, rhs, exact, q0, x0, tol):
    """The first failing entry of two operator sides, and in exact mode the
    residual rank of their difference.

    Both sides are read one row at a time in increasing row order, and each
    row is dropped once it is checked, so a side that is a spins.Product is
    never held whole.  The first row that differs holds the least failing
    (row, col); only then are the remaining rows read, to assemble the
    difference whose rank the report gives.
    """
    if lhs.space != rhs.space:
        raise ValueError("operator spaces differ")
    paired = zip(lhs.rows(), rhs.rows())
    for (r, lrow), (_, rrow) in paired:
        if not exact:
            failing = _row_failure_numeric(label, r, lrow, rrow, q0, x0, tol)
            if failing is not None:
                return failing, None
            continue
        # equal canonical forms are equal values: only a failure needs the
        # difference, which the report prints
        if lrow == rrow:
            continue
        diff = poly_sub(lrow, rrow)
        if not diff:
            continue
        c = min(diff)
        entry = {"check": label, "row": r, "col": c, "difference": str(diff[c])}
        data = {(r, k): s for k, s in diff.items()}
        for (r, lrow), (_, rrow) in paired:
            data.update(((r, k), s) for k, s in poly_sub(lrow, rrow).items())
        return entry, _numeric_residual_rank(GradedOperator(lhs.space, data))
    return None, None


def _scalar_failure_exact(label, lhs, rhs):
    if not isinstance(lhs, Scalar):
        raise TypeError("cannot compare %r" % type(lhs))
    if lhs == rhs:
        return None
    diff = lhs - rhs
    if diff.is_zero():
        return None
    return {"check": label, "difference": str(diff)}


def _scalar_failure_numeric(label, lhs, rhs, q0, x0, tol):
    va = lhs.numeric_eval(q0, x0)
    vb = rhs.numeric_eval(q0, x0)
    scale = max(1.0, abs(va), abs(vb))
    if abs(va - vb) > tol * scale:
        return {"check": label, "lhs": repr(va), "rhs": repr(vb)}
    return None


def run_comparisons(
    relation,
    spins,
    comparisons,
    mode="exact",
    q0=None,
    x0=None,
    tol=NUMERIC_TOL,
):
    """Fold labelled (lhs, rhs) pairs into a VerificationReport.

    comparisons is an iterable of (label, lhs, rhs) where lhs and rhs are
    operators (GradedOperators or spins.Products, read row by row) or
    Scalars.  In exact mode the difference must vanish
    structurally; in numeric mode entries are compared at (q0, x0), each
    coordinate defaulting on its own.  The report's elapsed_ms is left to
    the caller (suite.verify_relation charges the building too).  No
    comparison at all raises ValueError: it would pass having checked
    nothing.
    """
    check_point(mode, q0, x0)
    q0 = _DEFAULT_POINT[0] if q0 is None else q0
    x0 = _DEFAULT_POINT[1] if x0 is None else x0
    failing = rank = label = None
    for label, lhs, rhs in comparisons:
        if isinstance(lhs, (GradedOperator, Product)):
            failing, rank = _operator_failure(
                label, lhs, rhs, mode == "exact", q0, x0, tol)
        elif mode == "exact":
            failing = _scalar_failure_exact(label, lhs, rhs)
        else:
            failing = _scalar_failure_numeric(label, lhs, rhs, q0, x0, tol)
        if failing is not None:
            break
    spins = tuple(Fraction(s) for s in spins)
    if label is None:
        raise ValueError("%s(%s) builds no comparison to check"
                         % (relation, ", ".join(map(str, spins))))
    return VerificationReport(
        relation=relation,
        spins=spins,
        mode=mode,
        status="pass" if failing is None else "fail",
        failing_entry=failing,
        residual_rank=rank,
    )
