"""Verification reports shared by every identity checker in the package."""

from fractions import Fraction

from .scalar import Scalar
from .spins import GradedOperator

__all__ = ["VerificationReport", "run_comparisons", "NUMERIC_TOL"]

NUMERIC_TOL = 1e-9
_DEFAULT_POINT = (0.37, 0.81)


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
    return _float_rank([[vals.get((r, c), 0) for c in cols] for r in rows])


def _first_failure_exact(label, lhs, rhs):
    # equal canonical forms are equal values: only a failure needs the
    # difference, which the report prints
    if isinstance(lhs, (GradedOperator, Scalar)) and lhs == rhs:
        return None, None
    diff = lhs - rhs
    if isinstance(diff, GradedOperator):
        if diff.is_zero():
            return None, None
        r, c, s = diff.first_nonzero()
        entry = {
            "check": label,
            "row": r,
            "col": c,
            "difference": str(s),
        }
        return entry, _numeric_residual_rank(diff)
    if isinstance(diff, Scalar):
        if diff.is_zero():
            return None, None
        return {"check": label, "difference": str(diff)}, None
    raise TypeError("cannot compare %r" % type(diff))


def _first_failure_numeric(label, lhs, rhs, q0, x0, tol):
    if isinstance(lhs, GradedOperator):
        keys = set(lhs.data) | set(rhs.data)
        for key in sorted(keys):
            va = lhs.entry(*key).numeric_eval(q0, x0)
            vb = rhs.entry(*key).numeric_eval(q0, x0)
            scale = max(1.0, abs(va), abs(vb))
            if abs(va - vb) > tol * scale:
                return {
                    "check": label,
                    "row": key[0],
                    "col": key[1],
                    "lhs": repr(va),
                    "rhs": repr(vb),
                }
        return None
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
    GradedOperators or Scalars.  In exact mode the difference must vanish
    structurally; in numeric mode entries are compared at (q0, x0), each
    coordinate defaulting on its own.  The report's elapsed_ms is left to
    the caller (suite.verify_relation charges the building too).
    """
    q0 = _DEFAULT_POINT[0] if q0 is None else q0
    x0 = _DEFAULT_POINT[1] if x0 is None else x0
    failing = None
    rank = None
    for label, lhs, rhs in comparisons:
        if mode == "exact":
            failing, rank = _first_failure_exact(label, lhs, rhs)
        elif mode == "numeric":
            failing = _first_failure_numeric(label, lhs, rhs, q0, x0, tol)
        else:
            raise ValueError("unknown mode %r" % mode)
        if failing is not None:
            break
    return VerificationReport(
        relation=relation,
        spins=tuple(Fraction(s) for s in spins),
        mode=mode,
        status="pass" if failing is None else "fail",
        failing_entry=failing,
        residual_rank=rank,
    )
