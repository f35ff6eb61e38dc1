"""Verification reports shared by every identity checker in the package."""

from dataclasses import dataclass
from fractions import Fraction

from .scalar import Scalar
from .spins import GradedOperator

__all__ = ["VerificationReport", "run_comparisons", "NUMERIC_TOL"]

NUMERIC_TOL = 1e-9
_DEFAULT_POINT = (0.37, 0.81)


@dataclass
class VerificationReport:
    relation: str
    spins: tuple
    mode: str
    status: str
    failing_entry: dict | None = None
    residual_rank: int | None = None
    elapsed_ms: float = 0.0

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


def _numeric_residual_rank(diff):
    try:
        import numpy as np
    except ImportError:  # diagnostics only; exact result already decided
        return None
    q0, x0 = _DEFAULT_POINT
    n = diff.space.dim
    mat = np.zeros((n, n), dtype=complex)
    try:
        for (r, c), s in diff.data.items():
            mat[r, c] = s.numeric_eval(q0, x0)
    except (ZeroDivisionError, ArithmeticError):
        return None
    return int(np.linalg.matrix_rank(mat, tol=1e-8))


def _first_failure_exact(label, lhs, rhs):
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
