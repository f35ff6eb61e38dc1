"""Verification reports shared by every identity checker in the package.

Operator sides, evaluated GradedOperators and unevaluated spins.Products
alike, are compared one row at a time in increasing row order, and each
row is dropped once it is checked.  Row r of a product A1 ... An is
e_r A1 ... An, so a row is exact on its own whatever the factors are, and a
product side is never held whole.  The first row that differs holds the
least failing (row, col), the entry an evaluated difference would report;
only then are the remaining rows built, for the residual rank.

Rows are independent, so one operator comparison may use up to `jobs`
processes, but never more than the CPUs this process may run on, which is
what jobs=None asks for.  The row-block rule: rows are checked in order
until, before some row r >= 1 with at least 2 rows left, the rows left at
the rate of the r rows checked so far would take 2 FORK_COST_S or more,
twice what a worker costs to start; a comparison too cheap for that never
forks, and with FORK_COST_S 0 the fork comes before row 0.  Then
n = min(jobs, rows left) processes split the rows left into interleaved
blocks: the k-th of them goes to block k mod n.  The caller forks one
worker per block but the first, which it checks itself, and reaps every
worker on every path.  A worker inherits the built factors, builds its rows
by the same kernel, checks them by the same row test, and writes back only
the least row of its block that fails or raises, or that none does; no
operator crosses a process boundary.  A worker that dies or writes no
verdict has its block checked by the caller.

The check stays in one process when jobs is 1, when a profile or trace
function is set (a worker's calls are invisible to it, and per-layer counts
must not depend on jobs), when os.fork is missing, and when more than one
thread is running (a forked thread-holding process can deadlock).

A report cannot depend on jobs.  Each row's verdict, pass, fail or raise,
is the same in any process, because a row is built alone from the same
factors by the same kernel and checked by the same test, so the least row
that fails or raises over all blocks is the row where the sequential check
stops.  When there is one, the sequential check goes on from it, and that
check alone builds the failing entry and the residual rank, or raises.
"""

import os
import sys
import threading
import time
from fractions import Fraction

from .polys import poly_sub
from .scalar import SC_ZERO, Scalar
from .spins import GradedOperator, Product

__all__ = ["VerificationReport", "run_comparisons", "check_point",
           "resolve_jobs", "NUMERIC_TOL"]

NUMERIC_TOL = 1e-9
_DEFAULT_POINT = (0.37, 0.81)
# seconds a worker costs to start: a fork, write and reap round trip with
# the package loaded takes a median of about 1.5 ms on a 2-CPU host (1.1 to
# 2.2 ms as the host's speed varies)
FORK_COST_S = 0.0015


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


def resolve_jobs(jobs):
    """The number of processes `jobs` asks for: None means the CPUs this
    process may run on.  ValueError unless it is None or a positive int."""
    if jobs is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if type(jobs) is not int or jobs < 1:
        raise ValueError("jobs must be a positive integer or None, got %r"
                         % (jobs,))
    return jobs


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


def _row_failure_numeric(label, r, lrow, rrow, q0, x0):
    for c in sorted(lrow.keys() | rrow.keys()):
        va = lrow.get(c, SC_ZERO).numeric_eval(q0, x0)
        vb = rrow.get(c, SC_ZERO).numeric_eval(q0, x0)
        scale = max(1.0, abs(va), abs(vb))
        if abs(va - vb) > NUMERIC_TOL * scale:
            return {"check": label, "row": r, "col": c,
                    "lhs": repr(va), "rhs": repr(vb)}
    return None


def _row_failure(label, r, lrow, rrow, exact, q0, x0):
    """(failing entry, difference of the row or None in numeric mode) of
    row r, else None if its two sides agree."""
    if not exact:
        failing = _row_failure_numeric(label, r, lrow, rrow, q0, x0)
        return None if failing is None else (failing, None)
    # equal canonical forms are equal values: only a failure needs the
    # difference, which the report prints
    if lrow == rrow:
        return None
    diff = poly_sub(lrow, rrow)
    if not diff:
        return None
    c = min(diff)
    return {"check": label, "row": r, "col": c, "difference": str(diff[c])}, diff


def _may_fork():
    """Whether a worker can check rows without changing what this process
    sees: see the module docstring."""
    return (hasattr(os, "fork") and sys.getprofile() is None
            and sys.gettrace() is None and threading.active_count() == 1)


def _block_verdict(lhs, rhs, block, failure):
    """The least row of `block` whose check fails or raises, else None.  A
    row that raises is one where the sequential check stops too."""
    k = 0
    try:
        for (r, lrow), (_, rrow) in zip(lhs.rows(block), rhs.rows(block)):
            if failure(r, lrow, rrow) is not None:
                return r
            k += 1
    except Exception:
        return block[k]
    return None


def _fork_worker(lhs, rhs, block, failure):
    """(pid, read end of its pipe) of a worker that writes the verdict of
    `block`, or None if no worker could be started."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        # the worker: whatever happens, it never returns into the caller's
        # stack and flushes none of its buffers
        code = 1
        try:
            os.close(rfd)
            r = _block_verdict(lhs, rhs, block, failure)
            os.write(wfd, b"pass" if r is None else b"%d" % r)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, rfd


_NO_VERDICT = object()


def _stop(pid, rfd):
    """Kill a worker, close its pipe and reap it."""
    # imported here: only a check cut short needs it, and its import alone
    # costs about 1 ms
    import signal

    os.kill(pid, signal.SIGKILL)
    os.close(rfd)
    os.waitpid(pid, 0)


def _reap(pid, rfd):
    """The verdict a worker wrote, once it has exited and been reaped, or
    _NO_VERDICT if it wrote none or did not exit cleanly."""
    data = b""
    try:
        while chunk := os.read(rfd, 64):
            data += chunk
    except BaseException:
        _stop(pid, rfd)
        raise
    os.close(rfd)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return _NO_VERDICT
    if data == b"pass":
        return None
    return int(data) if data.isdigit() else _NO_VERDICT


def _in_blocks(lhs, rhs, rows, n, failure):
    """The least row of `rows` whose check fails or raises, else None.  The
    rows are split into n interleaved blocks: the caller checks the first,
    a forked worker each other one."""
    blocks = [rows[k::n] for k in range(n)]
    live = {}
    try:
        for k in range(1, n):
            worker = _fork_worker(lhs, rhs, blocks[k], failure)
            if worker is not None:
                live[k] = worker
        verdicts = [_block_verdict(lhs, rhs, blocks[0], failure)]
        for k in range(1, n):
            verdict = _reap(*live.pop(k)) if k in live else _NO_VERDICT
            if verdict is _NO_VERDICT:
                verdict = _block_verdict(lhs, rhs, blocks[k], failure)
            verdicts.append(verdict)
    finally:
        for worker in live.values():
            _stop(*worker)
    failing = [r for r in verdicts if r is not None]
    return min(failing) if failing else None


def _operator_failure(label, lhs, rhs, exact, q0, x0, jobs):
    """The first failing entry of two operator sides, and in exact mode the
    residual rank of their difference.

    Both sides are read one row at a time in increasing row order, and each
    row is dropped once it is checked, so a side that is a spins.Product is
    never held whole.  The first row that differs holds the least failing
    (row, col); only then are the remaining rows read, to assemble the
    difference whose rank the report gives.  With jobs > 1 the rows left
    once they would take 2 FORK_COST_S at the rate so far may be checked
    in blocks, in up to `jobs` processes; the check then goes on from the
    least row that fails or raises there.
    """
    if lhs.space != rhs.space:
        raise ValueError("operator spaces differ")
    dim = lhs.space.dim

    def failure(r, lrow, rrow):
        return _row_failure(label, r, lrow, rrow, exact, q0, x0)

    forking = jobs > 1 and _may_fork()
    t0 = time.perf_counter()
    paired = zip(lhs.rows(), rhs.rows())
    r = 0
    while r < dim:
        # fork once the rows left, at the rate so far, would take 2
        # FORK_COST_S; at r = 0 the rate is unknown, so only if forks are free
        if (forking and dim - r >= 2 and (r or not FORK_COST_S)
                and (time.perf_counter() - t0) * (dim - r)
                >= 2 * FORK_COST_S * r):
            forking = False
            r = _in_blocks(lhs, rhs, range(r, dim), min(jobs, dim - r), failure)
            if r is None:
                return None, None
            paired = zip(lhs.rows(range(r, dim)), rhs.rows(range(r, dim)))
        (_, lrow), (_, rrow) = next(paired)
        found = failure(r, lrow, rrow)
        r += 1
        if found is None:
            continue
        entry, diff = found
        if diff is None:
            return entry, None
        data = {(entry["row"], k): s for k, s in diff.items()}
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


def _scalar_failure_numeric(label, lhs, rhs, q0, x0):
    va = lhs.numeric_eval(q0, x0)
    vb = rhs.numeric_eval(q0, x0)
    scale = max(1.0, abs(va), abs(vb))
    if abs(va - vb) > NUMERIC_TOL * scale:
        return {"check": label, "lhs": repr(va), "rhs": repr(vb)}
    return None


def run_comparisons(
    relation,
    spins,
    comparisons,
    mode="exact",
    q0=None,
    x0=None,
    jobs=None,
):
    """Fold labelled (lhs, rhs) pairs into a VerificationReport.

    comparisons is an iterable of (label, lhs, rhs) where lhs and rhs are
    operators (GradedOperators or spins.Products, read row by row) or
    Scalars.  In exact mode the difference must vanish
    structurally; in numeric mode entries are compared at (q0, x0), each
    coordinate defaulting on its own, to a relative NUMERIC_TOL.  The report's elapsed_ms is left to
    the caller (suite.verify_relation charges the building too).  No
    comparison at all raises ValueError: it would pass having checked
    nothing.  One operator comparison may check its rows in up to `jobs`
    processes, never more than the CPUs this process may run on (None: all
    of them); the report is the one jobs=1 gives, byte for byte.
    """
    check_point(mode, q0, x0)
    jobs = min(resolve_jobs(jobs), resolve_jobs(None))
    q0 = _DEFAULT_POINT[0] if q0 is None else q0
    x0 = _DEFAULT_POINT[1] if x0 is None else x0
    failing = rank = label = None
    for label, lhs, rhs in comparisons:
        if isinstance(lhs, (GradedOperator, Product)):
            failing, rank = _operator_failure(
                label, lhs, rhs, mode == "exact", q0, x0, jobs)
        elif mode == "exact":
            failing = _scalar_failure_exact(label, lhs, rhs)
        else:
            failing = _scalar_failure_numeric(label, lhs, rhs, q0, x0)
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
