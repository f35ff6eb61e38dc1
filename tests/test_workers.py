"""Operator comparisons checked in forked row workers.

A worker checks an interleaved block of rows and writes back only its least
failing row.  The tests force the worker path (`eager_workers` forks at the
start of every operator comparison) and require the reports of jobs=1, byte
for byte; they also require that every worker is reaped on every path and
that the check stays in one process where a worker would be unsafe or
invisible.
"""

import contextlib
import cProfile
import io
import json
import os
import pstats
import subprocess
import sys
import threading
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from dynrmat import report
from dynrmat.cli import main
from dynrmat.ratfunc import RationalFunction
from dynrmat.report import resolve_jobs, run_comparisons
from dynrmat.scalar import SC_ONE, sc_coeff, xbracket
from dynrmat.spins import Product, _times, diag_scalars
from dynrmat.suite import verify_relation
from dynrmat.twist import gnf_r

H = F(1, 2)
SRC = Path(__file__).resolve().parent.parent / "src"


def _bytes(rep):
    return rep.line(), json.dumps(rep.to_jsonable(stable=True), sort_keys=True)


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name, spins, mode", [
    ("GNF", (1, 1, 1), "exact"),
    ("COCYCLE", (1, H, 1), "exact"),
    ("QUASI_YBE", (H, H, H), "exact"),
    ("GNF", (1, 1, H), "numeric"),
])
@pytest.mark.parametrize("jobs", [2, 3])
def test_worker_reports_equal_the_sequential_ones(eager_workers, name, spins,
                                                  mode, jobs):
    seq = verify_relation(name, spins, mode=mode, jobs=1)
    assert not eager_workers
    par = verify_relation(name, spins, mode=mode, jobs=jobs)
    assert len(eager_workers) >= jobs - 1
    assert seq.ok and _bytes(par) == _bytes(seq)
    _no_children()


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_verify_all_json_is_the_same_in_workers(eager_workers, jobs):
    seq = _run("verify", "all", "--format", "json", "--jobs", "1")
    assert not eager_workers
    par = _run("verify", "all", "--format", "json", "--jobs", jobs)
    assert eager_workers
    assert seq[0] == 0 and par == seq
    _no_children()


def test_cli_refuses_a_job_count_below_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "GNF", "--spins", "1/2,1/2,1/2", "--jobs", "0"])
    assert exc.value.code == 2
    assert "jobs must be a positive integer" in capsys.readouterr().err


def test_jobs_none_is_the_cpus_this_process_may_use():
    assert resolve_jobs(None) == len(os.sched_getaffinity(0))
    assert resolve_jobs(3) == 3
    for bad in (0, -1, 1.5, "2"):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(bad)


# rows 3 and 6 of the right side differ: with two processes from row 0,
# row 3 is in the worker's block and row 6 in the caller's
PLANTED = (3, 6)


def _planted():
    r = gnf_r(1, 1)
    d = diag_scalars(r.space, [sc_coeff(2) if i in PLANTED else SC_ONE
                               for i in range(r.space.dim)])
    return [("planted", Product(r, r), Product(d, r, r))]


def _planted_report(jobs):
    return run_comparisons("PLANTED", (1, 1), _planted(), jobs=jobs)


def test_planted_failure_reports_the_least_failing_row(eager_workers):
    seq = _planted_report(1)
    assert seq.failing_entry["row"] == PLANTED[0]
    assert seq.residual_rank == 2
    for jobs in (2, 3):
        par = _planted_report(jobs)
        assert eager_workers
        assert par.failing_entry == seq.failing_entry
        assert par.residual_rank == seq.residual_rank
        assert _bytes(par) == _bytes(seq)
    _no_children()


def test_jobs_is_capped_at_the_cpus_this_process_may_use(eager_workers,
                                                          monkeypatch):
    seq = _planted_report(1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    par = _planted_report(1000)
    assert len(eager_workers) == 1
    assert _bytes(par) == _bytes(seq)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _bytes(_planted_report(1000)) == _bytes(seq)
    assert len(eager_workers) == 1
    _no_children()


# 1/[x - 1] has a pole at x0 = q0, so numeric mode at (2, 2) raises on it
POLE_POINT = 2.0


def _fail_and_raise(fail_row, raise_row, jobs):
    """A numeric comparison of two diagonal operators whose `fail_row`
    differs and whose `raise_row` cannot be evaluated."""
    space = gnf_r(1, 1).space
    values = [SC_ONE] * space.dim
    values[fail_row] = sc_coeff(2)
    values[raise_row] = xbracket(-1).inv()
    pair = [("planted", diag_scalars(space, [SC_ONE] * space.dim),
             diag_scalars(space, values))]
    return run_comparisons("PLANTED", (1, 1), pair, mode="numeric",
                           q0=POLE_POINT, x0=POLE_POINT, jobs=jobs)


def test_a_row_that_raises_is_where_the_sequential_check_stops(eager_workers):
    # with two processes from row 0, row 3 is in the worker's block and
    # row 4 in the caller's, which the caller checks before reading it
    seq = _fail_and_raise(3, 4, 1)
    assert seq.failing_entry["row"] == 3
    par = _fail_and_raise(3, 4, 2)
    assert eager_workers
    assert _bytes(par) == _bytes(seq)
    _no_children()
    with pytest.raises(ZeroDivisionError):
        _fail_and_raise(4, 3, 1)
    with pytest.raises(ZeroDivisionError):
        _fail_and_raise(4, 3, 2)
    assert len(eager_workers) == 2
    _no_children()


def _in_workers(monkeypatch, action):
    """Make the row-block check run `action()` in every worker first."""
    caller = os.getpid()
    verdict = report._block_verdict

    def block_verdict(*args):
        if os.getpid() != caller:
            action()
        return verdict(*args)

    monkeypatch.setattr(report, "_block_verdict", block_verdict)


def _raise():
    raise RuntimeError("worker fails")


@pytest.mark.parametrize("action", [_raise, lambda: os._exit(0),
                                    lambda: os._exit(3)],
                         ids=["raises", "no-verdict", "exit-3"])
def test_a_lost_worker_block_is_checked_by_the_caller(eager_workers, monkeypatch,
                                                       action):
    seq = _planted_report(1)
    _in_workers(monkeypatch, action)
    par = _planted_report(2)
    assert eager_workers
    assert _bytes(par) == _bytes(seq)
    _no_children()
    assert verify_relation("GNF", (1, H, H), jobs=3).ok
    _no_children()


def test_every_worker_is_reaped(eager_workers, monkeypatch):
    _no_children()
    assert verify_relation("GNF", (1, H, H), jobs=2).ok
    _no_children()
    assert not _planted_report(2).ok
    _no_children()
    with monkeypatch.context() as m:
        _in_workers(m, lambda: os._exit(1))
        assert not _planted_report(3).ok
    _no_children()
    # the caller raises while its workers still run: they are killed
    caller = os.getpid()

    def block_verdict(*args):
        if os.getpid() != caller:
            time.sleep(30)
        raise KeyboardInterrupt

    monkeypatch.setattr(report, "_block_verdict", block_verdict)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify_relation("GNF", (1, H, H), jobs=3)
    assert time.monotonic() - t0 < 10
    assert eager_workers
    _no_children()


def _no_fork():
    raise AssertionError("os.fork called")


def _profiled_counts(caches, jobs):
    for c in caches:
        c.cache_clear()
    profile = cProfile.Profile()
    profile.enable()
    try:
        rep = verify_relation("GNF", (1, 1, H), jobs=jobs)
    finally:
        profile.disable()
    stats = pstats.Stats(profile).stats
    counts = []
    for func in (_times, RationalFunction.__mul__):
        code = func.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts.append(stats[key][1])
    return rep, counts


def test_a_profiled_check_stays_in_one_process(eager_workers, monkeypatch,
                                               cold_caches):
    seq, seq_counts = _profiled_counts(cold_caches, 1)
    monkeypatch.setattr(os, "fork", _no_fork)
    par, par_counts = _profiled_counts(cold_caches, 2)
    assert par_counts == seq_counts and min(seq_counts) > 0
    assert _bytes(par) == _bytes(seq)


def test_a_second_thread_keeps_the_check_in_one_process(eager_workers,
                                                        monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert verify_relation("GNF", (1, H, H), jobs=2).ok
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_no_fork_keeps_the_check_in_one_process(eager_workers, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert verify_relation("GNF", (1, H, H), jobs=2).ok
    assert not eager_workers


def test_importing_the_package_starts_no_process_pool_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    script = ("import sys, dynrmat; print(sorted(m for m in sys.modules if "
              "m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
