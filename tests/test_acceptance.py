"""End-to-end acceptance gate.

Ten numbered checks, one printed PASS/FAIL line each (run with -s to see
them as they happen).  Every check is exact unless it states a tolerance,
and the timed ones assert their own budget.
"""

import contextlib
import io
import json
import time
from fractions import Fraction as F

from dynrmat.cli import main as cli_main
from dynrmat.lame import verify_classical_limit
from dynrmat.numeric import verify_numeric_coherence, verify_prelimit_convergence
from dynrmat.spins import check_algebra
from dynrmat.suite import verify_relation

H = F(1, 2)


def _line(ok, tag, detail=""):
    status = "PASS" if ok else "FAIL"
    msg = "%s  %s" % (status, tag)
    if detail:
        msg += "  (%s)" % detail
    print(msg, flush=True)
    return msg


def _all_ok(reports):
    bad = [r for r in reports if not r.ok]
    return not bad, "; ".join(r.line() for r in bad[:3])


def test_01_representations_and_base_intertwiner():
    t0 = time.monotonic()
    failures = []
    for j in (F(0), H, F(1), F(3, 2), F(2), F(5, 2)):
        ok, message = check_algebra(j)
        if not ok:
            failures.append("algebra j=%s: %s" % (j, message))
    reports = [
        verify_relation("RD_INTERTWINER", pair)
        for pair in ((H, H), (H, F(1)), (F(1), F(1)))
    ]
    ok_r, why = _all_ok(reports)
    elapsed = time.monotonic() - t0
    ok = not failures and ok_r and elapsed < 10.0
    msg = _line(ok, "01 representations and base intertwiner", "%.2fs" % elapsed)
    assert ok, msg + " " + "; ".join(failures) + why


def test_02_dynamical_exchange_equation():
    t0 = time.monotonic()
    triples = [
        (H, H, H),
        (H, H, F(1)),
        (H, F(1), H),
        (F(1), H, H),
        (F(1), F(1), H),
    ]
    reports = [verify_relation("GNF", t) for t in triples]
    ok_r, why = _all_ok(reports)
    elapsed = time.monotonic() - t0
    ok = ok_r and elapsed < 300.0
    msg = _line(ok, "02 dynamical exchange equation", "%.2fs" % elapsed)
    assert ok, msg + " " + why


def test_03_shifted_cocycle_and_coboundary():
    reports = [
        verify_relation("COCYCLE", (H, H, H)),
        verify_relation("COCYCLE", (H, F(1), H)),
        verify_relation("COBOUNDARY", (H, H)),
        verify_relation("COBOUNDARY", (H, F(1))),
        verify_relation("COBOUNDARY", (F(1), F(1))),
    ]
    ok, why = _all_ok(reports)
    msg = _line(ok, "03 shifted cocycle and coboundary")
    assert ok, msg + " " + why


def test_04_quasi_hopf_suite():
    reports = [
        verify_relation(name, (H, H, H))
        for name in (
            "SHIFTED_COASSOC",
            "PHI_CONJUGATION",
            "QUASI_YBE",
            "QUASITRIANG_LEFT",
            "QUASITRIANG_RIGHT",
            "PHI_FORMS",
        )
    ]
    reports.append(verify_relation("PHI_FORMS", (H, H, F(1))))
    ok, why = _all_ok(reports)
    msg = _line(ok, "04 quasi-Hopf suite")
    assert ok, msg + " " + why


def test_05_endpoint_limits():
    reports = [
        verify_relation("TWIST_LIMITS", (H, F(1))),
        verify_relation("TWIST_LIMITS", (H, H)),
    ]
    ok, why = _all_ok(reports)
    msg = _line(ok, "05 endpoint limits of the twist family")
    assert ok, msg + " " + why


def test_06_boundary_dictionary():
    reports = [
        verify_relation("M_DICTIONARY", (H,)),
        verify_relation("M_DICTIONARY", (F(1),)),
        verify_relation("M_LIMIT_FORMULA", (H,)),
        verify_relation("M_LIMIT_FORMULA", (F(1),)),
        verify_relation("R_DICTIONARY", (H, H)),
        verify_relation("F_DICTIONARY", (H, H)),
        verify_prelimit_convergence(q0=0.7, x0=0.3, mus=(20, 30, 40), tol=1e-6),
    ]
    ok, why = _all_ok(reports)
    msg = _line(ok, "06 boundary dictionary and coupling limit")
    assert ok, msg + " " + why


def test_07_difference_operator_spectra():
    t0 = time.monotonic()
    reports = []
    for j in (1, 2, 3, 4):
        reports.append(verify_relation("INTERTWINING", (j,)))
    for j in (1, 2, 3):
        for name in (
            "WAVEFUNCTION_ROUTES",
            "EIGEN_EQUATION",
            "EXCLUSION",
            "RESIDUES",
            "TRANSFER_RESTRICTION",
        ):
            reports.append(verify_relation(name, (j,)))
    for j in (H, F(1)):
        reports.append(verify_relation("RLL", (j,)))
    ok_r, why = _all_ok(reports)
    elapsed = time.monotonic() - t0
    ok = ok_r and elapsed < 300.0
    msg = _line(ok, "07 difference operator spectra", "%.2fs" % elapsed)
    assert ok, msg + " " + why


def test_08_classical_limit():
    reports = [
        verify_classical_limit(j, ks=(2, 3), zs=(0.5, 1.0), tol=1e-4)
        for j in (1, 2)
    ]
    ok, why = _all_ok(reports)
    msg = _line(ok, "08 classical limit of the action")
    assert ok, msg + " " + why


def test_09_exact_numeric_coherence():
    report = verify_numeric_coherence(points=20, tol=1e-10)
    ok = report.ok
    msg = _line(ok, "09 exact/numeric coherence at 20 random points")
    assert ok, msg + " " + report.line()


def _capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_10_byte_reproducibility(eager_workers):
    # every operator comparison of the sweep checks its rows in workers
    code1, sweep1 = _capture(["verify", "all", "--format", "json", "--jobs", "4"])
    code2, sweep2 = _capture(["verify", "all", "--format", "json", "--jobs", "2"])
    ok = code1 == 0 and code2 == 0 and sweep1 == sweep2 and bool(eager_workers)
    dumps = [
        ["dump", "rmatrix", "--spins", "1/2,1/2"],
        ["dump", "twist", "--spins", "1/2,1"],
        ["dump", "boundary", "--spins", "1"],
        ["dump", "phi", "--spins", "1/2,1/2,1/2"],
        ["dump", "lax", "--spins", "1/2"],
        ["dump", "hamiltonian", "--spins", "2"],
    ]
    for argv in dumps:
        c1, d1 = _capture(argv)
        c2, d2 = _capture(argv)
        ok = ok and c1 == 0 and c2 == 0 and d1 == d2
        json.loads(d1)
    msg = _line(ok, "10 byte-reproducible reports and dumps")
    assert ok, msg
