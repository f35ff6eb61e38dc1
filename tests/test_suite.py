"""The relation table, the one verify path, and the manifest."""

import hashlib
import json
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from pathlib import Path

import pytest

import dynrmat
from dynrmat import twist
from dynrmat.report import (
    _DEFAULT_POINT,
    VerificationReport,
    _float_rank,
    _numeric_residual_rank,
    run_comparisons,
)
from dynrmat.scalar import SC_ONE, Scalar, xpow
from dynrmat.spins import GradedOperator, Product
from dynrmat.suite import (
    MANIFEST_VERSION,
    RELATIONS,
    SuiteEntry,
    default_manifest,
    run_entry,
    run_suite,
    verify_relation,
)


def test_manifest_version_pinned():
    assert MANIFEST_VERSION == 1


def test_manifest_covers_every_registered_relation():
    names = {e.relation for e in default_manifest()}
    assert names == set(RELATIONS)
    assert len(RELATIONS) == 32
    assert "ALGEBRA" in names
    assert "PRELIMIT_3J" in names and "NUMERIC_COHERENCE" in names


def test_manifest_family_counts_pinned():
    # the family labels feed the benchmark's per-family shares
    counts = Counter(e.family for e in default_manifest())
    assert counts == {"lame": 27, "twist": 24, "symbols": 8, "spins": 6, "numeric": 2}


def test_manifest_is_deterministic():
    assert default_manifest() == default_manifest()


def test_family_resolution():
    assert RELATIONS["ALGEBRA"][0] == "spins"
    assert RELATIONS["GNF"][0] == "twist"
    assert RELATIONS["M_DICTIONARY"][0] == "symbols"
    assert RELATIONS["EIGEN_EQUATION"][0] == "lame"
    assert RELATIONS["PRELIMIT_3J"][0] == "numeric"
    for entry in default_manifest():
        assert entry.family == RELATIONS[entry.relation][0]
    with pytest.raises(KeyError):
        verify_relation("NOPE", ())


def test_arity_is_checked_from_the_table():
    for name, (_, arity, _) in RELATIONS.items():
        with pytest.raises(ValueError):
            verify_relation(name, (F(1),) * (arity + 1))


def test_run_entry_each_family():
    H = F(1, 2)
    cases = [
        SuiteEntry("spins", "ALGEBRA", (F(1),)),
        SuiteEntry("twist", "COBOUNDARY", (H, H)),
        SuiteEntry("symbols", "M_DICTIONARY", (H,)),
        SuiteEntry("lame", "EXCLUSION", (F(1),)),
    ]
    for entry in cases:
        report = run_entry(entry)
        assert report.ok, report.line()
        assert report.relation == entry.relation


def test_whole_manifest_never_reaches_a_generic_gcd(monkeypatch):
    # every check of the manifest cancels by its factored paths, so the
    # modular gcd of either level stays at 0 calls on a sweep
    from dynrmat import polys, ratfunc

    def refuse(a, b):
        raise AssertionError("generic gcd reached")

    monkeypatch.setattr(ratfunc, "xp_gcd", refuse)
    monkeypatch.setattr(polys, "qp_gcd", refuse)
    reports = run_suite(default_manifest())
    assert len(reports) == 67
    assert [r for r in reports if not r.ok] == []


def test_whole_manifest_never_inverts_a_multi_row_numerator(monkeypatch):
    # every product of known factors is built by scalar.qint_monomial, so
    # no check of the manifest inverts a numerator of more than one power
    # of x, or a value with a G: either would build a value with a G
    from dynrmat.ratfunc import RationalFunction

    inverse = RationalFunction.inverse

    def refuse(self):
        if self.g is not None or len(self.n.rows) > 1:
            raise AssertionError("multi-row inverse")
        return inverse(self)

    monkeypatch.setattr(RationalFunction, "inverse", refuse)
    reports = run_suite(default_manifest())
    assert len(reports) == 67
    assert [r for r in reports if not r.ok] == []


def test_whole_manifest_never_inverts_a_scalar(monkeypatch):
    # every division of the manifest is by a product of known factors, kept
    # as exponents (scalar.qint_monomial, symbols.ContinuedExpr) until it
    # is built, so no check calls Scalar.inv
    from dynrmat.scalar import Scalar

    def refuse(self):
        raise AssertionError("Scalar.inv called")

    monkeypatch.setattr(Scalar, "inv", refuse)
    reports = run_suite(default_manifest())
    assert len(reports) == 67
    assert [r for r in reports if not r.ok] == []


def test_cold_sweep_builds_rational_coefficients_only(cold_caches,
                                                      monkeypatch):
    # z8 is a phase on a Scalar term, never a coefficient: over one cold
    # manifest-v1 pass every QRat holds int and Fraction coefficients only,
    # every XNum row is packed, and phases occur
    from dynrmat.polys import QRat, XNum
    from dynrmat.scalar import Scalar

    seen = Counter()

    def watch(cls, check):
        init = cls.__init__

        def checked(self, *args):
            init(self, *args)
            check(self)

        monkeypatch.setattr(cls, "__init__", checked)

    def qrat(x):
        for p in (x.num, x._den or {}):
            seen.update(type(c).__name__ for c in p.values())

    def xnum(x):
        seen.update("packed" if type(n) is int and x.b else "unpacked"
                    for n in x.rows.values())

    def phases(s):
        seen.update("phase" for atoms in s.terms
                    if atoms and atoms[-1][0] == "z8")

    watch(QRat, qrat)
    watch(XNum, xnum)
    watch(Scalar, phases)
    reports = run_suite(default_manifest())
    assert [r for r in reports if not r.ok] == []
    assert {"packed", "phase"} <= set(seen) <= {"int", "Fraction", "packed",
                                                "phase"}, seen


def test_every_manifest_entry_builds_a_comparison():
    # run_comparisons refuses an empty list, which would pass having
    # checked nothing; no manifest entry comes near that
    for entry in default_manifest():
        built = RELATIONS[entry.relation][2](*entry.spins)
        if not isinstance(built, VerificationReport):
            assert len(list(built)) >= 1, entry
    with pytest.raises(ValueError, match="no comparison"):
        verify_relation("RESIDUES", (0,))


def test_parallel_runner_preserves_manifest_order(eager_workers):
    manifest = default_manifest()[:8]
    seq = run_suite(manifest, jobs=1)
    assert not eager_workers
    par = run_suite(manifest, jobs=4)
    assert eager_workers
    key = lambda r: (r.relation, r.spins, r.status)
    assert [key(r) for r in seq] == [key(r) for r in par]
    assert [r.relation for r in seq] == [e.relation for e in manifest]


def _slow_comparisons(spin):
    time.sleep(0.05)  # building the comparisons
    return [("one", SC_ONE, SC_ONE)]


def _slow_report(spin):
    time.sleep(0.05)  # a check that decides and reports on its own
    return VerificationReport("SLOW", (spin,), "numeric", "pass")


@pytest.mark.parametrize("family", ["symbols", "lame"])
def test_elapsed_ms_includes_building_the_comparisons(monkeypatch, family):
    monkeypatch.setitem(RELATIONS, "SLOW", (family, 1, _slow_comparisons))
    report = run_entry(SuiteEntry(family, "SLOW", (F(1),)))
    assert report.ok
    assert report.elapsed_ms >= 50


def test_elapsed_ms_includes_a_check_that_reports_on_its_own(monkeypatch):
    monkeypatch.setitem(RELATIONS, "SLOW", ("lame", 1, _slow_report))
    report = run_entry(SuiteEntry("lame", "SLOW", (F(1),)))
    assert report.ok
    assert report.elapsed_ms >= 50


def test_numeric_point_defaults_each_coordinate_alone():
    # a known-false comparison whose sides depend on x only: with only x0
    # given, the failing values must be evaluated at that x0
    report = run_comparisons(
        "SANITY", (), [("x", xpow(1), SC_ONE)], mode="numeric", x0=0.5
    )
    assert not report.ok
    assert report.failing_entry["lhs"] == repr(xpow(1).numeric_eval(0.37, 0.5))
    report = run_comparisons(
        "SANITY", (), [("x", xpow(1), xpow(1))], mode="numeric", q0=0.6
    )
    assert report.ok


FIXED_MODE = [(name, (F(1),) * arity) for name, (_, arity, _) in
              sorted(RELATIONS.items())
              if name in ("ALGEBRA", "CLASSICAL_LIMIT", "PRELIMIT_3J",
                          "NUMERIC_COHERENCE")]


@pytest.mark.parametrize("name,spins", FIXED_MODE + [("GNF", (F(1, 2),) * 3)],
                         ids=[n for n, _ in FIXED_MODE] + ["GNF"])
def test_an_unknown_mode_is_refused_by_every_relation(name, spins):
    with pytest.raises(ValueError, match="unknown mode"):
        verify_relation(name, spins, mode="bogus")


def test_fixed_mode_relations_keep_their_mode():
    assert verify_relation("ALGEBRA", (F(1),), mode="numeric").mode == "exact"


@pytest.mark.parametrize("q0,x0", [(1, 0.81), (1.0, None), (0, 0.5),
                                   (-0.5, None), (0.6, 0), (None, -1.0)])
def test_points_where_numeric_mode_tells_nothing_are_refused(q0, x0):
    # at q0 = 1 every q-deformation collapses: GNF R(1,1) and the constant
    # R(1,1) agree there, so this known-false pair would pass
    pair = [("gnf_r", dynrmat.gnf_r(1, 1), dynrmat.drinfeld_r(1, 1))]
    assert not run_comparisons("CTRL", (1, 1), pair, mode="numeric").ok
    with pytest.raises(ValueError, match="numeric mode needs"):
        run_comparisons("CTRL", (1, 1), pair, mode="numeric", q0=q0, x0=x0)
    with pytest.raises(ValueError, match="numeric mode needs"):
        verify_relation("GNF", (F(1, 2),) * 3, mode="numeric", q0=q0, x0=x0)


def _numpy_rank(diff):
    np = pytest.importorskip("numpy")
    q0, x0 = _DEFAULT_POINT
    n = diff.space.dim
    mat = np.zeros((n, n), dtype=complex)
    for (r, c), s in diff.data.items():
        mat[r, c] = s.numeric_eval(q0, x0)
    return int(np.linalg.matrix_rank(mat, tol=1e-8))


@pytest.mark.parametrize("rhs", ["shifted", "drinfeld"])
def test_residual_rank_matches_numpy(rhs):
    lhs = dynrmat.gnf_r(1, 1)
    other = lhs.shift_x(1) if rhs == "shifted" else dynrmat.drinfeld_r(1, 1)
    rep = run_comparisons("CTRL", (1, 1), [("gnf_r", lhs, other)])
    assert not rep.ok
    assert rep.residual_rank == _numpy_rank(lhs - other) == 7


def test_residual_rank_of_a_zero_difference():
    r = dynrmat.gnf_r(1, 1)
    assert _numeric_residual_rank(r - r) == 0


H = F(1, 2)


def _planted():
    # one entry of GNF's R(1, 1/2) moved by q: the first comparison passes,
    # the second fails at that entry
    r = dynrmat.gnf_r(1, H)
    data = dict(r.data)
    key = sorted(data)[len(data) // 2]
    data[key] = data[key] + dynrmat.qpow(1)
    return [("same", r, r), ("planted", r, GradedOperator(r.space, data))]


def _evaluated(product):
    return reduce(operator.matmul, product.factors)


def _planted_gnf_factor(evaluate=False):
    # GNF(1, 1/2, 1/2) with the argument shift of R13 on the left side left
    # out: both sides are products, and the first row that differs is row 1
    space = twist._triple(1, H, H)
    r12 = twist._on(twist._build_gnf_r, space, 0, 1)
    r13 = twist._on(twist._build_gnf_r, space, 0, 2)
    r23 = twist._on(twist._build_gnf_r, space, 1, 2)
    lhs = Product(r12, r13, r23)
    rhs = Product(twist._shift(r23, 0), r13, twist._shift(r12, 2))
    if evaluate:
        lhs, rhs = _evaluated(lhs), _evaluated(rhs)
    return [("dynamical braid relation", lhs, rhs)]


# the known-false controls of bench/child.py and two planted failures, with
# the sha256 of each report's stable JSON, its residual rank and its length
FAILING = {
    "ctrl_gnf_vs_shifted": (
        (1, 1), lambda: [("gnf_r", dynrmat.gnf_r(1, 1),
                          dynrmat.gnf_r(1, 1).shift_x(1))],
        "0bbbeb945aab574f2e19fa25877942f906da7a3d330fe11dac3011e737f9fd6f",
        7, 271),
    "ctrl_gnf_vs_drinfeld": (
        (1, 1), lambda: [("gnf_r", dynrmat.gnf_r(1, 1),
                          dynrmat.drinfeld_r(1, 1))],
        "3d5ac3b286d2fbd8f085fdd9051482d7052ec753e9ca266e40afd32dd51c440d",
        7, 232),
    "ctrl_wrong_energy": (
        (2,), lambda: [("H psi",
                        dynrmat.hamiltonian(2).apply(dynrmat.wavefunction(2, 3)),
                        dynrmat.energy(4) * dynrmat.wavefunction(2, 3))],
        "a7ee6d1673aa063f6df4cfa905adeb10ab18302ff430293bda3b2b3ce6c3b266",
        None, 609),
    "ctrl_six_j": (
        (H, H, 1, H, H, 1), lambda: [("6j", dynrmat.six_j(H, H, 1, H, H, 1),
                                      dynrmat.six_j(H, H, 0, H, H, 1))],
        "396199f2894037f452a6779b562bcc63dd5cede1b93f2b647a9179f7053b24ca",
        None, 206),
    "planted": (
        (1, H), _planted,
        "720128f024f22e43ae9b23d938e996b7e37a86568bbc165c9904df82e202f487",
        1, 180),
    "planted_gnf_factor": (
        (1, H, H), _planted_gnf_factor,
        "54f6aab2ddf1d4a96b2a74ba47a770b0661aa2c44376978c98fe534007b5afe0",
        8, 295),
}
# the numeric-mode report of planted_gnf_factor: its sha256 and length
PLANTED_GNF_NUMERIC = (
    "cf0379c3783b6f8e5857015b0d75dd8d1da8818074404c2aeae2ad159972e20d", 245)


@pytest.mark.parametrize("label", sorted(FAILING))
def test_failing_reports_keep_their_bytes(label):
    # an exact comparison passes on equal canonical forms without forming
    # the difference; a failing one still reports the difference's first
    # nonzero entry and its residual rank, byte for byte
    spins, build, digest, rank, size = FAILING[label]
    rep = run_comparisons(label, spins, build())
    text = json.dumps(rep.to_jsonable(stable=True), sort_keys=True)
    assert rep.status == "fail" and rep.residual_rank == rank
    assert len(text) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_product_sides_fail_as_their_evaluated_products(mode):
    # sides checked row by row report the bytes of the same sides evaluated
    # first: the least failing (row, col) and, in exact mode, the residual
    # rank of the whole difference
    label = "planted_gnf_factor"
    spins, _, digest, _, size = FAILING[label]
    if mode == "numeric":
        digest, size = PLANTED_GNF_NUMERIC
    texts = []
    for evaluate in (False, True):
        rep = run_comparisons(label, spins, _planted_gnf_factor(evaluate),
                              mode=mode)
        texts.append(json.dumps(rep.to_jsonable(stable=True), sort_keys=True))
    assert texts[0] == texts[1]
    assert len(texts[0]) == size
    assert hashlib.sha256(texts[0].encode()).hexdigest() == digest
    assert json.loads(texts[0])["failing_entry"]["row"] == 1


def test_product_sides_are_checked_without_holding_them_whole():
    # the traced peak of deciding GNF(3/2, 3/2, 1) on its product sides is
    # under half of the peak when the same sides are evaluated up front;
    # the factors are built, and every cache filled, before tracing starts
    comparisons = twist._build_rel_gnf(F(3, 2), F(3, 2), 1)
    assert run_comparisons("GNF", (0, 0, 0), comparisons).ok

    def traced_peak(decide):
        tracemalloc.start()
        try:
            assert decide().ok
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    by_row = traced_peak(lambda: run_comparisons("GNF", (0, 0, 0), comparisons))
    whole = traced_peak(lambda: run_comparisons("GNF", (0, 0, 0), [
        (label, _evaluated(lhs), _evaluated(rhs))
        for label, lhs, rhs in comparisons]))
    assert by_row < whole / 2


def test_equal_sides_pass_without_a_difference(monkeypatch):
    def refuse(self, other):
        raise AssertionError("difference formed for equal sides")

    monkeypatch.setattr(GradedOperator, "__sub__", refuse)
    monkeypatch.setattr(Scalar, "__sub__", refuse)
    r = dynrmat.gnf_r(1, 1)
    rep = run_comparisons("EQ", (1, 1), [("op", r, dynrmat.gnf_r(1, 1)),
                                         ("scalar", r.entry(0, 0),
                                          r.entry(0, 0))])
    assert rep.ok and rep.failing_entry is None and rep.residual_rank is None


@pytest.mark.parametrize(
    "shape,rank", [((6, 6), 3), ((9, 4), 2), ((5, 8), 1), ((7, 7), 7)]
)
def test_float_rank_of_planted_low_rank_matrices(shape, rank):
    np = pytest.importorskip("numpy")
    rng = random.Random(31 * shape[0] + shape[1] + rank)

    def cplx():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    left = np.array([[cplx() for _ in range(rank)] for _ in range(shape[0])])
    right = np.array([[cplx() for _ in range(shape[1])] for _ in range(rank)])
    mat = left @ right
    want = int(np.linalg.matrix_rank(mat, tol=1e-8))
    assert want == rank
    assert _float_rank(mat.tolist()) == want


def test_verify_paths_leave_numpy_unloaded():
    # the float cross-checks and the failure diagnostics are pure Python:
    # a cold import and every verify path must not pull numpy in
    script = """
import sys
import dynrmat
from dynrmat.report import run_comparisons
from dynrmat.suite import verify_relation
for name in ("NUMERIC_COHERENCE", "PRELIMIT_3J"):
    assert verify_relation(name, ()).ok, name
lhs = dynrmat.gnf_r(1, 1)
rep = run_comparisons("CTRL", (1, 1), [("gnf_r", lhs, lhs.shift_x(1))])
assert not rep.ok and rep.residual_rank == 7
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
