"""Command line behavior: verbs, exit codes, determinism of the streams."""

import contextlib
import io
import json

import pytest

from dynrmat.cli import main
from dynrmat.serialize import from_payload
from dynrmat.twist import gnf_r


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_verify_single_relation_passes():
    code, out, _ = run("verify", "GNF", "--spins", "1/2,1/2,1/2")
    assert code == 0
    assert out.startswith("PASS GNF")


def test_verify_json_format_is_parseable():
    code, out, _ = run(
        "verify", "COBOUNDARY", "--spins", "1/2,1/2", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["relation"] == "COBOUNDARY"
    assert rec["status"] == "pass"
    assert rec["spins"] == ["1/2", "1/2"]
    # stable stream: no timing field unless asked for
    assert "elapsed_ms" not in rec


def test_verify_timings_flag_adds_elapsed():
    code, out, _ = run(
        "verify", "ALGEBRA", "--spins", "1", "--format", "json", "--timings"
    )
    assert code == 0
    assert "elapsed_ms" in json.loads(out)


def test_unknown_relation_is_usage_error():
    code, _, err = run("verify", "TYPO")
    assert code == 2
    assert "unknown relation" in err


def test_missing_verb_is_usage_error():
    code, _, _ = run()
    assert code == 2


def test_bad_spin_string_is_usage_error():
    code, _, _ = run("verify", "GNF", "--spins", "1/3,1/2,1/2")
    assert code == 2


def test_off_lattice_symbol_spin_is_usage_error():
    code, out, err = run("symbol", "6j", "--j", "1/3,1/2,1/2,1/2,1/2,1/2")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert "not a half-integer" in err


def test_numeric_mode_point_validation():
    code, _, err = run(
        "verify", "GNF", "--spins", "1/2,1/2,1/2",
        "--mode", "numeric", "--q0", "1.0", "--x0", "0.5",
    )
    assert code == 2
    assert "q0" in err
    code, _, _ = run(
        "verify", "GNF", "--spins", "1/2,1/2,1/2",
        "--mode", "numeric", "--q0", "0.6", "--x0", "-1.0",
    )
    assert code == 2
    # point flags are refused outside numeric mode, never silently dropped
    code, _, _ = run("verify", "GNF", "--spins", "1/2,1/2,1/2", "--q0", "0.6")
    assert code == 2


def test_numeric_mode_defaults_the_other_coordinate():
    for flag in ("--q0", "--x0"):
        code, out, _ = run(
            "verify", "GNF", "--spins", "1/2,1/2,1/2",
            "--mode", "numeric", flag, "0.6",
        )
        assert code == 0, flag
        assert out.startswith("PASS GNF")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "INTERTWINING", "--spins", "5/2"),
        ("verify", "EXCLUSION", "--spins", "3/2"),
        ("verify", "RESIDUES", "--spins", "1/2"),
        # the residue probes run over 1 <= r <= j: none at j = 0
        ("verify", "RESIDUES", "--spins", "0"),
        ("verify", "CLASSICAL_LIMIT", "--spins", "3/2"),
        ("verify", "EIGEN_EQUATION", "--spins", "1/2"),
        ("verify", "ALGEBRA", "--spins", "1/2,1"),
        ("verify", "NUMERIC_COHERENCE", "--spins", "1"),
        ("lame", "verify", "--j", "1/2"),
        # the target k**2 - j(j+1)/sinh(z)**2 has a pole at z = 0
        ("lame", "classical", "--j", "1", "--k", "2", "--z", "0.5,0"),
        # psi_k vanishes for |k| <= j, so a kmax of at most j checks the
        # eigen-equation on zero wavefunctions only
        ("lame", "verify", "--j", "1", "--kmax", "-1"),
        ("lame", "verify", "--j", "1", "--kmax", "1"),
        ("verify", "EIGEN_EQUATION", "--spins", "5"),
        # both wavefunction routes vanish for |k| <= j alike
        ("verify", "WAVEFUNCTION_ROUTES", "--spins", "5"),
    ],
)
def test_spins_a_relation_cannot_take_are_usage_errors(argv):
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage:")


def test_numeric_mode_runs_at_explicit_point():
    code, out, _ = run(
        "verify", "RD_INTERTWINER", "--spins", "1/2,1",
        "--mode", "numeric", "--q0", "0.6", "--x0", "0.8",
    )
    assert code == 0
    assert "[numeric]" in out


def test_verify_all_is_byte_reproducible_and_ordered(eager_workers):
    code1, out1, _ = run("verify", "all", "--format", "json", "--jobs", "4")
    assert eager_workers  # the operator comparisons ran in workers
    code2, out2, _ = run("verify", "all", "--format", "json", "--jobs", "1")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    names = [json.loads(l)["relation"] for l in lines]
    # manifest order starts with the representation checks
    assert names[0] == "ALGEBRA"
    assert all(json.loads(l)["status"] == "pass" for l in lines)


def test_dump_rmatrix_is_deterministic_and_round_trips():
    code1, out1, _ = run("dump", "rmatrix", "--spins", "1/2,1/2")
    code2, out2, _ = run("dump", "rmatrix", "--spins", "1/2,1/2")
    assert code1 == 0 and out1 == out2
    obj = from_payload(json.loads(out1))
    assert obj == gnf_r("1/2", "1/2")


def test_cache_state_never_changes_a_result(cold_caches):
    argvs = [("verify", "all", "--format", "json"),
             ("dump", "rmatrix", "--spins", "1,1", "--format", "json")]
    warm = [run(*argv) for argv in argvs]
    assert [run(*argv) for argv in argvs] == warm
    names = {c.__qualname__ for c in cold_caches if c.cache_info().currsize}
    assert {"Alphabet._expanded", "_parts", "_build_gnf_r", "_rep_eplus",
            "cyclotomic", "_wave_closed", "log_qfact_real"} <= names
    for c in cold_caches:
        c.cache_clear()
    assert [c.cache_info().currsize for c in cold_caches] == [0] * len(
        cold_caches)
    assert [run(*argv) for argv in argvs] == warm
    assert [code for code, _, _ in warm] == [0, 0]


def test_dump_arity_mismatch_is_usage_error():
    code, _, err = run("dump", "rmatrix", "--spins", "1/2")
    assert code == 2
    assert "spin" in err


def test_dump_rmatrix_with_spin_zero_leg_is_identity():
    from fractions import Fraction

    from dynrmat.spins import TensorSpace, identity_op

    code, out, _ = run("dump", "rmatrix", "--spins", "0,1")
    assert code == 0
    obj = from_payload(json.loads(out))
    assert obj == identity_op(TensorSpace((Fraction(0), Fraction(1))))


def test_dump_hamiltonian_spin_zero_is_free():
    code, out, _ = run("dump", "hamiltonian", "--spins", "0", "--format", "latex")
    assert code == 0
    assert out.strip() == "T^{-1} + T"


def test_dump_formats():
    code, out, _ = run("dump", "boundary", "--spins", "1/2", "--format", "text")
    assert code == 0 and "(0,0):" in out
    code, out, _ = run("dump", "boundary", "--spins", "1/2", "--format", "latex")
    assert code == 0 and "\\begin{pmatrix}" in out


def test_dump_to_file(tmp_path):
    target = tmp_path / "r.json"
    code, out, _ = run("dump", "rmatrix", "--spins", "1/2,1/2", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["kind"] == "graded_operator"


def test_symbol_3j_stretched_is_one():
    code, out, _ = run(
        "symbol", "3j", "--j", "1/2,1/2,1", "--m", "1/2,1/2,1", "--format", "latex"
    )
    assert code == 0
    assert out.strip() == "1"


def test_symbol_6j_text():
    code, out, _ = run("symbol", "6j", "--j", "1/2,1/2,1,1/2,1/2,1")
    assert code == 0
    assert "q" in out


def test_symbol_needs_consistent_arguments():
    code, _, _ = run("symbol", "3j", "--j", "1/2,1/2", "--m", "1/2,1/2,1")
    assert code == 2
    code, _, _ = run("symbol", "m", "--j", "1/2", "--m", "1/2")
    assert code == 2


def test_symbol_value_error_is_usage_error():
    # sigma = 1/2 is not on the spin-1 ladder
    code, out, err = run("symbol", "limit3j", "--j", "1", "--sigma", "1/2", "--m", "0")
    assert code == 2
    assert out == "" and "Traceback" not in err


def test_symbol_limit3j_reduces():
    code, out, _ = run("symbol", "limit3j", "--j", "1/2", "--sigma", "1/2", "--m", "1/2")
    assert code == 0
    assert "sqrt" in out


def test_lame_verify_and_wavefunction():
    code, out, _ = run("lame", "verify", "--j", "1", "--kmax", "3")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run("lame", "wavefunction", "--j", "1", "--k", "2")
    assert code == 0
    assert "x" in out


def test_lame_wavefunction_methods_agree():
    _, closed, _ = run("lame", "wavefunction", "--j", "2", "--k", "3")
    _, recur, _ = run(
        "lame", "wavefunction", "--j", "2", "--k", "3", "--method", "recursive"
    )
    assert closed == recur


def test_lame_classical_table():
    code, out, _ = run("lame", "classical", "--j", "1", "--k", "2", "--z", "0.5")
    assert code == 0
    assert "extrapolated" in out
    assert "PASS" in out


@pytest.mark.parametrize("point", [
    None,  # the real sample
    (1e-4, 0.0, 2.0),  # relative error exactly at the tolerance
    (2e-4, 0.0, 2.0),
    (0.0, 0.0, 2.5),  # order outside its window
])
def test_lame_classical_verdict_is_the_verifiers(monkeypatch, point):
    # point: a faked (extrapolated, target, order) for the one sample
    import dynrmat.cli as cli
    import dynrmat.lame as lame

    if point is not None:
        def fake_table(j, k, z):
            return ([], *point)

        monkeypatch.setattr(cli, "classical_limit_table", fake_table)
        monkeypatch.setattr(lame, "classical_limit_table", fake_table)
    code, out, _ = run("lame", "classical", "--j", "1", "--k", "2", "--z", "0.5")
    report = lame.verify_classical_limit(1, ks=(2,), zs=(0.5,))
    assert (code == 0) == report.ok
    assert out.endswith("classical limit: %s\n" % ("PASS" if report.ok else "FAIL"))


def test_limits_verb():
    code, out, _ = run("limits", "--spins", "1/2,1")
    assert code == 0
    assert "TWIST_LIMITS" in out


def test_failure_exit_code_is_one(monkeypatch):
    import dynrmat.cli as cli
    from dynrmat.report import VerificationReport

    def fake_verify_relation(name, spins, mode="exact", q0=None, x0=None,
                             jobs=None):
        return VerificationReport(
            relation=name, spins=spins, mode=mode, status="fail"
        )

    monkeypatch.setattr(cli, "verify_relation", fake_verify_relation)
    code, out, _ = run("verify", "GNF", "--spins", "1/2,1/2,1/2")
    assert code == 1
    assert out.startswith("FAIL")
