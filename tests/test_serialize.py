"""Canonical serialization: byte determinism, round trips, LaTeX shapes."""

import json
from fractions import Fraction as F

import pytest

from dynrmat.coeffs import make_coeff
from dynrmat.lame import hamiltonian, lax_matrix
from dynrmat.polys import QRat
from dynrmat.ratfunc import RationalFunction
from dynrmat.scalar import (
    qnum,
    qpow,
    sc_coeff,
    sqrt_qdiff,
    sqrt_qint,
    xbracket,
    xpow,
)
from dynrmat.serialize import (
    _wrap,
    dumps_canonical,
    from_payload,
    latex,
    plain_text,
    to_payload,
)
from dynrmat.twist import boundary_m, gnf_r, twist_f

H = F(1, 2)


def qrat_signatures(obj):
    """Sorted (hash, numerator types, denominator types) of every QRat in obj."""
    out = []

    def walk(x):
        if isinstance(x, QRat):
            out.append((hash(x),) + tuple(
                tuple(type(c).__name__ for _, c in sorted(p.items()))
                for p in (x.num, x.den)))
        elif isinstance(x, RationalFunction):
            walk(x.num)
            walk(x.den)
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                walk(v)
        elif hasattr(x, "__slots__"):
            for name in x.__slots__:
                walk(getattr(x, name))

    walk(obj)
    return sorted(out)


@pytest.mark.parametrize(
    "obj",
    [
        qnum(3) * xpow(H) + sqrt_qint(2) * qpow(F(-1, 2)),
        gnf_r(H, H),
        gnf_r(H, F(1)),
        twist_f(H, H),
        boundary_m(F(1)),
        hamiltonian(2),
        lax_matrix(H),
    ],
    ids=["scalar", "r-half-half", "r-half-one", "twist", "boundary", "ham", "lax"],
)
def test_round_trip_is_exact(obj):
    payload = to_payload(obj)
    text = dumps_canonical(payload)
    back = from_payload(json.loads(text))
    assert back == obj
    # loaded coefficients hash alike and have the in-memory types: int for
    # integral values, Fraction or Cyclo otherwise
    sigs = qrat_signatures(obj)
    assert sigs and qrat_signatures(back) == sigs
    # and canonical form is a fixed point
    assert dumps_canonical(to_payload(back)) == text


def test_dumps_are_byte_stable():
    a = dumps_canonical(to_payload(gnf_r(H, H)))
    b = dumps_canonical(to_payload(gnf_r(H, H)))
    assert a == b
    assert a.endswith("\n")
    # compact separators, sorted keys
    assert ": " not in a and a.index('"entries"') < a.index('"kind"')


def test_payload_kinds():
    assert to_payload(qnum(2))["kind"] == "scalar"
    assert to_payload(gnf_r(H, H))["kind"] == "graded_operator"
    assert to_payload(hamiltonian(1))["kind"] == "shift_operator"
    assert to_payload(lax_matrix(H))["kind"] == "shift_operator_matrix"
    with pytest.raises(TypeError):
        to_payload(object())


def test_latex_free_hamiltonian():
    assert latex(hamiltonian(0)) == "T^{-1} + T"


def test_latex_scalar_has_radical():
    s = sqrt_qint(3) * qpow(H)
    out = latex(s)
    assert "\\sqrt{" in out and "q^{1/2}" in out


def test_latex_matrix_environment():
    out = latex(gnf_r(H, H))
    assert out.startswith("\\begin{pmatrix}")
    assert out.rstrip().endswith("\\end{pmatrix}")
    assert out.count("\\\\") == 3


def test_latex_no_double_wrapping():
    out = latex(boundary_m(F(1)))
    assert "\\left(\\left(" not in out


def test_plain_text_forms():
    assert plain_text(qnum(2)) == "q + q^(-1)"
    assert "(0,0):" in plain_text(gnf_r(H, H))
    assert plain_text(hamiltonian(0)) == "(1) T^(-1) + (1) T^(1)"
    assert "(0,0):" in plain_text(lax_matrix(H))


def _mixed():
    c = sc_coeff(make_coeff(F(1, 2), 1))
    return c * qpow(H) + sc_coeff(F(1, 3)) * xpow(1) - xpow(2)


@pytest.mark.parametrize(
    "make, text, tex",
    [
        (
            _mixed,
            "(-1)*x^(2) + (1/3)*x + (1/2 + z8^1)*q^(1/2)",
            "-1 \\, x^{2} + \\tfrac{1}{3} \\, x"
            " + \\left((\\tfrac{1}{2} + \\zeta_8^{1}) q^{1/2}\\right)",
        ),
        (
            lambda: _mixed() * sqrt_qint(3),
            "((-1)*x^(2) + (1/3)*x + (1/2 + z8^1)*q^(1/2))*sqrt([3])",
            "\\left(-1 \\, x^{2} + \\tfrac{1}{3} \\, x"
            " + \\left((\\tfrac{1}{2} + \\zeta_8^{1}) q^{1/2}\\right)\\right)"
            " \\, \\sqrt{[3]}",
        ),
        (
            lambda: xbracket(1) * sqrt_qint(2)
            + sqrt_qint(3) * xbracket(0) * sqrt_qdiff(),
            "(((q)/(q^(2) - 1))*x + ((-q)/(q^(2) - 1))*x^(-1))*sqrt((q-1/q)[3])"
            "  +  (((q^(2))/(q^(2) - 1))*x + ((-1)/(q^(2) - 1))*x^(-1))"
            "*sqrt([2])",
            "\\left(\\left(\\frac{q}{q^{2} - 1}\\right) \\, x"
            " + \\left(\\frac{-q}{q^{2} - 1}\\right) \\, x^{-1}\\right)"
            " \\, \\sqrt{(q - q^{-1}) [3]}"
            " + \\left(\\left(\\frac{q^{2}}{q^{2} - 1}\\right) \\, x"
            " + \\left(\\frac{-1}{q^{2} - 1}\\right) \\, x^{-1}\\right)"
            " \\, \\sqrt{[2]}",
        ),
        (
            lambda: (xpow(1) - xpow(-1)) / (xpow(1) - qpow(1)) * sqrt_qint(2),
            "((x + (-1)*x^(-1)) / (x + -q))*sqrt([2])",
            "\\left(\\frac{x - 1 \\, x^{-1}}{x - q}\\right) \\, \\sqrt{[2]}",
        ),
    ],
    ids=["cyclo-tfrac", "cyclo-radical", "xbrackets", "x-fraction"],
)
def test_scalar_text_and_latex_bytes(make, text, tex):
    # byte-exact forms for coefficient shapes the golden dumps never print:
    # a Cyclo with a rational part, a non-integral rational in LaTeX, x-level
    # signs that only LaTeX rewrites, and radicals beside q-denominators
    s = make()
    assert plain_text(s) == str(s) == text
    assert latex(s) == tex


def test_wrap_two_groups_in_one_pair_of_parens():
    # opens with \left( and closes with \right) yet is two groups
    body = "\\left(a\\right) + \\left(b\\right)"
    assert _wrap(body) == "\\left(%s\\right)" % body
    assert _wrap("\\left(a + b\\right)") == "\\left(a + b\\right)"
    assert _wrap("q^{2}") == "q^{2}"
