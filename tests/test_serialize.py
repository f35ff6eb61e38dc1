"""Canonical serialization: byte determinism, round trips, LaTeX shapes."""

import json
from fractions import Fraction as F

import pytest

from dynrmat.lame import hamiltonian, lax_matrix
from dynrmat.polys import QRat
from dynrmat.ratfunc import RationalFunction
from dynrmat.scalar import qnum, qpow, sqrt_qint, xpow
from dynrmat.serialize import (
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
