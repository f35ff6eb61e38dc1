"""Canonical serialization: byte determinism, round trips, LaTeX shapes."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from dynrmat.lame import hamiltonian, lax_matrix
from dynrmat.polys import QRat
from dynrmat.ratfunc import RationalFunction
from dynrmat.scalar import (
    SC_ONE,
    phase,
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
    # integral values, Fraction otherwise
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
    c = sc_coeff(F(1, 2)) + phase(F(1, 4))
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
    # a Q(z8) coefficient with a rational part, a non-integral rational in
    # LaTeX, x-level signs that only LaTeX rewrites, and radicals beside
    # q-denominators
    s = make()
    assert plain_text(s) == str(s) == text
    assert latex(s) == tex


def test_wrap_two_groups_in_one_pair_of_parens():
    # opens with \left( and closes with \right) yet is two groups
    body = "\\left(a\\right) + \\left(b\\right)"
    assert _wrap(body) == "\\left(%s\\right)" % body
    assert _wrap("\\left(a + b\\right)") == "\\left(a + b\\right)"
    assert _wrap("q^{2}") == "q^{2}"


# Eighth-root phases in shapes that no golden prints: z8**k over Phi_4 and
# Phi_12, phases under one radical over different q- and x-denominators.


def _over_phi4():
    return (qpow(1) + 2) * qnum(2) / qnum(4)  # over Phi_4(q**2)


def _over_phi12():
    return qnum(6) * qnum(4) / (qnum(12) * qnum(2))  # over Phi_12(q**2)


PHASE_SHAPES = {
    **{"phi4-z8^%d" % k: lambda k=k: phase(F(k, 4)) * _over_phi4()
       for k in range(1, 8)},
    **{"phi12-z8^%d" % k: lambda k=k: phase(F(k, 4)) * _over_phi12()
       for k in range(1, 8)},
    # two phases and a rational part under one radical, each over its own
    # q-denominator, so the printer takes their lcm
    "two-dq": lambda: (phase(F(1, 4)) / qnum(2)
                       + phase(F(1, 2)) * qpow(H) / qnum(3)
                       + sc_coeff(F(1, 3)) / qnum(4)) * sqrt_qint(5),
    # a phase over an x-bracket denominator
    "xbr-den": lambda: (phase(F(3, 4)) * xpow(H) / xbracket(1)
                        * sqrt_qint(2)),
    # two phases over different x-brackets, beside a rational term
    "two-dx": lambda: (phase(F(1, 4)) / xbracket(1)
                       + phase(F(5, 4)) * qnum(3) / xbracket(2)
                       + xpow(1) / qnum(2)),
}

# name -> (plain text, LaTeX, sha256 of the canonical JSON dump)
PHASE_BYTES = {
    'phi4-z8^1': (
        '((z8^1)*q^(3) + (2*z8^1)*q^(2))/(q^(4) + 1)',
        '\\left(\\frac{\\zeta_8^{1} q^{3} + 2 \\zeta_8^{1} q^{2}}{q^{4} + 1}'
        '\\right)',
        '1ccf3161e6010abce873882a7141e09ddd63eaf1867bdbad810e13b175f6d515'),
    'phi12-z8^1': (
        '((z8^1)*q^(4))/(q^(8) - q^(4) + 1)',
        '\\left(\\frac{\\zeta_8^{1} q^{4}}{q^{8} - q^{4} + 1}\\right)',
        '7573295e4330adec2643e730e5b3e9a23c991e09335cce38bc4c40a055519186'),
    'phi4-z8^2': (
        '((z8^2)*q^(3) + (2*z8^2)*q^(2))/(q^(4) + 1)',
        '\\left(\\frac{\\zeta_8^{2} q^{3} + 2 \\zeta_8^{2} q^{2}}{q^{4} + 1}'
        '\\right)',
        '83ed96236334fe252bba947e08a42e51a11b339b9cfe38b6643e3c42f60580e2'),
    'phi12-z8^2': (
        '((z8^2)*q^(4))/(q^(8) - q^(4) + 1)',
        '\\left(\\frac{\\zeta_8^{2} q^{4}}{q^{8} - q^{4} + 1}\\right)',
        '1871d4ef7572453ea407ed9dffed7b382305f5c7f3c68d7d18a528a579ab995d'),
    'phi4-z8^3': (
        '((z8^3)*q^(3) + (2*z8^3)*q^(2))/(q^(4) + 1)',
        '\\left(\\frac{\\zeta_8^{3} q^{3} + 2 \\zeta_8^{3} q^{2}}{q^{4} + 1}'
        '\\right)',
        'c4b8c61e2e769f7dd8442fc1f2af8b061654ace9cec3a879d8f85d7ca3f7ce82'),
    'phi12-z8^3': (
        '((z8^3)*q^(4))/(q^(8) - q^(4) + 1)',
        '\\left(\\frac{\\zeta_8^{3} q^{4}}{q^{8} - q^{4} + 1}\\right)',
        '7ae55a19f57477ce34486ded6744807d4efde59ab555fa157b47cab27d6535b1'),
    'phi4-z8^4': (
        '(-q^(3) - 2*q^(2))/(q^(4) + 1)',
        '\\left(\\frac{-q^{3} - 2 q^{2}}{q^{4} + 1}\\right)',
        'a9369a8f50185834b0e1ec1ee1a11160feb1e59da4de8bcecd2a372f4f7aae92'),
    'phi12-z8^4': (
        '(-q^(4))/(q^(8) - q^(4) + 1)',
        '\\left(\\frac{-q^{4}}{q^{8} - q^{4} + 1}\\right)',
        'cafc9598e1efe365833d7717204bfaf6d0156752c17f6050740932892ea2771f'),
    'phi4-z8^5': (
        '((-1*z8^1)*q^(3) + (-2*z8^1)*q^(2))/(q^(4) + 1)',
        '\\left(\\frac{-1 \\zeta_8^{1} q^{3} - 2 \\zeta_8^{1} q^{2}}{q^{4} + '
        '1}\\right)',
        '89e57acb8ac29c2511c12e5da51f2e00a7595c7438684907020e0028f70b71d5'),
    'phi12-z8^5': (
        '((-1*z8^1)*q^(4))/(q^(8) - q^(4) + 1)',
        '\\left(\\frac{-1 \\zeta_8^{1} q^{4}}{q^{8} - q^{4} + 1}\\right)',
        '9199859c138f811bf76c5585345f6900ff3420df2ef070882232ec142cc413a1'),
    'phi4-z8^6': (
        '((-1*z8^2)*q^(3) + (-2*z8^2)*q^(2))/(q^(4) + 1)',
        '\\left(\\frac{-1 \\zeta_8^{2} q^{3} - 2 \\zeta_8^{2} q^{2}}{q^{4} + '
        '1}\\right)',
        'e8566ea681693f10ee7c76aca08ca14b91ddc8ecb8011241985a0fe853ebec5b'),
    'phi12-z8^6': (
        '((-1*z8^2)*q^(4))/(q^(8) - q^(4) + 1)',
        '\\left(\\frac{-1 \\zeta_8^{2} q^{4}}{q^{8} - q^{4} + 1}\\right)',
        '5044129a0b94d3aa3abed78e7412dcd1ee5f45d1637beb4df5a72d196d766bd6'),
    'phi4-z8^7': (
        '((-1*z8^3)*q^(3) + (-2*z8^3)*q^(2))/(q^(4) + 1)',
        '\\left(\\frac{-1 \\zeta_8^{3} q^{3} - 2 \\zeta_8^{3} q^{2}}{q^{4} + '
        '1}\\right)',
        '37ddb600aa19a5b1fbe1bb771dc61c3b0406fea6680ddef692b9561b7958e523'),
    'phi12-z8^7': (
        '((-1*z8^3)*q^(4))/(q^(8) - q^(4) + 1)',
        '\\left(\\frac{-1 \\zeta_8^{3} q^{4}}{q^{8} - q^{4} + 1}\\right)',
        'e772ae477231676595b9feeb6381757ac5bcdf6c7deb09f859fa73c19fdb984d'),
    'two-dq': (
        '(((z8^1)*q^(9) + (z8^2)*q^(17/2) + (1/3 + z8^1)*q^(7) + (z8^2)*q^(13'
        '/2) + (1/3 + 2*z8^1)*q^(5) + (z8^2)*q^(9/2) + (1/3 + z8^1)*q^(3) + ('
        'z8^2)*q^(5/2) + (z8^1)*q)/(q^(10) + 2*q^(8) + 3*q^(6) + 3*q^(4) + 2*'
        'q^(2) + 1))*sqrt([5])',
        '\\left(\\frac{\\zeta_8^{1} q^{9} + \\zeta_8^{2} q^{17/2} + (\\tfrac{'
        '1}{3} + \\zeta_8^{1}) q^{7} + \\zeta_8^{2} q^{13/2} + (\\tfrac{1}{3}'
        ' + 2 \\zeta_8^{1}) q^{5} + \\zeta_8^{2} q^{9/2} + (\\tfrac{1}{3} + '
        '\\zeta_8^{1}) q^{3} + \\zeta_8^{2} q^{5/2} + \\zeta_8^{1} q}{q^{10} '
        '+ 2 q^{8} + 3 q^{6} + 3 q^{4} + 2 q^{2} + 1}\\right) \\, \\sqrt{[5]}',
        '876701f71955384ee79210fbb9f96ff4cefa9b6c439c11dfdb6ce17eff4f1a3d'),
    'xbr-den': (
        '((((z8^3) + (-1*z8^3)*q^(-2))*x^(3/2)) / (x^(2) + -q^(-2)))*sqrt([2]'
        ')',
        '\\left(\\frac{\\left(\\zeta_8^{3} - 1 \\zeta_8^{3} q^{-2}\\right) \\'
        ', x^{3/2}}{x^{2} - q^{-2}}\\right) \\, \\sqrt{[2]}',
        '7cb2c74610cda753a716c873d79133fc425a3ea0a07fb3aa80f282fe79c19254'),
    'two-dx': (
        '(((q)/(q^(2) + 1))*x^(5) + ((-1*z8^1)*q + (z8^1) + (-1*z8^1)*q^(-2) '
        '- q^(-3) + (z8^1)*q^(-5))*x^(3) + (((z8^1)*q + (z8^1)*q^(-1) + (-1*z'
        '8^1)*q^(-2) + (1 - 1*z8^1)*q^(-5) + (z8^1)*q^(-6) + (-1*z8^1)*q^(-7)'
        ')/(q^(2) + 1))*x) / (x^(4) + (-q^(-2) - q^(-4))*x^(2) + q^(-6))',
        '\\frac{\\left(\\frac{q}{q^{2} + 1}\\right) \\, x^{5} + \\left(-1 \\z'
        'eta_8^{1} q + \\zeta_8^{1} - 1 \\zeta_8^{1} q^{-2} - q^{-3} + \\zeta'
        '_8^{1} q^{-5}\\right) \\, x^{3} + \\left(\\frac{\\zeta_8^{1} q + \\z'
        'eta_8^{1} q^{-1} - 1 \\zeta_8^{1} q^{-2} + (1 - 1 \\zeta_8^{1}) q^{-'
        '5} + \\zeta_8^{1} q^{-6} - 1 \\zeta_8^{1} q^{-7}}{q^{2} + 1}\\right)'
        ' \\, x}{x^{4} + \\left(-q^{-2} - q^{-4}\\right) \\, x^{2} + q^{-6}}',
        '11ba7365e28a0e334be321843f26308e712aa9604ac43cdae38fb68ebcb61254'),
}

# canonical dumps with zeta8 coefficients; each loads equal to its value
PHASE_DUMPS = {
    'phi4-z8^5': (
        '{"kind":"scalar","value":{"lattice":4,"terms":[{"coeff":{"den":{"0":'
        '{"den":{"0":"1"},"num":{"0":"1"}}},"num":{"0":{"den":{"0":"1","4":"1'
        '"},"num":{"2":{"zeta8":["0","-2","0","0"]},"3":{"zeta8":["0","-1","0'
        '","0"]}}}}},"radical":[]}]}}\n'),
    'two-dq': (
        '{"kind":"scalar","value":{"lattice":4,"terms":[{"coeff":{"den":{"0":'
        '{"den":{"0":"1"},"num":{"0":"1"}}},"num":{"0":{"den":{"0":"1","10":"'
        '1","2":"2","4":"3","6":"3","8":"2"},"num":{"1":{"zeta8":["0","1","0"'
        ',"0"]},"13/2":{"zeta8":["0","0","1","0"]},"17/2":{"zeta8":["0","0","'
        '1","0"]},"3":{"zeta8":["1/3","1","0","0"]},"5":{"zeta8":["1/3","2","'
        '0","0"]},"5/2":{"zeta8":["0","0","1","0"]},"7":{"zeta8":["1/3","1","'
        '0","0"]},"9":{"zeta8":["0","1","0","0"]},"9/2":{"zeta8":["0","0","1"'
        ',"0"]}}}}},"radical":[{"kind":"qint","n":5}]}]}}\n'),
    'two-dx': (
        '{"kind":"scalar","value":{"lattice":4,"terms":[{"coeff":{"den":{"0":'
        '{"den":{"0":"1"},"num":{"-6":"1"}},"2":{"den":{"0":"1"},"num":{"-2":'
        '"-1","-4":"-1"}},"4":{"den":{"0":"1"},"num":{"0":"1"}}},"num":{"1":{'
        '"den":{"0":"1","2":"1"},"num":{"-1":{"zeta8":["0","1","0","0"]},"-2"'
        ':{"zeta8":["0","-1","0","0"]},"-5":{"zeta8":["1","-1","0","0"]},"-6"'
        ':{"zeta8":["0","1","0","0"]},"-7":{"zeta8":["0","-1","0","0"]},"1":{'
        '"zeta8":["0","1","0","0"]}}},"3":{"den":{"0":"1"},"num":{"-2":{"zeta'
        '8":["0","-1","0","0"]},"-3":"-1","-5":{"zeta8":["0","1","0","0"]},"0'
        '":{"zeta8":["0","1","0","0"]},"1":{"zeta8":["0","-1","0","0"]}}},"5"'
        ':{"den":{"0":"1","2":"1"},"num":{"1":"1"}}}},"radical":[]}]}}\n'),
}


@pytest.mark.parametrize("name", sorted(PHASE_SHAPES))
def test_phase_shapes_print_pinned_bytes(name):
    s = PHASE_SHAPES[name]()
    text, tex, digest = PHASE_BYTES[name]
    assert plain_text(s) == text
    assert latex(s) == tex
    dump = dumps_canonical(to_payload(s))
    assert hashlib.sha256(dump.encode()).hexdigest() == digest
    back = from_payload(json.loads(dump))
    assert back == s
    assert dumps_canonical(to_payload(back)) == dump


@pytest.mark.parametrize("name", sorted(PHASE_DUMPS))
def test_zeta8_dumps_load_equal_to_their_values(name):
    dump = PHASE_DUMPS[name]
    assert from_payload(json.loads(dump)) == PHASE_SHAPES[name]()


def test_a_zeta8_denominator_loads_equal_to_its_value():
    # 1 / (q**2 - i) = (q**2 + i) / (q**4 + 1), as a dump reduced over Q(z8)
    # writes it: the loader divides by the norm of the denominator
    dump = ('{"kind":"scalar","value":{"lattice":4,"terms":[{"coeff":{"den":'
            '{"0":{"den":{"0":"1"},"num":{"0":"1"}}},"num":{"0":{"den":{"0":'
            '{"zeta8":["0","0","-1","0"]},"2":"1"},"num":{"0":"1"}}}},'
            '"radical":[]}]}}\n')
    want = (qpow(2) + phase(H)) * qnum(2) / qnum(4) * qpow(-2)
    assert from_payload(json.loads(dump)) == want


# Values with Fraction coefficients at the x level, which no golden command
# prints: each is pinned by its text, LaTeX and canonical dump, and built a
# second way that must give an equal value with equal coefficient hashes.
FRACTION_SHAPES = {
    "half-xbracket": (
        lambda: sc_coeff(H) * xbracket(1),
        lambda: xbracket(1) * sc_coeff(F(3, 2)) - xbracket(1),
        "((1/2*q^(2))/(q^(2) - 1))*x + ((-1/2)/(q^(2) - 1))*x^(-1)",
        "\\left(\\frac{\\tfrac{1}{2} q^{2}}{q^{2} - 1}\\right) \\, x"
        " + \\left(\\frac{-\\tfrac{1}{2}}{q^{2} - 1}\\right) \\, x^{-1}",
        '{"kind":"scalar","value":{"lattice":4,"terms":[{"coeff":{"den":{"0":'
        '{"den":{"0":"1"},"num":{"0":"1"}}},"num":{"-1":{"den":{"0":"-1","2":'
        '"1"},"num":{"0":"-1/2"}},"1":{"den":{"0":"-1","2":"1"},"num":{"2":"1'
        '/2"}}}},"radical":[]}]}}\n'),
    "thirds-sixths": (
        lambda: sc_coeff(F(1, 3)) * xpow(1) + sc_coeff(F(1, 6)),
        lambda: (sc_coeff(2) * xpow(1) + sc_coeff(1)) * sc_coeff(F(1, 6)),
        "(1/3)*x + 1/6",
        "\\tfrac{1}{3} \\, x + \\tfrac{1}{6}",
        '{"kind":"scalar","value":{"lattice":4,"terms":[{"coeff":{"den":{"0":'
        '{"den":{"0":"1"},"num":{"0":"1"}}},"num":{"0":{"den":{"0":"1"},"num"'
        ':{"0":"1/6"}},"1":{"den":{"0":"1"},"num":{"0":"1/3"}}}},"radical":[]'
        '}]}}\n'),
    "content-cancels": (
        lambda: (sc_coeff(H) * xpow(1) + sc_coeff(H)) * sc_coeff(2),
        lambda: xpow(1) + sc_coeff(1),
        "x + 1",
        "x + 1",
        '{"kind":"scalar","value":{"lattice":4,"terms":[{"coeff":{"den":{"0":'
        '{"den":{"0":"1"},"num":{"0":"1"}}},"num":{"0":{"den":{"0":"1"},"num"'
        ':{"0":"1"}},"1":{"den":{"0":"1"},"num":{"0":"1"}}}},"radical":[]}]}}'
        '\n'),
    "over-xbracket": (
        lambda: sc_coeff(F(-3, 4)) * sqrt_qint(3) / xbracket(H),
        lambda: sqrt_qint(3) * sc_coeff(F(3, 4)) / -xbracket(H),
        "(((-3/4*q^(1/2) + 3/4*q^(-3/2))*x) / (x^(2) + -q^(-1)))*sqrt([3])",
        "\\left(\\frac{\\left(-\\tfrac{3}{4} q^{1/2} + \\tfrac{3}{4}"
        " q^{-3/2}\\right) \\, x}{x^{2} - q^{-1}}\\right) \\, \\sqrt{[3]}",
        '{"kind":"scalar","value":{"lattice":4,"terms":[{"coeff":{"den":{"0":'
        '{"den":{"0":"1"},"num":{"-1":"-1"}},"2":{"den":{"0":"1"},"num":{"0":'
        '"1"}}},"num":{"1":{"den":{"0":"1"},"num":{"-3/2":"3/4","1/2":"-3/4"}'
        '}}},"radical":[{"kind":"qint","n":3}]}]}}\n'),
    "sixths-tenths": (
        lambda: (sc_coeff(F(1, 6)) * xpow(2) * qpow(1)
                 + sc_coeff(F(7, 10)) * xpow(1)
                 + sc_coeff(F(-5, 6)) * qpow(F(-1, 2))),
        lambda: (sc_coeff(5) * xpow(2) * qpow(1) + sc_coeff(21) * xpow(1)
                 - sc_coeff(25) * qpow(F(-1, 2))) * sc_coeff(F(1, 30)),
        "(1/6*q)*x^(2) + (7/10)*x + -5/6*q^(-1/2)",
        "\\tfrac{1}{6} q \\, x^{2} + \\tfrac{7}{10} \\, x"
        " - \\tfrac{5}{6} q^{-1/2}",
        '{"kind":"scalar","value":{"lattice":4,"terms":[{"coeff":{"den":{"0":'
        '{"den":{"0":"1"},"num":{"0":"1"}}},"num":{"0":{"den":{"0":"1"},"num"'
        ':{"-1/2":"-5/6"}},"1":{"den":{"0":"1"},"num":{"0":"7/10"}},"2":{"den'
        '":{"0":"1"},"num":{"1":"1/6"}}}},"radical":[]}]}}\n'),
}


@pytest.mark.parametrize("name", sorted(FRACTION_SHAPES))
def test_fraction_coefficients_print_pinned_bytes(name):
    make, other, text, tex, dump = FRACTION_SHAPES[name]
    s = make()
    assert plain_text(s) == text
    assert latex(s) == tex
    assert dumps_canonical(to_payload(s)) == dump
    back = from_payload(json.loads(dump))
    assert back == s
    assert dumps_canonical(to_payload(back)) == dump
    for t in (back, other()):
        assert t == s
        assert ({a: hash(rf) for a, rf in t.terms.items()}
                == {a: hash(rf) for a, rf in s.terms.items()})


# Values whose reduced denominator is no product of cyclotomic factors
# Phi_d(q**2) and binomials x**2 - q**m, up to a monomial, which no golden
# command prints: each is pinned by its text, LaTeX and the sha256 of its
# canonical dump, and its dump must load equal to it.
GENERAL_SHAPES = {
    "q-plus-2": (
        lambda: SC_ONE / (qpow(1) + sc_coeff(2)),
        "(1)/(q + 2)",
        "\\left(\\frac{1}{q + 2}\\right)",
        "331ed182b0eabe5635bdfb75f4f5e86c66208e809cfec5c4e05f0ed49aa3596e"),
    # u - 1 divides Phi_1(q**2) = u**8 - 1, u = q**(1/4)
    "part-of-phi1": (
        lambda: (qpow(F(1, 4)) - sc_coeff(1)) / (qpow(2) - sc_coeff(1)),
        "(1)/(q^(7/4) + q^(3/2) + q^(5/4) + q + q^(3/4) + q^(1/2)"
        " + q^(1/4) + 1)",
        "\\left(\\frac{1}{q^{7/4} + q^{3/2} + q^{5/4} + q + q^{3/4}"
        " + q^{1/2} + q^{1/4} + 1}\\right)",
        "c6a0a7ff6753bd216d594854a1052c9dcb002e670c3bd7f15fd5cd4192b4434d"),
    "x4-x2-1": (
        lambda: SC_ONE / (xpow(4) + xpow(2) + sc_coeff(1)),
        "(1) / (x^(4) + x^(2) + 1)",
        "\\frac{1}{x^{4} + x^{2} + 1}",
        "aeedff2c5c882202fb56c66cb3c0b4b862d6da42350698064267246a60d18e87"),
    "q-plus-2-binomial": (
        lambda: xpow(1) / ((qpow(1) + sc_coeff(2)) * (xpow(2) - qpow(1))),
        "(((1)/(q + 2))*x) / (x^(2) + -q)",
        "\\frac{\\left(\\frac{1}{q + 2}\\right) \\, x}{x^{2} - q}",
        "ef87038f025fa33a7fcafe5f11a03c61701ba3734e6440e96fa4afaa0396e351"),
    # the inverse of a numerator of two powers of x
    "multi-row-inverse": (
        lambda: SC_ONE / (xpow(1) + qpow(H)),
        "(1) / (x + q^(1/2))",
        "\\frac{1}{x + q^{1/2}}",
        "3576ab1a119c76630071bc64b96da9ccf6db9f703f798738b60ac5031a094d80"),
    # Scalar.inv of a value of two phases, inverted by its Galois conjugates
    "two-phase-inverse": (
        lambda: (xpow(1) + phase(F(1, 4)) * qpow(1)).inv(),
        "(x^(3) + ((-1*z8^1)*q)*x^(2) + ((z8^2)*q^(2))*x"
        " + (-1*z8^3)*q^(3)) / (x^(4) + q^(4))",
        "\\frac{x^{3} - 1 \\zeta_8^{1} q \\, x^{2} + \\zeta_8^{2} q^{2}"
        " \\, x - 1 \\zeta_8^{3} q^{3}}{x^{4} + q^{4}}",
        "2a753c5abfdd374a9a0fbae0ed1505c3e3b8ed888511d27e0bc1950c61694417"),
}


@pytest.mark.parametrize("name", sorted(GENERAL_SHAPES))
def test_general_denominators_print_pinned_bytes(name):
    make, text, tex, digest = GENERAL_SHAPES[name]
    s = make()
    assert plain_text(s) == text
    assert latex(s) == tex
    dump = dumps_canonical(to_payload(s))
    assert hashlib.sha256(dump.encode()).hexdigest() == digest
    back = from_payload(json.loads(dump))
    assert back == s
    assert ({a: hash(rf) for a, rf in back.terms.items()}
            == {a: hash(rf) for a, rf in s.terms.items()})
    assert dumps_canonical(to_payload(back)) == dump
