"""RationalFunction arithmetic against sympy as an independent oracle.

Each operand is built twice from one spec: once as a RationalFunction through
`ratfn`, and once in a sympy rational function field, whose elements are
always reduced (sympy cancels every result).  Every RationalFunction result
must equal the oracle's value and be in canonical form: numerator and
denominator coprime, denominator monic with minimum v-exponent zero.

The oracle field is Q(u, v), with u = q**(1/4) and v = x**(1/4).  The
substitution x = -q**m, which gives each power of v a phase, is checked in
GF(P_ORACLE) instead, at u = u0 and with z8 mapped to an element of order
eight.

Operands are products of x-brackets x q**c - x**-1 q**-c and linear factors
x**2 + a q**s, with int and Fraction coefficients a, over products of
x-brackets.  Some denominators also carry x**4 + x**2 + 1 or x**2 + q, which
are no products of x**2 - q**m, or q + 2, which divides no Phi_d(q**2), or a
part of a factor: x - q**(1/2) of the binomial x**2 - q, q**(1/4) - 1 of
Phi_1(q**2) = q**2 - 1.  Every result must also be built again, equal and
with an equal hash, from its own views.

Operand sizes are bounded by MAX_FACTORS and MAX_SHIFT_UNITS, to keep the
run short.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from dynrmat import ratfunc
from dynrmat.lattice import LatticeError
from dynrmat.polys import QRAT_ONE, XP_ONE, add_into, qrat
from dynrmat.ratfunc import PoleAtSubstitution, ratfn
from dynrmat.scalar import rf_from_jsonable, rf_jsonable
from dynrmat.suite import default_manifest, verify_relation

sp = pytest.importorskip("sympy")
hyp = pytest.importorskip("hypothesis")
st = hyp.strategies

# at most this many factors in a numerator or a denominator
MAX_FACTORS = 3
# bracket shifts c and linear-factor powers s, in units of q**(1/4)
MAX_SHIFT_UNITS = 8

# a prime = 1 mod 8, an element of order eight, and a primitive root to
# specialize u at
P_ORACLE = 65537
R8 = pow(3, (P_ORACLE - 1) // 8, P_ORACLE)
U_POINT = 3

SETTINGS = hyp.settings(
    max_examples=40,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=list(hyp.HealthCheck),
)


# ------------------------------------------------------------- operands ----

coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(2, 4)).map(
        lambda t: F(*t)),
)
shifts = st.integers(-MAX_SHIFT_UNITS, MAX_SHIFT_UNITS)
brackets = st.lists(shifts, max_size=MAX_FACTORS)
linears = st.lists(st.tuples(coeffs, shifts), max_size=1)
extras = st.sampled_from([None, "x4+x2+1", "x2+q", "u4+2", "v4-u2", "u-1"])


@st.composite
def operands(draw, extra=extras):
    return {
        "coeff": draw(coeffs),
        "xpow": draw(st.integers(-8, 8)),
        "qpow": draw(shifts),
        "num": draw(brackets),
        "lin": draw(linears),
        "den": draw(brackets),
        "extra": draw(extra),
    }


binomial_operands = operands(extra=st.just(None))


def qr(terms):
    return qrat(dict(terms))


def xq_mul(a, b):
    """The product of two nested XPolys, term by term."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            add_into(out, ka + kb, ca * cb)
    return out


def _product(polys):
    out = XP_ONE
    for p in polys:
        out = xq_mul(out, p)
    return out


def _bracket(c):
    return {4: qr({c: 1}), -4: qr({-c: -1})}


def _linear(a, s):
    return {8: QRAT_ONE, 0: qr({s: a})}


_EXTRA = {
    "x4+x2+1": {16: QRAT_ONE, 8: QRAT_ONE, 0: QRAT_ONE},
    "x2+q": {8: QRAT_ONE, 0: qr({4: 1})},
    "u4+2": {0: qr({4: 1, 0: 2})},
    "v4-u2": {4: QRAT_ONE, 0: qr({2: -1})},
    "u-1": {0: qr({1: 1, 0: -1})},
}


def build_rf(spec):
    num = _product(
        [{spec["xpow"]: qr({spec["qpow"]: spec["coeff"]})}]
        + [_bracket(c) for c in spec["num"]]
        + [_linear(a, s) for a, s in spec["lin"]]
    )
    den = _product(
        [_bracket(c) for c in spec["den"]]
        + ([_EXTRA[spec["extra"]]] if spec["extra"] else [])
    )
    return ratfn(num, den)


# ---------------------------------------------------------------- oracle ----


class Field:
    """The oracle field: Q(u, v), or GF(P_ORACLE)(v) at u = u0."""

    def __init__(self, u0=None):
        self.exact = u0 is None
        if self.exact:
            self.K, self.u, self.v = sp.field("u,v", sp.QQ)
        else:
            self.K, self.v = sp.field("v", sp.GF(P_ORACLE))
            self.u = self.K(u0)

    def coeff(self, c):
        c = F(c)
        if self.exact:
            return self.K(sp.QQ(c.numerator, c.denominator))
        return self.K(c.numerator * pow(c.denominator, -1, P_ORACLE))

    def spec(self, s, v=None):
        """The value of an operand spec, with v replaced by `v` if given."""
        u, v = self.u, self.v if v is None else v
        num = self.coeff(s["coeff"]) * v ** s["xpow"] * u ** s["qpow"]
        for c in s["num"]:
            num *= v ** 4 * u ** c - v ** -4 * u ** -c
        for a, e in s["lin"]:
            num *= v ** 8 + self.coeff(a) * u ** e
        den = self.K(1)
        for c in s["den"]:
            den *= v ** 4 * u ** c - v ** -4 * u ** -c
        if s["extra"] == "x4+x2+1":
            den *= v ** 16 + v ** 8 + 1
        elif s["extra"] == "x2+q":
            den *= v ** 8 + u ** 4
        elif s["extra"] == "u4+2":
            den *= u ** 4 + 2
        elif s["extra"] == "v4-u2":
            den *= v ** 4 - u ** 2
        elif s["extra"] == "u-1":
            den *= u - 1
        return num / den

    def qpoly(self, p):
        return sum((self.coeff(c) * self.u ** e for e, c in p.items()),
                   self.K(0))

    def qrat(self, r):
        return self.qpoly(r.num) / self.qpoly(r.den)

    def xpoly(self, a):
        return sum((self.qrat(c) * self.v ** k for k, c in a.items()),
                   self.K(0))

    @staticmethod
    def v_span(poly):
        """Degree minus order in v of a polynomial of Q[u, v]."""
        exps = [m[1] for m in poly.monoms()]
        return max(exps) - min(exps)


FIELD = Field()


def assert_canonical(r, want):
    """r is canonical and equals want: equal values and equal reduced
    denominator degrees prove r coprime.  Built again from its views, r
    must be the same value with the same hash."""
    if r:
        den = r.den
        assert min(den) == 0
        assert den[max(den)] == QRAT_ONE
        for c in list(r.num.values()) + list(den.values()):
            assert c and min(c.den) == 0 and c.den[max(c.den)] == 1
    else:
        assert r.num == {} and r.den == XP_ONE
    assert FIELD.xpoly(r.num) / FIELD.xpoly(r.den) - want == 0
    assert FIELD.v_span(want.denom) == max(r.den)
    again = ratfn(r.num, r.den)
    assert again == r and hash(again) == hash(r)


def oracle(specs, fn):
    return fn(*(FIELD.spec(s) for s in specs))


# ----------------------------------------------------------- properties ----


def test_operands_are_canonical():
    @SETTINGS
    @hyp.given(operands())
    def run(a):
        assert_canonical(build_rf(a), oracle([a], lambda x: x))

    run()


BINARY = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "truediv": lambda x, y: x / y,
}


@pytest.mark.parametrize("op", sorted(BINARY))
def test_binary_operations_match_oracle(op):
    fn = BINARY[op]

    @SETTINGS
    @hyp.given(operands(), operands())
    def run(a, b):
        assert_canonical(fn(build_rf(a), build_rf(b)), oracle([a, b], fn))

    run()


def test_sums_sharing_factors_match_oracle():
    # the same denominator brackets on both sides, so factors can cancel
    @SETTINGS
    @hyp.given(binomial_operands, binomial_operands, brackets)
    def run(a, b, shared):
        a = dict(a, den=a["den"] + shared)
        b = dict(b, den=b["den"] + shared)
        for fn in (BINARY["add"], BINARY["sub"]):
            assert_canonical(fn(build_rf(a), build_rf(b)), oracle([a, b], fn))

    run()


def test_inverse_matches_oracle():
    @SETTINGS
    @hyp.given(operands())
    def run(a):
        r = build_rf(a)
        assert_canonical(r.inverse(), oracle([a], lambda x: 1 / x))
        assert r.inverse().inverse() == r

    run()


def test_shift_x_matches_oracle():
    @SETTINGS
    @hyp.given(operands(), st.integers(-3, 3))
    def run(a, m):
        # x -> x q**m, that is v -> v u**m
        got = build_rf(a).shift_x(4 * m)
        assert_canonical(got, FIELD.spec(a, v=FIELD.v * FIELD.u ** m))
        assert got.shift_x(-4 * m) == build_rf(a)

    run()


def test_subs_signed_qpow_matches_oracle():
    @SETTINGS
    @hyp.given(operands(), st.sampled_from([1, -1]), st.integers(-3, 3))
    def run(a, sign, m):
        # x = sign q**m, that is v = u**m, times z8 for the negative sign;
        # checked in the GF(p) image at u = U_POINT, where the parts of the
        # value on 1, z8, z8**2, z8**3 sum with z8 sent to R8
        K = Field(U_POINT)
        r = build_rf(a)
        want = K.spec(a)
        point = pow(U_POINT, m, P_ORACLE) * (R8 if sign < 0 else 1)
        den = want.denom(point)
        if den == 0:
            with pytest.raises(PoleAtSubstitution):
                r.subs_signed_qpow(sign, 4 * m)
            return
        got = r.subs_signed_qpow(sign, 4 * m)
        assert len(got) == 4 and (sign < 0 or not any(got[1:]))
        for part in got:
            assert min(part.den) == 0 and part.den[max(part.den)] == 1
        value = sum((K.qrat(part) * R8 ** i for i, part in enumerate(got)),
                    K.K(0))
        assert value - K.K(want.numer(point)) / K.K(den) == 0

    run()


@hyp.settings(SETTINGS, max_examples=150)
@hyp.given(binomial_operands, st.sampled_from([1, -1]), st.integers(-12, 12))
def test_subs_signed_qpow_on_the_flat_form_is_the_general_path(a, sign, au):
    # with the flat path declined, N and the whole denominator are
    # collapsed alike and divided: that must give the same parts, or raise
    # the same error, at every point of the lattice
    r = build_rf(a)
    assert r.g is None

    def outcome():
        try:
            return r.subs_signed_qpow(sign, au)
        except (PoleAtSubstitution, LatticeError) as e:
            return type(e), str(e), getattr(e, "numerator_vanished", None)

    flat = outcome()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ratfunc.RationalFunction, "_subs_flat",
                  lambda self, a_units, part: None)
        assert outcome() == flat


def test_edge_matches_oracle():
    # the leading power of v and its coefficient at x -> 0 and x -> oo: the
    # lowest or highest terms in v of the reduced numerator and denominator
    @SETTINGS
    @hyp.given(operands(), st.booleans())
    def run(a, at_zero):
        want = FIELD.spec(a)

        def lead(poly):
            pick = min if at_zero else max
            k = pick(m[1] for m in poly.monoms())
            return k, sum((FIELD.K(c) * FIELD.u ** m[0]
                           for m, c in poly.terms() if m[1] == k), FIELD.K(0))

        (kn, cn), (kd, cd) = lead(want.numer), lead(want.denom)
        e, c = build_rf(a).edge(at_zero)
        assert e == kn - kd
        assert FIELD.qrat(c) - cn / cd == 0

    run()


def test_json_round_trip_is_identity():
    @SETTINGS
    @hyp.given(operands())
    def run(a):
        r = build_rf(a)
        back = rf_from_jsonable(json.loads(json.dumps(rf_jsonable(r))))
        assert back == r
        assert back.num == r.num and back.den == r.den

    run()


def test_non_binomial_denominator_is_kept_whole():
    # x**2 + q is no product of x**2 - q**m, so it stays one factor
    num = {8: QRAT_ONE, 0: qr({4: -1})}
    r = ratfn(num, _EXTRA["x2+q"])
    assert r.den == _EXTRA["x2+q"]
    assert r.num == num


# ------------------------------------------------------------ fallback ----


def test_generic_path_serves_a_non_binomial_denominator(monkeypatch):
    # (x**2 + q)(x**2 - q) / ((x**2 + q)(x**2 - q**2)): x**2 + q is no
    # binomial x**2 - q**m, so the gcd runs on the generic path, and the
    # reduced denominator x**2 - q**2 is stored factored again
    calls = []
    xp_gcd = ratfunc.xp_gcd

    def spy(a, b):
        calls.append(1)
        return xp_gcd(a, b)

    monkeypatch.setattr(ratfunc, "xp_gcd", spy)
    a = {"coeff": 1, "xpow": 0, "qpow": 0, "num": [], "lin": [(-1, 4)],
         "den": [], "extra": "x2+q"}
    # the bracket x q**-4 - x**-1 q**4 carries the binomial x**2 - q**2
    b = {"coeff": 1, "xpow": 0, "qpow": 0, "num": [], "lin": [(1, 4)],
         "den": [-4], "extra": None}
    ra, rb = build_rf(a), build_rf(b)
    assert ra.fac is None and rb.fac == {8: 1}
    r = ra * rb
    assert calls
    assert_canonical(r, oracle([a, b], BINARY["mul"]))
    assert r.fac == {8: 1}


def _bench_relations(*workloads):
    """The relation cases of the named workloads of bench/workloads.json."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.json"
    spec = json.loads(path.read_text())["workloads"]
    return [(c["relation"], tuple(F(x) for x in c["spins"]))
            for w in workloads for c in spec[w]["children"]
            if c["kind"] == "relation"]


# the twist family of the manifest first, then its other entries and the
# relation cases of the benchmark that are not in the list yet
GUARDED = [("GNF", (1, 1, F(1, 2))), ("GNF", (1, 1, 1))] + [
    (e.relation, e.spins) for e in default_manifest() if e.family == "twist"
]
GUARDED += [case for case in dict.fromkeys(
    [(e.relation, e.spins) for e in default_manifest() if e.family != "twist"]
    + _bench_relations("gnf_frontier", "recoupling")) if case not in GUARDED]


@pytest.mark.parametrize("relation,spins", GUARDED,
                         ids=["%s%s" % (r, tuple(map(str, s))) for r, s in GUARDED])
def test_relations_never_reach_the_generic_gcd(monkeypatch, relation, spins):
    # every x-denominator of these checks is a product of binomials and
    # cyclotomic factors and every numerator a polynomial in y, so no
    # generic gcd may run and no value with a G may be built
    def refuse(*args):
        raise AssertionError("generic x-level gcd or a G value reached")

    monkeypatch.setattr(ratfunc, "xp_gcd", refuse)
    monkeypatch.setattr(ratfunc, "_general", refuse)
    assert verify_relation(relation, spins).ok


# ------------------------------------------------ common q-denominators ----
#
# The operands above carry no q-denominator.  These are operands over
# products of cyclotomic factors Phi_d(q**2), so that sums, products and
# quotients move the common q-denominator of the flat form: its alignment,
# its cancellation, and the rebuild from reduced rows when the exponents of
# q**(1/4) in a numerator fall into several classes mod 8.  A result built
# again from its own views must be the same value, which fails unless the
# common q-denominator is minimal.

QFACTORS = st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=2)


@st.composite
def q_operands(draw):
    """(spec, q-numerator factors, q-denominator factors).  Half of them have
    shifts in whole powers of q, so that a numerator stays in one class mod
    8 and its factors cancel on the flat path."""
    spec = draw(binomial_operands)
    if draw(st.booleans()):
        spec = dict(spec, qpow=8 * (spec["qpow"] // 8),
                    num=[4 * (c // 4) for c in spec["num"]],
                    den=[4 * (c // 4) for c in spec["den"]],
                    lin=[(a, 8 * (e // 8)) for a, e in spec["lin"]])
    return spec, draw(QFACTORS), draw(QFACTORS)


def _phi_coeffs(d):
    """The coefficients of Phi_d, from t**0 up."""
    t = sp.Symbol("t")
    return [int(c) for c in sp.Poly(sp.cyclotomic_poly(d, t), t).all_coeffs()[::-1]]


def _phi_u8(d):
    return {8 * j: c for j, c in enumerate(_phi_coeffs(d)) if c}


def build_q_rf(op):
    spec, up, down = op
    r = build_rf(spec)
    for d in up:
        r = r * ratfn({0: qrat(_phi_u8(d))})
    for d in down:
        r = r * ratfn({0: qrat({0: 1}, _phi_u8(d))})
    return r


def q_oracle(K, op):
    spec, up, down = op
    value = K.spec(spec)
    for d in up:
        value *= K.qpoly(_phi_u8(d))
    for d in down:
        value /= K.qpoly(_phi_u8(d))
    return value


def test_q_denominators_match_oracle():
    @SETTINGS
    @hyp.given(q_operands(), q_operands(), st.sampled_from(sorted(BINARY)))
    def run(a, b, op):
        fn = BINARY[op]
        got = fn(build_q_rf(a), build_q_rf(b))
        assert_canonical(got, fn(q_oracle(FIELD, a), q_oracle(FIELD, b)))
        again = ratfn(got.num, got.den)
        assert again == got and hash(again) == hash(got)

    run()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_common_q_factor_cancels_from_a_sum(d):
    # x / Phi_d + (Phi_d y - x) / Phi_d = y, on operands in whole powers of q
    phi = ratfn({0: qrat(_phi_u8(d))})
    x = build_rf({"coeff": 2, "xpow": 0, "qpow": 8, "num": [4], "lin": [],
                  "den": [-4], "extra": None})
    y = build_rf({"coeff": -1, "xpow": 4, "qpow": 0, "num": [8], "lin": [],
                  "den": [], "extra": None})
    s = x / phi + (phi * y - x) / phi
    assert s == y and hash(s) == hash(y)
    assert s.dq == y.dq == {}


def test_a_q_factor_that_cancels_in_part_leaves_the_flat_form():
    # u / (q**2 - 1) - 1 / (q**2 - 1) = (u - 1) / (u**8 - 1), u = q**(1/4):
    # u - 1 divides u**8 - 1, so the reduced denominator is no product of
    # cyclotomic factors in q**2, and the value keeps it whole as G
    phi1 = _phi_u8(1)
    s = ratfn({0: qrat({1: 1}, phi1)}) - ratfn({0: qrat({0: 1}, phi1)})
    assert s == ratfn({0: qrat({1: 1, 0: -1}, phi1)})
    assert s.g is not None and s.num[0].fac is None
    K = Field()
    assert K.xpoly(s.num) / K.xpoly(s.den) - (K.u - 1) / (K.u ** 8 - 1) == 0


def test_a_sum_whose_binomials_mix_rows_keeps_its_rows_reduced():
    # 1/(q**2 - 1) + 1/(<0><1/4>): the first numerator times the binomials
    # of the second has a row that shares part of q**2 - 1 = Phi_1(q**2),
    # which only the first side has, so that row's reduced q-denominator is
    # no product of cyclotomic factors.  The whole reduced denominator is
    # Phi_1(q**2) times binomials, so the sum is flat
    a = (dict(_ONE_Q_SPEC), [], [1])
    b = (dict(_ONE_Q_SPEC, den=[0, 1]), [], [])
    got = build_q_rf(a) + build_q_rf(b)
    assert_canonical(got, q_oracle(FIELD, a) + q_oracle(FIELD, b))
    assert ratfn(got.num, got.den) == got
    assert got.g is None and got.dq == {1: 1}
    assert any(c.fac is None for c in got.num.values())


_ONE_Q_SPEC = {"coeff": 1, "xpow": 0, "qpow": 0, "num": [], "lin": [],
               "den": [], "extra": None}
