"""The parse edge of the exponent and spin lattices, and what it costs.

Inside the package an exponent is an int count of 1/D units and a spin is
the doubled int 2j; lattice.to_units and lattice.twice turn the values a
caller gives into those ints.  The contracts below hold them to the exact
arithmetic of Fraction, which the reference functions spell out, on ints,
Fractions, strings and dyadic floats.  The last test pins how little
Fraction arithmetic a cold sweep has left.
"""

import fractions
import sys
from fractions import Fraction as F

import pytest

from dynrmat.lattice import DENOM, LatticeError, from_units, ratio_str, to_units, twice
from dynrmat.spins import Spin
from dynrmat.suite import default_manifest, run_suite

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies

SETTINGS = hyp.settings(max_examples=200, deadline=None, database=None,
                        derandomize=True)


def _units_reference(e):
    """to_units by Fraction arithmetic, as it was first written."""
    f = F(e)
    n = f * DENOM
    if n.denominator != 1:
        raise LatticeError("exponent %s not on the (1/%d)Z lattice" % (f, DENOM))
    return int(n)


def _twice_reference(v):
    f = F(v) * 2
    if f.denominator != 1:
        raise ValueError("%s is not a half-integer" % (F(v),))
    return int(f)


NUMERATORS = st.integers(-10**6, 10**6)
ON_LATTICE_FRACTIONS = st.builds(F, NUMERATORS, st.sampled_from([1, 2, 4]))
ON_LATTICE = st.one_of(
    NUMERATORS,
    ON_LATTICE_FRACTIONS,
    ON_LATTICE_FRACTIONS.map(str),
    NUMERATORS.map(lambda n: "%.2f" % (n / 4)),  # "-0.75", "12.50", ...
    st.builds(lambda n, k: n / 2 ** k, NUMERATORS, st.integers(0, 2)),
)
OFF_LATTICE_FRACTIONS = st.builds(F, NUMERATORS, st.integers(1, 60)).filter(
    lambda f: DENOM % f.denominator)


@SETTINGS
@hyp.given(ON_LATTICE)
def test_to_units_agrees_with_fraction_arithmetic(e):
    got = to_units(e)
    assert type(got) is int
    assert got == _units_reference(e)


@SETTINGS
@hyp.given(ON_LATTICE)
def test_units_round_trip_on_the_lattice(e):
    assert from_units(to_units(e)) == F(e)


@SETTINGS
@hyp.given(st.one_of(OFF_LATTICE_FRACTIONS, OFF_LATTICE_FRACTIONS.map(str),
                     st.builds(lambda n: (2 * n + 1) / 8, NUMERATORS)))
def test_off_lattice_exponents_raise(e):
    with pytest.raises(LatticeError):
        _units_reference(e)
    with pytest.raises(LatticeError):
        to_units(e)


@pytest.mark.parametrize("e", [F(1, 8), "1/3", 0.1, F(-5, 12)])
def test_named_off_lattice_exponents_raise(e):
    with pytest.raises(LatticeError, match="not on the"):
        to_units(e)


@SETTINGS
@hyp.given(st.integers(0, 400))
def test_spin_reads_every_form_of_a_half_integer(t):
    j = F(t, 2)
    forms = [j, str(j), float(j)]
    if t % 2 == 0:
        forms.append(t // 2)
    for form in forms:
        assert Spin(form).twice == t
        assert twice(form) == t == _twice_reference(form)
    assert Spin(Spin(j)).twice == t


@SETTINGS
@hyp.given(st.integers(1, 400))
def test_negative_spins_raise(t):
    for form in (F(-t, 2), str(F(-t, 2)), -t / 2):
        with pytest.raises(ValueError, match="nonnegative half-integer"):
            Spin(form)


@SETTINGS
@hyp.given(st.builds(F, NUMERATORS, st.integers(3, 60)).filter(
    lambda f: f.denominator > 2))
def test_spins_off_the_half_integers_raise(f):
    for form in (f, str(f)):
        with pytest.raises(ValueError, match="nonnegative half-integer"):
            Spin(form)
        with pytest.raises(ValueError, match="not a half-integer"):
            twice(form)


@SETTINGS
@hyp.given(NUMERATORS, st.integers(1, 12))
def test_ratio_str_prints_as_fraction(n, d):
    assert ratio_str(n, d) == str(F(n, d))


# --------------------------------------------------- the cost of a sweep ----

# "call" events in fractions.py over one cold manifest-v1 pass.  When every
# shift, q-power and spin went through Fraction the pass made 62,687 of them;
# with int units and doubled spins below the public entry points it makes
# 1,670, the rest being coefficient arithmetic over Q and the report spins.
FRACTION_CALLS_BOUND = 2500


def test_cold_sweep_makes_few_fraction_calls(cold_caches):
    manifest = default_manifest()
    here = fractions.__file__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == here:
            calls += 1

    sys.setprofile(count)
    try:
        reports = run_suite(manifest)
    finally:
        sys.setprofile(None)
    assert all(r.ok for r in reports)
    assert calls <= FRACTION_CALLS_BOUND, calls
