"""Manifest coverage, ordering, and the parallel runner."""

import time
from fractions import Fraction as F

import pytest

from dynrmat.lame import LAME_RELATIONS
from dynrmat.report import run_comparisons
from dynrmat.scalar import SC_ONE
from dynrmat.suite import (
    MANIFEST_VERSION,
    SuiteEntry,
    default_manifest,
    relation_family,
    run_entry,
    run_suite,
)
from dynrmat.symbols import SYMBOL_RELATIONS
from dynrmat.twist import RELATIONS


def test_manifest_version_pinned():
    assert MANIFEST_VERSION == 1


def test_manifest_covers_every_registered_relation():
    names = {e.relation for e in default_manifest()}
    for name in RELATIONS:
        assert name in names
    for name in SYMBOL_RELATIONS:
        assert name in names
    for name in LAME_RELATIONS:
        assert name in names
    assert "ALGEBRA" in names
    assert "PRELIMIT_3J" in names and "NUMERIC_COHERENCE" in names


def test_manifest_is_deterministic():
    assert default_manifest() == default_manifest()


def test_family_resolution():
    assert relation_family("ALGEBRA") == "spins"
    assert relation_family("GNF") == "twist"
    assert relation_family("M_DICTIONARY") == "symbols"
    assert relation_family("EIGEN_EQUATION") == "lame"
    assert relation_family("PRELIMIT_3J") == "numeric"
    with pytest.raises(KeyError):
        relation_family("NOPE")


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


def test_parallel_runner_preserves_manifest_order():
    manifest = default_manifest()[:8]
    seq = run_suite(manifest, jobs=1)
    par = run_suite(manifest, jobs=4)
    key = lambda r: (r.relation, r.spins, r.status)
    assert [key(r) for r in seq] == [key(r) for r in par]
    assert [r.relation for r in seq] == [e.relation for e in manifest]


@pytest.mark.parametrize("family", ["symbols", "lame"])
def test_elapsed_ms_includes_building_the_comparisons(monkeypatch, family):
    def slow(*spins, mode="exact", q0=None, x0=None):
        time.sleep(0.05)  # building the comparisons
        return run_comparisons("SLOW", spins, [("one", SC_ONE, SC_ONE)], mode=mode)

    if family == "symbols":
        monkeypatch.setitem(SYMBOL_RELATIONS, "SLOW", (slow, 1))
    else:
        monkeypatch.setitem(LAME_RELATIONS, "SLOW", slow)
    report = run_entry(SuiteEntry(family, "SLOW", (F(1),)))
    assert report.ok
    assert report.elapsed_ms >= 50
