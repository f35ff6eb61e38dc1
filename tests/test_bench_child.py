"""The benchmark child runs every spec kind and gives the right verdicts.

bench/child.py is run as it stands, in a fresh process per spec, as the
benchmark runs it: the known-false controls must all fail, and the relations,
manifest entries and a profiled two-job sweep must all pass.  A child that
crashes or prints no result fails the test.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from dynrmat.suite import default_manifest

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def _run_child(spec):
    proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "ready" in json.loads(lines[0])
    return json.loads(lines[-1])


def _verdicts(out):
    return [v for r in out["results"] for v in r["verdicts"]]


def test_controls_all_fail():
    out = _run_child({"kind": "controls"})
    assert len(out["results"]) == 4
    assert set(_verdicts(out)) == {"fail"}


@pytest.mark.parametrize("family,relation", [("twist", "GNF"),
                                             ("symbols", "RECOUPLING")])
def test_relations_pass(family, relation):
    out = _run_child({"kind": "relation", "family": family,
                      "relation": relation, "spins": ["1/2"] * 3,
                      "name": relation})
    assert _verdicts(out) == ["pass"]


@pytest.mark.parametrize("index", [0, len(default_manifest()) - 1],
                         ids=["first", "last"])
def test_manifest_entries_pass(index):
    out = _run_child({"kind": "entry", "index": index})
    assert _verdicts(out) == ["pass"]


def test_profiled_two_job_sweep_passes():
    out = _run_child({"kind": "sweep", "jobs": 2, "warm": False,
                      "profile": True})
    assert _verdicts(out) == ["pass"] * len(default_manifest())
    profile = out["profile"]
    assert profile["layers"]["scalar"]["calls"] > 0
    assert profile["funcs"]["scalar.term_mul"]["calls"] > 0
