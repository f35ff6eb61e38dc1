"""The benchmark's per-layer counters follow functions by name.

bench/child.py maps (module stem, function name) pairs to the metrics it
aggregates from a profile, in its FOLLOWED and EUCLID tables.  A function
renamed or moved away from its module would silently zero its counter, so
every pair must still name a function defined in src/dynrmat/<module>.py.
The tables are read from the source, without running the script.

bench/run.py groups the manifest entries by the family labels in its
FAMILIES, so every family of the default manifest must be one of them.
"""

import ast
from pathlib import Path

import pytest

from dynrmat.suite import default_manifest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "bench" / "child.py"
RUN = ROOT / "bench" / "run.py"
SRC = ROOT / "src" / "dynrmat"


def _constant(path, name):
    """A top-level constant of the script at path, read from its source."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no constant %s in %s" % (name, path))


def _defined(module):
    tree = ast.parse((SRC / ("%s.py" % module)).read_text())
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


PAIRS = sorted(set(_constant(CHILD, "FOLLOWED"))
               | set(_constant(CHILD, "EUCLID")))


@pytest.mark.parametrize("module,function", PAIRS,
                         ids=["%s.%s" % pair for pair in PAIRS])
def test_followed_function_exists(module, function):
    assert function in _defined(module)


def test_manifest_families_are_bench_families():
    # per_layer indexes a dict by these labels: a new label raises KeyError
    # in the traced sweep run and makes it exit 1
    families = _constant(RUN, "FAMILIES")
    assert {e.family for e in default_manifest()} <= set(families)
