"""The benchmark's per-layer counters follow functions by name.

bench/child.py maps (module stem, function name) pairs to the metrics it
aggregates from a profile, in its FOLLOWED and EUCLID tables.  A function
renamed or moved away from its module would silently zero its counter, so
every pair must still name a function defined in src/dynrmat/<module>.py.
The tables are read from the source, without running the script.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "bench" / "child.py"
SRC = ROOT / "src" / "dynrmat"


def _table(name):
    for node in ast.parse(CHILD.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no table %s in %s" % (name, CHILD))


def _defined(module):
    tree = ast.parse((SRC / ("%s.py" % module)).read_text())
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


PAIRS = sorted(set(_table("FOLLOWED")) | set(_table("EUCLID")))


@pytest.mark.parametrize("module,function", PAIRS,
                         ids=["%s.%s" % pair for pair in PAIRS])
def test_followed_function_exists(module, function):
    assert function in _defined(module)
