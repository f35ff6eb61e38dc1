"""The mutation checks of tests/mutants.py stay applicable.

Each mutant replaces an exact snippet of a source file, so a refactor that
rewrites the snippet would leave the mutant with nothing to change.  Every
snippet must occur exactly once in its file, and every test it names must
be a test function of its module.  The mutants themselves run outside the
tier-1 run: python3 tests/mutants.py.
"""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_every_snippet_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1
    assert mutant.snippet != mutant.replacement


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_every_named_test_exists(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, test
