"""No function stores into a module-level container, and no module keeps
an import it does not use.

Built values are remembered by functools.cache, which gives every cache a
cache_clear and a cache_info; a dict filled by hand has neither.  The
module-level constants NO_FACTORS, QP_ZERO, QP_ONE and XP_ONE are
shared by every value that has no factors or is 0 or 1, so a store into one
of them would change all of those values at once.  The first guard flags
any subscript store or delete, inside a function of src/dynrmat, whose base
is a name bound at the top of the module and not bound in the function.

The second guard flags a name that a module other than __init__.py imports
but neither uses nor lists in __all__: what a refactor leaves behind.

The third guard keeps the row format of an XNum inside polys.py: no other
module calls XNum(...) or reads an attribute named like one of its format
fields (b, s, o, bound, tight, d).  It is stricter than it need be, since
it flags such a read of any object; no module outside polys.py has one.

The source is read, not run.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dynrmat"
MODULES = sorted(SRC.glob("*.py"))


def _bound(nodes):
    """The names that the statements `nodes` bind at their own level."""
    names = set()
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                names.update(n.id for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return names


def _locals(func):
    """The parameters of `func` and the names it assigns anywhere."""
    a = func.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
    names.update(p.arg for p in (a.vararg, a.kwarg) if p is not None)
    names.update(n.id for n in ast.walk(func)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def _base(node):
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node


def module_stores(path):
    """(line, name) of each subscript store into a module-level name made
    inside a function of the module at `path`."""
    tree = ast.parse(path.read_text())
    module_names = _bound(tree.body)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = _locals(func)
        for node in ast.walk(func):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                base = _base(node.value)
                if (isinstance(base, ast.Name) and base.id in module_names
                        and base.id not in local):
                    found.append((node.lineno, base.id))
    return sorted(set(found))


def test_the_guard_sees_a_cache_filled_by_hand(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from .multisets import NO_FACTORS\n"
        "_CACHE = {}\n"
        "def f(k):\n"
        "    _CACHE[k] = 1\n"
        "    NO_FACTORS[k] += 1\n"
        "    out = {}\n"
        "    out[k] = 1\n"
        "def g(_CACHE, k):\n"
        "    _CACHE[k] = 1\n")
    assert module_stores(src) == [(4, "_CACHE"), (5, "NO_FACTORS")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_function_stores_into_module_state(path):
    assert module_stores(path) == []


def unused_imports(path):
    """The names that the module at `path` imports, anywhere in it, but
    neither reads nor lists in its __all__."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_guard_sees_an_unused_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import itertools\n"
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "from .spins import coproduct, embed, rep_h\n"
        "__all__ = ['coproduct']\n"
        "def f():\n"
        "    from .scalar import qnum\n"
        "    return itertools.chain(os.path, rep_h)\n")
    assert unused_imports(src) == ["F", "embed", "qnum"]


SOURCES = [p for p in MODULES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_module_keeps_an_unused_import(path):
    assert unused_imports(path) == []


FORMAT_FIELDS = {"b", "s", "o", "bound", "tight", "d"}


def row_format_uses(path):
    """(line, name) of each call of XNum and each read of an attribute named
    like a format field of an XNum in the module at `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "XNum":
                found.append((node.lineno, "XNum"))
        elif (isinstance(node, ast.Attribute) and node.attr in FORMAT_FIELDS
              and isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, node.attr))
    return sorted(set(found))


def test_the_guard_sees_the_row_format_read_outside_polys(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from . import polys\n"
        "def scaled(m, n, c):\n"
        "    if not m.b or n.bound >> n.b:\n"
        "        return polys.XNum({}, n.o, n.s, n.b, n.bound, n.tight, n.d)\n"
        "    return n.rows, m.dq\n")
    assert row_format_uses(src) == [
        (3, "b"), (3, "bound"), (4, "XNum"), (4, "b"), (4, "bound"),
        (4, "d"), (4, "o"), (4, "s"), (4, "tight")]


OUTSIDE_POLYS = [p for p in MODULES if p.name != "polys.py"]


@pytest.mark.parametrize("path", OUTSIDE_POLYS,
                         ids=[p.stem for p in OUTSIDE_POLYS])
def test_only_polys_knows_the_xnum_row_format(path):
    assert row_format_uses(path) == []
