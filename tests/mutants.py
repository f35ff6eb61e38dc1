"""Reproducible mutation checks: each mutant must make its tests fail.

    python3 tests/mutants.py [name ...]

Each entry of MUTANTS names a file of the tree, an exact snippet of it, the
snippet's replacement, and the test ids that must fail once the snippet is
replaced.  The script copies the tree to a temporary directory, checks that
the listed tests pass there, and then, one mutant at a time, replaces the
snippet, runs `pytest -x -q` on the mutant's tests and puts the file back.
A mutant whose tests still pass survives, and the exit status is then 1.

It uses only the standard library and pytest, and is not part of the
tier-1 run (it is no test_*.py file); tests/test_mutants.py checks there
that every snippet occurs exactly once, so that no entry goes stale.  The
whole list takes a few minutes.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path snippet replacement tests")

ORACLE = "tests/test_ratfunc_oracle.py"
ROWS = "tests/test_row_sums.py"

MUTANTS = [
    # --- the general denominator G (ratfunc._general and its kit)
    Mutant(
        "g-sign-not-normalized", "src/dynrmat/polys.py",
        "    if a.rows[max(a.rows)] < 0:\n        g = -g\n", "",
        [ORACLE + "::test_operands_are_canonical",
         ORACLE + "::test_binary_operations_match_oracle"]),
    Mutant(
        "g-never-flattened", "src/dynrmat/ratfunc.py",
        "    got = _flat(g)\n", "    got = None\n",
        [ORACLE + "::test_generic_path_serves_a_non_binomial_denominator",
         ORACLE + "::test_a_sum_whose_binomials_mix_rows_keeps_its_rows_"
         "reduced"]),
    Mutant(
        "no-cross-gcd-in-a-product", "src/dynrmat/ratfunc.py",
        "    if not (xp_is_monomial(na) or xp_is_monomial(db)):\n"
        "        _, na, db = xp_gcd(na, db)\n", "",
        [ORACLE + "::test_binary_operations_match_oracle"]),
    Mutant(
        "no-g-completion-in-row-sums", "src/dynrmat/ratfunc.py",
        "            for k, m in multisets.minus(lg, gk).items():\n"
        "                for _ in range(m):\n"
        "                    n = xp_mul(n, gs[k])\n", "",
        [ROWS + "::test_nested_values_are_summed_canonically"]),
    # --- the packed kit and the signed-sum row test
    Mutant(
        "xp-add-keeps-its-content", "src/dynrmat/polys.py",
        "    t = _packed(poly_add(ra, rb), o, s, w, bound, False, a.d)\n"
        "    return t if t.d == 1 else _lowered(t)\n",
        "    return _packed(poly_add(ra, rb), o, s, w, bound, False, a.d)\n",
        ["tests/test_polys.py::test_every_route_to_a_value_gives_one_"
         "canonical_xnum"]),
    Mutant(
        "xp-add-scales-one-side", "src/dynrmat/polys.py",
        "        a, b = _over(a, m), _over(b, m)\n",
        "        a = _over(a, m)\n",
        ["tests/test_polys.py::test_packed_kit_matches_sympy_near_the_slot_"
         "limit"]),
    Mutant(
        "q-cancel-at-one-width", "src/dynrmat/polys.py",
        "    while (got := _divided(x, fac)) is None:\n"
        "        _tighten(x)\n"
        "        x = _repack(x, max(2 * x.b, _width(x.bound * _norm(fac))),"
        " x.s)\n",
        "    if (got := _divided(x, fac)) is None:\n"
        "        return a, NO_FACTORS\n",
        ["tests/test_polys.py::test_packed_q_cancel_matches_sympy_near_the_"
         "slot_limit"]),
    Mutant(
        "row-sum-skips-the-dq-completion", "src/dynrmat/ratfunc.py",
        "            n = xp_binoms_mul(xp_qtimes(n, multisets.minus(lq, dq)),\n",
        "            n = xp_binoms_mul(n,\n",
        [ROWS + "::test_row_test_is_the_canonical_comparison"]),
    Mutant(
        "merged-radical-classes", "src/dynrmat/scalar.py",
        "                    groups.setdefault((c, atoms), []).append(\n",
        "                    groups.setdefault((c, _phase_of(atoms)[1]),"
        " []).append(\n",
        [ROWS + "::test_row_test_is_the_canonical_comparison"]),
    Mutant(
        "no-z8-fourth-power-fold", "src/dynrmat/scalar.py",
        "    atoms, sign = _phased(tuple(sorted(s1 ^ s2)), k1 + k2, 1)\n",
        "    atoms, sign = _phased(tuple(sorted(s1 ^ s2)), (k1 + k2) % 4, 1)\n",
        [ROWS + "::test_row_test_is_the_canonical_comparison"]),
]


def _pytest(tree, tests):
    """The exit status of `pytest -x -q` on the tests, run in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(tree, tests):
            print("the unmutated tree fails the mutants' tests")
            return 2
        survivors = []
        for m in chosen:
            path = tree / m.path
            text = path.read_text()
            if text.count(m.snippet) != 1:
                print("%-36s snippet not found once" % m.name)
                survivors.append(m.name)
                continue
            path.write_text(text.replace(m.snippet, m.replacement))
            try:
                status = _pytest(tree, m.tests)
            finally:
                path.write_text(text)
            killed = status == 1
            print("%-36s %s" % (m.name, "killed" if killed else
                                "SURVIVED (exit %d)" % status), flush=True)
            if not killed:
                survivors.append(m.name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
