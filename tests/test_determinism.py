"""A cold sweep makes the same calls in every process.

The traced benchmark (bench/run.py --trace 1) profiles a cold manifest-v1
pass twice, each time in a fresh process at one PYTHONHASHSEED, the way
bench/child.py does, and refuses a tree whose two profiles differ.  Counts
move between processes when work depends on where objects sit in memory
(iteration in id() order) or on a cache that outlives a process.  They also
move when two code objects of the package share a (file, first line, name)
label, such as two comprehensions that start on one line: pstats keeps one
entry per label, and which of the two it keeps depends on where the code
objects were allocated.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "dynrmat").glob("*.py"))

# argv[1] objects are allocated before the import, to move every address
# the package's objects get
_PROFILED_SWEEP = r"""
import cProfile, json, pstats, sys
from pathlib import Path
padding = [object() for _ in range(int(sys.argv[1]))]
from dynrmat.suite import default_manifest, run_suite
manifest = default_manifest()
profile = cProfile.Profile()
profile.enable()
run_suite(manifest)
profile.disable()
print(json.dumps({"%s:%d:%s" % key: stat[1]
                  for key, stat in pstats.Stats(profile).stats.items()
                  if "dynrmat" in Path(key[0]).parts}))
"""


def _profiled_counts(padding):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _PROFILED_SWEEP, str(padding)],
                          env=env, capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_two_processes_make_the_same_calls():
    first = _profiled_counts(0)
    second = _profiled_counts(100_000)
    assert first, "no package function was profiled"
    differ = sorted(k for k in first.keys() | second.keys()
                    if first.get(k) != second.get(k))
    assert not differ


def _labels(code):
    yield code.co_firstlineno, code.co_name
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _labels(const)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_code_objects_have_distinct_profile_labels(path):
    labels = list(_labels(compile(path.read_text(), str(path), "exec")))
    shared = sorted({label for label in labels if labels.count(label) > 1})
    assert not shared
