"""Pinned output bytes: sha256 of CLI outputs against tests/golden/.

The hashes fix every printed and serialized byte, so a change to the
arithmetic kernel or the printers is checked against fixed bytes rather than
against itself.  After an intended output change, rewrite the fixture with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from dynrmat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "sha256.json"

DUMPS = [
    ("rmatrix", "1/2,1/2"),
    ("twist", "1/2,1"),
    ("boundary", "1"),
    ("phi", "1/2,1/2,1/2"),
    ("lax", "1/2"),
    ("hamiltonian", "2"),
    ("rmatrix", "1,1"),
    ("twist", "1,1"),
    ("phi", "1/2,1/2,1"),
    ("phi", "1,1,1"),
    ("twist", "3/2,3/2"),
]

SYMBOLS = [
    ("3j", "--j", "2,3/2,3/2", "--m", "1,-1/2,1/2"),
    ("6j", "--j", "3/2,3/2,1,3/2,3/2,2"),
    ("m", "--j", "2", "--sigma", "1", "--m", "1"),
    ("limit3j", "--j", "3/2", "--sigma", "1/2", "--m", "1/2"),
    ("6j", "--j", "2,2,2,2,2,2"),
    ("6j", "--j", "5/2,5/2,2,5/2,5/2,3"),
    ("3j", "--j", "5/2,2,3/2", "--m", "1/2,-1,-1/2"),
]

LAME = [
    ("hamiltonian", "--j", "1"),
    ("wavefunction", "--j", "2", "--k", "3"),
]

FORMATS = ("json", "latex", "text")

CASES = (
    [("verify", "all", "--format", "json")]
    + [
        ("dump", kind, "--spins", spins, "--format", fmt)
        for kind, spins in DUMPS
        for fmt in FORMATS
    ]
    + [("symbol",) + args + ("--format", fmt) for args in SYMBOLS for fmt in FORMATS]
    + [("lame",) + args + ("--format", fmt) for args in LAME for fmt in FORMATS]
    + [("limits", "--spins", "1/2,1/2", "--format", fmt) for fmt in ("json", "text")]
)


def _key(argv):
    return " ".join(argv)


def _sha256(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, _key(argv)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert _sha256(argv) == golden[_key(argv)]


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(map(_key, CASES))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    hashes = {_key(argv): _sha256(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
