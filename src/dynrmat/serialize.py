"""Canonical JSON, LaTeX and plain-text forms for scalars and operators.

Dumps are deterministic: entries in sorted index order, JSON with sorted
keys and fixed separators, no timing or environment data.  Parsing a dump
rebuilds an object that compares equal to the original.

A scalar prints through the one walk in `scalar.py` (plain text through
`str`, LaTeX through `scalar_latex`); this module adds only the layouts
around it: pmatrix and "(r,c):" lines for matrices, and the shift-operator
printers.
"""

import json
from fractions import Fraction

from .lame import QDOMatrix, QDiffOperator
from .lattice import DENOM, ratio_str
from .scalar import Scalar, _wrap, scalar_latex
from .spins import GradedOperator, TensorSpace

__all__ = [
    "to_payload",
    "from_payload",
    "dumps_canonical",
    "latex",
    "plain_text",
]


# ----------------------------------------------------------------- JSON ----


def to_payload(obj):
    if isinstance(obj, Scalar):
        return {"kind": "scalar", "value": obj.to_jsonable()}
    if isinstance(obj, GradedOperator):
        d = obj.to_jsonable()
        return {"kind": "graded_operator", "spins": d["spins"], "entries": d["entries"]}
    if isinstance(obj, QDiffOperator):
        return {
            "kind": "shift_operator",
            "shifts": {ratio_str(s): a.to_jsonable()
                       for s, a in sorted(obj.data.items())},
        }
    if isinstance(obj, QDOMatrix):
        return {
            "kind": "shift_operator_matrix",
            "spins": [ratio_str(s.twice, 2) for s in obj.space.spins],
            "entries": {
                "%d,%d" % rc: {ratio_str(s): a.to_jsonable()
                               for s, a in sorted(op.data.items())}
                for rc, op in sorted(obj.data.items())
            },
        }
    raise TypeError("cannot serialize %r" % type(obj).__name__)


def _parse_shifts(d):
    return QDiffOperator({s: Scalar.from_jsonable(a) for s, a in d.items()})


def from_payload(d):
    kind = d.get("kind")
    if kind == "scalar":
        return Scalar.from_jsonable(d["value"])
    if kind == "graded_operator":
        space = TensorSpace(tuple(Fraction(s) for s in d["spins"]))
        data = {}
        for key, sj in d["entries"].items():
            r, c = key.split(",")
            data[(int(r), int(c))] = Scalar.from_jsonable(sj)
        return GradedOperator(space, data)
    if kind == "shift_operator":
        return _parse_shifts(d["shifts"])
    if kind == "shift_operator_matrix":
        space = TensorSpace(tuple(Fraction(s) for s in d["spins"]))
        data = {}
        for key, shifts in d["entries"].items():
            r, c = key.split(",")
            data[(int(r), int(c))] = _parse_shifts(shifts)
        return QDOMatrix(space, data)
    raise ValueError("unknown payload kind %r" % (kind,))


def dumps_canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------- LaTeX ----


def _shift_power(s):
    """T**s for a shift s in lattice units."""
    if s == DENOM:
        return "T"
    return "T^{%s}" % ratio_str(s)


def _qdo_latex(op):
    if not op.data:
        return "0"
    parts = []
    for s in sorted(op.data):
        body = _wrap(scalar_latex(op.data[s]))
        if body == "1":
            parts.append(_shift_power(s))
        else:
            parts.append("%s \\, %s" % (body, _shift_power(s)))
    return " + ".join(parts)


def _matrix_latex(obj, entry):
    dim = obj.space.dim
    rows = []
    for r in range(dim):
        rows.append(" & ".join(
            entry(obj.data[(r, c)]) if (r, c) in obj.data else "0"
            for c in range(dim)
        ))
    return "\\begin{pmatrix}\n%s\n\\end{pmatrix}" % " \\\\\n".join(rows)


def latex(obj):
    if isinstance(obj, Scalar):
        return scalar_latex(obj)
    if isinstance(obj, GradedOperator):
        return _matrix_latex(obj, scalar_latex)
    if isinstance(obj, QDiffOperator):
        return _qdo_latex(obj)
    if isinstance(obj, QDOMatrix):
        return _matrix_latex(obj, _qdo_latex)
    raise TypeError("cannot format %r" % type(obj).__name__)


# ----------------------------------------------------------------- text ----


def plain_text(obj):
    if isinstance(obj, (Scalar, QDiffOperator)):
        return str(obj)
    if isinstance(obj, (GradedOperator, QDOMatrix)):
        lines = ["(%d,%d): %s" % (r, c, obj.data[(r, c)]) for r, c in sorted(obj.data)]
        return "\n".join(lines) if lines else "0"
    raise TypeError("cannot format %r" % type(obj).__name__)
