"""The bytes of failure reports whose wrong entry reaches the last factor of
an operator product.

Each case plants one wrong value in a relation that holds: an entry of the
GNF exchange matrix, the sign of the k = 2 twist prefactor, or an entry of
an evaluated operator side.  Its `line()` and stable JSON are pinned by
sha256, at jobs=1 and with row workers forked before row 0, so a change to
how rows are checked cannot change a failure report silently.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from dynrmat import twist
from dynrmat.scalar import qpow
from dynrmat.spins import GradedOperator
from dynrmat.suite import verify_relation

H = F(1, 2)


def _times_q(op, key):
    """op with its entry at `key` times q."""
    data = dict(op.data)
    data[key] = data[key] * qpow(1)
    return GradedOperator(op.space, data)


def _plant_gnf_r(monkeypatch):
    build = twist._build_gnf_r

    def planted(s1, s2):
        op = build(s1, s2)
        return _times_q(op, (4, 4))

    monkeypatch.setattr(twist, "_build_gnf_r", planted)


def _plant_pref_f(monkeypatch):
    pref = twist._pref_f

    def planted(k, wa, wb):
        c, units, halves, x_units = pref(k, wa, wb)
        return (-c if k == 2 else c), units, halves, x_units

    monkeypatch.setattr(twist, "_pref_f", planted)


def _plant_delta_m(monkeypatch):
    delta_m = twist.delta_m

    def planted(j1, j2):
        op = delta_m(j1, j2)
        return _times_q(op, (4, 1))

    monkeypatch.setattr(twist, "delta_m", planted)


# (relation, spins, plant, (row, col) of the first failure, sha256 of the
# line and the stable JSON, joined by a newline)
CASES = [
    ("GNF", (1, 1, 1), _plant_gnf_r, (2, 12),
     "da71b7f1b16dea908b2ee72f9e2385304148b1f2148b3a397a46dd604ca459b7"),
    ("COCYCLE", (1, H, 1), _plant_pref_f, (2, 9),
     "cd25871dcceaa86a88b9b5719bd1ca9ed87d83b7ee819f35147ec97dc01752ea"),
    ("COBOUNDARY", (H, 1), _plant_delta_m, (4, 1),
     "d052c3729544e4f1dfb0b2f2fd700c223ca048789a915a152a3c39db60f43d13"),
]


@pytest.fixture
def clean_caches(cold_caches):
    """Clear every cache of the package before the test and after it, so
    that no value built from a planted function outlives the test."""
    yield
    for c in cold_caches:
        c.cache_clear()


def _digest(rep):
    text = rep.line() + "\n" + json.dumps(rep.to_jsonable(stable=True),
                                          sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, spins, plant, entry, digest", CASES,
                         ids=[c[0] for c in CASES])
def test_planted_failure_bytes_are_pinned(monkeypatch, eager_workers,
                                          clean_caches, name, spins, plant,
                                          entry, digest):
    plant(monkeypatch)
    for jobs in (1, 2):
        rep = verify_relation(name, spins, jobs=jobs)
        assert not rep.ok
        assert (rep.failing_entry["row"], rep.failing_entry["col"]) == entry
        assert _digest(rep) == digest
    assert len(eager_workers) == 1
