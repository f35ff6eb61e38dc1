"""The full verification sweep as one ordered, versioned manifest.

Every relation name registered in the twist, symbols, and lame modules
appears at least once, plus the defining-relation checks of the matrix
representations and the float coherence checks.  Reports come back in
manifest order.
"""

import time
from collections import namedtuple
from fractions import Fraction

from .lame import LAME_RELATIONS, verify_lame_relation
from .numeric import verify_numeric_coherence, verify_prelimit_convergence
from .report import VerificationReport
from .spins import check_algebra
from .symbols import SYMBOL_RELATIONS, verify_symbol_relation
from .twist import RELATIONS, verify_relation

__all__ = [
    "MANIFEST_VERSION",
    "SuiteEntry",
    "default_manifest",
    "relation_family",
    "run_entry",
    "run_suite",
]

NUMERIC_CHECKS = ("PRELIMIT_3J", "NUMERIC_COHERENCE")


def relation_family(name):
    """Which registry a relation name lives in."""
    if name == "ALGEBRA":
        return "spins"
    if name in RELATIONS:
        return "twist"
    if name in SYMBOL_RELATIONS:
        return "symbols"
    if name in LAME_RELATIONS:
        return "lame"
    if name in NUMERIC_CHECKS:
        return "numeric"
    raise KeyError(name)

MANIFEST_VERSION = 1

SuiteEntry = namedtuple("SuiteEntry", ["family", "relation", "spins"])

H = Fraction(1, 2)


def _e(family, relation, *spins):
    return SuiteEntry(family, relation, tuple(Fraction(s) for s in spins))


def default_manifest():
    entries = [
        # defining matrix relations, generators and ladder normalizations
        _e("spins", "ALGEBRA", 0),
        _e("spins", "ALGEBRA", H),
        _e("spins", "ALGEBRA", 1),
        _e("spins", "ALGEBRA", Fraction(3, 2)),
        _e("spins", "ALGEBRA", 2),
        _e("spins", "ALGEBRA", Fraction(5, 2)),
        # constant exchange matrix and its fusion
        _e("twist", "RD_INTERTWINER", H, H),
        _e("twist", "RD_INTERTWINER", H, 1),
        _e("twist", "RD_INTERTWINER", 1, 1),
        _e("twist", "RD_FUSION", H, H, H),
        # dynamical exchange equation
        _e("twist", "GNF", H, H, H),
        _e("twist", "GNF", H, H, 1),
        _e("twist", "GNF", H, 1, H),
        _e("twist", "GNF", 1, H, H),
        _e("twist", "GNF", 1, 1, H),
        # twist identities
        _e("twist", "COCYCLE", H, H, H),
        _e("twist", "COCYCLE", H, 1, H),
        _e("twist", "COBOUNDARY", H, H),
        _e("twist", "COBOUNDARY", H, 1),
        _e("twist", "COBOUNDARY", 1, 1),
        _e("twist", "DELTAX_HOMOMORPHISM", H, H),
        # associator identities
        _e("twist", "PHI_FORMS", H, H, H),
        _e("twist", "PHI_FORMS", H, H, 1),
        _e("twist", "SHIFTED_COASSOC", H, H, H),
        _e("twist", "PHI_CONJUGATION", H, H, H),
        _e("twist", "QUASI_YBE", H, H, H),
        _e("twist", "QUASITRIANG_LEFT", H, H, H),
        _e("twist", "QUASITRIANG_RIGHT", H, H, H),
        # degeneration endpoints of the twist family
        _e("twist", "TWIST_LIMITS", H, 1),
        _e("twist", "TWIST_LIMITS", H, H),
        # coupling-symbol dictionary
        _e("symbols", "M_DICTIONARY", H),
        _e("symbols", "M_DICTIONARY", 1),
        _e("symbols", "M_LIMIT_FORMULA", H),
        _e("symbols", "M_LIMIT_FORMULA", 1),
        _e("symbols", "R_DICTIONARY", H, H),
        _e("symbols", "F_DICTIONARY", H, H),
        _e("symbols", "DELTA_M_DECOMPOSITION", H, H),
        _e("symbols", "RECOUPLING", H, H, H),
        # numeric mirrors of the continuation
        _e("numeric", "PRELIMIT_3J"),
        _e("numeric", "NUMERIC_COHERENCE"),
        # difference-operator spectral suite
        _e("lame", "INTERTWINING", 1),
        _e("lame", "INTERTWINING", 2),
        _e("lame", "INTERTWINING", 3),
        _e("lame", "INTERTWINING", 4),
        _e("lame", "WAVEFUNCTION_ROUTES", 1),
        _e("lame", "WAVEFUNCTION_ROUTES", 2),
        _e("lame", "WAVEFUNCTION_ROUTES", 3),
        _e("lame", "EIGEN_EQUATION", 1),
        _e("lame", "EIGEN_EQUATION", 2),
        _e("lame", "EIGEN_EQUATION", 3),
        _e("lame", "EXCLUSION", 1),
        _e("lame", "EXCLUSION", 2),
        _e("lame", "EXCLUSION", 3),
        _e("lame", "RESIDUES", 1),
        _e("lame", "RESIDUES", 2),
        _e("lame", "RESIDUES", 3),
        _e("lame", "SPECTRAL_PROPERTIES", 1),
        _e("lame", "TRANSFER_RESTRICTION", 1),
        _e("lame", "TRANSFER_RESTRICTION", 2),
        _e("lame", "TRANSFER_RESTRICTION", 3),
        _e("lame", "LAX_ROUTES", 0),
        _e("lame", "LAX_ROUTES", H),
        _e("lame", "LAX_ROUTES", 1),
        _e("lame", "RLL", H),
        _e("lame", "RLL", 1),
        _e("lame", "CLASSICAL_LIMIT", 1),
        _e("lame", "CLASSICAL_LIMIT", 2),
    ]
    covered = {e.relation for e in entries}
    missing = (set(RELATIONS) | set(SYMBOL_RELATIONS) | set(LAME_RELATIONS)) - covered
    if missing:
        raise AssertionError("manifest misses relations: %s" % sorted(missing))
    return tuple(entries)


def _run_algebra(spin):
    t0 = time.perf_counter()
    ok, message = check_algebra(spin)
    return VerificationReport(
        relation="ALGEBRA",
        spins=(Fraction(spin),),
        mode="exact",
        status="pass" if ok else "fail",
        failing_entry=None if ok else {"message": message},
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


def run_entry(entry, mode="exact", q0=None, x0=None):
    family, relation, spins = entry
    if family == "spins":
        return _run_algebra(spins[0])
    if family == "twist":
        return verify_relation(relation, spins, mode=mode, q0=q0, x0=x0)
    if family == "symbols":
        return verify_symbol_relation(relation, spins, mode=mode, q0=q0, x0=x0)
    if family == "lame":
        return verify_lame_relation(relation, spins, mode=mode, q0=q0, x0=x0)
    if family == "numeric":
        if relation == "PRELIMIT_3J":
            return verify_prelimit_convergence()
        if relation == "NUMERIC_COHERENCE":
            return verify_numeric_coherence()
    raise ValueError("unknown suite entry %r" % (entry,))


def run_suite(manifest=None, mode="exact", q0=None, x0=None, jobs=1):
    """Run every manifest entry in order and return their reports.

    `jobs` is accepted for compatibility and ignored: the entries are pure
    Python, so worker threads would only take turns on the interpreter lock.
    """
    if manifest is None:
        manifest = default_manifest()
    return [run_entry(e, mode=mode, q0=q0, x0=x0) for e in manifest]
