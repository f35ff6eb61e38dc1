"""The relation table, the one verify path, and the full sweep.

RELATIONS maps every relation name to (family, arity, build).  For most
names `build(*spins)` returns a list of labelled (lhs, rhs) comparisons,
decided exactly or numerically by `run_comparisons`; ALGEBRA,
CLASSICAL_LIMIT, PRELIMIT_3J and NUMERIC_COHERENCE decide in a fixed mode
and return their own report.  `verify_relation` is the one function that
maps a name to its check; its elapsed_ms covers building the comparisons
as well as deciding them.  The manifest is an ordered, versioned list of (relation, spins)
in which every name appears at least once; reports come back in manifest
order.
"""

import time
from collections import namedtuple
from fractions import Fraction

from .lame import LAME_RELATIONS
from .numeric import verify_numeric_coherence, verify_prelimit_convergence
from .report import VerificationReport, check_point, resolve_jobs, run_comparisons
from .spins import check_algebra
from .symbols import SYMBOL_RELATIONS
from .twist import RELATIONS as TWIST_RELATIONS

__all__ = [
    "MANIFEST_VERSION",
    "RELATIONS",
    "SuiteEntry",
    "default_manifest",
    "run_entry",
    "run_suite",
    "verify_relation",
]


def _algebra(spin):
    ok, message = check_algebra(spin)
    return VerificationReport(
        relation="ALGEBRA",
        spins=(spin,),
        mode="exact",
        status="pass" if ok else "fail",
        failing_entry=None if ok else {"message": message},
    )


def _family(family, table):
    return {name: (family, arity, build) for name, (build, arity) in table.items()}


RELATIONS = {
    "ALGEBRA": ("spins", 1, _algebra),
    **_family("twist", TWIST_RELATIONS),
    **_family("symbols", SYMBOL_RELATIONS),
    **_family("lame", LAME_RELATIONS),
    "PRELIMIT_3J": ("numeric", 0, verify_prelimit_convergence),
    "NUMERIC_COHERENCE": ("numeric", 0, verify_numeric_coherence),
}


def verify_relation(name, spins=(), mode="exact", q0=None, x0=None, jobs=None):
    """Check one relation at the given spins; KeyError for an unknown name,
    ValueError for the wrong number of spins, an unknown mode, a point
    numeric mode cannot use (report.check_point) or a bad `jobs`, whether
    or not the relation decides in a fixed mode.  An operator comparison
    may check its rows in up to `jobs` processes (report.run_comparisons);
    the report does not depend on it."""
    check_point(mode, q0, x0)
    jobs = resolve_jobs(jobs)
    _, arity, build = RELATIONS[name]
    spins = tuple(Fraction(s) for s in spins)
    if len(spins) != arity:
        raise ValueError("%s expects %d spins, got %d" % (name, arity, len(spins)))
    t0 = time.perf_counter()
    report = build(*spins)
    if not isinstance(report, VerificationReport):
        report = run_comparisons(name, spins, report, mode=mode, q0=q0, x0=x0,
                                 jobs=jobs)
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


MANIFEST_VERSION = 1

SuiteEntry = namedtuple("SuiteEntry", ["family", "relation", "spins"])

H = Fraction(1, 2)


def _e(relation, *spins):
    family = RELATIONS[relation][0]
    return SuiteEntry(family, relation, tuple(Fraction(s) for s in spins))


def default_manifest():
    entries = [
        # defining matrix relations, generators and ladder normalizations
        _e("ALGEBRA", 0),
        _e("ALGEBRA", H),
        _e("ALGEBRA", 1),
        _e("ALGEBRA", Fraction(3, 2)),
        _e("ALGEBRA", 2),
        _e("ALGEBRA", Fraction(5, 2)),
        # constant exchange matrix and its fusion
        _e("RD_INTERTWINER", H, H),
        _e("RD_INTERTWINER", H, 1),
        _e("RD_INTERTWINER", 1, 1),
        _e("RD_FUSION", H, H, H),
        # dynamical exchange equation
        _e("GNF", H, H, H),
        _e("GNF", H, H, 1),
        _e("GNF", H, 1, H),
        _e("GNF", 1, H, H),
        _e("GNF", 1, 1, H),
        # twist identities
        _e("COCYCLE", H, H, H),
        _e("COCYCLE", H, 1, H),
        _e("COBOUNDARY", H, H),
        _e("COBOUNDARY", H, 1),
        _e("COBOUNDARY", 1, 1),
        _e("DELTAX_HOMOMORPHISM", H, H),
        # associator identities
        _e("PHI_FORMS", H, H, H),
        _e("PHI_FORMS", H, H, 1),
        _e("SHIFTED_COASSOC", H, H, H),
        _e("PHI_CONJUGATION", H, H, H),
        _e("QUASI_YBE", H, H, H),
        _e("QUASITRIANG_LEFT", H, H, H),
        _e("QUASITRIANG_RIGHT", H, H, H),
        # degeneration endpoints of the twist family
        _e("TWIST_LIMITS", H, 1),
        _e("TWIST_LIMITS", H, H),
        # coupling-symbol dictionary
        _e("M_DICTIONARY", H),
        _e("M_DICTIONARY", 1),
        _e("M_LIMIT_FORMULA", H),
        _e("M_LIMIT_FORMULA", 1),
        _e("R_DICTIONARY", H, H),
        _e("F_DICTIONARY", H, H),
        _e("DELTA_M_DECOMPOSITION", H, H),
        _e("RECOUPLING", H, H, H),
        # numeric mirrors of the continuation
        _e("PRELIMIT_3J"),
        _e("NUMERIC_COHERENCE"),
        # difference-operator spectral suite
        _e("INTERTWINING", 1),
        _e("INTERTWINING", 2),
        _e("INTERTWINING", 3),
        _e("INTERTWINING", 4),
        _e("WAVEFUNCTION_ROUTES", 1),
        _e("WAVEFUNCTION_ROUTES", 2),
        _e("WAVEFUNCTION_ROUTES", 3),
        _e("EIGEN_EQUATION", 1),
        _e("EIGEN_EQUATION", 2),
        _e("EIGEN_EQUATION", 3),
        _e("EXCLUSION", 1),
        _e("EXCLUSION", 2),
        _e("EXCLUSION", 3),
        _e("RESIDUES", 1),
        _e("RESIDUES", 2),
        _e("RESIDUES", 3),
        _e("SPECTRAL_PROPERTIES", 1),
        _e("TRANSFER_RESTRICTION", 1),
        _e("TRANSFER_RESTRICTION", 2),
        _e("TRANSFER_RESTRICTION", 3),
        _e("LAX_ROUTES", 0),
        _e("LAX_ROUTES", H),
        _e("LAX_ROUTES", 1),
        _e("RLL", H),
        _e("RLL", 1),
        _e("CLASSICAL_LIMIT", 1),
        _e("CLASSICAL_LIMIT", 2),
    ]
    missing = set(RELATIONS) - {e.relation for e in entries}
    if missing:
        raise AssertionError("manifest misses relations: %s" % sorted(missing))
    return tuple(entries)


def run_entry(entry, mode="exact", q0=None, x0=None, jobs=None):
    return verify_relation(entry.relation, entry.spins, mode=mode, q0=q0, x0=x0,
                           jobs=jobs)


def run_suite(manifest=None, mode="exact", q0=None, x0=None, jobs=None):
    """Run every manifest entry in order and return their reports.

    The entries run one after another.  Within an entry, an operator
    comparison that runs longer than a worker costs to start checks its
    remaining rows in up to `jobs` processes, never more than the CPUs this
    process may run on (None: all of them; see report.run_comparisons).  The reports are the ones
    jobs=1 gives, byte for byte.
    """
    if manifest is None:
        manifest = default_manifest()
    return [run_entry(e, mode=mode, q0=q0, x0=x0, jobs=jobs) for e in manifest]
