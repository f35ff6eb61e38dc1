"""Command line front end.

Verbs: verify (one relation or the whole manifest), dump (serialize a
matrix or operator), symbol (evaluate a coupling coefficient), lame
(difference-operator tools), limits (endpoint degenerations).  Reports
stream as JSON lines or plain text; exit code 0 means every requested
check passed, 1 means a check failed, 2 means the command was malformed.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from .lame import (
    classical_limit_table,
    classical_limit_verdict,
    hamiltonian,
    lax_matrix,
    wavefunction,
)
from .report import check_point, resolve_jobs, run_comparisons
from .serialize import dumps_canonical, latex, plain_text, to_payload
from .suite import RELATIONS, run_suite, verify_relation
from .symbols import limit_three_j, m_element, six_j, three_j
from .twist import associator_phi, boundary_m, gnf_r, twist_f

__all__ = ["main"]


def _spin(text):
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("bad spin %r" % text)
    if f < 0 or f.denominator not in (1, 2):
        raise argparse.ArgumentTypeError("spin must be a nonnegative half-integer, got %r" % text)
    return f


def _spin_list(text):
    return tuple(_spin(p) for p in text.split(",") if p)


def _frac_list(text):
    return tuple(Fraction(p) for p in text.split(",") if p)


def _float_list(text):
    return tuple(float(p) for p in text.split(",") if p)


def _jobs(text):
    try:
        return resolve_jobs(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "jobs must be a positive integer, got %r" % text) from None


def _int_list(text):
    return tuple(int(p) for p in text.split(",") if p)


def _add_mode_flags(p):
    p.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    p.add_argument("--q0", type=float, default=None)
    p.add_argument("--x0", type=float, default=None)


def _add_out_flags(p, formats=("json", "latex", "text"), default="json"):
    p.add_argument("--format", choices=formats, default=default)
    p.add_argument("--out", default=None)


def _check_point(parser, args):
    if args.mode != "numeric" and (args.q0 is not None or args.x0 is not None):
        parser.error("--q0/--x0 only apply to --mode numeric")
    try:
        check_point(args.mode, args.q0, args.x0)
    except ValueError as exc:
        parser.error(str(exc))


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _emit_object(obj, args):
    if args.format == "json":
        text = dumps_canonical(to_payload(obj))
    elif args.format == "latex":
        text = latex(obj)
    else:
        text = plain_text(obj)
    _emit(text, args.out)
    return 0


def _report_lines(reports, fmt, timings):
    lines = []
    for r in reports:
        if fmt == "json":
            lines.append(
                json.dumps(r.to_jsonable(stable=not timings), sort_keys=True)
            )
        else:
            lines.append(r.line())
    return "\n".join(lines) + "\n"


def _finish_reports(reports, args):
    _emit(_report_lines(reports, args.format, args.timings), args.out)
    return 0 if all(r.ok for r in reports) else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dynrmat",
        description="Exact dynamical exchange matrices, coupling symbols, "
        "and the associated q-difference spectral problem.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="check one relation or the full manifest")
    p.add_argument("relation", help="relation name, or 'all' for the manifest sweep")
    p.add_argument("--spins", type=_spin_list, default=())
    _add_mode_flags(p)
    p.add_argument(
        "--jobs", type=_jobs, default=None,
        help="processes one operator comparison may use, at most the CPUs "
        "this process may run on (the default); reports do not depend on it",
    )
    p.add_argument("--timings", action="store_true", help="include elapsed_ms in JSON reports")
    _add_out_flags(p, formats=("json", "text"), default="text")

    p = sub.add_parser("dump", help="serialize a matrix or operator")
    p.add_argument(
        "object",
        choices=("rmatrix", "twist", "boundary", "phi", "lax", "hamiltonian"),
    )
    p.add_argument("--spins", type=_spin_list, required=True)
    _add_out_flags(p)

    p = sub.add_parser("symbol", help="evaluate a coupling coefficient")
    p.add_argument("kind", choices=("3j", "6j", "m", "limit3j"))
    p.add_argument("--j", type=_frac_list, required=True)
    p.add_argument("--m", type=_frac_list, default=())
    p.add_argument("--sigma", type=Fraction, default=None)
    _add_out_flags(p, default="text")

    p = sub.add_parser("lame", help="difference-operator tools")
    lsub = p.add_subparsers(dest="lame_verb", required=True)

    lp = lsub.add_parser("hamiltonian", help="the second-order operator")
    lp.add_argument("--j", type=_spin, required=True)
    _add_out_flags(lp, default="text")

    lp = lsub.add_parser("wavefunction", help="exact eigenfunction")
    lp.add_argument("--j", type=int, required=True)
    lp.add_argument("--k", type=int, required=True)
    lp.add_argument("--method", choices=("closed", "recursive"), default="closed")
    _add_out_flags(lp, default="text")

    lp = lsub.add_parser("verify", help="spectral checks for one j")
    lp.add_argument("--j", type=_spin, required=True)
    lp.add_argument("--kmax", type=int, default=5)
    _add_mode_flags(lp)
    lp.add_argument("--timings", action="store_true")
    _add_out_flags(lp, formats=("json", "text"), default="text")

    lp = lsub.add_parser("classical", help="epsilon convergence table")
    lp.add_argument("--j", type=int, required=True)
    lp.add_argument("--k", type=_int_list, default=(2, 3))
    lp.add_argument("--z", type=_float_list, default=(0.5, 1.0))
    lp.add_argument("--out", default=None)

    p = sub.add_parser("limits", help="endpoint degenerations of the twist family")
    p.add_argument("--spins", type=_spin_list, required=True)
    _add_mode_flags(p)
    p.add_argument("--timings", action="store_true")
    _add_out_flags(p, formats=("json", "text"), default="text")

    return parser


def _verify_one(parser, args, name, jobs=None):
    try:
        report = verify_relation(
            name, args.spins, mode=args.mode, q0=args.q0, x0=args.x0,
            jobs=jobs,
        )
    except ValueError as exc:
        parser.error(str(exc))
    return _finish_reports([report], args)


def _cmd_verify(parser, args):
    _check_point(parser, args)
    if args.relation == "all":
        reports = run_suite(mode=args.mode, q0=args.q0, x0=args.x0, jobs=args.jobs)
        return _finish_reports(reports, args)
    if args.relation not in RELATIONS:
        parser.error("unknown relation %r" % args.relation)
    return _verify_one(parser, args, args.relation, args.jobs)


_DUMP_ARITY = {
    "rmatrix": 2,
    "twist": 2,
    "boundary": 1,
    "phi": 3,
    "lax": 1,
    "hamiltonian": 1,
}


def _cmd_dump(parser, args):
    spins = args.spins
    want = _DUMP_ARITY[args.object]
    if len(spins) != want:
        parser.error("%s needs %d spin(s), got %d" % (args.object, want, len(spins)))
    try:
        if args.object == "rmatrix":
            obj = gnf_r(*spins)
        elif args.object == "twist":
            obj = twist_f(*spins)
        elif args.object == "boundary":
            obj = boundary_m(*spins)
        elif args.object == "phi":
            obj = associator_phi(*spins)
        elif args.object == "lax":
            obj = lax_matrix(*spins)
        else:
            obj = hamiltonian(*spins)
    except ValueError as exc:
        parser.error(str(exc))
    return _emit_object(obj, args)


def _symbol_value(parser, args):
    kind = args.kind
    if kind == "3j":
        if len(args.j) != 3 or len(args.m) != 3:
            parser.error("3j needs --j j1,j2,j3 and --m m1,m2,m3")
        return three_j(*args.j, *args.m)
    if kind == "6j":
        if len(args.j) != 6:
            parser.error("6j needs --j with six entries")
        return six_j(*args.j)
    if len(args.j) != 1 or len(args.m) != 1 or args.sigma is None:
        parser.error("%s needs --j J --sigma S --m M" % kind)
    if kind == "m":
        return m_element(args.j[0], args.sigma, args.m[0])
    return limit_three_j(args.j[0], args.sigma, args.m[0]).reduce()


def _cmd_symbol(parser, args):
    try:
        value = _symbol_value(parser, args)
    except ValueError as exc:
        parser.error(str(exc))
    return _emit_object(value, args)


def _cmd_lame(parser, args):
    verb = args.lame_verb
    if verb == "hamiltonian":
        obj = hamiltonian(args.j)
    elif verb == "wavefunction":
        try:
            obj = wavefunction(args.j, args.k, method=args.method)
        except ValueError as exc:
            parser.error(str(exc))
    elif verb == "verify":
        # verify_relation has no kmax, so this builds and times on its own
        _check_point(parser, args)
        build = RELATIONS["SPECTRAL_PROPERTIES"][2]
        t0 = time.perf_counter()
        try:
            report = run_comparisons(
                "SPECTRAL_PROPERTIES", (args.j,),
                build(args.j, kmax=args.kmax),
                mode=args.mode, q0=args.q0, x0=args.x0,
            )
        except ValueError as exc:
            parser.error(str(exc))
        report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
        return _finish_reports([report], args)
    else:
        lines = []
        ok = True
        for k in args.k:
            for z in args.z:
                try:
                    rows, extrap, target, order = classical_limit_table(
                        args.j, k, z)
                except ValueError as exc:
                    parser.error(str(exc))
                lines.append("j=%d k=%d z=%g target=%.12g" % (args.j, k, z, target))
                for eps, val in rows:
                    lines.append(
                        "  eps=%-8g value=%.12g abs_err=%.3e"
                        % (eps, val, abs(val - target))
                    )
                rel, passed = classical_limit_verdict(extrap, target, order)
                lines.append(
                    "  extrapolated=%.12g rel_err=%.3e order=%.3f"
                    % (extrap, rel, order)
                )
                ok = ok and passed
        lines.append("classical limit: %s" % ("PASS" if ok else "FAIL"))
        _emit("\n".join(lines) + "\n", args.out)
        return 0 if ok else 1
    return _emit_object(obj, args)


def _cmd_limits(parser, args):
    _check_point(parser, args)
    return _verify_one(parser, args, "TWIST_LIMITS")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verb == "verify":
        return _cmd_verify(parser, args)
    if args.verb == "dump":
        return _cmd_dump(parser, args)
    if args.verb == "symbol":
        return _cmd_symbol(parser, args)
    if args.verb == "lame":
        return _cmd_lame(parser, args)
    return _cmd_limits(parser, args)


if __name__ == "__main__":
    sys.exit(main())
