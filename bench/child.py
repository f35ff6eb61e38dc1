"""One cold benchmark child: import dynrmat, build the inputs, time the calls.

    python3 bench/child.py '<json spec>'

The child prints ``{"ready": <CLOCK_MONOTONIC seconds>}`` once the package is
imported and its inputs are built, so the parent can time set-up from outside
and start the case limit only then.  Its last line is one JSON object with the
verdict and wall time of every call it made and, when the spec asks for it, a
cProfile summary aggregated by source file.

Spec kinds (every spec may set ``"profile": true``):

- ``relation``: ``verify_relation`` or ``verify_symbol_relation`` once;
- ``sweep``: ``run_suite`` over the default manifest with ``jobs``, and a warm
  second pass in the same process when ``warm`` is set;
- ``entries``: the manifest entry by entry through ``run_entry``, one process;
- ``entry``: manifest entry ``index`` alone;
- ``controls``: known-false comparisons through ``run_comparisons``.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (module stem, function name) -> metric prefix of the traced calls we follow
FOLLOWED = {
    ("polys", "xp_gcd"): "polys.xp_gcd",
    ("polys", "qp_gcd"): "polys.qp_gcd",
    ("polys", "xp_mul"): "polys.xp_mul",
    ("polys", "qp_mul"): "polys.qp_mul",
    ("ratfunc", "_cancel"): "ratfunc.cancel",
    ("ratfunc", "__add__"): "ratfunc.add",
    ("ratfunc", "__mul__"): "ratfunc.mul",
    ("scalar", "_term_mul"): "scalar.term_mul",
    ("spins", "__matmul__"): "spins.matmul",
}
# a Euclid step is one remainder division made directly by a gcd
EUCLID = {("polys", "xp_divmod"): ("xp_gcd", "polys.xp_gcd"),
          ("polys", "qp_divmod"): ("qp_gcd", "polys.qp_gcd")}


def layer_of(path):
    """The layer a profiled function belongs to, from its source file."""
    p = Path(path)
    if p.parent.name == "dynrmat" and p.suffix == ".py":
        return p.stem
    if p.name == "fractions.py":
        return "fractions"
    return "other"


def summarize(profile):
    import pstats

    layers = {}
    funcs = {prefix: {"calls": 0, "cum_s": 0.0, "euclid_steps": 0}
             for prefix in FOLLOWED.values()}
    for (path, _line, name), (_cc, nc, tt, ct, callers) in pstats.Stats(profile).stats.items():
        layer = layer_of(path)
        acc = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
        acc["self_s"] += tt
        acc["calls"] += nc
        prefix = FOLLOWED.get((layer, name))
        if prefix is not None:
            funcs[prefix]["calls"] += nc
            funcs[prefix]["cum_s"] += ct
        euclid = EUCLID.get((layer, name))
        if euclid is not None:
            caller_name, prefix = euclid
            for (cpath, _cl, cname), cstat in callers.items():
                if cname == caller_name and layer_of(cpath) == layer:
                    funcs[prefix]["euclid_steps"] += cstat[1]
    return {"layers": layers, "funcs": funcs}


def _control_cases(dynrmat):
    """Known-false pairs: each comparison must come back FAIL."""
    from fractions import Fraction

    h = Fraction(1, 2)
    psi = dynrmat.wavefunction(2, 3)
    return [
        ("ctrl_gnf_vs_shifted", (1, 1),
         lambda: [("gnf_r", dynrmat.gnf_r(1, 1), dynrmat.gnf_r(1, 1).shift_x(1))]),
        ("ctrl_gnf_vs_drinfeld", (1, 1),
         lambda: [("gnf_r", dynrmat.gnf_r(1, 1), dynrmat.drinfeld_r(1, 1))]),
        ("ctrl_wrong_energy", (2,),
         lambda: [("H psi", dynrmat.hamiltonian(2).apply(psi), dynrmat.energy(4) * psi)]),
        ("ctrl_six_j", (h, h, 1, h, h, 1),
         lambda: [("6j", dynrmat.six_j(h, h, 1, h, h, 1), dynrmat.six_j(h, h, 0, h, h, 1))]),
    ]


def main(argv):
    spec = json.loads(argv[1])
    sys.path.insert(0, str(SRC))
    import cProfile
    from fractions import Fraction

    import dynrmat
    from dynrmat.report import run_comparisons
    from dynrmat.suite import default_manifest, run_entry, run_suite

    kind = spec["kind"]
    manifest = default_manifest()
    if kind == "relation":
        spins = tuple(Fraction(s) for s in spec["spins"])
        verify = (dynrmat.verify_relation if spec["family"] == "twist"
                  else dynrmat.verify_symbol_relation)
    elif kind == "controls":
        controls = _control_cases(dynrmat)
    print(json.dumps({"ready": time.monotonic()}), flush=True)

    profile = cProfile.Profile() if spec.get("profile") else None
    results = []

    def timed(label, call):
        if profile is not None:
            profile.enable()
        t0 = time.perf_counter()
        out = call()
        seconds = time.perf_counter() - t0
        if profile is not None:
            profile.disable()
        reports = out if isinstance(out, list) else [out]
        results.append({"label": label, "seconds": seconds,
                        "verdicts": ["pass" if r.ok else "fail" for r in reports]})

    if kind == "relation":
        timed(spec["name"], lambda: verify(spec["relation"], spins))
    elif kind == "sweep":
        timed("cold", lambda: run_suite(manifest, jobs=spec["jobs"]))
        if spec["warm"]:
            timed("warm", lambda: run_suite(manifest, jobs=spec["jobs"]))
    elif kind == "entries":
        for e in manifest:
            timed(e.family, lambda e=e: run_entry(e))
    elif kind == "entry":
        e = manifest[spec["index"]]
        timed(e.family, lambda: run_entry(e))
    elif kind == "controls":
        for label, spins, build in controls:
            timed(label, lambda: run_comparisons(label, spins, build()))
    else:
        raise ValueError("unknown child kind %r" % kind)

    out = {"results": results}
    if profile is not None:
        out["profile"] = summarize(profile)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv)
