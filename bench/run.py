"""dynrmat benchmark: manifest sweep, GNF spin frontier and q-level recoupling.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads and their cases are listed in bench/workloads.json.  Every case runs
in a fresh child process (bench/child.py) whose PYTHONHASHSEED is the seed;
the program receives no other input.  This script times set-up and each call
into the public entry points from outside, kills a case once its limit has
passed (it is then undecided and charged the limit), checks every verdict
against the known answer, and checks that no child outlives its case.

Each run starts with one child of known-false comparisons, which must all
fail, and then cycles through the workload's cases until ``--seconds`` is used
up, every case at least once.  The last stdout line is the result:

- ``--trace 0``: end-to-end metrics, medians over the run's samples.  The
  speed of a shared host swings by up to 2x within minutes, so this script
  times a fixed stdlib-only computation (``timed_reference``) just before it starts
  each child and just after it reaps it, and ``total_s`` and ``setup_s`` are
  wall times scaled to the host speed at which that computation takes
  REFERENCE_S.  The unscaled times are in the report line.  On ``sweep``
  only the cold ``jobs=1`` pass is timed here;
- ``--trace 1``: per-layer metrics.  One untraced cycle, with the warm and
  ``jobs=2`` passes of ``sweep``, then every traced
  case twice, each time in a fresh child under cProfile, aggregated by source
  file; the two must make exactly the same calls.  On ``sweep`` each manifest
  entry also runs alone in a fresh child, so no entry is charged for caches
  that another filled.

The line before it holds the run's context and every sample.  The workload
``smoke`` runs the smallest cases, for the benchmark's own tests.
"""

import argparse
import gc
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
PACKAGE = ROOT / "src" / "dynrmat" / "__init__.py"

FAMILIES = ("spins", "twist", "symbols", "lame", "numeric")
LAYERS = ("fractions", "coeffs", "polys", "ratfunc", "scalar", "spins",
          "twist", "symbols", "lame", "numeric", "suite")
SETUP_LIMIT_S = 30  # a child that is not set up by then is killed
TRACE_LIMIT_FACTOR = 4  # a traced case may take this times its limit
# ``timed_reference`` takes about this long on a 2-core VM (CPython 3.11.7) at its
# usual speed; end-to-end times are scaled to it.
REFERENCE_S = 0.34
REFERENCE_ROUNDS = 180
CONTROLS = {"name": "controls", "kind": "controls", "expect": "fail", "limit_s": 30}


class ChildRun:
    """One finished child: its outcome, set-up time, calls and peak memory."""

    def __init__(self, spec, outcome, setup_s, wall_s, rss_mb, body):
        self.spec = spec
        self.outcome = outcome  # "done", "timeout" or "crash"
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.results = body.get("results", [])
        self.profile = body.get("profile")
        self.ref_s = []  # reference times just before and just after the child

    def seconds(self, label=None, adjusted=False):
        """Time to verdict of one call, or of all, capped at the limit.

        ``adjusted`` scales it to the host speed at which the reference takes
        REFERENCE_S, from the reference timed around the child.  A killed
        case is charged its limit either way.
        """
        if self.outcome != "done":
            return float(self.spec["limit_s"])
        wall = sum(r["seconds"] for r in self.results if label in (None, r["label"]))
        return wall * REFERENCE_S / statistics.mean(self.ref_s) if adjusted else wall

    def adjusted_setup_s(self):
        """Set-up time scaled by the reference timed just before it."""
        return self.setup_s * REFERENCE_S / self.ref_s[0]


class Children:
    """Starts, watches, kills and reaps child processes; notes what went wrong."""

    def __init__(self, env):
        self.env = env
        self.live = {}
        self.runs = []
        self.problems = []

    def run(self, spec, profile=False, reference=False):
        """Run one child to its end, or kill it at its limit, and reap it.

        With ``reference``, time the reference computation just before and
        just after, in this process, so that nothing the child did can
        change it.
        """
        ref_s = [timed_reference()] if reference else []
        limit_s = spec["limit_s"] * (TRACE_LIMIT_FACTOR if profile else 1)
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(dict(spec, profile=profile))],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        self.live[proc.pid] = proc
        data, ready, timed_out = self._read(proc, spawned, limit_s)
        if timed_out:
            _kill_group(proc.pid)
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        del self.live[proc.pid]
        self._check_no_stragglers(proc.pid, spec["name"])
        body = {}
        if timed_out:
            outcome = "timeout"
        else:
            lines = data.decode().splitlines()
            try:
                body = json.loads(lines[-1]) if proc.returncode == 0 else {}
            except (IndexError, ValueError):
                body = {}
            outcome = "done" if "results" in body else "crash"
            if outcome == "crash":
                self.problems.append("%s: child crashed (exit %d)" % (spec["name"], proc.returncode))
        setup_s = (ready - spawned) if ready is not None else None
        run = ChildRun(spec, outcome, setup_s, ended - spawned, usage.ru_maxrss / 1024.0, body)
        if reference:
            run.ref_s = ref_s + [timed_reference()]
        self.runs.append(run)
        return run

    def _read(self, proc, spawned, limit_s):
        """Read stdout to EOF; the limit starts at the child's ready line."""
        fd = proc.stdout.fileno()
        data = b""
        ready = None
        deadline = spawned + SETUP_LIMIT_S
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                if sel.select(max(0.0, deadline - time.monotonic())):
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        return data, ready, False
                    data += chunk
                    if ready is None and b"\n" in data:
                        ready = json.loads(data.split(b"\n", 1)[0])["ready"]
                        deadline = ready + limit_s
                elif time.monotonic() >= deadline:
                    return data, ready, True

    def _check_no_stragglers(self, pgid, name):
        if _kill_group(pgid):
            self.problems.append("%s: a process outlived its case" % name)

    def kill_all(self):
        for pid, proc in list(self.live.items()):
            _kill_group(pid)
            proc.wait()
            proc.stdout.close()
        self.live.clear()


def _remainder(a, b):
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= c * bc
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def timed_reference():
    """Seconds taken by fixed stdlib-only work of the program's kind: Euclid
    over Fraction lists.  It tells how fast the host runs such code just now;
    no change to dynrmat can change it.
    """
    # no collections, so heap size does not enter the time
    gc.disable()
    try:
        t0 = time.perf_counter()
        for r in range(REFERENCE_ROUNDS):
            a = [Fraction((7 * i + r) % 11 - 5) for i in range(15)] + [Fraction(1)]
            b = [Fraction((5 * i + 3 * r) % 13 - 6) for i in range(13)] + [Fraction(1)]
            while b:
                a, b = b, _remainder(a, b)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _kill_group(pgid):
    """SIGKILL a child's process group; False if nothing was left in it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def tally(runs, problems):
    """Verdicts asked for and verdicts wrong, over every child of the run.

    A child killed at its limit asked for one verdict and got none: it is
    undecided, which is neither a pass nor a failure.  A crash is a failure.
    """
    attempted = failed = 0
    for run in runs:
        if run.outcome == "done":
            for r in run.results:
                for v in r["verdicts"]:
                    attempted += 1
                    if v != run.spec["expect"]:
                        failed += 1
                        problems.append("%s/%s: %s, expected %s"
                                        % (run.spec["name"], r["label"], v, run.spec["expect"]))
        else:
            attempted += 1
            failed += run.outcome == "crash"
    return attempted, failed


def cycle(children, specs, seconds):
    """Run the cases in order, again and again, until the time is used up."""
    start = time.monotonic()
    samples = {spec["name"]: [] for spec in specs}
    last = {}
    i = 0
    while True:
        spec = specs[i % len(specs)]
        if i >= len(specs) and time.monotonic() - start + last[spec["name"]] > seconds:
            return samples
        run = children.run(spec, reference=True)
        last[spec["name"]] = run.wall_s
        samples[spec["name"]].append(run)
        i += 1


def median_seconds(runs, label=None, adjusted=False):
    return statistics.median(r.seconds(label, adjusted) for r in runs)


def end_to_end(samples, children):
    runs = [r for rs in samples.values() for r in rs]
    setups = [r.adjusted_setup_s() for r in runs if r.ref_s]
    if "sweep_seq" in samples:
        total = median_seconds(samples["sweep_seq"], "cold", adjusted=True)
    else:
        total = sum(median_seconds(runs, adjusted=True) for runs in samples.values())
    return {
        "setup_s": (statistics.median(setups), "s"),
        "total_s": (total, "s"),
        "peak_rss_mb": (max(r.rss_mb for r in children.runs), "MB"),
        "decided_frac": (sum(r.outcome == "done" for r in runs) / len(runs), "fraction"),
    }


def per_layer(children, specs, samples):
    """Traced cases run twice, cold-entry attribution, and the per-layer metrics."""
    out = {}
    traced_total = untraced_total = 0.0
    layers = {name: [0.0, 0] for name in LAYERS}
    funcs = {}
    for spec in specs:
        if not spec["trace"]:
            continue
        traced = dict(spec, warm=False)
        first, second = children.run(traced, True), children.run(traced, True)
        if first.outcome != "done" or second.outcome != "done":
            children.problems.append("%s: traced child did not finish" % spec["name"])
            continue
        if _calls(first.profile) != _calls(second.profile):
            children.problems.append("%s: call counts differ between two traced runs at one seed"
                                     % spec["name"])
        traced_total += first.seconds("cold" if spec["kind"] == "sweep" else None)
        untraced_total += median_seconds(samples[spec["name"]],
                                         "cold" if spec["kind"] == "sweep" else None)
        for name, acc in first.profile["layers"].items():
            if name in layers:
                layers[name][0] += acc["self_s"]
                layers[name][1] += acc["calls"]
        for prefix, acc in first.profile["funcs"].items():
            into = funcs.setdefault(prefix, {"calls": 0, "cum_s": 0.0, "euclid_steps": 0})
            for key in into:
                into[key] += acc[key]
    if traced_total <= 0:
        return out
    out["traced.total_s"] = (traced_total, "s")
    out["trace.overhead"] = (traced_total / untraced_total, "ratio")
    for name, (self_s, calls) in layers.items():
        out[name + ".self_share"] = (self_s / traced_total, "fraction")
        out[name + ".calls"] = (calls, "count")
    for prefix in ("polys.xp_gcd", "polys.qp_gcd"):
        out[prefix + ".calls"] = (funcs[prefix]["calls"], "count")
        out[prefix + ".cum_share"] = (funcs[prefix]["cum_s"] / traced_total, "fraction")
        out[prefix + ".euclid_steps"] = (funcs[prefix]["euclid_steps"], "count")
    for prefix in ("polys.xp_mul", "polys.qp_mul", "ratfunc.add", "scalar.term_mul",
                   "spins.matmul"):
        out[prefix + ".calls"] = (funcs[prefix]["calls"], "count")
    for prefix in ("ratfunc.cancel", "ratfunc.add", "ratfunc.mul", "spins.matmul"):
        out[prefix + ".cum_share"] = (funcs[prefix]["cum_s"] / traced_total, "fraction")

    if "sweep_seq" in samples:
        entries = children.run({"name": "entries", "kind": "entries", "expect": "pass",
                                "limit_s": 60})
        warm = median_seconds(samples["sweep_seq"], "warm")
        cold_pass = median_seconds(samples["sweep_seq"], "cold")
        par = median_seconds(samples["sweep_par"], "cold")
        out["sweep.warm_ratio"] = (warm / cold_pass, "ratio")
        out["sweep.par_ratio"] = (par / cold_pass, "ratio")
        families = [r["label"] for r in entries.results]
        family = _by_family(zip(families, (r["seconds"] for r in entries.results)))
        cold = _by_family(
            (f, children.run({"name": "entry_%d" % i, "kind": "entry", "index": i,
                              "expect": "pass", "limit_s": 60}).seconds())
            for i, f in enumerate(families)
        )
        total = cold_pass
    else:
        out["sweep.warm_ratio"] = (0.0, "ratio")
        out["sweep.par_ratio"] = (0.0, "ratio")
        family = _by_family([(spec["family"], median_seconds(samples[spec["name"]]))
                             for spec in specs])
        cold = family
        total = sum(family.values())
    for name, part in (("family", family), ("cold", cold)):
        whole = sum(part.values())
        for f in FAMILIES:
            out["%s.%s.share" % (name, f)] = (part[f] / whole, "fraction")
    out["family.total_s"] = (sum(family.values()), "s")
    out["cold.total_s"] = (sum(cold.values()), "s")
    out["cache_share"] = (total / sum(cold.values()), "ratio")
    return out


def _by_family(pairs):
    out = dict.fromkeys(FAMILIES, 0.0)
    for family, seconds in pairs:
        out[family] += seconds
    return out


def _calls(profile):
    return ({k: v["calls"] for k, v in profile["layers"].items()},
            {k: (v["calls"], v["euclid_steps"]) for k, v in profile["funcs"].items()})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print("bench: %s not found; run from a dynrmat checkout" % PACKAGE, file=sys.stderr)
        return 2
    specs = json.loads((BENCH / "workloads.json").read_text())["workloads"][args.workload]["children"]
    hash_seed = args.seed % 2**32
    children = Children(dict(os.environ, PYTHONHASHSEED=str(hash_seed)))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        controls = children.run(CONTROLS)
        if args.trace:
            samples = cycle(children, specs, 0)
            metrics = per_layer(children, specs, samples)
        else:
            samples = cycle(children, [dict(s, warm=False) for s in specs
                                       if not s.get("per_layer_only")], args.seconds)
            metrics = end_to_end(samples, children)
        attempted, failed = tally(children.runs, children.problems)
    finally:
        children.kill_all()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    report = {
        "workload": args.workload, "seed": args.seed, "hash_seed": hash_seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "controls": [(r["label"], r["verdicts"]) for r in controls.results],
        "cases": {name: {"seconds": [r.seconds() for r in runs],
                         "adjusted_s": [r.seconds(adjusted=True) for r in runs],
                         "outcomes": [r.outcome for r in runs]}
                  for name, runs in samples.items()},
        "setup_s": [r.setup_s for r in children.runs],
        "ref_s": {name: [r.ref_s for r in runs] for name, runs in samples.items()},
        "problems": children.problems,
    }
    if "sweep_par" in samples:
        report["sweep"] = {label: [r.seconds(label) for r in samples[name]]
                           for name, label in (("sweep_seq", "cold"), ("sweep_seq", "warm"))}
        report["sweep"]["par"] = [r.seconds("cold") for r in samples["sweep_par"]]
    correct = failed == 0 and not children.problems
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
