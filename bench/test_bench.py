"""Tests of the benchmark itself, on its smoke workload.

    python3 -m pytest bench -q
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("dynrmat_bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=[0, 1], ids=["end_to_end", "per_layer"])
def smoke(request):
    proc = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                  "--trace", str(request.param))
    lines = proc.stdout.strip().splitlines()
    return request.param, proc.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_result_line_has_every_declared_metric(smoke):
    trace, code, _, result = smoke
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_report_records_context_controls_and_timeout(smoke):
    _, _, report, result = smoke
    assert report["seed"] == 3 and report["hash_seed"] == 3
    assert report["nproc"] >= 1 and report["python"].count(".") == 2
    assert [verdicts for _, verdicts in report["controls"]] == [["fail"]] * 4
    # GNF(3/2,3/2,1) runs far past its one-second smoke limit: killed, undecided
    assert report["cases"]["gnf_1.5_1.5_1"]["outcomes"] == ["timeout"]
    assert report["problems"] == []
    if "decided_frac" in result["metrics"]:
        assert result["metrics"]["decided_frac"]["value"] == pytest.approx(2 / 3)


def test_trace_counts_x_level_gcds_on_gnf(smoke):
    trace, _, _, result = smoke
    if not trace:
        pytest.skip("per-layer metrics come from the traced run")
    metrics = result["metrics"]
    assert metrics["polys.xp_gcd.calls"]["value"] > 0
    assert metrics["fractions.calls"]["value"] > 0
    assert metrics["cache_share"]["value"] == pytest.approx(1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _run(name, outcome, verdicts=(), expect="pass"):
    body = {"results": [{"label": name, "seconds": 1.0, "verdicts": list(verdicts)}]}
    spec = {"name": name, "expect": expect, "limit_s": 5}
    return run.ChildRun(spec, outcome, 0.2, 1.2, 30.0, body if outcome == "done" else {})


def test_timeout_is_undecided_never_a_pass_or_a_failure():
    problems = []
    runs = [_run("a", "done", ["pass"]), _run("b", "timeout")]
    assert run.tally(runs, problems) == (2, 0)
    assert runs[1].seconds() == 5.0
    assert problems == []


def test_times_are_scaled_by_the_reference_around_them():
    done = _run("a", "done", ["pass"])
    done.ref_s = [1.5 * run.REFERENCE_S, 2.5 * run.REFERENCE_S]
    assert done.seconds() == 1.0
    assert done.seconds(adjusted=True) == pytest.approx(0.5)
    assert done.adjusted_setup_s() == pytest.approx(0.2 / 1.5)
    killed = _run("b", "timeout")
    assert killed.seconds(adjusted=True) == 5.0


def test_wrong_verdicts_and_crashes_fail():
    problems = []
    runs = [_run("a", "done", ["pass", "fail"]), _run("ctrl", "done", ["pass"], expect="fail"),
            _run("c", "crash")]
    assert run.tally(runs, problems) == (4, 3)
    assert len(problems) == 2


def test_a_process_left_in_a_case_group_is_killed_and_reported():
    children = run.Children(env=None)
    left = subprocess.Popen(["sleep", "30"], start_new_session=True)
    try:
        children._check_no_stragglers(left.pid, "case")
        assert left.wait(timeout=10) == -9
    finally:
        left.kill()
        left.wait()
    assert children.problems == ["case: a process outlived its case"]
    children._check_no_stragglers(left.pid, "case")
    assert len(children.problems) == 1
