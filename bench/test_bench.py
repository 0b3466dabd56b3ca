"""The benchmark's own tests.

    python3 -m pytest -q bench/test_bench.py

They check that counts repeat exactly across processes, that tracing leaves
the `trace` and `rebuild` output byte-identical, that inputs follow the
seed, that every correctness gate rejects a wrong output, and that the
benchmark refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import Installed, Recorder  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=600,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.splitlines()[-1])


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["join", "replay", "deep", "fuzz"])
def test_counts_repeat_exactly_across_processes(workload):
    expected_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", env=env)
        assert done.returncode == 0, done.stderr
        result = last_json(done)
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == expected_units
        assert metrics["trace_overhead"]["value"] > 0
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    work = counts[0]["parser.calls"] if workload == "replay" else counts[0]["engine.steps"]
    assert work > 0


def test_result_line_matches_benchmark_json():
    done = bench("--workload", "join", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("cls", [workloads.Join, workloads.Replay])
def test_tracing_leaves_output_byte_identical(cls, tmp_path):
    workload = cls()
    workload.setup(3, tmp_path)
    (op,) = workload.ops()
    plain = op()
    rec = Recorder()
    installed = Installed(rec)
    try:
        traced = op()
    finally:
        installed.remove()
    assert installed.missing == []
    assert traced == plain
    assert rec.calls("cli") == 1
    assert workload.check(0, traced).error == ""


def test_inputs_follow_the_seed(tmp_path):
    assert workloads.join_graph(1) == workloads.join_graph(1)
    assert workloads.join_graph(1) != workloads.join_graph(2)
    texts = []
    for seed in (1, 1, 2):
        workload = workloads.Deep()
        workload.setup(seed, tmp_path)
        texts.append([p.read_text() for p in workload.programs])
    assert texts[0] == texts[1] != texts[2]


def test_join_reference_counts_every_path():
    edges, marks = workloads.join_graph(5)
    expected = workloads.join_reference(edges, marks)
    # Every node has DEGREE in-edges, so each marked node ends DEGREE**HOPS paths.
    assert sum(expected.values()) == workloads.MARKS * workloads.DEGREE**workloads.HOPS + 1


def test_gates_reject_wrong_output(tmp_path):
    join = workloads.Join()
    join.setup(4, tmp_path)
    code, out, err = join.ops()[0]()
    assert workloads.check_trace_output(code, out, err, join.expected).error == ""
    fewer = join.expected.copy()
    fewer[workloads.SENTINEL] = 0
    assert workloads.check_trace_output(code, out, err, +fewer).error
    assert workloads.check_trace_output(code, out.rsplit("\n", 2)[0] + "\n", err, join.expected).error
    assert workloads.check_trace_output(1, out, err, join.expected).error

    replay = workloads.Replay()
    replay.setup(4, tmp_path)
    code, out, err = replay.ops()[0]()
    assert workloads.check_rebuild_output(code, out, err, replay.rules).error == ""
    swapped = replay.rules[:]
    swapped[5] = "Redo2" if swapped[5] != "Redo2" else "Call1"
    assert workloads.check_rebuild_output(code, out, err, swapped).error
    failed = out.replace("status: success", "status: failure")
    assert workloads.check_rebuild_output(code, failed, err, replay.rules).error

    report = "program 0123abcd: {}, {} steps checked\n"
    capped = workloads.DEEP_CAP - 1
    assert workloads.check_deep_output(1, report.format("limit-hit", capped), "").error == ""
    assert workloads.check_deep_output(0, report.format("pass", capped), "").error
    assert workloads.check_deep_output(1, report.format("limit-hit", 50), "").error
    diverged = report.format("limit-hit", capped) + "first divergence at chrono 3: x\n"
    assert workloads.check_deep_output(1, diverged, "").error

    def fuzz_report(verdict, detail=""):
        return SimpleNamespace(verdict=verdict, detail=detail, steps_checked=9, program_digest="d")

    assert workloads.check_report(fuzz_report("pass")).error == ""
    assert workloads.check_report(fuzz_report("limit-hit", "step cap hit")).error == ""
    assert workloads.check_report(fuzz_report("fail")).error
    assert workloads.check_report(fuzz_report("pass", "oracle hit its cap")).error


def test_join_answers_counted_as_a_multiset():
    out = "1 1 1 Call path(A)\n2 1 1 Exit path(n1)\n3 1 1 Redo path(n1)\n4 1 1 Exit path(n1)\n"
    once = Counter({("n1",): 1})
    assert "answers differ" in workloads.check_trace_output(0, out, "", once).error
    assert workloads.check_trace_output(0, out, "", once + once).error == ""


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "join", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{") and '"metrics"' not in done.stdout


def test_gauge_scales_by_the_reference_runs_around_a_time():
    import run

    gauge = run.Gauge()
    before = gauge.mark()
    gauge.mark()
    assert gauge.times[0] > 0
    gauge.times[:] = [2 * run.REFERENCE_NOMINAL_S, 4 * run.REFERENCE_NOMINAL_S]
    # The machine ran at a third of nominal speed: 3 s measured is 1 s scaled.
    assert gauge.scale(3.0, before) == pytest.approx(1.0)
