"""Self-test of the benchmark.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's own test collection: it
starts vfkit in child processes and takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("corpus", "orbit-ode", "symbolic-certify")


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _result(out):
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res


def test_metric_tables_match_benchmark_json():
    bench = _bench_json()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    res = _result(_run(ROOT, workload, 0))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    # correct=True also means the exact counts repeated between two traced passes
    res = _result(_run(ROOT, workload, 1))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(run.PER_LAYER)


def test_times_scale_by_the_nearest_reference_chunks():
    import speed

    meter = speed.Speedometer()
    meter.times = [float(t) for t in range(10)]
    meter.durations = [speed.REFERENCE_CHUNK_S] * 5 + [2 * speed.REFERENCE_CHUNK_S] * 5
    assert meter.scale_at(1.2) == 1.0  # samples 0-4 and two of the slow ones
    assert meter.scale_at(8.0) == 0.5
    assert meter.scaled(7.0, 2.0) == 1.0
    meter.sample(2)
    assert len(meter.durations) == 12 and meter.times[-1] > meter.times[-2]


def test_record_keeps_measured_and_scaled_times():
    _result(_run(ROOT, "orbit-ode", 0))
    record = json.loads((HERE / "out" / "result-orbit-ode-seed0-trace0-tiny.json").read_text())
    names = dict(run.END_TO_END).keys()
    assert record["end_to_end_measured"].keys() == record["end_to_end"].keys() == names
    assert record["details"]["reference_chunk_s"]["samples"] > 0


def test_perturbed_expectation_counts_as_failed():
    from vfkit import orbits, systems

    cubic = list(systems.parse_system(workloads.CUBIC_SYSTEM).fields)
    point = (workloads._q(5), workloads._q(6))
    sampler = orbits.WordSampler(seed=0, count=3)
    right = workloads._orbit_job("right", cubic, point, sampler, expected=2)
    wrong = workloads._orbit_job("wrong", cubic, point, sampler, expected=3)
    jobs = [right, wrong]
    _, answers, latencies = run.run_pass(jobs)
    problems = run.check_pass(jobs, answers, answers)
    assert len(latencies) == 2
    assert problems[right.name] == []
    assert problems[wrong.name] and "Nagano expects 3" in problems[wrong.name][0]


def test_designed_red_fact_passing_counts_as_failed(monkeypatch):
    job = workloads.PresetJob("hyperbola-fixed-time", 0,
                              tuple(workloads.EXPECTED["corpus_facts"]["hyperbola-fixed-time"]))
    answer, _ = job.execute()
    assert all(not found for found in job.problems(answer).values())
    monkeypatch.setattr(workloads, "EXPECTED_RED", set())
    failed = [label for label, found in job.problems(answer).items() if found]
    assert failed == ["hyperbola-fixed-time/axis-singleton"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "corpus", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
