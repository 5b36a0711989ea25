"""Checks of the perf harness itself (``pytest benchmarks/perf``, < 20 s).

Not part of tier 1 (``testpaths = ["tests"]``): it drives the harness at
a tiny ``--scale``, so it says nothing about performance — only that the
command and BENCHMARK.json agree and that the correctness gate bites.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((PERF_DIR.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = ["--scale", "0.1", "--seconds", "0.2"]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=120,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "benchmarks/perf/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for key, units in (
        ("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)
    ):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == units
        assert all(NAME.match(m["name"]) for m in BENCHMARK[key])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", ["stream_sampled", "service_2tenant"])
def test_untraced_run_prints_every_end_to_end_metric(name):
    proc = run_cli("--workload", name, "--trace", "0", *TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = last_json(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == set(run.END_TO_END_UNITS)
    for metric, entry in doc["metrics"].items():
        assert entry["unit"] == run.END_TO_END_UNITS[metric]
        assert entry["value"] > 0
    assert "scale != 1" in proc.stdout  # marked: not comparable


def test_traced_run_prints_every_per_layer_metric_and_writes_spans():
    proc = run_cli("--workload", "batch_mid", "--trace", "1", *TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = last_json(proc)
    assert doc["correct"] is True and doc["failed"] == 0
    assert set(doc["metrics"]) == set(run.PER_LAYER_UNITS)
    missing = [m for m, entry in doc["metrics"].items() if entry["value"] is None]
    assert not missing, proc.stdout
    spans = json.loads((workloads.OUT_DIR / "trace-batch_mid.json").read_text())["spans"]
    assert {"name", "start_s", "end_s", "parent", "workload"} <= set(spans[0])
    on_path = {s["name"] for s in spans if s["parent"] == "pass"}
    assert on_path == {
        "trace.salvage.load", "hb.graph.build", "hb.reach.build",
        "detect.races.enumerate",
    }


def test_a_perturbed_digest_fails_the_run(tmp_path):
    workloads.import_repro()
    job = workloads.set_up("stream_medium", 0, 0.1, str(tmp_path))
    job.update(seconds=0.1, trace=False, scratch=str(tmp_path))
    job["inputs"][0]["digest"] = "0" * 64
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(PERF_DIR / "child.py"), str(job_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    result = last_json(proc)
    assert result["failed"] == result["attempted"] > 0


def test_a_failing_probe_is_null_and_leaves_the_rest(tmp_path, monkeypatch):
    import probes

    workloads.import_repro()
    job = workloads.set_up("stream_medium", 0, 0.1, str(tmp_path))
    job.update(trace=True, scratch=str(tmp_path))

    def broken(ctx, parent, isolated):
        raise ImportError("refactored away")

    table = [
        (broken if probe is probes.probe_to_dict else probe, names, attributed)
        for probe, names, attributed in probes.PROBES
        if probe is not probes.probe_service  # no server needed for this
    ]
    monkeypatch.setattr(probes, "PROBES", table)
    import passes

    result = probes.run_traced(job, str(tmp_path), lambda: passes.stream_pass(job))
    assert result["failed"] == 0
    assert result["metrics"]["trace.records.to_dict_records_per_s"] is None
    assert "refactored away" in result["errors"]["trace.records.to_dict_records_per_s"]
    assert result["metrics"]["detect.streaming.feed_records_per_s"] > 0
    assert result["metrics"]["trace.wal.encode_records_per_s"] > 0


def test_compare_verdicts():
    def summary(values):
        return workloads.summarize(list(values))

    steady = summary([100, 101, 99, 100, 102, 98])
    assert compare.verdict(steady, summary([99, 100, 101, 100, 98, 102]), "higher", 0.1) == "within"
    assert compare.verdict(steady, summary([80, 81, 79, 80, 82, 78]), "higher", 0.1) == "worse"
    assert compare.verdict(steady, summary([80, 81, 79, 80, 82, 78]), "lower", 0.1) == "better"
    noisy = summary([70, 130, 100, 60, 140, 100])
    assert compare.verdict(steady, noisy, "higher", 0.1) == "unresolved"
    assert compare.verdict(noisy, summary([150, 160, 155, 150, 165, 158]), "higher", 0.1) == "better"
