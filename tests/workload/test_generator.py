"""Workload generator: determinism, scaling, and detectability.

The generator's contract is byte-level: the same ``(system, preset,
seed)`` triple always produces identical WAL segments and an identical
ground-truth manifest, so generated corpora are cacheable and
benchmark runs are reproducible without shipping gigabytes of traces.
"""

import hashlib
import json
import os

import pytest

from repro.detect.races import detect_races
from repro.trace.salvage import salvage_trace
from repro.workload import (
    PRESETS,
    WorkloadSpec,
    generate_workload,
    load_ground_truth,
    resolve_spec,
)


def _wal_bytes(wal_dir):
    """{relative path: bytes} for every WAL segment under a directory."""
    out = {}
    for root, _dirs, files in os.walk(wal_dir):
        for name in files:
            path = os.path.join(root, name)
            out[os.path.relpath(path, wal_dir)] = open(path, "rb").read()
    return out


def test_same_seed_is_byte_identical(tmp_path):
    a = generate_workload("minizk", "small", 42, str(tmp_path / "a"))
    b = generate_workload("minizk", "small", 42, str(tmp_path / "b"))
    assert _wal_bytes(a.wal_dir) == _wal_bytes(b.wal_dir)
    assert open(a.ground_truth_path).read() == open(b.ground_truth_path).read()
    assert a.planted_races == b.planted_races


def test_wal_bytes_are_pinned(tmp_path):
    """The write side's byte-identity gate: a digest taken when records
    became positional arrays (``record_to_list``, compact separators).
    It moves only in a change that means to re-encode the WAL;
    ``tests/trace/test_wal.py`` pins one record line readably."""
    generated = generate_workload("minimr", "small", 0, str(tmp_path))
    digest = hashlib.sha256()
    files = _wal_bytes(generated.wal_dir)
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name])
    assert len(files) == 9 and generated.records == 456
    assert digest.hexdigest() == (
        "ea59ee950ec3de26cfe3a453b2707f765c73c72226a36de20572921d88899042"
    )


def test_different_seed_differs(tmp_path):
    a = generate_workload("minizk", "small", 1, str(tmp_path / "a"))
    b = generate_workload("minizk", "small", 2, str(tmp_path / "b"))
    assert _wal_bytes(a.wal_dir) != _wal_bytes(b.wal_dir)


def test_systems_share_shape_not_vocabulary(tmp_path):
    zk = generate_workload("minizk", "small", 5, str(tmp_path / "zk"))
    mr = generate_workload("minimr", "small", 5, str(tmp_path / "mr"))
    assert zk.records == mr.records
    assert len(zk.planted_races) == len(mr.planted_races)
    assert _wal_bytes(zk.wal_dir) != _wal_bytes(mr.wal_dir)


def test_ground_truth_roundtrip(tmp_path):
    generated = generate_workload("minihb", "small", 9, str(tmp_path / "g"))
    doc = load_ground_truth(generated.ground_truth_path)
    assert doc["records"] == generated.records
    assert doc["planted_races"] == generated.planted_races
    assert doc["spec"] == generated.spec.describe()

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError):
        load_ground_truth(str(broken))


def test_small_end_to_end_batch_detection(tmp_path):
    """A generated trace salvages cleanly, and batch detection finds
    exactly the planted races — nothing missed, nothing extra."""
    generated = generate_workload("minica", "small", 11, str(tmp_path / "g"))
    trace, report = salvage_trace(generated.wal_dir)
    assert not report.damaged
    assert len(trace) == generated.records

    detection = detect_races(trace)
    found = {
        frozenset((c.first.seq, c.second.seq)) for c in detection.candidates
    }
    planted = {
        frozenset((r["first_seq"], r["second_seq"]))
        for r in generated.planted_races
    }
    assert found == planted
    assert len(planted) > 0

    # The token chain keeps every chain write ordered: none may pair.
    chain_seqs = set()
    for pair in generated.ordered_pairs:
        chain_seqs.add(pair["first_seq"])
        chain_seqs.add(pair["second_seq"])
    for candidate in detection.candidates:
        assert candidate.first.seq not in chain_seqs


def test_presets_scale():
    small, medium, xl = PRESETS["small"], PRESETS["medium"], PRESETS["xl"]
    assert small.workers < medium.workers < xl.workers
    assert resolve_spec("small") is small
    with pytest.raises(ValueError):
        resolve_spec("gigantic")
    with pytest.raises(ValueError):
        generate_workload("not-a-system", "small", 0, "/tmp/never-used")


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(
            preset="bad", workers=1, phases=1, local_ops=1, chain_len=5
        ).validate()  # chain longer than the worker pool


def test_record_count_estimate_matches():
    """The spec's own arithmetic predicts the generator's output, so
    preset record counts documented in docs/workloads.md stay honest."""
    spec = PRESETS["small"]
    per_phase = (
        2 * spec.workers  # start send + recv
        + 2 * spec.workers  # done send + recv
        + 2 * (spec.chain_len - 1)  # token sends + recvs
        + spec.workers * spec.local_ops  # private accesses
        + spec.chain_len  # chain writes
        + spec.racers  # planted accesses
    )
    assert spec.phases * per_phase == 456  # == generated.records for small
