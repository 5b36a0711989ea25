"""A WAL of keyed records — what every writer wrote before records
became positional arrays — still loads: the tracer's WAL through
``detect_races_streaming`` and ``salvage_trace``, a saved trace through
``Trace.load``, and a service tenant's spool through recovery.  Each
reads the same events, and finds the same candidate pairs, as it does
from the positional WAL of the same events."""

import json
import os
import shutil

import pytest

from repro.detect.streaming import detect_races_streaming
from repro.framing import crc32, encode_line, encode_seal
from repro.service.tenants import Tenant, stream_key_str
from repro.trace import Trace, salvage_trace
from repro.trace.records import record_from_dict, record_to_dict
from repro.trace.wal import (
    iter_segment_records,
    list_stream_segments,
    segment_index,
)
from repro.workload import generate_workload

WINDOW = 64

#: How the keyed form was encoded: sorted keys, default separators.
_encode_keyed = json.JSONEncoder(sort_keys=True).encode


def _keyed_segment(data, node, tid, index):
    """A positional segment's bytes rewritten as a version-1 writer wrote
    them: a ``record_version: 1`` header and keyed record frames."""
    header = {
        "format": "repro-wal",
        "wal_version": 1,
        "record_version": 1,
        "node": node,
        "tid": tid,
        "segment": index,
    }
    out = [b"H " + _encode_keyed(header).encode() + b"\n"]
    crc = 0
    count = 0
    for value in iter_segment_records(data):
        assert type(value) is list  # the segment was positional
        payload = _encode_keyed(record_to_dict(record_from_dict(value))).encode()
        out.append(encode_line(b"R", payload))
        crc = crc32(payload, crc)
        count += 1
    out.append(encode_seal(count, crc))
    return b"".join(out)


def _rewrite_keyed(src, dst):
    """Copy ``src`` (a WAL directory, ``meta.json`` and all) to ``dst``
    with every segment rewritten keyed."""
    shutil.copytree(src, dst)
    for (node, tid), paths in list_stream_segments(dst).items():
        for path in paths:
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(_keyed_segment(data, node, tid, segment_index(path)))
    return dst


def _events(records):
    return [record_to_dict(r) for r in records]


@pytest.fixture(scope="module")
def wals(tmp_path_factory):
    """``(positional, keyed)``: one generated WAL in both forms."""
    out = tmp_path_factory.mktemp("keyed")
    generated = generate_workload(
        "minizk", "small", seed=11, out_dir=str(out / "gen"), segment_records=16
    )
    keyed = _rewrite_keyed(generated.wal_dir, str(out / "keyed"))
    return generated.wal_dir, keyed


def test_the_keyed_copy_is_the_old_format(wals):
    for wal, version, opening in zip(wals, (2, 1), (b"[", b'{"extra": ')):
        [first, *_] = sorted(list_stream_segments(wal).values())
        with open(first[0], "rb") as fh:
            header, record = fh.read().split(b"\n")[:2]
        assert json.loads(header[2:])["record_version"] == version
        assert record.split(b" ", 3)[3].startswith(opening)


def test_streaming_reads_a_keyed_wal_like_a_positional_one(wals):
    positional, keyed = wals
    new, old = (
        detect_races_streaming(wal_dir=wal, window=WINDOW) for wal in wals
    )
    assert old.records_consumed == new.records_consumed > 0
    assert (old.confidence, old.damage) == (new.confidence, new.damage) == (
        "full", {}
    )
    assert list(old.candidate_seq_pairs()) == list(new.candidate_seq_pairs())
    assert list(new.candidate_seq_pairs())
    assert _events(old.firsts) == _events(new.firsts)
    assert _events(old.seconds) == _events(new.seconds)


def test_salvage_reads_a_keyed_wal_like_a_positional_one(wals):
    (new, new_report), (old, old_report) = (salvage_trace(w) for w in wals)
    assert not old_report.damaged and not new_report.damaged
    assert old_report.records_recovered == new_report.records_recovered
    assert _events(old.records) == _events(new.records)


def test_a_keyed_saved_trace_loads_like_a_positional_one(wals, tmp_path):
    trace, _ = salvage_trace(wals[0])
    saved = str(tmp_path / "saved")
    trace.save(saved)
    keyed = _rewrite_keyed(saved, str(tmp_path / "saved-keyed"))
    old, new = Trace.load(keyed), Trace.load(saved)
    assert _events(old.records) == _events(new.records) == _events(trace.records)
    old_result, new_result = (
        detect_races_streaming(wal_dir=d, window=WINDOW) for d in (keyed, saved)
    )
    assert list(old_result.candidate_seq_pairs()) == list(
        new_result.candidate_seq_pairs()
    )


def _recovered_report(wal_dir, root):
    """The report of a tenant whose spool holds ``wal_dir``, recovered
    from disk (as after a restart) and drained."""
    totals = {
        stream_key_str(key): len(paths)
        for key, paths in list_stream_segments(wal_dir).items()
    }
    os.makedirs(root)
    tenant = Tenant("t", root, window=WINDOW)
    tenant.declare_streams(sorted(list_stream_segments(wal_dir)))
    shutil.copytree(wal_dir, tenant.spool_dir)
    for key, paths in list_stream_segments(tenant.spool_dir).items():
        tenant.streams[key].received = len(paths)
    assert tenant.finalize(totals) is None  # persists state.json
    tenant = Tenant.recover("t", root)
    while not tenant.drained:
        assert tenant.pump(limit=50) or tenant.drained
    tenant.write_report()
    with open(tenant.report_path, "rb") as fh:
        return fh.read()


def test_a_tenant_spool_of_keyed_segments_recovers_to_the_same_report(
    wals, tmp_path
):
    positional, keyed = wals
    new = _recovered_report(positional, str(tmp_path / "positional"))
    old = _recovered_report(keyed, str(tmp_path / "keyed"))
    assert old == new
    assert json.loads(new)["confidence"] == "full"
