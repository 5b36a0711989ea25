"""Ingest hands the payloads it verified to the tenant pump.

A live ``DetectionServer`` decodes a segment from the bytes ingest
verified when that segment is the next its stream parses, and reads the
spool back only for a segment queued behind an unparsed one, and on
recovery.  These tests pin what that must not change — a live report
equals the offline pass over the WAL that was shipped, a recovered
tenant equals the offline pass over its spool — and what it bounds: one
handed segment per stream, and a pending-segment count that equals the
sum it replaced after every ingest and every pump call."""

import json
import os
import shutil
import time

import pytest

from repro.cli import main
from repro.detect.streaming import detect_races_streaming
from repro.framing import crc32, encode_line, encode_seal
from repro.service.client import ServiceClient
from repro.service.report import render_report, report_from_stream_result
from repro.service.server import DetectionServer
from repro.service.tenants import Tenant
from repro.trace.wal import list_stream_segments, scan_segment
from repro.workload import generate_workload

WINDOW = 256
NOT_A_RECORD = b'{"x":1}'


@pytest.fixture(scope="module")
def wal_dir(tmp_path_factory):
    """Several 16-record segments per stream (the leader has 9)."""
    out = tmp_path_factory.mktemp("handoff")
    return generate_workload(
        "minizk", "small", seed=11, out_dir=str(out), segment_records=16
    ).wal_dir


@pytest.fixture()
def server(tmp_path):
    srv = DetectionServer(
        str(tmp_path / "data"), window=WINDOW, http_port=None
    ).start()
    yield srv
    srv.stop()


@pytest.fixture()
def backlog_checks(monkeypatch):
    """``(pending_segments(), sum recomputed from every stream)`` after
    every segment ingest and every pump call, taken under the tenant
    lock; a test asserts they agree once it has run."""
    seen = []

    def record(tenant):
        with tenant.lock:
            seen.append((tenant.pending_segments(), _recount(tenant)))

    handle_segment = DetectionServer._handle_segment
    pump = Tenant.pump

    def checked_handle_segment(self, doc, body):
        response = handle_segment(self, doc, body)
        tenant = self.tenants.get(doc.get("tenant"))
        if tenant is not None:
            record(tenant)
        return response

    def checked_pump(self, limit=None):
        advanced = pump(self, limit)
        record(self)
        return advanced

    monkeypatch.setattr(DetectionServer, "_handle_segment", checked_handle_segment)
    monkeypatch.setattr(Tenant, "pump", checked_pump)
    return seen


def _recount(tenant):
    return sum(s.unparsed for s in tenant.streams.values())


def _client(server, tenant="alpha"):
    return ServiceClient("127.0.0.1", server.port, tenant, retry_deadline_s=30.0)


def _offline(wal_dir, tenant="alpha"):
    result = detect_races_streaming(wal_dir=wal_dir, window=WINDOW)
    return render_report(report_from_stream_result(tenant, result))


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def _not_a_record_segment(wal_dir, tmp_path):
    """A copy of ``wal_dir`` whose first follower stream opens with a
    segment of valid framing whose one payload is not a record."""
    copy = str(tmp_path / "damaged-wal")
    shutil.copytree(wal_dir, copy)
    key = sorted(k for k in list_stream_segments(copy) if k[0] != "leader")[0]
    path = list_stream_segments(copy)[key][0]
    header = _read(path).split(b"\n", 1)[0] + b"\n"
    data = (
        header
        + encode_line(b"R", NOT_A_RECORD)
        + encode_seal(1, crc32(NOT_A_RECORD))
    )
    assert scan_segment(data) == ([NOT_A_RECORD], True, None)
    with open(path, "wb") as fh:
        fh.write(data)
    return copy


def _replayed(root, tenant_id="alpha", checks=None):
    """Recover a tenant from its directory and replay its spool, as a
    restarted server does; the canonical report of the replay."""
    tenant = Tenant.recover(tenant_id, root)
    if checks is not None:
        checks.append((tenant.pending_segments(), _recount(tenant)))
    while not tenant.drained:
        assert tenant.pump(limit=50) or tenant.drained
    return render_report(report_from_stream_result(tenant_id, tenant.session.finish()))


# -- (a) a verified frame that holds no record --------------------------------


def test_live_payload_that_is_no_record_reports_as_offline(
    server, wal_dir, tmp_path
):
    """Segment 0 of a stream is always handed over, so the pump decodes
    it from ingest's payloads: the non-record truncates the stream there,
    byte for byte as ``dcatch stream`` over the same WAL reports it."""
    damaged = _not_a_record_segment(wal_dir, tmp_path)
    with _client(server) as client:
        client.ship_wal_dir(damaged)
        live = render_report(client.wait_report())
    out = str(tmp_path / "offline.json")
    assert main([
        "stream", damaged, "--window", str(WINDOW),
        "--report-out", out, "--report-tenant", "alpha",
    ]) == 0
    assert live == _read(out)
    doc = json.loads(live)
    assert doc["confidence"] == "partial"
    assert doc["damage"] == {"damaged_records": 1}


# -- (b) rot after the ACK ------------------------------------------------------


def test_segment_rotting_after_its_ack_is_read_only_by_recovery(
    server, wal_dir, tmp_path
):
    """The leader's segment 0 is parsed while the merge starves on every
    other stream, so segment 1 is handed over and waits.  Its spool file
    then rots.  The live pump decodes the verified bytes, so the live
    report is the unrotted WAL's; a recovered tenant reads the spool,
    so its replay is the offline pass over the rotted spool."""
    segments = list_stream_segments(wal_dir)
    key = ("leader", 1)
    blobs = [_read(path) for path in segments[key]]
    with _client(server) as client:
        client.hello(sorted(segments))  # no totals: the merge starves
        tenant = server.tenants["alpha"]
        stream = tenant.streams[key]
        client.send_segment(*key, 0, blobs[0])
        _wait_for(lambda: stream.consumed_segments == 1)
        client.send_segment(*key, 1, blobs[1])
        with tenant.lock:
            assert stream.handed == scan_segment(blobs[1])[0]
        path = stream.segment_path(1)
        lines = _read(path).split(b"\n")
        lines[3] = lines[3][:25] + b"\x00" + lines[3][26:]
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        client.ship_wal_dir(wal_dir)
        live = render_report(client.wait_report())
    assert live == _offline(wal_dir)
    server.stop()
    spool = os.path.join(server.tenants_dir, "alpha", "spool")
    rotted = _offline(spool)
    assert json.loads(rotted)["damage"] == {"damaged_records": 1}
    assert _replayed(os.path.join(server.tenants_dir, "alpha")) == rotted


# -- (c) the pending count is the sum it replaced ---------------------------------


def test_pending_count_equals_the_recomputed_sum(
    server, wal_dir, tmp_path, backlog_checks
):
    """Live, with a stream that damage truncates at its segment 0 (its
    later segments are spooled and never parsed), and again through a
    recovery that rebuilds the count from the spool and replays it."""
    damaged = _not_a_record_segment(wal_dir, tmp_path)
    with _client(server) as client:
        result = client.ship_wal_dir(damaged)
        client.wait_report()
    ingests = len(backlog_checks)
    assert ingests >= result.segments_shipped > 0
    server.stop()
    _replayed(os.path.join(server.tenants_dir, "alpha"), checks=backlog_checks)
    assert len(backlog_checks) > ingests + 1
    assert all(count == recount for count, recount in backlog_checks), [
        pair for pair in backlog_checks if pair[0] != pair[1]
    ]


# -- (d) one handed segment per stream ------------------------------------------------


def test_a_stream_holds_at_most_one_handed_segment(
    server, wal_dir, backlog_checks
):
    """With the merge starved on every other stream, the leader ships
    four segments: the pump parses segment 0, segment 1 (the next it
    will parse) is handed over, and 2 and 3 wait in the spool only."""
    segments = list_stream_segments(wal_dir)
    key = ("leader", 1)
    blobs = [_read(path) for path in segments[key]]
    with _client(server) as client:
        client.hello(sorted(segments))  # no totals: the merge starves
        tenant = server.tenants["alpha"]
        stream = tenant.streams[key]
        client.send_segment(*key, 0, blobs[0])
        _wait_for(lambda: stream.consumed_segments == 1)
        for index in (1, 2, 3):
            client.send_segment(*key, index, blobs[index])
        with tenant.lock:
            assert stream.consumed_segments == 1
            assert stream.handed == scan_segment(blobs[1])[0]
            assert stream.unparsed == 3
            assert tenant.pending_segments() == 3
            others = [s for k, s in tenant.streams.items() if k != key]
            assert all(s.handed is None and s.received == 0 for s in others)
        client.ship_wal_dir(wal_dir)
        live = render_report(client.wait_report())
    assert live == _offline(wal_dir)
    assert all(count == recount for count, recount in backlog_checks)
