"""Salvage recovers every intact record and quarantines the rest."""

import json
import os
from collections import Counter

import pytest

from repro.errors import TraceFormatError
from repro.framing import encode_line
from repro.ids import CallStack
from repro.runtime.ops import OpEvent, OpKind
from repro.trace import WalSink, WalWriter, salvage_trace
from repro.trace.records import record_to_dict
from repro.trace.wal import WalStreamReader


def _event(seq, node="n1", tid=0):
    return OpEvent(
        seq=seq, kind=OpKind.MEM_WRITE, obj_id=f"{node}.x", node=node,
        tid=tid, thread_name=f"{node}.t{tid}", segment=0,
        callstack=CallStack([]),
    )


def _write_stream(directory, count, node="n1", tid=0, **kwargs):
    sink = WalSink(str(directory), **kwargs)
    for seq in range(1, count + 1):
        sink.append(_event(seq, node=node, tid=tid))
    return sink


def _segment_path(directory, node="n1", tid=0, segment=0):
    return os.path.join(
        str(directory), node, f"thread-{tid}", f"seg-{segment:04d}.wal"
    )


class TestCleanRoundTrip:
    def test_all_records_recovered_in_seq_order(self, tmp_path):
        sink = _write_stream(tmp_path, 10, flush_every=1)
        sink.close()
        trace, report = salvage_trace(str(tmp_path))
        assert not report.damaged
        assert report.records_recovered == 10
        assert report.sealed_segments == 1
        assert [r.seq for r in trace.records] == list(range(1, 11))
        assert trace.partial is False

    def test_multi_stream_merge(self, tmp_path):
        sink = WalSink(str(tmp_path), flush_every=1)
        sink.append(_event(3, node="a", tid=0))
        sink.append(_event(1, node="b", tid=0))
        sink.append(_event(2, node="a", tid=1))
        sink.close()
        trace, report = salvage_trace(str(tmp_path))
        assert not report.damaged
        assert [r.seq for r in trace.records] == [1, 2, 3]
        assert set(report.threads) == {
            "a/thread-0", "a/thread-1", "b/thread-0"
        }


class TestDamage:
    def test_abandoned_stream_yields_partial_trace(self, tmp_path):
        sink = _write_stream(tmp_path, 12, flush_every=100)
        sink.abandon_node("n1")
        trace, report = salvage_trace(str(tmp_path))
        assert report.damaged
        assert report.unsealed_segments == 1
        assert report.torn_records == 1
        assert 0 < report.records_recovered < 12
        assert trace.partial is True

    def test_crc_corruption_quarantines_one_record(self, tmp_path):
        sink = _write_stream(tmp_path, 5, flush_every=1)
        sink.close()
        path = _segment_path(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        # Flip one byte inside the third record's JSON payload: its seq.
        lines = data.split(b"\n")  # the header, then records 1, 2, 3, ...
        assert lines[3].startswith(b"R ") and b" [3," in lines[3]
        lines[3] = lines[3].replace(b" [3,", b" [9,", 1)
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        trace, report = salvage_trace(str(tmp_path))
        assert report.crc_mismatches == 1
        assert report.records_recovered == 4
        assert report.damaged
        assert [r.seq for r in trace.records] == [1, 2, 4, 5]
        # Quarantine records where, not just how many.
        assert any("CRC" in q.reason for q in report.quarantined)
        assert report.quarantined[0].byte_end > report.quarantined[0].byte_start

    def test_seal_mismatch_detected(self, tmp_path):
        sink = _write_stream(tmp_path, 4, flush_every=1)
        sink.close()
        path = _segment_path(tmp_path)
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        # Drop one record line (the header, then records 1, 2, ...) but
        # keep the (now lying) seal.
        assert lines[2].startswith(b"R ") and b" [2," in lines[2]
        del lines[2]
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        trace, report = salvage_trace(str(tmp_path))
        assert report.seal_mismatches == 1
        assert report.damaged
        assert report.records_recovered == 3

    def test_missing_segment_reported(self, tmp_path):
        sink = WalSink(str(tmp_path), segment_records=3, flush_every=1)
        for seq in range(1, 10):
            sink.append(_event(seq))
        sink.close()
        os.remove(_segment_path(tmp_path, segment=1))
        trace, report = salvage_trace(str(tmp_path))
        assert report.damaged
        assert len(report.missing_segments) == 1
        assert "seg-0001" in report.missing_segments[0]
        assert report.threads["n1/thread-0"].missing_segments == [1]
        assert [r.seq for r in trace.records] == [1, 2, 3, 7, 8, 9]

    def test_garbage_and_bad_json_quarantined(self, tmp_path):
        sink = _write_stream(tmp_path, 2, flush_every=1)
        sink.close()
        path = _segment_path(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        seal_at = data.rindex(b"S ")
        injected = b"not a wal line\n" + encode_line(b"R", b"{broken json")
        with open(path, "wb") as fh:
            fh.write(data[:seal_at] + injected + data[seal_at:])
        trace, report = salvage_trace(str(tmp_path))
        assert report.records_recovered == 2
        assert report.records_quarantined == 2
        assert report.bad_records >= 1
        reasons = {q.reason for q in report.quarantined}
        assert any("not valid JSON" in r for r in reasons)
        assert any("unrecognized" in r for r in reasons)

    def test_frame_that_is_no_record_is_quarantined_where_it_is_read(
        self, tmp_path
    ):
        """A frame can verify (length, CRC, seal count) and parse as JSON
        and still hold no record.  It used to be dropped by a second
        loop that patched the report totals only: no byte range, the
        thread tallied it as recovered and was never named."""
        writer = WalWriter(str(tmp_path), "n1", 0)
        writer.append(record_to_dict(_event(1)))
        writer.append({"seq": 2, "v": 99})
        writer.close()
        path = _segment_path(tmp_path)

        trace, report = salvage_trace(str(tmp_path))
        thread = report.threads["n1/thread-0"]
        assert [r.seq for r in trace.records] == [1]
        assert trace.partial and report.damaged and thread.damaged
        assert (report.records_recovered, thread.records_recovered) == (1, 1)
        assert (report.records_quarantined, thread.records_quarantined) == (1, 1)
        assert (report.bad_records, report.seal_mismatches) == (1, 0)
        assert report.sealed_segments == 1
        [region] = report.quarantined
        # The header, record 1, then the frame that is no record.
        lines = open(path, "rb").read().splitlines(keepends=True)
        line = lines[2]
        assert line.startswith(b"R ") and line.endswith(b'"v":99}\n')
        start = len(lines[0]) + len(lines[1])
        assert (region.byte_start, region.byte_end) == (start, start + len(line) - 1)
        assert "schema version 99" in region.reason
        assert "n1/thread-0: 1 recovered, 1 quarantined" in report.render()

        # The truncating reader always stopped there.
        damage = Counter()
        events = list(WalStreamReader(damage).stream([path]))
        assert [e.seq for e in events] == [1]
        assert damage == {"damaged_records": 1}

    def test_empty_trace_from_fully_torn_wal(self, tmp_path):
        stream_dir = tmp_path / "n1" / "thread-0"
        stream_dir.mkdir(parents=True)
        (stream_dir / "seg-0000.wal").write_bytes(b"R 000000ff 0000")
        trace, report = salvage_trace(str(tmp_path))
        assert len(trace) == 0
        assert report.damaged
        assert report.torn_records == 1


class TestReport:
    def test_to_dict_and_render(self, tmp_path):
        sink = _write_stream(tmp_path, 12, flush_every=100)
        sink.abandon_node("n1")
        _, report = salvage_trace(str(tmp_path))
        data = report.to_dict()
        assert data["format"] == "repro-salvage-report"
        assert data["damaged"] is True
        assert data["records_recovered"] == report.records_recovered
        assert data["threads"]["n1/thread-0"]["unsealed_segments"] == 1
        json.dumps(data)  # must be JSON-serializable as-is
        text = report.render()
        assert "DAMAGED" in text
        assert "torn" in text

    def test_clean_render(self, tmp_path):
        sink = _write_stream(tmp_path, 3, flush_every=1)
        sink.close()
        _, report = salvage_trace(str(tmp_path))
        assert "clean" in report.render()


class TestErrors:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(TraceFormatError):
            salvage_trace(str(tmp_path / "nope"))

    def test_directory_without_streams_raises(self, tmp_path):
        (tmp_path / "unrelated.txt").write_text("hi")
        with pytest.raises(TraceFormatError, match="no WAL streams"):
            salvage_trace(str(tmp_path))


class TestLiveSalvage:
    """A WAL still being written salvages like one cut at that instant."""

    def _live_wal(self, tmp_path):
        """A stream mid-capture: one sealed segment, then a growing
        unsealed tail ending in a half-flushed record."""
        sink = _write_stream(
            tmp_path, 6, flush_every=1, segment_records=4
        )
        # seg-0000 sealed with 4 records; seg-0001 has 2 and no seal.
        tail = _segment_path(tmp_path, segment=1)
        payload = json.dumps(record_to_dict(_event(7))).encode()
        with open(tail, "ab") as fh:
            line = encode_line(b"R", payload)
            fh.write(line[: len(line) // 2])  # writer cut mid-append
        return sink

    def test_growing_tail_is_damage_without_live(self, tmp_path):
        self._live_wal(tmp_path)
        trace, report = salvage_trace(str(tmp_path))
        assert report.damaged
        assert report.unsealed_segments == 1
        assert report.torn_records == 1
        # Every fully-flushed record is still recovered.
        assert report.records_recovered == 6
        assert [r.seq for r in trace.records] == list(range(1, 7))

    def test_live_does_not_excuse_damage_before_the_tail(self, tmp_path):
        self._live_wal(tmp_path)
        # Corrupt a record inside the *sealed* first segment: that is
        # damage of its own, besides the growing tail.
        path = _segment_path(tmp_path, segment=0)
        lines = open(path, "rb").read().split(b"\n")
        # The header, then records 1, 2, ...: one byte of record 2 goes.
        assert lines[2].startswith(b"R ") and b" [2," in lines[2]
        lines[2] = lines[2].replace(b" [2,", b" [2!", 1)
        open(path, "wb").write(b"\n".join(lines))
        _trace, report = salvage_trace(str(tmp_path))
        assert report.damaged
        assert report.records_quarantined == 2  # the CRC-bad and the torn
        assert report.crc_mismatches == 1
        assert report.unsealed_segments == 1

    def test_live_missing_segment_is_still_damage(self, tmp_path):
        self._live_wal(tmp_path)
        os.rename(
            _segment_path(tmp_path, segment=0),
            str(tmp_path) + "/gone.bak",
        )
        _trace, report = salvage_trace(str(tmp_path))
        assert report.damaged
        assert report.missing_segments
