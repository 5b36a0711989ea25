"""WAL writer framing, rotation, sealing, and crash abandonment."""

import json
import os
import zlib

import pytest

from repro.framing import encode_line, encode_seal
from repro.ids import CallStack, Frame
from repro.runtime.ops import OpEvent, OpKind
from repro.trace import Tracer, WalSink, WalWriter


def _event(seq, node="n1", tid=0, kind=OpKind.MEM_WRITE):
    return OpEvent(
        seq=seq, kind=kind, obj_id=f"{node}.x", node=node, tid=tid,
        thread_name=f"{node}.t{tid}", segment=0, callstack=CallStack([]),
    )


def _segments(directory, node, tid):
    d = os.path.join(directory, node, f"thread-{tid}")
    return sorted(f for f in os.listdir(d)) if os.path.isdir(d) else []


def _read(directory, node, tid, segment):
    path = os.path.join(directory, node, f"thread-{tid}", segment)
    with open(path, "rb") as fh:
        return fh.read()


class TestFraming:
    def test_record_line_layout(self):
        payload = b'{"a": 1}'
        line = encode_line(b"R", payload)
        assert line.startswith(b"R ")
        assert line.endswith(payload + b"\n")
        length = int(line[2:10], 16)
        crc = int(line[11:19], 16)
        assert length == len(payload)
        assert crc == zlib.crc32(payload) & 0xFFFFFFFF

    def test_seal_line_layout(self):
        line = encode_seal(3, 0xDEADBEEF)
        assert line == b"S 00000003 deadbeef\n"


class TestWalWriter:
    def test_clean_close_writes_header_records_seal(self, tmp_path):
        writer = WalWriter(str(tmp_path), "n1", 0, flush_every=1)
        writer.append({"seq": 1})
        writer.append({"seq": 2})
        writer.close()
        data = _read(str(tmp_path), "n1", 0, "seg-0000.wal")
        lines = data.split(b"\n")
        assert lines[0].startswith(b"H ")
        header = json.loads(lines[0][2:])
        assert header["format"] == "repro-wal"
        assert header["node"] == "n1" and header["tid"] == 0
        assert lines[1].startswith(b"R ") and lines[2].startswith(b"R ")
        assert lines[3].startswith(b"S ")
        assert writer.records_written == 2
        assert writer.segments_sealed == 1

    def test_rotation_seals_full_segments(self, tmp_path):
        writer = WalWriter(
            str(tmp_path), "n1", 0, segment_records=4, flush_every=1
        )
        for seq in range(10):
            writer.append({"seq": seq})
        writer.close()
        segs = _segments(str(tmp_path), "n1", 0)
        assert segs == ["seg-0000.wal", "seg-0001.wal", "seg-0002.wal"]
        assert writer.segments_sealed == 3
        # Every segment, including the short final one, carries a seal.
        for seg in segs:
            assert b"\nS " in _read(str(tmp_path), "n1", 0, seg)

    def test_abandon_leaves_unsealed_torn_tail(self, tmp_path):
        writer = WalWriter(str(tmp_path), "n1", 0, flush_every=100)
        for seq in range(8):
            writer.append({"seq": seq, "pad": "x" * 40})
        writer.abandon()
        data = _read(str(tmp_path), "n1", 0, "seg-0000.wal")
        assert b"\nS " not in data  # no seal: the crash got there first
        # A prefix of the buffer survived; the next record is torn.
        complete = [l for l in data.split(b"\n") if l.startswith(b"R ")]
        assert 0 < len(complete) < 8
        assert not data.endswith(b"\n")

    def test_append_after_close_is_a_no_op(self, tmp_path):
        writer = WalWriter(str(tmp_path), "n1", 0, flush_every=1)
        writer.append({"seq": 1})
        writer.close()
        writer.append({"seq": 2})
        assert writer.records_written == 1

    def test_flush_every_buffers_appends(self, tmp_path):
        writer = WalWriter(str(tmp_path), "n1", 0, flush_every=4)
        writer.append({"seq": 1})
        # Nothing flushed yet: only the header is on disk.
        data = _read(str(tmp_path), "n1", 0, "seg-0000.wal")
        assert b"R " not in data
        for seq in range(2, 6):
            writer.append({"seq": seq})
        data = _read(str(tmp_path), "n1", 0, "seg-0000.wal")
        assert data.count(b"\nR ") + data.startswith(b"R ") >= 4
        writer.close()


class TestWalSink:
    def test_record_layout_is_pinned(self, tmp_path):
        """A readable counterpart of ``test_wal_bytes_are_pinned``: one
        record is a compact JSON array in ``OpEvent`` field order (seq,
        kind, obj_id, node, tid, thread, segment, stack, location,
        observed_write, in_handler, extra), its ``extra`` keys sorted,
        under a header that says ``record_version`` 2."""
        event = OpEvent(
            seq=42, kind=OpKind.MEM_READ, obj_id="x", node="worker-0007",
            tid=3, thread_name="worker-0007.main", segment=3,
            callstack=CallStack([Frame("repro/systems/x/a.py", "local_read", 31)]),
            location=(9, "x"), observed_write=17, in_handler=True,
            extra={"writer_tid": 2, "writer_node": "nm1"},
        )
        sink = WalSink(str(tmp_path))
        sink.append(event)
        sink.close()
        header, record, seal, end = _read(
            str(tmp_path), "worker-0007", 3, "seg-0000.wal"
        ).split(b"\n")
        assert header == (
            b'H {"format":"repro-wal","node":"worker-0007",'
            b'"record_version":2,"segment":0,"tid":3,"wal_version":1}'
        )
        assert record == (
            b'R 00000098 c0a88d46 [42,"mem_read","x","worker-0007",3,'
            b'"worker-0007.main",3,[["repro/systems/x/a.py","local_read",31]],'
            b'[9,"x"],17,true,{"writer_node":"nm1","writer_tid":2}]'
        )
        assert (seal, end) == (b"S 00000001 c0a88d46", b"")

    def test_routes_streams_by_node_and_thread(self, tmp_path):
        sink = WalSink(str(tmp_path), flush_every=1)
        sink.append(_event(1, node="a", tid=0))
        sink.append(_event(2, node="a", tid=1))
        sink.append(_event(3, node="b", tid=0))
        sink.close()
        assert _segments(str(tmp_path), "a", 0) == ["seg-0000.wal"]
        assert _segments(str(tmp_path), "a", 1) == ["seg-0000.wal"]
        assert _segments(str(tmp_path), "b", 0) == ["seg-0000.wal"]
        assert sink.records_written == 3
        assert sink.segments_sealed == 3
        assert sink.bytes_written > 0

    def test_abandon_node_stops_its_streams_only(self, tmp_path):
        sink = WalSink(str(tmp_path), flush_every=1)
        sink.append(_event(1, node="a"))
        sink.append(_event(2, node="b"))
        sink.abandon_node("a")
        sink.append(_event(3, node="a"))  # dropped: node is gone
        sink.append(_event(4, node="b"))
        sink.close()
        a_data = _read(str(tmp_path), "a", 0, "seg-0000.wal")
        b_data = _read(str(tmp_path), "b", 0, "seg-0000.wal")
        assert b"\nS " not in a_data  # crashed stream never sealed
        assert b"\nS " in b_data
        assert b_data.count(b"R ") == 2

    def test_tracer_wires_wal_through_run(self, tmp_path):
        from repro.runtime import Cluster
        from repro.trace import FullScope

        sink = WalSink(str(tmp_path), flush_every=1)
        cluster = Cluster(seed=0)
        tracer = Tracer(scope=FullScope(), wal=sink).bind(cluster)
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)
        node.spawn(lambda: var.set(1), name="w")
        cluster.run()
        tracer.close()
        assert sink.records_written == len(tracer.trace)
        assert sink.records_written > 0

    def test_close_deletes_streams_and_segments_it_did_not_write(self, tmp_path):
        sink = WalSink(str(tmp_path), segment_records=2, flush_every=1)
        for seq in range(1, 6):
            sink.append(_event(seq, node="a"))
        sink.append(_event(6, node="b"))
        sink.close()
        sink = WalSink(str(tmp_path), segment_records=2, flush_every=1)
        sink.append(_event(1, node="a"))
        sink.close()
        assert _segments(str(tmp_path), "a", 0) == ["seg-0000.wal"]
        assert _segments(str(tmp_path), "b", 0) == []

    def test_reused_trace_dir_salvages_only_the_new_run(self, tmp_path):
        """A selective run written over a full-scope run's WAL used to
        salvage as the old run: seg-0000 was rewritten in place, but
        the old run's later segments and extra streams stayed."""
        from repro.pipeline import DCatch, PipelineConfig
        from repro.systems import workload_by_id
        from repro.trace import salvage_trace
        from repro.trace.records import record_to_dict

        def salvaged(trace_dir, *scopes):
            for scope in scopes:
                config = PipelineConfig(scope=scope, trace_dir=str(trace_dir))
                DCatch(workload_by_id("MR-3274"), config).run_traced()
            (wal_dir,) = (trace_dir / "MR-3274").iterdir()
            trace, report = salvage_trace(str(wal_dir))
            assert not report.damaged
            return (
                [record_to_dict(r) for r in trace.records],
                report.sealed_segments,
                sorted(report.threads),
            )

        reused = salvaged(tmp_path / "reused", "full", "selective")
        fresh = salvaged(tmp_path / "fresh", "selective")
        assert reused == fresh
        assert len(fresh[0]) < len(salvaged(tmp_path / "full", "full")[0])
