"""A saved trace is a WAL directory: ``Trace.save`` / ``Trace.load``."""

import os
import shutil

import pytest

from repro.cli import main
from repro.errors import TraceFormatError
from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id
from repro.trace import Trace, record_to_dict

_LOSS_FIELDS = (
    "partial",
    "dropped_mem",
    "skipped_unbound",
    "skipped_untraced",
)


def _traced(bug, **config):
    return DCatch(workload_by_id(bug), PipelineConfig(**config)).run_traced()[1]


def assert_same_trace(restored, trace):
    assert [record_to_dict(r) for r in restored.records] == [
        record_to_dict(r) for r in trace.records
    ]
    for name in _LOSS_FIELDS:
        assert getattr(restored, name) == getattr(trace, name), name
    assert restored.size_bytes() == trace.size_bytes()


def test_save_load_roundtrip_of_an_out_of_order_live_trace(tmp_path):
    """HB-4539's live trace appends records out of ``seq`` order; the
    saved and reloaded trace is the same trace, loss fields included."""
    trace = _traced("HB-4539")
    per_thread = trace.per_thread.values()
    assert any(
        [r.seq for r in recs] != sorted(r.seq for r in recs)
        for recs in per_thread
    )
    trace.partial, trace.skipped_unbound = True, 3
    trace.save(str(tmp_path))
    assert_same_trace(Trace.load(str(tmp_path)), trace)


def test_save_writes_one_sealed_segment_per_stream(tmp_path):
    trace = _traced("ZK-1144")
    trace.save(str(tmp_path))
    segments = sorted(
        os.path.relpath(os.path.join(root, name), tmp_path)
        for root, _dirs, names in os.walk(tmp_path)
        for name in names
        if name.endswith(".wal")
    )
    streams = sorted({(r.node, r.tid) for r in trace.records})
    assert segments == [
        os.path.join(node, f"thread-{tid}", "seg-0000.wal")
        for node, tid in streams
    ]


def test_save_replaces_a_trace_already_in_the_directory(tmp_path):
    """The stale streams of a bigger trace used to merge into the next
    one saved in the same directory (61 records instead of 30)."""
    zk = _traced("ZK-1270")
    _traced("HB-4539").save(str(tmp_path))
    zk.save(str(tmp_path))
    restored = Trace.load(str(tmp_path))
    assert len(restored) == len(zk) == 30
    assert_same_trace(restored, zk)


def test_every_flip_and_truncation_of_a_saved_trace_is_refused(tmp_path):
    """Strict reader: one flipped byte anywhere — segment header,
    record frame, seal, ``meta.json`` — or any truncation raises a
    one-line ``TraceFormatError`` naming the file and byte offset.

    A segment's verdict depends on its own bytes only, so each one is
    mutated in a saved trace of just its stream (eight times fewer bytes
    to re-read per mutant)."""
    trace = _traced("ZK-1144")
    saved = str(tmp_path / "trace")
    trace.save(saved)
    names = sorted(
        os.path.relpath(os.path.join(root, name), saved)
        for root, _dirs, files in os.walk(saved)
        for name in files
    )
    assert len(names) == 9  # meta.json + eight thread streams
    for name in names:
        work = str(tmp_path / "work")
        shutil.rmtree(work, ignore_errors=True)
        if name == "meta.json":
            shutil.copytree(saved, work)
        else:
            _one_stream(trace, name).save(work)
        path = os.path.join(work, name)
        with open(path, "rb") as fh:
            original = fh.read()
        mutants = [
            original[:i] + bytes([original[i] ^ 0x01]) + original[i + 1:]
            for i in range(len(original))
        ] + [original[:i] for i in range(len(original))]
        for mutant in mutants:
            with open(path, "wb") as fh:
                fh.write(mutant)
            with pytest.raises(TraceFormatError) as info:
                Trace.load(work)
            message = str(info.value)
            assert "\n" not in message
            assert message.startswith(f"damaged trace {work}: {name} byte ")
        with open(path, "wb") as fh:
            fh.write(original)
        assert len(Trace.load(work)) > 0


def _one_stream(trace, segment):
    """The records of ``trace`` in the stream ``segment`` (a path
    ``<node>/thread-<tid>/seg-0000.wal``) belongs to."""
    node, thread = segment.split(os.sep)[:2]
    tid = int(thread[len("thread-"):])
    part = Trace()
    for record in trace.records:
        if (record.node, record.tid) == (node, tid):
            part.append(record)
    return part


@pytest.mark.parametrize(
    "lose, where",
    [
        ("zk1/thread-0", "zk1/thread-0 byte 0: missing stream"),
        ("zk1/thread-0/seg-0000.wal", "zk1/thread-0 byte 0: not one segment"),
        ("meta.json", "meta.json byte 0: no such file"),
    ],
)
def test_a_lost_file_is_refused_not_loaded_as_a_smaller_trace(
    tmp_path, lose, where
):
    """Deleting a whole stream, a stream's only segment or ``meta.json``
    leaves every remaining byte intact; ``meta.json``'s stream map is
    what tells the loss apart from a smaller trace."""
    saved = str(tmp_path)
    _traced("ZK-1144").save(saved)
    path = os.path.join(saved, lose)
    if os.path.isdir(path):
        shutil.rmtree(path)
    else:
        os.remove(path)
    with pytest.raises(TraceFormatError) as info:
        Trace.load(saved)
    assert str(info.value).startswith(f"damaged trace {saved}: {where}")


def test_an_empty_trace_round_trips(tmp_path, capsys):
    """A wholly torn WAL salvages to no records; saved, it is a bare
    ``meta.json`` that loads as an empty ``partial`` trace."""
    wal = tmp_path / "wal" / "n" / "thread-0"
    wal.mkdir(parents=True)
    (wal / "seg-0000.wal").write_bytes(b"R 0000")
    saved = str(tmp_path / "saved")
    assert main(["salvage", str(tmp_path / "wal"), "--out", saved]) == 1
    assert os.listdir(saved) == ["meta.json"]
    restored = Trace.load(saved)
    assert len(restored) == 0 and restored.partial
    capsys.readouterr()
    assert main(["trace", "--load", saved]) == 0
    assert f"loaded 0 records from {saved}" in capsys.readouterr().out


def test_trace_load_of_a_damaged_trace_exits_2(tmp_path, capsys):
    saved = str(tmp_path / "trace")
    assert main(["trace", "ZK-1144", "--out", saved]) == 0
    capsys.readouterr()
    segment = os.path.join(saved, "zk1", "thread-0", "seg-0000.wal")
    with open(segment, "rb") as fh:
        original = fh.read()
    for mutant in (original[:-1], original[:40] + b"X" + original[41:]):
        with open(segment, "wb") as fh:
            fh.write(mutant)
        assert main(["trace", "--load", saved]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: damaged trace {saved}: ")
        assert len(err.strip().splitlines()) == 1
