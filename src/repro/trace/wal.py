"""Durable write-ahead trace log.

The paper's tracer writes one trace file per thread of every process
(Section 3.1); ours keeps traces in memory, which means a node crashed
by a fault plan takes its whole trace with it.  This module is the
durable path: the tracer appends every record to a per-node, per-thread
*segmented* append-only log as the run executes, so a node killed
mid-run leaves a salvageable prefix on disk.

Layout (under one WAL directory)::

    <dir>/<node>/thread-<tid>/seg-0000.wal
    <dir>/<node>/thread-<tid>/seg-0001.wal
    ...

Each segment file is a header line, framed record lines and a seal, in
the line format `repro.framing` owns (grammar and damage taxonomy:
``docs/framing.md``); being line-oriented, a reader can resynchronize
after damage.  Records are buffered and flushed
every ``flush_every`` appends: the unflushed suffix is exactly what a
crash loses.  ``abandon()`` models the crash — it drops part of the
buffer and tears the last write mid-record, which is what the salvage
path (`repro.trace.salvage`) must recover from.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
from collections import Counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import TraceFormatError
from repro.framing import Damage, SegmentScan, crc32, encode_line, encode_seal
from repro.runtime.ops import OpEvent
from repro.trace.records import (
    TRACE_SCHEMA_VERSION,
    record_from_dict,
    record_to_dict,
)

#: Fires after a segment seals: ``(node, tid, segment_index, path)``.
#: This is the hook the detection-service client rides to ship sealed
#: segments as the run executes.
SealCallback = Callable[[str, int, int, str], None]

WAL_FORMAT = "repro-wal"
WAL_VERSION = 1

#: Records per segment before rotation.  Small enough that a long run
#: seals many segments (so most of the trace survives a crash sealed),
#: large enough that rotation cost is negligible.
DEFAULT_SEGMENT_RECORDS = 256

#: Appends between flushes.  The buffered suffix is what a crash loses.
DEFAULT_FLUSH_EVERY = 32


_SEGMENT_NAME = re.compile(r"seg-(\d+)\.wal")

#: The canonical payload encoding, built once (``json.dumps`` with
#: options builds an encoder per call).
_encode_json = json.JSONEncoder(sort_keys=True).encode


def stream_key(node: str, tid: int) -> str:
    """A stream's directory relative to its WAL directory; also its name
    in salvage reports and in a saved trace's ``meta.json``."""
    return f"{node}/thread-{tid}"


def stream_dir(wal_dir: str, node: str, tid: int) -> str:
    return os.path.join(wal_dir, stream_key(node, tid))


def segment_name(index: int) -> str:
    return f"seg-{index:04d}.wal"


def segment_index(path: str) -> Optional[int]:
    """The index in a ``seg-NNNN.wal`` file name, else ``None``."""
    match = _SEGMENT_NAME.fullmatch(os.path.basename(path))
    return int(match.group(1)) if match else None


def segment_header(node: str, tid: int, index: int) -> bytes:
    """The ``H`` line that opens segment ``index`` of a stream."""
    header = {
        "format": WAL_FORMAT,
        "wal_version": WAL_VERSION,
        "record_version": TRACE_SCHEMA_VERSION,
        "node": node,
        "tid": tid,
        "segment": index,
    }
    return b"H " + _encode_json(header).encode() + b"\n"


class WalWriter:
    """Append-only segmented log for one (node, thread) stream."""

    def __init__(
        self,
        directory: str,
        node: str,
        tid: int,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        on_seal: Optional[SealCallback] = None,
    ) -> None:
        self.directory = stream_dir(directory, node, tid)
        self.node = node
        self.tid = tid
        self.segment_records = max(1, segment_records)
        self.flush_every = max(1, flush_every)
        self.on_seal = on_seal
        self.records_written = 0
        self.segments_sealed = 0
        self.bytes_written = 0
        self.closed = False
        self._segment_index = -1
        self._segment_count = 0
        self._segment_crc = 0
        self._buffer: list = []
        self._buffered = 0
        self._fh = None
        os.makedirs(self.directory, exist_ok=True)
        self._open_segment()

    # -- segment lifecycle ---------------------------------------------------

    def _open_segment(self) -> None:
        self._segment_index += 1
        self._segment_count = 0
        self._segment_crc = 0
        path = os.path.join(self.directory, segment_name(self._segment_index))
        self._segment_path = path
        self._fh = open(path, "wb")
        line = segment_header(self.node, self.tid, self._segment_index)
        self._fh.write(line)
        self.bytes_written += len(line)

    def _drain_buffer(self) -> None:
        if self._buffer:
            data = b"".join(self._buffer)
            self._fh.write(data)
            self._fh.flush()
            self.bytes_written += len(data)
            self._buffer = []
            self._buffered = 0

    def _seal_segment(self) -> None:
        self._drain_buffer()
        line = encode_seal(self._segment_count, self._segment_crc)
        self._fh.write(line)
        self._fh.flush()
        self.bytes_written += len(line)
        self._fh.close()
        self.segments_sealed += 1
        if self.on_seal is not None:
            self.on_seal(
                self.node, self.tid, self._segment_index, self._segment_path
            )

    # -- public API ----------------------------------------------------------

    def append(self, data: Dict[str, Any]) -> None:
        if self.closed:
            return
        payload = _encode_json(data).encode()
        self._buffer.append(encode_line(b"R", payload))
        self._buffered += 1
        self._segment_count += 1
        self._segment_crc = crc32(payload, self._segment_crc)
        self.records_written += 1
        if self._buffered >= self.flush_every:
            self._drain_buffer()
        if self._segment_count >= self.segment_records:
            self._seal_segment()
            self._open_segment()

    def close(self) -> None:
        """Cleanly seal and close the current segment."""
        if self.closed:
            return
        self.closed = True
        self._seal_segment()

    def abandon(self) -> None:
        """Model a node crash: the stream stops without a seal.

        Flushed data survives; of the in-flight buffer, only a prefix
        reaches the disk and the last write is torn mid-record — the
        failure mode the salvage path exists for.
        """
        if self.closed:
            return
        self.closed = True
        if self._buffer:
            keep = len(self._buffer) // 2
            for line in self._buffer[:keep]:
                self._fh.write(line)
                self.bytes_written += len(line)
            torn = self._buffer[keep]
            cut = max(2, len(torn) // 2)
            self._fh.write(torn[:cut])
            self.bytes_written += cut
            self._buffer = []
            self._buffered = 0
        self._fh.flush()
        self._fh.close()


class WalSink:
    """Routes trace records to per-(node, thread) writers.

    Attached to the ``Tracer``; ``append`` is called once per recorded
    event, ``abandon_node`` when a node crashes (its streams stop,
    unsealed), and ``close`` at end of run (surviving streams seal)."""

    def __init__(
        self,
        directory: str,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        on_seal: Optional[SealCallback] = None,
    ) -> None:
        self.directory = directory
        self.segment_records = segment_records
        self.flush_every = flush_every
        self.on_seal = on_seal
        self.abandoned_nodes: set = set()
        self._writers: Dict[Tuple[str, int], WalWriter] = {}
        os.makedirs(directory, exist_ok=True)

    def append(self, event: OpEvent) -> None:
        key = (event.node, event.tid)
        if event.node in self.abandoned_nodes:
            return  # a crashed node writes nothing more
        writer = self._writers.get(key)
        if writer is None:
            writer = WalWriter(
                self.directory,
                event.node,
                event.tid,
                segment_records=self.segment_records,
                flush_every=self.flush_every,
                on_seal=self.on_seal,
            )
            self._writers[key] = writer
        writer.append(record_to_dict(event))

    def abandon_node(self, node: str) -> None:
        """The node crashed: its streams end abruptly, without seals."""
        self.abandoned_nodes.add(node)
        for (writer_node, _tid), writer in self._writers.items():
            if writer_node == node:
                writer.abandon()

    def close(self) -> None:
        """End of run: seal every surviving stream, delete what an
        earlier run left in the directory — streams this sink did not
        write, segments past a writer's last — and publish totals."""
        for writer in self._writers.values():
            writer.close()
        for key, paths in list_stream_segments(self.directory).items():
            writer = self._writers.get(key)
            if writer is None:
                shutil.rmtree(stream_dir(self.directory, *key))
                continue
            for path in paths:
                if segment_index(path) > writer._segment_index:
                    os.remove(path)
        self._publish_metrics()

    # -- accounting ----------------------------------------------------------

    @property
    def records_written(self) -> int:
        return sum(w.records_written for w in self._writers.values())

    @property
    def segments_sealed(self) -> int:
        return sum(w.segments_sealed for w in self._writers.values())

    @property
    def bytes_written(self) -> int:
        return sum(w.bytes_written for w in self._writers.values())

    def _publish_metrics(self) -> None:
        from repro import obs

        registry = obs.get_registry()
        if not registry.enabled:
            return
        registry.counter(
            "wal_records_written_total", "trace records appended to the WAL"
        ).inc(self.records_written)
        registry.counter(
            "wal_segments_sealed_total", "WAL segments sealed cleanly"
        ).inc(self.segments_sealed)
        registry.counter(
            "wal_bytes_written_total", "bytes appended to the WAL"
        ).inc(self.bytes_written)
        if self.abandoned_nodes:
            registry.counter(
                "wal_streams_abandoned_total",
                "WAL streams abandoned by node crashes",
            ).inc(
                sum(
                    1
                    for (node, _tid) in self._writers
                    if node in self.abandoned_nodes
                )
            )


# -- reading segments ----------------------------------------------------------
#
# The segment file doubles as the detection service's wire unit: a client
# ships whole sealed segment files and the server re-verifies them before
# spooling.  Every reader is a damage policy over ``framing.SegmentScan``,
# and ``decode_record`` is the one place a verified payload becomes a
# record.

_scan_json = json.JSONDecoder().scan_once


def _decode_json(payload: bytes) -> Any:
    """``json.loads(payload)``.  A record payload is one JSON value and
    nothing else, which the bare scanner decodes without the wrapper's
    encoding detection and whitespace matching; whatever it does not
    consume whole goes to ``json.loads``, so that alone decides what is
    accepted and what is raised."""
    try:
        text = payload.decode()
        data, end = _scan_json(text, 0)
        if end == len(text):
            return data
    except (StopIteration, ValueError):
        pass
    return json.loads(payload)


def decode_record(payload: bytes) -> OpEvent:
    """The record a verified payload carries: what ``json.loads``
    accepts and then ``record_from_dict`` accepts.  Anything else — a
    frame can verify and still hold no record — is ``TraceFormatError``,
    the reader's to treat like any other damaged line."""
    try:
        data = _decode_json(payload)
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError("payload is not valid JSON") from exc
    return record_from_dict(data)


def verify_segment_bytes(data: bytes) -> Tuple[int, bool, Optional[str]]:
    """Validate one segment's bytes without decoding record payloads.

    Returns ``(record_count, sealed, damage)`` where ``damage`` is
    ``None`` for a fully intact segment or a short reason string for the
    *first* problem found (torn record, CRC mismatch, garbage framing,
    seal count/CRC disagreement).  An unsealed but otherwise intact
    segment returns ``(count, False, None)`` — whether that is damage is
    the caller's policy (a growing live tail is fine, a shipped segment
    must be sealed)."""
    scan = SegmentScan()
    for raw in io.BytesIO(data):
        item = scan.feed(raw)
        if isinstance(item, Damage):
            return scan.count, scan.sealed, f"{item.detail} at byte {item.offset}"
    return scan.count, scan.sealed, None


def iter_segment_records(data: bytes) -> Iterable[Dict[str, Any]]:
    """Decode the payloads of a segment's intact record lines (damaged
    lines are skipped: ``verify_segment_bytes`` is what reports them).
    Raises ``ValueError`` on an intact frame that is not JSON."""
    scan = SegmentScan()
    for raw in io.BytesIO(data):
        payload = scan.feed(raw)
        if isinstance(payload, bytes):
            yield _decode_json(payload)


class WalStreamReader:
    """Decode one ``(node, tid)`` stream's segment files into events —
    ``decode_record`` is the one place a payload becomes a record —
    **truncating the stream at the first damage** and counting it in
    ``damage`` (``damaged_records``, ``unsealed_segments`` or
    ``missing_segments``).  Line by line on purpose: the offline merge
    holds every stream open at once, so anything read ahead is
    multiplied by the stream count.  The reader of every consumer that
    feeds a detector as it reads — offline ``stream`` and the service's
    tenant pump — which cannot order later records of a stream against
    a lost one."""

    def __init__(self, damage: Counter) -> None:
        self.damage = damage
        self.truncated = False

    def _truncate(self, key: str) -> None:
        self.damage[key] += 1
        self.truncated = True

    def segment(self, path: str) -> Iterator[OpEvent]:
        """The events of one segment file, up to its first damage."""
        if not os.path.exists(path):
            return self._truncate("missing_segments")
        scan = SegmentScan()
        with open(path, "rb") as fh:
            for raw in fh:
                item = scan.feed(raw)
                if isinstance(item, bytes):
                    try:
                        event = decode_record(item)
                    except TraceFormatError:
                        return self._truncate("damaged_records")
                    yield event
                elif item is not None:
                    return self._truncate("damaged_records")
        if not scan.sealed:
            self._truncate("unsealed_segments")

    def stream(self, paths: List[str]) -> Iterator[OpEvent]:
        """The events of a whole stream (``list_stream_segments``
        order); a gap in the segment numbering ends it."""
        for expected, path in enumerate(paths):
            if segment_index(path) != expected:
                return self._truncate("missing_segments")
            yield from self.segment(path)
            if self.truncated:
                return


def list_stream_segments(wal_dir: str) -> Dict[Tuple[str, int], List[str]]:
    """Map every ``(node, tid)`` stream of a WAL directory to its
    segment file paths, ordered by segment index.  The only walk of the
    ``<node>/thread-<tid>/seg-NNNN.wal`` tree."""
    streams: Dict[Tuple[str, int], List[str]] = {}
    if not os.path.isdir(wal_dir):
        return streams
    for node in sorted(os.listdir(wal_dir)):
        node_dir = os.path.join(wal_dir, node)
        if not os.path.isdir(node_dir):
            continue
        for entry in sorted(os.listdir(node_dir)):
            thread_dir = os.path.join(node_dir, entry)
            if not os.path.isdir(thread_dir) or not entry.startswith("thread-"):
                continue
            try:
                tid = int(entry[len("thread-"):])
            except ValueError:
                continue
            paths = [
                os.path.join(thread_dir, filename)
                for filename in os.listdir(thread_dir)
                if segment_index(filename) is not None
            ]
            streams[(node, tid)] = sorted(paths, key=segment_index)
    return streams


def require_stream_segments(wal_dir: str) -> Dict[Tuple[str, int], List[str]]:
    """``list_stream_segments`` for readers that cannot proceed without
    a WAL: raises ``TraceFormatError`` when there is none."""
    if not os.path.isdir(wal_dir):
        raise TraceFormatError(f"not a WAL directory: {wal_dir}")
    streams = list_stream_segments(wal_dir)
    if not streams:
        raise TraceFormatError(
            f"no WAL streams under {wal_dir} "
            "(expected <node>/thread-<tid>/seg-*.wal)"
        )
    return streams
