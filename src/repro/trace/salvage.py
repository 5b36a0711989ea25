"""Recover a ``Trace`` from a (possibly damaged) WAL directory.

Cloud runs end badly: nodes crash mid-write, disks tear records, files
go missing.  Salvage never raises on damage — every record that passes
its framing and CRC checks is recovered, everything else is quarantined
into a structured ``SalvageReport`` (what was lost, where, and why), and
the partial ``Trace`` is handed to the analysis pipeline, which degrades
to ``confidence: "partial"`` results instead of dying.

What counts as damage — torn, CRC-bad and garbage lines, lying seals,
frames that are not valid records, unsealed and missing segments — is
defined once, in ``docs/framing.md``; salvage's policy is to quarantine
each one and carry on.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import TraceFormatError
from repro.framing import Damage, SegmentScan
from repro.runtime.ops import OpEvent
from repro.trace.store import Trace
from repro.trace.wal import (
    decode_record,
    require_stream_segments,
    segment_index,
    segment_name,
    stream_key,
)


@dataclass
class QuarantinedRecord:
    """One damaged region of one WAL file."""

    path: str
    byte_start: int
    byte_end: int
    reason: str

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class ThreadSalvage:
    """Per-stream (node/thread) recovery accounting."""

    node: str
    tid: int
    records_recovered: int = 0
    records_quarantined: int = 0
    sealed_segments: int = 0
    unsealed_segments: int = 0
    missing_segments: List[int] = field(default_factory=list)

    @property
    def damaged(self) -> bool:
        return bool(
            self.records_quarantined
            or self.unsealed_segments
            or self.missing_segments
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class SalvageReport:
    """Everything salvage learned about one WAL directory."""

    directory: str
    records_recovered: int = 0
    records_quarantined: int = 0
    torn_records: int = 0
    crc_mismatches: int = 0
    bad_records: int = 0
    sealed_segments: int = 0
    unsealed_segments: int = 0
    seal_mismatches: int = 0
    missing_segments: List[str] = field(default_factory=list)
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    threads: Dict[str, ThreadSalvage] = field(default_factory=dict)

    @property
    def damaged(self) -> bool:
        """Did the WAL lose *anything*?  Drives ``Trace.partial``."""
        return bool(
            self.records_quarantined
            or self.unsealed_segments
            or self.seal_mismatches
            or self.missing_segments
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro-salvage-report",
            "version": 1,
            "directory": self.directory,
            "damaged": self.damaged,
            "records_recovered": self.records_recovered,
            "records_quarantined": self.records_quarantined,
            "torn_records": self.torn_records,
            "crc_mismatches": self.crc_mismatches,
            "bad_records": self.bad_records,
            "sealed_segments": self.sealed_segments,
            "unsealed_segments": self.unsealed_segments,
            "seal_mismatches": self.seal_mismatches,
            "missing_segments": self.missing_segments,
            "quarantined": [q.to_dict() for q in self.quarantined],
            "threads": {
                key: t.to_dict() for key, t in sorted(self.threads.items())
            },
        }

    def render(self) -> str:
        lines = [
            f"salvage of {self.directory}: "
            + ("DAMAGED" if self.damaged else "clean")
        ]
        lines.append(
            f"  records: {self.records_recovered} recovered, "
            f"{self.records_quarantined} quarantined "
            f"({self.torn_records} torn, {self.crc_mismatches} CRC, "
            f"{self.bad_records} malformed)"
        )
        lines.append(
            f"  segments: {self.sealed_segments} sealed, "
            f"{self.unsealed_segments} unsealed, "
            f"{self.seal_mismatches} seal mismatches, "
            f"{len(self.missing_segments)} missing"
        )
        for key, thread in sorted(self.threads.items()):
            if thread.damaged:
                lines.append(
                    f"  {key}: {thread.records_recovered} recovered, "
                    f"{thread.records_quarantined} quarantined, "
                    f"{thread.unsealed_segments} unsealed segment(s)"
                )
        for q in self.quarantined[:20]:
            lines.append(
                f"  quarantined {q.path} bytes {q.byte_start}-{q.byte_end}: "
                f"{q.reason}"
            )
        if len(self.quarantined) > 20:
            lines.append(
                f"  ... and {len(self.quarantined) - 20} more quarantined regions"
            )
        return "\n".join(lines)


def _quarantine(
    report: SalvageReport,
    thread: ThreadSalvage,
    path: str,
    raw: bytes,
    damage: Damage,
) -> None:
    """Record one damaged line.  A lying seal loses no record *line*,
    so it is tallied apart from the quarantined records."""
    if damage.kind == "seal":
        report.seal_mismatches += 1
    else:
        report.records_quarantined += 1
        thread.records_quarantined += 1
        if damage.kind == "torn":
            report.torn_records += 1
        elif damage.kind == "crc":
            report.crc_mismatches += 1
        else:
            report.bad_records += 1
    report.quarantined.append(
        QuarantinedRecord(
            path=path,
            byte_start=damage.offset,
            byte_end=damage.offset + len(raw.rstrip(b"\n")),
            reason=damage.detail,
        )
    )


def _salvage_segment(
    path: str,
    report: SalvageReport,
    thread: ThreadSalvage,
    records: List[OpEvent],
) -> None:
    """Scan one segment file line by line; recover what verifies and
    decodes (``decode_record``), quarantine every other line where it
    is read and carry on."""
    scan = SegmentScan()
    rel = os.path.relpath(path, report.directory)
    recovered = 0
    with open(path, "rb") as fh:
        for raw in fh:
            item = scan.feed(raw)
            if isinstance(item, bytes):
                try:
                    records.append(decode_record(item))
                    recovered += 1
                    continue
                except TraceFormatError as exc:
                    # The frame verifies and still holds no record.
                    item = Damage("bad", scan.offset - len(raw), str(exc))
            if item is not None:
                _quarantine(report, thread, rel, raw, item)
    report.records_recovered += recovered
    thread.records_recovered += recovered
    if scan.sealed:
        report.sealed_segments += 1
        thread.sealed_segments += 1
    else:
        report.unsealed_segments += 1
        thread.unsealed_segments += 1


def salvage_trace(
    directory: str, name: str = "salvaged"
) -> Tuple[Trace, SalvageReport]:
    """Rebuild a ``Trace`` from a WAL directory, quarantining damage.

    Never raises on damaged content — a WAL directory with no intact
    record at all yields an empty trace and a report that says so.
    Raises ``TraceFormatError`` only when ``directory`` is not a WAL
    directory at all (does not exist / contains no streams).

    A WAL that is still being written salvages to the same records: its
    growing tail segment is reported unsealed (and a half-flushed last
    line torn), which is what a crash at that instant would leave."""
    streams = require_stream_segments(directory)
    report = SalvageReport(directory=directory)
    records: List[OpEvent] = []
    for (node, tid), paths in streams.items():
        thread = ThreadSalvage(node=node, tid=tid)
        key = stream_key(node, tid)
        report.threads[key] = thread
        # Gaps in the numbering are lost files, not lost tails.
        have = {segment_index(path) for path in paths}
        for missing in range(max(have, default=-1) + 1):
            if missing not in have:
                thread.missing_segments.append(missing)
                report.missing_segments.append(
                    os.path.join(key, segment_name(missing))
                )
        for path in paths:
            _salvage_segment(path, report, thread, records)

    trace = Trace(name)
    records.sort(key=lambda r: r.seq)
    for record in records:
        trace.append(record)
    trace.partial = report.damaged
    return trace, report
