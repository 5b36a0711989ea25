"""The one framing codec and the one atomic-publish routine.

WAL segments, service wire frames and every whole-file document (a
tenant's ``state.json``, a saved trace's ``meta.json``) share one
self-verifying format, parsed here and nowhere else; readers differ
only in what they do with a damaged line.
Reference (damage taxonomy, reader policies, what :func:`atomic_write`
guarantees): ``docs/framing.md``.  Grammar::

    H <json>                        header, unframed (segment metadata)
    R <len:08x> <crc:08x> <json>    framed payload: WAL record
    F <len:08x> <crc:08x> <json>    framed payload: service wire frame
    S <count:08x> <crc:08x>         seal: record count + running CRC
    <crc:08x> <json>                whole-document envelope
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, NamedTuple, Optional, Tuple, Union

_HEADER_LEN = 20  # tag + b" " + 8 hex + b" " + 8 hex + b" "


class Damage(NamedTuple):
    """One line (or document) that failed verification.

    ``kind`` is ``"torn"`` (unterminated line, payload shorter or
    longer than its length prefix, unparseable length/CRC fields),
    ``"crc"`` (all there but corrupted), ``"garbage"`` (a terminated
    line that is not framed at all) or ``"seal"`` (a seal whose
    count/CRC disagrees with the records read before it)."""

    kind: str
    offset: int
    detail: str


#: ``crc32(payload, running=0)``: unsigned 32-bit on every Python 3.
crc32 = zlib.crc32


def encode_line(tag: bytes, payload: bytes) -> bytes:
    """Frame one payload as an ``R`` or ``F`` line."""
    header = b"%s %08x %08x " % (tag, len(payload), crc32(payload))
    return header + payload + b"\n"


def encode_seal(count: int, running_crc: int) -> bytes:
    return b"S %08x %08x\n" % (count, running_crc)


def seal_count(data: bytes) -> int:
    """The record count the seal ending a segment's bytes declares, or
    0 when they do not end in a seal line.  Unverified: only a
    :class:`SegmentScan` over the records checks it."""
    line = data[data.rfind(b"\n", 0, len(data) - 1) + 1:]
    fields = _hex_pair(line) if line[:2] == b"S " else None
    return fields[0] if fields is not None and line.endswith(b"\n") else 0


def _hex_pair(line: bytes) -> Optional[Tuple[int, int]]:
    """The two 8-digit hex fields every framed line and seal carries."""
    try:
        return int(line[2:10], 16), int(line[11:19], 16)
    except ValueError:
        return None


def decode_line(
    raw: bytes, tag: bytes, offset: int = 0
) -> Union[bytes, Damage]:
    """Verify one ``tag``-framed line (as ``for raw in fh`` yields it,
    terminator included).  Never raises and never JSON-decodes.

    Returns the payload only for a line that is byte for byte what
    :func:`encode_line` emits for that payload — so its length and CRC
    hold — and a :class:`Damage` for anything else."""
    payload = raw[_HEADER_LEN:-1]
    if raw == encode_line(tag, payload):
        return payload
    terminated = raw.endswith(b"\n")
    if raw[:2] != tag + b" ":
        return Damage(
            "garbage" if terminated else "torn",
            offset,
            "unrecognized line framing",
        )
    fields = _hex_pair(raw)
    if fields is None:
        return Damage("torn", offset, "unparseable record framing")
    have = len(raw) - _HEADER_LEN - terminated
    if not terminated or have != fields[0]:
        return Damage(
            "torn", offset,
            f"torn record: {max(have, 0)} of {fields[0]} payload bytes",
        )
    return Damage("crc", offset, "record CRC mismatch")


class SegmentScan:
    """Accumulates one WAL segment as its lines are fed in order:
    record count, running CRC, whether a seal was seen, byte offset."""

    __slots__ = ("count", "crc", "sealed", "offset")

    def __init__(self) -> None:
        self.count = 0
        self.crc = 0
        self.sealed = False
        self.offset = 0

    def feed(self, raw: bytes) -> Union[bytes, None, Damage]:
        """The payload of an intact record line, ``None`` for a line
        that carries no record (header, matching seal, blank), or the
        line's :class:`Damage` (a mismatching seal is damage too)."""
        offset = self.offset
        self.offset = offset + len(raw)
        # The common line first: :func:`decode_line`'s rule for an
        # intact ``R`` frame, as one comparison.
        payload = raw[_HEADER_LEN:-1]
        if raw == b"R %08x %08x %s\n" % (len(payload), crc32(payload), payload):
            self.count += 1
            self.crc = crc32(payload, self.crc)
            return payload
        head = raw[:2]
        if head == b"H " or raw == b"\n":
            # A header loses no record even when torn: the missing
            # seal is what reports a segment cut that early.
            return None
        if head == b"S " and raw.endswith(b"\n"):
            fields = _hex_pair(raw)
            if fields is None:
                return Damage("torn", offset, "unparseable seal marker")
            self.sealed = True
            if raw != encode_seal(self.count, self.crc):
                return Damage(
                    "seal", offset,
                    f"seal mismatch: sealed {fields[0]} records, "
                    f"read {self.count}",
                )
            return None
        # Not an intact record line: ``decode_line`` names the damage.
        return decode_line(raw, b"R", offset)


def encode_document(payload: bytes) -> bytes:
    """CRC envelope for a single whole-file document."""
    return b"%08x %s" % (crc32(payload), payload)


def decode_document(framed: bytes) -> Union[bytes, Damage]:
    payload = framed[9:]
    if framed == encode_document(payload):
        return payload
    try:
        int(framed[:8], 16)
    except ValueError:
        return Damage("torn", 0, "unparseable document framing")
    return Damage("crc", 0, "document CRC mismatch")


def write_document(path: str, obj: Any) -> None:
    """Publish ``obj`` at ``path`` with :func:`atomic_write`: canonical
    JSON (sorted keys) in the CRC envelope."""
    atomic_write(path, encode_document(json.dumps(obj, sort_keys=True).encode()))


def read_document(path: str) -> Union[Any, Damage]:
    """The object :func:`write_document` published at ``path``, or the
    :class:`Damage` that stops it.  Raises only ``OSError`` (a missing
    file is the caller's to name)."""
    with open(path, "rb") as fh:
        payload = decode_document(fh.read())
    if isinstance(payload, Damage):
        return payload
    try:
        return json.loads(payload)
    except ValueError:
        return Damage("garbage", 0, "document is not JSON")


def atomic_write(path: str, data: bytes) -> None:
    """Publish ``data`` at ``path`` all-or-nothing: a reader (or a
    restart after ``kill -9``) sees the previous content or the new,
    never a mixture, and once the new name is visible its bytes are on
    disk.  The directory is not fsynced: after a power loss the *old*
    file may reappear, never a torn one."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
