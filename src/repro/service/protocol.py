"""Wire protocol for the always-on detection service.

The service speaks framed JSON over a byte stream: one ``F`` line of
the format `repro.framing` owns (the WAL's on-disk line format, applied
to the socket; ``docs/framing.md``), optionally followed by a body::

    F <len:08x> <crc:08x> <json>\n[body bytes]

When the JSON carries a ``"body"`` byte count, exactly that many raw
bytes follow the newline.  Bodies carry what is already self-verifying
or canonical, verbatim: WAL segment bytes up (the segment's own record
CRCs make end-to-end verification free) and ``report.json`` bytes down.

Verbs (client -> server), mirroring the verb-tagged ``Message``
discipline of ``repro.runtime.sockets``:

* ``hello``    — open/resume a tenant session; declares the stream set
  (``streams: [[node, tid], ...]``) upfront so the server's k-way merge
  knows when it may pop (admission control answers here).  May also
  carry ``totals: {"node/tid": n}`` — final per-stream segment counts —
  so the merge can close a fully-shipped stream *mid-session* instead
  of starving on it until finalize (without totals, a short stream
  that finishes early would stall the merge, and with it the queue
  drain, until every other stream finished shipping).  Tenant ids and
  node names become spool path components and must be boring
  (:func:`valid_name`).  Integer fields here and in ``segment`` and
  ``finalize`` must be JSON integers (:func:`wire_int`): ``1.9``,
  ``"3"`` and ``true`` are ``bad_request``;
* ``segment``  — one WAL segment for a declared stream, bytes in the
  frame body; ACKed only after the bytes are durably spooled;
* ``finalize`` — the tenant is done shipping; declares the per-stream
  segment counts so the server can verify completeness;
* ``report``   — the tenant's finished detection report (the canonical
  ``report.json`` bytes ride in the response body).  With
  ``wait_s: <seconds>`` the server holds the answer until the report
  is published, the tenant is quarantined or the server stops, for at
  most ``wait_s`` (capped server-side); without it, an unfinished
  report is ``not_ready`` at once;
* ``status``   — server-wide snapshot: the server's ``pid`` and, per
  tenant, ``done``, ``quarantined``, ``finalized``, ``pending_segments``,
  ``received_segments`` and ``records_consumed``.

The server stops on SIGINT/SIGTERM; there is no verb for it.

Every response is ``{"ok": true, ...}`` or a **structured error**
``{"ok": false, "error": <code>, "message": ..., "retry_after_s": ...}``.
Transient codes (``over_capacity``, ``over_queue``, ``not_ready``)
carry ``retry_after_s`` and are retried by the client's
full-jitter backoff (``wait_report`` re-asks ``not_ready`` with
``wait_s`` instead); terminal codes (``quarantined``, ``bad_segment``,
``out_of_order``, ``unknown_stream``, ``bad_request``) propagate as
:class:`repro.errors.ServiceError`.
"""

from __future__ import annotations

import json
import re
import socket
from typing import BinaryIO, Dict, Optional, Tuple

from repro.errors import ServiceError
from repro.framing import Damage, decode_line, encode_line

__all__ = [
    "PROTOCOL_VERSION",
    "RETRYABLE_ERRORS",
    "ProtocolError",
    "error_frame",
    "ok_frame",
    "raise_for_error",
    "recv_frame",
    "send_frame",
    "valid_name",
]

PROTOCOL_VERSION = 1

#: Error codes the client treats as transient (retry with backoff).
RETRYABLE_ERRORS = frozenset({"over_capacity", "over_queue", "not_ready"})

_MAX_FRAME_JSON = 1 << 20  # 1 MiB of JSON is already a malformed peer
_MAX_FRAME_LINE = _MAX_FRAME_JSON + len(encode_line(b"F", b""))
_MAX_FRAME_BODY = 64 << 20  # segments are ~100s of KB; 64 MiB is a cap
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ProtocolError(ServiceError):
    """The byte stream violated the framing (torn frame, CRC mismatch,
    oversized payload).  Fatal for the connection, not the tenant."""

    def __init__(self, message: str):
        super().__init__(message, code="protocol")


def stream_key_str(key: Tuple[str, int]) -> str:
    """A stream's key in ``totals`` and ``counts`` maps: ``"node/tid"``."""
    return f"{key[0]}/{key[1]}"


def wire_int(value: object) -> int:
    """``value`` if it is a JSON integer, else ``ValueError``: ``int()``
    would truncate ``1.9`` and accept ``"3"`` and ``true``."""
    if type(value) is not int:
        raise ValueError(f"not an integer: {value!r}")
    return value


def valid_name(name: str) -> bool:
    """Tenant ids and node names become path components; keep them
    boring."""
    return bool(_NAME_RE.match(name))


def send_frame(
    wfile: BinaryIO, doc: Dict[str, object], body: bytes = b""
) -> None:
    """Write one frame (and flush).  ``body`` bytes ride after the
    JSON line; the receiver learns their length from ``doc["body"]``."""
    if body:
        doc = dict(doc)
        doc["body"] = len(body)
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    wfile.write(encode_line(b"F", payload))
    if body:
        wfile.write(body)
    wfile.flush()


def recv_frame(
    rfile: BinaryIO,
) -> Optional[Tuple[Dict[str, object], bytes]]:
    """Read one frame; ``None`` on clean EOF (peer closed between
    frames).  Raises :class:`ProtocolError` on torn/corrupt framing."""
    # The bound stops a malformed peer from making us buffer without
    # limit: a line that long is never terminated, so it decodes torn.
    raw = rfile.readline(_MAX_FRAME_LINE)
    if not raw:
        return None
    payload = decode_line(raw, b"F")
    if isinstance(payload, Damage):
        raise ProtocolError(f"bad frame: {payload.detail}")
    try:
        doc = json.loads(payload)
    except ValueError:
        raise ProtocolError("frame payload is not JSON")
    if not isinstance(doc, dict):
        raise ProtocolError("frame payload is not an object")
    body = b""
    body_len = doc.get("body")
    if body_len:
        if not isinstance(body_len, int) or body_len < 0:
            raise ProtocolError("bad frame body length")
        if body_len > _MAX_FRAME_BODY:
            raise ProtocolError(f"frame body too large ({body_len} bytes)")
        body = rfile.read(body_len)
        if len(body) < body_len:
            raise ProtocolError("torn frame body")
    return doc, body


def ok_frame(**fields: object) -> Dict[str, object]:
    doc: Dict[str, object] = {"ok": True}
    doc.update(fields)
    return doc


def error_frame(
    code: str,
    message: str,
    retry_after_s: Optional[float] = None,
    **fields: object,
) -> Dict[str, object]:
    doc: Dict[str, object] = {"ok": False, "error": code, "message": message}
    if retry_after_s is not None:
        doc["retry_after_s"] = retry_after_s
    doc.update(fields)
    return doc


def raise_for_error(doc: Dict[str, object]) -> Dict[str, object]:
    """Turn an error response into a :class:`ServiceError`; pass an
    ``ok`` response through."""
    if doc.get("ok"):
        return doc
    code = str(doc.get("error", "error"))
    message = str(doc.get("message", code))
    retry = doc.get("retry_after_s")
    raise ServiceError(
        message,
        code=code,
        retry_after_s=float(retry) if retry is not None else None,
    )


def connect(host: str, port: int, timeout: float = 10.0) -> socket.socket:
    """TCP connect with TCP_NODELAY (frames are small and latency
    matters for the credit loop)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - platform quirk
        pass
    return sock
