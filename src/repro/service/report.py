"""Canonical per-tenant detection reports.

The crash-recovery acceptance bar is **byte-identical** reports: a
tenant's report after ``kill -9`` + restart must equal the report an
uninterrupted run (or the offline ``stream`` pass over the same WAL)
would have produced.  That only works if the report contains nothing
nondeterministic — so the canonical doc carries the *detection outcome*
(candidate seq pairs, record counts, confidence, model, window) and
deliberately omits timings, RSS, and throughput.  Those live in metrics
and the perf ledger (``benchmarks/perf/RESULTS.json``) instead.

Both producers — the service's per-tenant pump and the offline
``stream --report-out`` pass — hand their stream session's result to
:func:`report_from_stream_result` so the field set cannot drift.
Serialization is
``json.dumps(..., sort_keys=True, indent=2)`` + one trailing newline;
two equal docs are equal bytes.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Tuple

__all__ = [
    "REPORT_FORMAT",
    "REPORT_VERSION",
    "build_report_doc",
    "report_from_stream_result",
    "render_report",
]

REPORT_FORMAT = "repro-service-report"
REPORT_VERSION = 1


def build_report_doc(
    tenant: str,
    model: str,
    window: int,
    records: int,
    streams: int,
    pairs: Iterable[Tuple[int, int]],
    confidence: str,
    damage: Dict[str, int],
    sampled_dropped: Dict[str, int],
) -> Dict[str, object]:
    """The canonical (deterministic-fields-only) report document."""
    ordered = sorted((int(a), int(b)) for a, b in pairs)
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "tenant": tenant,
        "model": model,
        "window": window,
        "records": records,
        "streams": streams,
        "candidate_count": len(ordered),
        "candidates": [list(pair) for pair in ordered],
        "confidence": confidence,
        "damage": {k: int(damage[k]) for k in sorted(damage)},
        "sampled_dropped": {
            k: int(sampled_dropped[k]) for k in sorted(sampled_dropped)
        },
    }


def report_from_stream_result(tenant: str, result) -> Dict[str, object]:
    """Build the canonical doc from a finished stream session's
    :class:`repro.detect.streaming.StreamResult`."""
    return build_report_doc(
        tenant=tenant,
        model=result.model,
        window=result.window,
        records=result.records_consumed,
        streams=result.streams_seen,
        pairs=result.candidate_seq_pairs(),
        confidence=result.confidence,
        damage=result.damage,
        sampled_dropped=result.sampled_dropped,
    )


def render_report(doc: Dict[str, object]) -> bytes:
    """Canonical bytes for a report doc (stable across processes)."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
