"""Chunked trace analysis: the paper's out-of-memory fallback.

Section 7.2 (false-negative discussion): "DCatch may not process
extremely large traces ... DCatch will need to chunk the traces and
conduct detection within each chunk, an approach used by previous LCbug
detection tools."

``detect_races_chunked`` splits the trace into fixed-size windows and
runs full detection inside each.  Consequences, both documented by the
LCbug literature the paper cites:

* memory drops from O(n²) to O(c²) per chunk;
* pairs that *span* chunks are missed (false negatives) — racing
  accesses usually execute close together in time, so the loss is small;
* HB edges that span chunks are also missed, which can make intra-chunk
  pairs spuriously concurrent (false positives).  A modest overlap
  between consecutive chunks softens both effects.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.detect.races import Candidate, detect_races
from repro.hb.graph import DEFAULT_MEMORY_BUDGET, HBGraph
from repro.hb.model import FULL_MODEL, HBModel
from repro.runtime.ops import Location
from repro.trace.store import Trace

#: Derived geometry never grows a chunk past this many records — the
#: per-chunk HB graph + reachability is what bounds analysis memory.
MAX_CHUNK_RECORDS = 25_000


def _default_overlap(chunk_size: int) -> int:
    """A tenth of a chunk is re-analyzed as backward overlap so
    cross-chunk pairs near the boundary are still seen."""
    return chunk_size // 10


def derive_chunk_geometry(records: int) -> Tuple[int, int]:
    """Size chunked detection from the trace: ``(chunk_size, overlap)``
    for the fewest equal chunks that each stay under
    ``MAX_CHUNK_RECORDS``.  A trace that fits yields one whole-trace
    chunk."""
    if records <= 0:
        return 1, 0
    chunks = -(-records // MAX_CHUNK_RECORDS)
    chunk_size = -(-records // chunks)
    return chunk_size, _default_overlap(chunk_size)


@dataclass
class ChunkedDetectionResult:
    """Union of per-chunk detections."""

    trace: Trace
    chunk_size: int
    overlap: int
    chunks: int
    candidates: List[Candidate]
    analysis_seconds: float
    per_chunk_counts: List[int] = field(default_factory=list)
    #: Locations truncated by ``max_pairs_per_location`` in any chunk.
    truncated_locations: List[Location] = field(default_factory=list)

    def static_count(self) -> int:
        return len({c.static_pair for c in self.candidates})

    def callstack_count(self) -> int:
        return len({c.callstack_pair for c in self.candidates})


def chunk_trace(trace: Trace, chunk_size: int, overlap: int = 0) -> List[Trace]:
    """Split a trace into windows of ``chunk_size`` records, each window
    extended backward by ``overlap`` records."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if overlap < 0 or overlap >= chunk_size:
        raise ValueError("overlap must be in [0, chunk_size)")
    chunks: List[Trace] = []
    records = trace.records
    start = 0
    index = 0
    while start < len(records):
        lo = max(0, start - overlap)
        window = records[lo:start + chunk_size]
        chunk = Trace(name=f"{trace.name}-chunk{index}")
        for record in window:
            chunk.append(record)
        chunks.append(chunk)
        start += chunk_size
        index += 1
    return chunks


def detect_races_chunked(
    trace: Trace,
    chunk_size: Optional[int] = None,
    overlap: Optional[int] = None,
    model: HBModel = FULL_MODEL,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    compress_mem: bool = True,
    reach_backend: str = "bitset",
    max_pairs_per_location: int = 200_000,
) -> ChunkedDetectionResult:
    """Run detection chunk by chunk and merge the candidate sets.

    When ``chunk_size`` is omitted the geometry is derived from the
    trace size (``derive_chunk_geometry``); an explicit ``chunk_size``
    with no ``overlap`` gets the same tenth-of-a-chunk overlap.
    """
    started = time.perf_counter()
    seen: Dict[tuple, Candidate] = {}
    per_chunk: List[int] = []
    truncated: Dict[Location, None] = {}  # ordered, deduplicated
    if chunk_size is None:
        chunk_size, _ = derive_chunk_geometry(len(trace.records))
    if overlap is None:
        overlap = _default_overlap(chunk_size)
    chunks = chunk_trace(trace, chunk_size, overlap)
    if trace.partial:
        print(
            "warning: chunked detection ran on a partial trace (salvage "
            "lost records); pairs involving lost records are missing",
            file=sys.stderr,
        )
    with obs.span("detect.chunked", chunks=len(chunks), chunk_size=chunk_size):
        obs.counter(
            "detect_chunks_total", "trace chunks analyzed independently"
        ).inc(len(chunks))
        for chunk in chunks:
            # A boundary cutting a send from its recv is the documented
            # cost of chunking, not trace damage: chunk graphs stay quiet.
            graph = HBGraph(
                chunk,
                model=model,
                memory_budget=memory_budget,
                compress_mem=compress_mem,
                reach_backend=reach_backend,
                warn_partial=False,
            )
            detection = detect_races(
                chunk,
                model=model,
                memory_budget=memory_budget,
                graph=graph,
                max_pairs_per_location=max_pairs_per_location,
            )
            per_chunk.append(len(detection.candidates))
            for location in detection.truncated_locations:
                truncated.setdefault(location)
            for candidate in detection.candidates:
                key = (candidate.first.seq, candidate.second.seq)
                seen.setdefault(key, candidate)
    return ChunkedDetectionResult(
        trace=trace,
        chunk_size=chunk_size,
        overlap=overlap,
        chunks=len(chunks),
        candidates=list(seen.values()),
        analysis_seconds=time.perf_counter() - started,
        per_chunk_counts=per_chunk,
        truncated_locations=list(truncated),
    )
