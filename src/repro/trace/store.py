"""Trace container: per-thread record streams plus whole-run views.

The paper writes one trace file per thread of every process of every node
(Section 3.1); the analyzer then merges them.  ``Trace`` keeps both views:
``per_thread`` preserves the file structure (and serializes to JSON lines
per thread), while ``records`` is the merged, seq-ordered stream the HB
analysis consumes.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional

from repro.runtime.ops import MEM_KINDS, OpEvent, OpKind
from repro.trace.records import category_of, dump_records, load_records


class Trace:
    """All records of one run, ordered by global sequence number."""

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.records: List[OpEvent] = []
        self._by_thread: Dict[int, List[OpEvent]] = defaultdict(list)
        #: True when this trace is known to be incomplete (rebuilt by
        #: WAL salvage with quarantined/lost records).  The HB analysis
        #: reads it to mark downstream results ``confidence: "partial"``.
        self.partial = False
        #: The ``SalvageReport`` that produced this trace, if any.
        self.salvage_report = None
        #: True when the tracer *deliberately* thinned the memory-access
        #: stream (``repro.trace.sampling``).  Downstream results carry
        #: ``confidence: "sampled"`` — weaker than ``"partial"`` because
        #: the loss is by policy, not by accident.
        self.sampled = False
        #: Nominal hash-rate of the sampling policy (None when purely
        #: budgeted, or when sampling is off).
        self.sampling_rate: Optional[float] = None
        #: Accesses the sampler rejected, by record kind (tallied by
        #: the tracer).
        self.sampled_dropped: Dict[str, int] = {}
        #: Memory accesses rejected by the scope policy (selective
        #: tracing loss — distinct from sampling loss).
        self.dropped_mem = 0
        #: Events skipped because their node was absent from the bound
        #: cluster dict (pre-``bind()`` emission or unknown substrate).
        self.skipped_unbound = 0
        #: Events skipped from nodes marked untraced (the uninstrumented
        #: coordination-service contract).
        self.skipped_untraced = 0

    def append(self, event: OpEvent) -> None:
        # Records are *emitted* slightly out of order (a thread records its
        # operation after yielding to the scheduler), so keep the merged
        # stream sorted by sequence number on insert.  Inserts are near the
        # tail, so this stays cheap.
        if self.records and self.records[-1].seq > event.seq:
            bisect.insort(self.records, event, key=lambda r: r.seq)
        else:
            self.records.append(event)
        self._by_thread[event.tid].append(event)

    # -- views ---------------------------------------------------------------

    @property
    def per_thread(self) -> Dict[int, List[OpEvent]]:
        return dict(self._by_thread)

    def mem_accesses(self) -> List[OpEvent]:
        return [r for r in self.records if r.kind in MEM_KINDS]

    def of_kind(self, *kinds: OpKind) -> List[OpEvent]:
        wanted = set(kinds)
        return [r for r in self.records if r.kind in wanted]

    def by_seq(self, seq: int) -> Optional[OpEvent]:
        lo, hi = 0, len(self.records) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            value = self.records[mid].seq
            if value == seq:
                return self.records[mid]
            if value < seq:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    # -- statistics (Tables 6 and 7) ------------------------------------------

    def category_counts(self) -> Counter:
        return Counter(category_of(r.kind) for r in self.records)

    def size_bytes(self) -> int:
        """Serialized size — the paper's 'trace size' metric."""
        return sum(len(dump_records(recs)) + 1 for recs in self._by_thread.values())

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -- serialization ---------------------------------------------------------

    def dump_thread_files(self) -> Dict[int, str]:
        """One JSON-lines blob per thread, like the paper's trace files."""
        return {tid: dump_records(recs) for tid, recs in self._by_thread.items()}

    @classmethod
    def from_thread_files(cls, files: Dict[int, str], name: str = "trace") -> "Trace":
        trace = cls(name)
        merged: List[OpEvent] = []
        for blob in files.values():
            merged.extend(load_records(blob))
        merged.sort(key=lambda r: r.seq)
        for record in merged:
            trace.append(record)
        return trace

    def save(self, directory: str) -> None:
        import json
        import os

        os.makedirs(directory, exist_ok=True)
        for tid, blob in self.dump_thread_files().items():
            with open(os.path.join(directory, f"thread-{tid}.jsonl"), "w") as fh:
                fh.write(blob)
        # Loss metadata lives beside the records: the counters are not
        # derivable from the surviving records, and stats computed from
        # a reloaded trace must match the original.
        meta = {
            "sampled": self.sampled,
            "sampling_rate": self.sampling_rate,
            "sampled_dropped": self.sampled_dropped,
            "dropped_mem": self.dropped_mem,
            "skipped_unbound": self.skipped_unbound,
            "skipped_untraced": self.skipped_untraced,
        }
        with open(os.path.join(directory, "meta.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, directory: str, name: str = "trace") -> "Trace":
        import json
        import os

        files = {}
        for entry in sorted(os.listdir(directory)):
            if entry.startswith("thread-") and entry.endswith(".jsonl"):
                tid = int(entry[len("thread-"):-len(".jsonl")])
                with open(os.path.join(directory, entry)) as fh:
                    files[tid] = fh.read()
        trace = cls.from_thread_files(files, name)
        meta_path = os.path.join(directory, "meta.json")
        if os.path.exists(meta_path):  # pre-sampling saves have no meta
            with open(meta_path) as fh:
                meta = json.load(fh)
            trace.sampled = bool(meta.get("sampled", False))
            trace.sampling_rate = meta.get("sampling_rate")
            trace.sampled_dropped = dict(meta.get("sampled_dropped", {}))
            trace.dropped_mem = int(meta.get("dropped_mem", 0))
            trace.skipped_unbound = int(meta.get("skipped_unbound", 0))
            trace.skipped_untraced = int(meta.get("skipped_untraced", 0))
        return trace
