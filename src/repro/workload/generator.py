"""Deterministic scenario generator: multi-million-record WAL traces.

``generate_workload`` synthesizes the phase-barrier scenario described
in :mod:`repro.workload.spec` directly in WAL-segment form (the PR-4
``repro.trace.wal`` framing), one stream per node thread, plus a
``ground_truth.json`` manifest listing every planted race.  Everything
is derived from ``(system, preset, seed)`` through seeded ``random``
instances and the WAL writer's canonical JSON encoding, so two runs
with the same inputs produce byte-identical segment files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ids import CallStack, Frame
from repro.runtime.ops import OpEvent, OpKind
from repro.trace.wal import WalSink
from repro.workload.spec import SYSTEM_FLAVORS, WorkloadSpec, resolve_spec

__all__ = [
    "GROUND_TRUTH_FORMAT",
    "GROUND_TRUTH_VERSION",
    "GeneratedWorkload",
    "generate_workload",
    "load_ground_truth",
]

GROUND_TRUTH_FORMAT = "repro-workload-ground-truth"
GROUND_TRUTH_VERSION = 1

#: Synthetic call-stack line numbers, one per protocol role, so static
#: sites dedup the way real traced frames would.
_ROLE_LINES = {
    "phase_start": 11,
    "phase_recv": 23,
    "local_write": 31,
    "local_read": 37,
    "chain_write": 41,
    "token_send": 47,
    "token_recv": 53,
    "race_write": 61,
    "race_read": 67,
    "phase_done": 71,
    "collect": 79,
}

_COORD_TID = 1


@dataclass
class GeneratedWorkload:
    """Summary of one generated scenario (also saved as ground truth)."""

    system: str
    preset: str
    seed: int
    wal_dir: str
    ground_truth_path: str
    spec: WorkloadSpec
    records: int
    hb_records: int
    mem_records: int
    streams: int
    planted_races: List[Dict[str, object]] = field(default_factory=list)
    ordered_pairs: List[Dict[str, object]] = field(default_factory=list)

    def manifest(self) -> Dict[str, object]:
        return {
            "format": GROUND_TRUTH_FORMAT,
            "version": GROUND_TRUTH_VERSION,
            "system": self.system,
            "preset": self.preset,
            "seed": self.seed,
            "spec": self.spec.describe(),
            "records": self.records,
            "hb_records": self.hb_records,
            "mem_records": self.mem_records,
            "streams": self.streams,
            "planted_races": self.planted_races,
            "ordered_pairs": self.ordered_pairs,
        }


class _Emitter:
    """Allocates global sequence numbers and hands records to the WAL
    sink, which routes them to one writer per stream."""

    def __init__(self, wal_dir: str, segment_records: int, source: str) -> None:
        self.sink = WalSink(wal_dir, segment_records, flush_every=256)
        self.source = source
        self.seq = 0
        self.hb_records = 0
        self.mem_records = 0
        self._stacks: Dict[str, CallStack] = {}

    def _stack(self, role: str) -> CallStack:
        stack = self._stacks.get(role)
        if stack is None:
            frame = Frame(self.source, role, _ROLE_LINES[role])
            stack = CallStack((frame,))
            self._stacks[role] = stack
        return stack

    def emit(
        self,
        node: str,
        tid: int,
        kind: OpKind,
        obj_id: object,
        role: str,
        location: Optional[Tuple[int, str]] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> int:
        self.seq += 1
        event = OpEvent(
            seq=self.seq,
            kind=kind,
            obj_id=obj_id,
            node=node,
            tid=tid,
            thread_name="main",
            segment=tid,
            callstack=self._stack(role),
            location=location,
            extra=extra or {},
        )
        if location is not None:
            self.mem_records += 1
        else:
            self.hb_records += 1
        self.sink.append(event)
        return self.seq


def generate_workload(
    system: str,
    preset: str | WorkloadSpec,
    seed: int,
    out_dir: str,
    segment_records: Optional[int] = None,
) -> GeneratedWorkload:
    """Generate one scenario under ``out_dir`` (``wal/`` + ground truth).

    ``system`` picks the naming flavor (minizk/minica/minimr/minihb),
    ``preset`` a named size or an explicit :class:`WorkloadSpec`, and
    ``seed`` the deterministic randomness for group selection and the
    read/write mix.  Returns the :class:`GeneratedWorkload` summary that
    is also written to ``out_dir/ground_truth.json``.
    """
    if system not in SYSTEM_FLAVORS:
        raise ValueError(
            f"unknown system flavor {system!r}; expected one of "
            f"{sorted(SYSTEM_FLAVORS)}"
        )
    flavor = SYSTEM_FLAVORS[system]
    spec = preset if isinstance(preset, WorkloadSpec) else resolve_spec(preset)
    if segment_records is not None:
        spec = WorkloadSpec(**{**spec.describe(), "segment_records": segment_records})
    spec.validate()

    wal_dir = os.path.join(out_dir, "wal")
    os.makedirs(wal_dir, exist_ok=True)
    emitter = _Emitter(wal_dir, spec.segment_records, flavor["source"])

    coord = flavor["coordinator"]
    worker_nodes = [f"{flavor['worker']}-{i:04d}" for i in range(spec.workers)]
    worker_tids = [_COORD_TID + 1 + i for i in range(spec.workers)]
    private_locations = [
        (3_000_000 + i, flavor["private_key"].format(worker=i))
        for i in range(spec.workers)
    ]

    planted: List[Dict[str, object]] = []
    ordered: List[Dict[str, object]] = []

    for phase in range(spec.phases):
        rng = random.Random(f"{seed}:{system}:{spec.preset}:{phase}")
        cast = sorted(rng.sample(range(spec.workers), spec.chain_len + spec.racers))
        picks = rng.sample(cast, len(cast))
        chain = sorted(picks[: spec.chain_len])
        racers = sorted(picks[spec.chain_len :])
        plant = phase % spec.race_every == 0
        race_key = flavor["race_key"].format(phase=phase)
        chain_key = flavor["chain_key"].format(phase=phase)
        race_loc = (1_000_000 + phase, race_key)
        chain_loc = (2_000_000 + phase, chain_key)

        # Phase open: coordinator starts every worker.
        for w in range(spec.workers):
            emitter.emit(
                coord,
                _COORD_TID,
                OpKind.SOCK_SEND,
                f"ph/{phase}/start/{w}",
                "phase_start",
            )

        race_accesses: List[Tuple[int, OpKind, str]] = []
        chain_writes: List[int] = []
        for w in range(spec.workers):
            node = worker_nodes[w]
            tid = worker_tids[w]
            emitter.emit(
                node,
                tid,
                OpKind.SOCK_RECV,
                f"ph/{phase}/start/{w}",
                "phase_recv",
                extra={"src": coord},
            )
            for op in range(spec.local_ops):
                write = op == 0 or rng.random() < 0.5
                emitter.emit(
                    node,
                    tid,
                    OpKind.MEM_WRITE if write else OpKind.MEM_READ,
                    private_locations[w][1],
                    "local_write" if write else "local_read",
                    location=private_locations[w],
                )
            if w in chain:
                pos = chain.index(w)
                if pos > 0:
                    emitter.emit(
                        node,
                        tid,
                        OpKind.SOCK_RECV,
                        f"ph/{phase}/tok/{pos}",
                        "token_recv",
                        extra={"src": worker_nodes[chain[pos - 1]]},
                    )
                chain_writes.append(
                    emitter.emit(
                        node,
                        tid,
                        OpKind.MEM_WRITE,
                        chain_key,
                        "chain_write",
                        location=chain_loc,
                    )
                )
                if pos < len(chain) - 1:
                    emitter.emit(
                        node,
                        tid,
                        OpKind.SOCK_SEND,
                        f"ph/{phase}/tok/{pos + 1}",
                        "token_send",
                    )
            if plant and w in racers:
                write = w == racers[0] or rng.random() < 0.5
                kind = OpKind.MEM_WRITE if write else OpKind.MEM_READ
                seq = emitter.emit(
                    node,
                    tid,
                    kind,
                    race_key,
                    "race_write" if write else "race_read",
                    location=race_loc,
                )
                race_accesses.append((seq, kind, node))
            emitter.emit(
                node,
                tid,
                OpKind.SOCK_SEND,
                f"ph/{phase}/done/{w}",
                "phase_done",
            )

        # Phase close: the coordinator's barrier.
        for w in range(spec.workers):
            emitter.emit(
                coord,
                _COORD_TID,
                OpKind.SOCK_RECV,
                f"ph/{phase}/done/{w}",
                "collect",
                extra={"src": worker_nodes[w]},
            )

        for i in range(len(race_accesses)):
            for j in range(i + 1, len(race_accesses)):
                first, second = race_accesses[i], race_accesses[j]
                if first[1] is OpKind.MEM_WRITE or second[1] is OpKind.MEM_WRITE:
                    planted.append(
                        {
                            "phase": phase,
                            "location": [race_loc[0], race_loc[1]],
                            "first_seq": first[0],
                            "second_seq": second[0],
                            "first_kind": first[1].value,
                            "second_kind": second[1].value,
                            "first_node": first[2],
                            "second_node": second[2],
                        }
                    )
        for a, b in zip(chain_writes, chain_writes[1:]):
            ordered.append(
                {
                    "phase": phase,
                    "location": [chain_loc[0], chain_loc[1]],
                    "first_seq": a,
                    "second_seq": b,
                }
            )

    emitter.sink.close()
    result = GeneratedWorkload(
        system=system,
        preset=spec.preset,
        seed=seed,
        wal_dir=wal_dir,
        ground_truth_path=os.path.join(out_dir, "ground_truth.json"),
        spec=spec,
        records=emitter.seq,
        hb_records=emitter.hb_records,
        mem_records=emitter.mem_records,
        streams=spec.workers + 1,  # the coordinator's and one per worker
        planted_races=planted,
        ordered_pairs=ordered,
    )
    # Compact: ``indent`` selects the pure-Python encoder, which on a
    # contended scenario (~50k planted pairs) costs more than the WAL.
    payload = json.dumps(result.manifest(), sort_keys=True)
    with open(result.ground_truth_path, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
    return result


def load_ground_truth(path: str) -> Dict[str, object]:
    """Load and validate a ``ground_truth.json`` manifest."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != GROUND_TRUTH_FORMAT:
        raise ValueError(f"{path}: not a {GROUND_TRUTH_FORMAT} file")
    if doc.get("version") != GROUND_TRUTH_VERSION:
        raise ValueError(
            f"{path}: ground truth version {doc.get('version')!r} "
            f"unsupported (expected {GROUND_TRUTH_VERSION})"
        )
    return doc
