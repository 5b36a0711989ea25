"""Workload specifications for the synthetic scenario generator.

A :class:`WorkloadSpec` describes the *shape* of a generated cluster run:
how many worker nodes participate, how many coordination phases they go
through, and how much memory traffic each phase produces.  Three named
presets (``small``/``medium``/``xl``) scale the same scenario from a
few hundred records (unit tests) to over a million (the streaming
benchmarks the ROADMAP asks for).

The generated scenario is a phase-barrier protocol, the common skeleton
of all four mini systems (a ZooKeeper quorum round, an HBase region
assignment wave, a MapReduce task wave, a Cassandra gossip round):

* a coordinator node sends every worker a phase-start message;
* each worker performs local memory operations, a subset of workers
  performs an explicitly *ordered* hand-off chain (write, token send,
  token recv, write), and a disjoint subset performs deliberately
  *unordered* conflicting accesses on a per-phase shared key — the
  planted races;
* each worker reports completion; the coordinator collects every
  report before opening the next phase.

Because a worker's only outgoing message after touching the planted key
is its phase-done report — and the coordinator only messages workers
again in the *next* phase — the planted accesses are concurrent by
construction, while the hand-off chain is ordered by construction.
The planted pairs are therefore exactly the candidate set a correct
detector must produce: 100%% recall and zero false positives, verified
by set equality.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

__all__ = ["WorkloadSpec", "PRESETS", "SYSTEM_FLAVORS", "resolve_spec"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape parameters for one generated scenario."""

    preset: str
    #: Worker nodes (each is one node + one regular thread = one stream).
    workers: int
    #: Coordination phases (barrier rounds).
    phases: int
    #: Private memory operations per worker per phase.
    local_ops: int
    #: Workers participating in the ordered token hand-off chain.
    chain_len: int
    #: Workers planted on the shared race key each planted phase.
    racers: int = 2
    #: Plant a race group every N phases (1 = every phase).
    race_every: int = 1
    #: WAL segment rotation (records per ``seg-NNNN.wal`` file).
    segment_records: int = 1024

    def describe(self) -> Dict[str, object]:
        return dict(asdict(self))

    def validate(self) -> None:
        if self.workers < 2:
            raise ValueError("workload needs at least 2 workers")
        if self.phases < 1:
            raise ValueError("workload needs at least 1 phase")
        if self.chain_len < 2 or self.chain_len + self.racers > self.workers:
            raise ValueError(
                "need chain_len >= 2 and chain_len + racers <= workers "
                f"(got chain_len={self.chain_len} racers={self.racers} "
                f"workers={self.workers})"
            )
        if self.racers < 2:
            raise ValueError("a planted race needs at least 2 racers")
        if self.race_every < 1:
            raise ValueError("race_every must be >= 1")
        if self.local_ops < 0:
            raise ValueError("local_ops must be >= 0")
        if self.segment_records < 1:
            raise ValueError("segment_records must be >= 1")


#: Named presets.  Approximate record counts: small ~500, medium ~180k,
#: xl ~1.06M (>= the 1M-record floor the streaming bench targets).
PRESETS: Dict[str, WorkloadSpec] = {
    "small": WorkloadSpec(
        preset="small",
        workers=8,
        phases=8,
        local_ops=2,
        chain_len=3,
        segment_records=256,
    ),
    "medium": WorkloadSpec(
        preset="medium",
        workers=120,
        phases=150,
        local_ops=6,
        chain_len=6,
        segment_records=1024,
    ),
    "xl": WorkloadSpec(
        preset="xl",
        workers=400,
        phases=240,
        local_ops=7,
        chain_len=6,
        segment_records=4096,
    ),
}


#: Naming flavors that dress the same protocol skeleton as each of the
#: four mini systems (node names, key namespaces, source file of the
#: synthetic call stacks).
SYSTEM_FLAVORS: Dict[str, Dict[str, str]] = {
    "minizk": {
        "coordinator": "leader",
        "worker": "follower",
        "race_key": "/dcatch/epoch-{phase}",
        "chain_key": "/dcatch/commit-{phase}",
        "private_key": "/session/{worker}",
        "source": "repro/systems/minizk.py",
    },
    "minica": {
        "coordinator": "seed",
        "worker": "peer",
        "race_key": "ring/token-{phase}",
        "chain_key": "ring/repair-{phase}",
        "private_key": "memtable/{worker}",
        "source": "repro/systems/minica.py",
    },
    "minimr": {
        "coordinator": "jobtracker",
        "worker": "tasktracker",
        "race_key": "job/attempt-{phase}",
        "chain_key": "job/commit-{phase}",
        "private_key": "task/{worker}",
        "source": "repro/systems/minimr.py",
    },
    "minihb": {
        "coordinator": "hmaster",
        "worker": "regionserver",
        "race_key": "meta/region-{phase}",
        "chain_key": "meta/assign-{phase}",
        "private_key": "memstore/{worker}",
        "source": "repro/systems/minihb.py",
    },
}


def resolve_spec(preset: str) -> WorkloadSpec:
    try:
        return PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown workload preset {preset!r}; expected one of "
            f"{sorted(PRESETS)}"
        ) from None
