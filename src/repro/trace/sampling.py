"""Budgeted sampling for the memory-access stream (production tracing).

DCatch records *every* in-scope memory access; at production traffic
that is the cost that blocks deployment.  "Dynamic Race Detection with
O(1) Samples" shows race recall survives aggressive sampling when the
sample is *location-aware*: races live at cold locations touched a
handful of times, while the record volume comes from hot ones.  The
policies here encode that split:

* HB-related and lock operations are **always kept** — the sampler is
  consulted only for ``MEM_KINDS``, so the happens-before graph built
  from a sampled trace has exactly the same ordering edges as the full
  one; only memory accesses (race *candidates*) are thinned.
* ``PerLocationBudget`` keeps the first N accesses of every location,
  which preserves cold locations — and hence most races — entirely.
* ``HashRate`` keeps a deterministic pseudo-random fraction of the
  rest; ``PerEpochBudget`` bounds accesses per trace epoch; and
  ``Reservoir`` maintains a fixed-size uniform sample per location,
  retroactively *evicting* earlier picks.
* ``Composite`` is a union: a record survives if **any** member policy
  admits it, so "budget + rate" keeps cold locations whole and hot
  ones thinned.

Every choice hashes ``(seed, location, ordinal)`` with CRC32 — no
global RNG — so a fixed ``(policy, seed)`` yields byte-identical
sampled traces across runs and machines, and ``config_fingerprint``
can refuse checkpoint resume across differing policies.

Spec grammar (``--sampling``)::

    1.0                 keep everything (sampling off; no-op sampler)
    0.1                 budgeted rate: budget:8 + rate:0.1 (the default
                        composite — a bare rate alone would give pair
                        recall ~rate^2, see docs/runtime.md)
    rate:0.1            pure hash-rate sampling
    budget:16           first 16 accesses per location
    epoch:500:8192      at most 500 accesses per 8192-record epoch
    reservoir:8         uniform 8-record sample per location
    budget:4+rate:0.05  '+' composes policies (union of samples)
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Set, Tuple

from repro.runtime.ops import MEM_READ, MEM_WRITE, OpEvent

#: Per-location always-keep budget used by the bare-rate shorthand.
DEFAULT_LOCATION_BUDGET = 8


def _chance(seed: int, *parts: object) -> float:
    """Deterministic uniform [0, 1) from a seed and discriminators."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return zlib.crc32(text.encode("utf-8")) / 2**32


class SamplingPolicy:
    """Decides, per memory access, whether the tracer keeps it."""

    #: Short policy name, used in specs and drop metrics.
    kind = "abstract"
    #: False for policies that never reject (lets the tracer skip the
    #: "sampled" confidence downgrade when sampling is a no-op).
    can_drop = True

    def admit(self, event: OpEvent) -> bool:
        raise NotImplementedError

    def pop_evictions(self) -> List[int]:
        """Seqs of previously-admitted records to drop retroactively
        (reservoir replacement).  Empty for streaming-style policies."""
        return []

    def describe(self) -> str:
        raise NotImplementedError


class KeepAll(SamplingPolicy):
    """Rate 1.0 — sampling off, byte-identical to the unsampled tracer."""

    kind = "keep-all"
    can_drop = False

    def admit(self, event: OpEvent) -> bool:
        return True

    def describe(self) -> str:
        return "rate:1.0"


class HashRate(SamplingPolicy):
    """Keep each access with probability ``rate``, decided by hashing
    ``(seed, location, seq)`` — reproducible, no RNG state."""

    kind = "rate"

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed

    def admit(self, event: OpEvent) -> bool:
        return _chance(self.seed, "rate", event.location, event.seq) < self.rate

    def describe(self) -> str:
        return f"rate:{self.rate:g}"


class PerLocationBudget(SamplingPolicy):
    """Always keep the first ``budget`` accesses of each location.

    Cold locations — where races hide — fit under the budget whole;
    hot ones are cut off after the prefix."""

    kind = "budget"

    def __init__(self, budget: int) -> None:
        if budget < 1:
            raise ValueError(f"per-location budget must be >= 1, got {budget}")
        self.budget = budget
        self._seen: Dict[object, int] = {}

    def admit(self, event: OpEvent) -> bool:
        count = self._seen.get(event.location, 0) + 1
        self._seen[event.location] = count
        return count <= self.budget

    def describe(self) -> str:
        return f"budget:{self.budget}"


class PerEpochBudget(SamplingPolicy):
    """At most ``budget`` accesses per epoch of ``epoch_records``
    consecutive memory accesses — bounds trace growth per unit of
    workload progress regardless of location skew."""

    kind = "epoch"

    def __init__(self, budget: int, epoch_records: int) -> None:
        if budget < 1 or epoch_records < 1:
            raise ValueError(
                f"epoch budget/size must be >= 1, got {budget}/{epoch_records}"
            )
        self.budget = budget
        self.epoch_records = epoch_records
        self._seen = 0
        self._epoch = 0
        self._kept_in_epoch = 0

    def admit(self, event: OpEvent) -> bool:
        epoch = self._seen // self.epoch_records
        self._seen += 1
        if epoch != self._epoch:
            self._epoch = epoch
            self._kept_in_epoch = 0
        if self._kept_in_epoch < self.budget:
            self._kept_in_epoch += 1
            return True
        return False

    def describe(self) -> str:
        return f"epoch:{self.budget}:{self.epoch_records}"


class Reservoir(SamplingPolicy):
    """Uniform fixed-size sample per location (Vitter's Algorithm R with
    hashed choices).  Unlike the prefix budget this keeps *late* accesses
    too, at the price of retroactive eviction: when access i > capacity
    replaces a slot, the evicted record's seq is reported via
    ``pop_evictions`` and the tracer removes it from the in-memory trace.
    A WAL, once written, is not rewritten — the on-disk log is a
    superset of the reservoir sample."""

    kind = "reservoir"

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seed = seed
        self._slots: Dict[object, List[int]] = {}
        self._count: Dict[object, int] = {}
        self._evictions: List[int] = []

    def admit(self, event: OpEvent) -> bool:
        loc = event.location
        count = self._count.get(loc, 0) + 1
        self._count[loc] = count
        slots = self._slots.setdefault(loc, [])
        if count <= self.capacity:
            slots.append(event.seq)
            return True
        pick = int(_chance(self.seed, "reservoir", loc, count) * count)
        if pick < self.capacity:
            self._evictions.append(slots[pick])
            slots[pick] = event.seq
            return True
        return False

    def pop_evictions(self) -> List[int]:
        out, self._evictions = self._evictions, []
        return out

    def describe(self) -> str:
        return f"reservoir:{self.capacity}"


class Composite(SamplingPolicy):
    """Union of samples: admit when **any** member admits.

    Every member observes every access (state advances uniformly), so
    each maintains the sample it would alone and the kept set is their
    union.  A reservoir eviction is suppressed while some *other*
    member admitted that record — evicting it would punch a hole in the
    other policy's sample."""

    kind = "composite"

    def __init__(self, policies: List[SamplingPolicy]) -> None:
        if not policies:
            raise ValueError("composite policy needs at least one member")
        self.policies = policies
        self._pinned: Set[int] = set()

    @property
    def can_drop(self) -> bool:  # type: ignore[override]
        return any(p.can_drop for p in self.policies)

    def admit(self, event: OpEvent) -> bool:
        keep = False
        pinned = False
        for policy in self.policies:
            admitted = policy.admit(event)
            keep = keep or admitted
            if admitted and policy.kind != Reservoir.kind:
                pinned = True
        if pinned:
            self._pinned.add(event.seq)
        return keep

    def pop_evictions(self) -> List[int]:
        out: List[int] = []
        for policy in self.policies:
            out.extend(s for s in policy.pop_evictions() if s not in self._pinned)
        return out

    def describe(self) -> str:
        return "+".join(p.describe() for p in self.policies)


class Sampler:
    """Tracer-facing wrapper: consults the policy for memory accesses
    only (HB/lock records always pass) and counts what it drops."""

    def __init__(self, policy: SamplingPolicy, spec: str, seed: int = 0) -> None:
        self.policy = policy
        self.spec = spec
        self.seed = seed
        self.kept = 0
        #: Drops by record kind (``mem_read``/``mem_write``) plus
        #: ``evicted`` for reservoir replacements.
        self.dropped: Dict[str, int] = {}

    @property
    def can_drop(self) -> bool:
        return self.policy.can_drop

    def describe(self) -> str:
        return f"{self.policy.describe()}@seed={self.seed}"

    def nominal_rate(self) -> Optional[float]:
        """The hash-rate component, if any — published as
        ``trace_sampling_rate``.  None for purely budgeted policies."""
        return _nominal_rate(self.policy)

    def observe(self, event: OpEvent) -> Tuple[bool, List[int]]:
        """(keep?, seqs of previously-kept records to evict)."""
        kind = event.kind
        if kind is not MEM_READ and kind is not MEM_WRITE:
            return True, []
        keep = self.policy.admit(event)
        evictions = self.policy.pop_evictions()
        if keep:
            self.kept += 1
        else:
            key = event.kind.value
            self.dropped[key] = self.dropped.get(key, 0) + 1
        if evictions:
            self.dropped["evicted"] = self.dropped.get("evicted", 0) + len(
                evictions
            )
            self.kept -= len(evictions)
        return keep, evictions


def _nominal_rate(policy: SamplingPolicy) -> Optional[float]:
    if isinstance(policy, HashRate):
        return policy.rate
    if isinstance(policy, KeepAll):
        return 1.0
    if isinstance(policy, Composite):
        rates = [
            r
            for r in (_nominal_rate(p) for p in policy.policies)
            if r is not None
        ]
        return min(rates) if rates else None
    return None


def _parse_term(term: str, seed: int) -> SamplingPolicy:
    term = term.strip()
    if term in ("all", "keep-all"):
        return KeepAll()
    if ":" not in term:
        raise ValueError(f"unknown sampling policy term: {term!r}")
    name, _, rest = term.partition(":")
    try:
        if name == "rate":
            rate = float(rest)
            return KeepAll() if rate >= 1.0 else HashRate(rate, seed)
        if name == "budget":
            return PerLocationBudget(int(rest))
        if name == "epoch":
            budget_text, _, epoch_text = rest.partition(":")
            if not epoch_text:
                raise ValueError("epoch policy needs BUDGET:EPOCH_RECORDS")
            return PerEpochBudget(int(budget_text), int(epoch_text))
        if name == "reservoir":
            return Reservoir(int(rest), seed)
    except ValueError as exc:
        raise ValueError(f"bad sampling term {term!r}: {exc}") from None
    raise ValueError(f"unknown sampling policy term: {term!r}")


def parse_policy(spec: str, seed: int = 0) -> SamplingPolicy:
    """Parse a ``--sampling`` spec (see module docstring for grammar)."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty sampling spec")
    # Bare float: the recall-preserving default — a per-location budget
    # unioned with hash-rate sampling.  A pure rate R would need *both*
    # accesses of a racing pair to survive (recall ~ R^2); the budget
    # keeps cold locations (where races live) whole.
    try:
        rate = float(spec)
    except ValueError:
        rate = None
    if rate is not None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling rate must be in [0, 1], got {rate}")
        if rate >= 1.0:
            return KeepAll()
        return Composite(
            [PerLocationBudget(DEFAULT_LOCATION_BUDGET), HashRate(rate, seed)]
        )
    terms = [t for t in spec.split("+") if t.strip()]
    if not terms:
        raise ValueError(f"empty sampling spec: {spec!r}")
    policies = [_parse_term(t, seed) for t in terms]
    return policies[0] if len(policies) == 1 else Composite(policies)


def build_sampler(spec: Optional[str], seed: int = 0) -> Optional[Sampler]:
    """None/empty spec means sampling off (no sampler at all)."""
    if not spec:
        return None
    return Sampler(parse_policy(spec, seed), spec=spec, seed=seed)
