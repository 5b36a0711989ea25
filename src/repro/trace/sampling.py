"""Budgeted sampling of the memory accesses a stream pass reads.

DCatch records *every* in-scope memory access, and a trace keeps them
all; ``dcatch stream --sampling`` decides, as it reads a trace, which
accesses reach the detector.  "Dynamic Race Detection with
O(1) Samples" shows race recall survives aggressive sampling when the
sample is *location-aware*: races live at cold locations touched a
handful of times, while the record volume comes from hot ones.  One
decision encodes that split:

* HB-related and lock operations are **always kept** — only memory
  accesses are eligible, so a sampled pass builds exactly the same
  happens-before order as the full one; only race *candidates* are
  thinned.
* The first ``budget`` accesses of every location are kept, which
  preserves cold locations — and hence most races — entirely.
* Of the rest, a deterministic pseudo-random fraction ``rate`` is kept,
  so hot locations are thinned rather than cut off.

The rate decision hashes ``(seed, location, seq)`` with CRC32 — no
global RNG — so a fixed ``(spec, seed)`` keeps byte-identical record
sets across runs and machines.  The only state is one count per
location.

Spec grammar (``--sampling``)::

    1.0 | all           keep everything (sampling off; no-op sampler)
    0.1                 budgeted rate: budget:8+rate:0.1 (a bare rate
                        alone would give pair recall ~rate^2, see
                        docs/runtime.md)
    rate:0.1            pure hash-rate sampling
    budget:16           first 16 accesses per location
    budget:4+rate:0.05  the budget, then the rate on what exceeds it
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

from repro.runtime.ops import MEM_READ, MEM_WRITE, OpEvent

#: Per-location always-keep budget used by the bare-rate shorthand.
DEFAULT_LOCATION_BUDGET = 8

# What ``observe`` returns: shared constants, so a decision allocates
# nothing.  The second slot is always empty.
_KEEP: Tuple[bool, tuple] = (True, ())
_DROP: Tuple[bool, tuple] = (False, ())


class Sampler:
    """Keeps the first ``budget`` accesses of each location plus a
    hashed fraction ``rate`` of the others.  Either may be None (term
    absent); rate 1.0 is keep-all.  Counting what is dropped is left to
    whoever loses the record."""

    def __init__(
        self, budget: Optional[int], rate: Optional[float], seed: int = 0
    ) -> None:
        self.budget = budget
        #: None when purely budgeted.
        self.rate = rate
        self.seed = seed
        self._seen: Dict[object, int] = {}

    def observe(self, event: OpEvent) -> Tuple[bool, tuple]:
        """``(keep?, ())`` — one of two shared tuples."""
        kind = event.kind
        if kind is not MEM_READ and kind is not MEM_WRITE:
            return _KEEP
        location = event.location
        if self.budget is not None:
            count = self._seen.get(location, 0) + 1
            self._seen[location] = count
            if count <= self.budget:
                return _KEEP
        rate = self.rate
        if rate is None:
            return _DROP
        text = f"{self.seed}:rate:{location}:{event.seq}"
        if zlib.crc32(text.encode("utf-8")) / 2**32 < rate:
            return _KEEP
        return _DROP


def build_sampler(spec: Optional[str], seed: int = 0) -> Optional[Sampler]:
    """The sampler for a ``--sampling`` spec (grammar in the module
    docstring); None/empty spec means sampling off (no sampler at all).
    ``ValueError``, naming the grammar, for anything outside it."""
    if not spec:
        return None
    budget = rate = None
    keep_all = False
    try:
        bare = float(spec)
    except ValueError:
        bare = None
    try:
        if bare is not None:
            # Bare float: the recall-preserving default.  A pure rate R
            # would need *both* accesses of a racing pair to survive
            # (recall ~ R^2); the budget keeps cold locations (where
            # races live) whole.
            budget, rate = DEFAULT_LOCATION_BUDGET, bare
        else:
            seen = set()
            for term in spec.split("+"):
                term = term.strip()
                name, _, value = term.partition(":")
                if name in seen:
                    raise ValueError(f"term {name!r} repeated")
                seen.add(name)
                if term == "all":
                    keep_all = True
                elif name == "rate":
                    rate = float(value)
                elif name == "budget":
                    budget = int(value)
                else:
                    raise ValueError(f"unknown term {term!r}")
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
    except ValueError as exc:
        raise ValueError(
            f"bad sampling spec {spec!r}: {exc} "
            "(supported: R, all, rate:R, budget:N, budget:N+rate:R)"
        ) from None
    if keep_all or rate == 1.0:
        # Keep-all anywhere in a union is keep-all.
        budget, rate = None, 1.0
    return Sampler(budget, rate, seed)
