"""DCbug reports: deduplicated candidates with classification lifecycle.

The paper counts bug reports two ways (Table 4): by unique *static
instruction pair* and by unique *callstack pair*.  A ``BugReport`` is one
callstack pair (the finer unit — it is what the triggering module takes
as input); static grouping is derived.

A report's classification follows Section 7.1:

* ``SERIAL`` — the two accesses are actually ordered (HB model missed
  custom synchronization): a detector false positive.
* ``BENIGN`` — truly concurrent, but no failure results.
* ``HARMFUL`` — concurrent and at least one ordering causes a failure.
* ``UNKNOWN`` — not yet validated by the trigger module.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional

from repro import obs
from repro.detect.races import Candidate, DetectionResult


class Verdict(Enum):
    UNKNOWN = "unknown"
    SERIAL = "serial"
    BENIGN = "benign"
    HARMFUL = "harmful"


#: Soundness tiers, weakest first.  ``hb-predicted``: the HB model says
#: the pair is concurrent (may be unfeasible — the trigger stage
#: exists to weed these out).  ``sp-sound``: a sync-preserving
#: reordering witnesses the race (``repro.detect.syncpres``) — feasible
#: modulo data-independence.  ``trigger-confirmed``: a controlled
#: re-execution actually produced both orders (HARMFUL or BENIGN
#: verdict).
SOUNDNESS_TIERS = ("hb-predicted", "sp-sound", "trigger-confirmed")

SOUNDNESS_RANK = {tier: rank for rank, tier in enumerate(SOUNDNESS_TIERS)}


def count_soundness(tier: str, candidates: int = 1) -> None:
    """Add to the per-tier census ``detect_soundness_tier_total``."""
    obs.counter(
        "detect_soundness_tier_total", "candidates per soundness tier"
    ).labels(tier=tier).inc(candidates)


@dataclass
class BugReport:
    """One deduplicated DCbug report (unique callstack pair)."""

    report_id: int
    candidates: List[Candidate]
    verdict: Verdict = Verdict.UNKNOWN
    verdict_detail: str = ""
    #: Inherited from the detection that produced this report:
    #: ``"partial"`` means the trace was damaged/salvaged and the
    #: candidate set may be incomplete.
    confidence: str = "full"
    #: One of ``SOUNDNESS_TIERS``: how strong the evidence for this
    #: report is.  Starts at the detector's tier; the trigger stage
    #: upgrades to ``trigger-confirmed`` when it enforces both orders.
    soundness: str = "hb-predicted"

    @property
    def representative(self) -> Candidate:
        return self.candidates[0]

    @property
    def static_pair(self) -> frozenset:
        return self.representative.static_pair

    @property
    def callstack_pair(self) -> frozenset:
        return self.representative.callstack_pair

    @property
    def dynamic_instances(self) -> int:
        return len(self.candidates)

    def describe(self) -> str:
        tag = "" if self.confidence == "full" else f" (confidence: {self.confidence})"
        if self.soundness != "hb-predicted":
            tag += f" <{self.soundness}>"
        lines = [f"DCbug report #{self.report_id} [{self.verdict.value}]{tag}"]
        rep = self.representative
        lines.append(f"  variable: {rep.variable} location={rep.location}")
        for access in rep.accesses():
            lines.append(
                f"  {access.kind.value:9s} {access.node}/{access.thread_name} "
                f"at {access.callstack.pretty()}"
            )
        lines.append(f"  dynamic instances: {self.dynamic_instances}")
        if self.verdict_detail:
            lines.append(f"  detail: {self.verdict_detail}")
        return "\n".join(lines)


class ReportSet:
    """All reports of one workload analysis, with both count views."""

    def __init__(self, reports: List[BugReport]) -> None:
        self.reports = reports

    @classmethod
    def from_detection(cls, detection: DetectionResult) -> "ReportSet":
        grouped = detection.callstack_pairs()
        reports = []
        for i, (_key, candidates) in enumerate(
            sorted(grouped.items(), key=lambda kv: kv[1][0].first.seq)
        ):
            # One SP-sound dynamic instance is a witness for the whole
            # callstack pair: that instance is the one worth triggering.
            soundness = "hb-predicted"
            if any(
                detection.candidate_soundness(c) == "sp-sound"
                for c in candidates
            ):
                soundness = "sp-sound"
            reports.append(
                BugReport(
                    report_id=i + 1,
                    candidates=candidates,
                    confidence=detection.confidence,
                    soundness=soundness,
                )
            )
        return cls(reports)

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    # -- counting (Table 4 / Table 5 semantics) -------------------------------

    def callstack_count(self, verdict: Optional[Verdict] = None) -> int:
        return len(
            [r for r in self.reports if verdict is None or r.verdict is verdict]
        )

    def static_groups(self) -> Dict[frozenset, List[BugReport]]:
        grouped: Dict[frozenset, List[BugReport]] = defaultdict(list)
        for report in self.reports:
            grouped[report.static_pair].append(report)
        return dict(grouped)

    def static_count(self, verdict: Optional[Verdict] = None) -> int:
        """Unique static pairs; a pair counts toward the *worst* verdict of
        its reports (matches the paper's CA-1011 note where benign and
        harmful reports share static identities)."""
        if verdict is None:
            return len(self.static_groups())
        count = 0
        for _pair, reports in self.static_groups().items():
            if _worst_verdict([r.verdict for r in reports]) is verdict:
                count += 1
        return count

    def filter(self, keep: Iterable[BugReport]) -> "ReportSet":
        kept = set(id(r) for r in keep)
        return ReportSet([r for r in self.reports if id(r) in kept])

    def soundness_counts(self) -> Dict[str, int]:
        """Reports per soundness tier (zero tiers omitted)."""
        counts: Dict[str, int] = {}
        for report in self.reports:
            counts[report.soundness] = counts.get(report.soundness, 0) + 1
        return counts

    def summary(self) -> str:
        parts = []
        for verdict in Verdict:
            n = self.callstack_count(verdict)
            if n:
                parts.append(f"{verdict.value}={n}")
        return f"{len(self.reports)} reports ({', '.join(parts) or 'none'})"


_SEVERITY = {
    Verdict.HARMFUL: 3,
    Verdict.BENIGN: 2,
    Verdict.SERIAL: 1,
    Verdict.UNKNOWN: 0,
}


def _worst_verdict(verdicts: List[Verdict]) -> Verdict:
    return max(verdicts, key=lambda v: _SEVERITY[v])
