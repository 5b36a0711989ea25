"""Static pruning of DCbug candidates (paper Section 4).

A candidate ``(s, t)`` survives iff *either* access can influence a
failure instruction.  The pruner anchors each access by its trace call
stack (innermost system-under-test frame first, falling back outward when
a frame cannot be resolved — the paper's "inter-procedural analysis
follows the reported call-stack").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.analysis.astutil import SourceIndex
from repro.analysis.failures import DEFAULT_FAILURE_SPEC, FailureSpec
from repro.analysis.impact import Impact, ImpactAnalyzer, RpcLink, rpc_links_from_trace
from repro.detect.races import CONFIDENCE_RANK
from repro.detect.report import SOUNDNESS_RANK, BugReport, ReportSet
from repro.ids import Site
from repro.runtime.ops import OpEvent


def rank_reports(reports) -> List[BugReport]:
    """Trigger-queue order: strongest soundness tier first, then
    strongest confidence, stable by report id within a tier.

    SP-sound reports carry a feasibility witness, so they are the
    likeliest to enforce and the first to spend re-execution budget on;
    under a stage deadline the reports left UNKNOWN are the weakest.
    Within a tier ``full`` goes before ``partial`` and ``sampled`` (a
    thinned stream may have lost the evidence enforcement needs).  Ties
    keep report-id order, so pipelines without the SP tier keep their
    historical trigger order exactly."""
    return sorted(
        reports,
        key=lambda r: (
            -SOUNDNESS_RANK[r.soundness],
            CONFIDENCE_RANK[r.confidence],
            r.report_id,
        ),
    )


@dataclass
class PruneDecision:
    report: BugReport
    keep: bool
    reasons: List[str] = field(default_factory=list)


@dataclass
class PruneResult:
    kept: ReportSet
    pruned: ReportSet
    decisions: List[PruneDecision]
    seconds: float = 0.0

    def summary(self) -> str:
        return (
            f"static pruning kept {len(self.kept)} / "
            f"{len(self.kept) + len(self.pruned)} reports"
        )


class StaticPruner:
    """Prunes candidates with no estimated failure impact."""

    def __init__(
        self,
        index: SourceIndex,
        spec: FailureSpec = DEFAULT_FAILURE_SPEC,
        rpc_links: Sequence[RpcLink] = (),
        observed_functions=None,
    ) -> None:
        self.analyzer = ImpactAnalyzer(
            index,
            spec=spec,
            rpc_links=rpc_links,
            observed_functions=observed_functions,
        )

    @classmethod
    def for_trace(
        cls,
        index: SourceIndex,
        trace: "object",
        spec: FailureSpec = DEFAULT_FAILURE_SPEC,
    ) -> "StaticPruner":
        observed = {
            frame.func
            for record in trace.records
            for frame in record.callstack
        }
        return cls(
            index,
            spec=spec,
            rpc_links=rpc_links_from_trace(trace),
            observed_functions=observed,
        )

    def assess(self, report: BugReport) -> PruneDecision:
        reasons: List[str] = []
        keep = False
        for access in report.representative.accesses():
            impact = self._access_impact(access)
            if impact.found:
                keep = True
                reasons.extend(impact.reasons)
        return PruneDecision(report=report, keep=keep, reasons=reasons)

    def apply(self, reports: ReportSet, detection=None) -> PruneResult:
        """Assess every report; the kept set comes back in trigger-queue
        order (``rank_reports``: SP-sound first).

        ``detection`` is optional ranking context.  Streaming-mode
        results carry ``graph=None`` (no whole-trace HB graph exists),
        so nothing here may touch ``detection.graph`` unguarded — the
        soundness tiers ranked on were computed at detection time and
        live on the reports themselves."""
        import time

        from repro import obs

        started = time.perf_counter()
        with obs.span("prune.apply", reports=len(reports)):
            decisions = [self.assess(report) for report in reports]
        kept = ReportSet(rank_reports(d.report for d in decisions if d.keep))
        pruned = ReportSet([d.report for d in decisions if not d.keep])
        sp_kept = sum(1 for r in kept if r.soundness == "sp-sound")
        if sp_kept:
            obs.counter(
                "prune_sp_sound_kept_total",
                "SP-sound reports surviving static pruning",
            ).inc(sp_kept)
        obs.counter("prune_kept_total", "reports surviving static pruning").inc(
            len(kept)
        )
        obs.counter("prune_dropped_total", "reports pruned as impact-free").inc(
            len(pruned)
        )
        return PruneResult(
            kept=kept,
            pruned=pruned,
            decisions=decisions,
            seconds=time.perf_counter() - started,
        )

    def _access_impact(self, access: OpEvent) -> Impact:
        """Walk the recorded call stack outward until a frame resolves."""
        for frame in access.callstack:
            site = Site.of_frame(frame)
            fn = self.analyzer.index.function_at(site.path, site.line)
            if fn is None:
                continue
            return self.analyzer.access_impact(site)
        return Impact(True, ["no resolvable frame: kept conservatively"])
