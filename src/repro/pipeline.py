"""The end-to-end DCatch pipeline (paper Section 1.3).

One ``DCatch(workload).run()`` performs the paper's four stages, each
once and each reported under its name in :data:`STAGES`:

1. ``trace`` — run-time tracing: the one monitored (correct) execution
   of the workload with the selective-scope tracer;
2. ``analysis`` — HB-graph construction + conflicting-concurrent pair
   detection (including Rule-Mpull loop analysis);
3. ``prune`` — static pruning: impact estimation over the mini system's
   source;
4. ``trigger`` — controlled re-executions that classify each report as
   harmful / benign / serial.

A ``PipelineResult`` carries everything the evaluation tables need:
counts at each stage (Tables 4, 5), timings and trace sizes (Table 6),
record breakdowns (Table 7).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro import obs
from repro.analysis.astutil import SourceIndex
from repro.analysis.governor import StageBudget
from repro.analysis.pruner import PruneResult, StaticPruner, rank_reports
from repro.detect.races import DetectionResult, detect_races
from repro.detect.report import SOUNDNESS_TIERS, ReportSet, Verdict
from repro.detect.syncpres import annotate_sync_preserving, lock_section_edges
from repro.errors import TraceAnalysisOOM
from repro.hb.graph import DEFAULT_MEMORY_BUDGET, HBGraph
from repro.runtime.cluster import Cluster, RunResult
from repro.runtime.faults import FaultPlan
from repro.trace.scope import FullScope, TracingScope, selective_scope_for
from repro.trace.store import Trace
from repro.trace.tracer import Tracer

if TYPE_CHECKING:  # the CLI imports this module for every command
    from repro.systems.base import Workload
    from repro.trigger.explorer import TriggerOutcome

#: The pipeline's stages, in run order: the only keys of
#: ``PipelineResult.stage_status``.
STAGES = ("trace", "analysis", "prune", "trigger")
#: Seeds of each trigger re-execution (Section 5).
TRIGGER_SEEDS = (0, 1)


@dataclass
class PipelineConfig:
    """Knobs for the pipeline; defaults match the paper's DCatch."""

    scope: str = "selective"  # or "full" (Table 8's alternative design)
    #: ``"batch"`` builds the whole-trace HB graph + reachability
    #: closure before detection (the paper's offline algorithm), then
    #: replays the candidates against the sync-preserving order
    #: (``repro.detect.syncpres``) — pairs with a sound reordering
    #: witness are tiered ``sp-sound`` and jump the prune/trigger queue;
    #: ``"streaming"`` runs the single-pass bounded-memory detector
    #: (``repro.detect.streaming``, at its ``DEFAULT_WINDOW``) — no
    #: graph, no closure, memory tracks concurrency width instead of
    #: trace length, and every report stays ``hb-predicted``.
    detect_mode: str = "batch"
    trigger: bool = True
    monitored_seed: Optional[int] = None  # None = the workload's default
    #: Optional fault-injection schedule installed on the monitored run
    #: (see ``repro.runtime.faults``).  Trigger re-runs stay fault-free:
    #: they must isolate the racing pair, not the faults.
    fault_plan: Optional[FaultPlan] = None
    #: Durable tracing: when set, the monitored run's tracer also
    #: appends every record to a write-ahead log under
    #: ``<trace_dir>/<bug_id>/seed-<seed>/`` (see ``repro.trace.wal``),
    #: so a node crashed mid-run leaves a salvageable prefix on disk.
    #: None (default) keeps tracing purely in memory — zero overhead.
    trace_dir: Optional[str] = None
    #: Wall-clock deadline per stage (seconds).  Cooperative: detection
    #: polls it once per access of a write-bearing location, triggering
    #: between reports; an overrunning stage stops early, keeps what it
    #: found and is marked degraded.
    max_stage_seconds: Optional[float] = None
    #: The run's one memory budget (MB).  Batch mode: each reachability
    #: closure's byte budget (None = ``DEFAULT_MEMORY_BUDGET``); an HB
    #: closure that does not fit is ``result.oom``, an SP one
    #: ``result.sp_oom``.  Streaming mode builds no closure and ignores it.
    memory_budget_mb: Optional[int] = None


@dataclass
class PipelineResult:
    """Everything one benchmark run of DCatch produced."""

    workload: Workload
    config: PipelineConfig
    monitored_result: RunResult
    trace: Trace
    detection: Optional[DetectionResult]
    reports_pre_prune: Optional[ReportSet]
    prune_result: Optional[PruneResult]
    reports: Optional[ReportSet]
    outcomes: List[TriggerOutcome] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    oom: Optional[TraceAnalysisOOM] = None
    #: The SP closure did not fit: the SP tier was skipped, not the run.
    sp_oom: Optional[TraceAnalysisOOM] = None
    #: Degrade-don't-die bookkeeping: one ``"<stage>: <error>"`` line per
    #: failure.  A stage failure leaves earlier stages' results intact —
    #: the pipeline returns what it has instead of raising.
    errors: List[str] = field(default_factory=list)
    #: The outcome of each stage that ran, keyed by its :data:`STAGES`
    #: name: ``"ok"``, ``"degraded"`` (cut short by, or finished past,
    #: the stage deadline), or ``"failed"``.
    stage_status: Dict[str, str] = field(default_factory=dict)
    #: Metrics snapshot of the run (``MetricsRegistry.snapshot()``).
    #: Benchmarks and tests assert on this instead of re-deriving
    #: counts.
    metrics: Dict[str, Dict] = field(default_factory=dict)
    #: The run's ``SpanTracer``; feed it to ``repro.obs.render_span_table`` / ``spans_to_chrome``.
    profile: Optional[obs.SpanTracer] = None

    @property
    def degraded(self) -> bool:
        """True when some stage failed or was cut short by a deadline."""
        return self.oom is not None or bool(
            {"failed", "degraded"} & set(self.stage_status.values())
        )

    # -- Table 4-style counts ------------------------------------------------

    def verdict_counts(self, by: str = "static") -> Dict[str, int]:
        """Counts of harmful/benign/serial reports (static or callstack)."""
        if self.reports is None:
            return {}
        counter = {}
        for verdict in (Verdict.HARMFUL, Verdict.BENIGN, Verdict.SERIAL):
            if by == "static":
                counter[verdict.value] = self.reports.static_count(verdict)
            else:
                counter[verdict.value] = self.reports.callstack_count(verdict)
        return counter

    def summary(self) -> str:
        lines = [f"== DCatch on {self.workload.info.bug_id} =="]
        lines.append(f"monitored run: {self.monitored_result.summary()}")
        lines.append(
            f"trace: {len(self.trace)} records, "
            f"{self.trace.size_bytes() / 1024:.1f} KB"
        )
        if self.oom is not None:
            lines.append(f"trace analysis: OUT OF MEMORY ({self.oom})")
        if self.detection is not None:
            tag = (
                ""
                if self.detection.confidence == "full"
                else f" (confidence: {self.detection.confidence})"
            )
            lines.append(
                f"trace analysis: {len(self.detection.candidates)} dynamic "
                f"pairs, {self.detection.static_count()} static, "
                f"{self.detection.callstack_count()} callstack{tag}"
            )
            sound, found = self.detection.sp_pairs, len(self.detection.candidates)
            if sound is not None:
                lines.append(
                    f"sync-preserving: {len(sound)} of {found} dynamic pairs "
                    f"sp-sound ({found - len(sound)} hb-only)"
                )
            elif self.sp_oom is not None:
                lines.append(
                    f"sync-preserving: skipped, SP closure OUT OF MEMORY "
                    f"({self.sp_oom}); every report stays hb-predicted"
                )
        if self.prune_result is not None:
            lines.append(f"static pruning: {self.prune_result.summary()}")
        if self.reports is not None:
            lines.append(f"DCatch reports: {self.reports.summary()}")
            tiers = self.reports.soundness_counts()
            if set(tiers) - {"hb-predicted"}:
                parts = ", ".join(
                    f"{tier}={tiers[tier]}"
                    for tier in reversed(SOUNDNESS_TIERS)
                    if tier in tiers
                )
                lines.append(f"soundness: {parts}")
        if self.errors:
            failures = Counter(error.split(":", 1)[0] for error in self.errors)
            parts = ", ".join(
                f"{stage}: {count}" for stage, count in sorted(failures.items())
            )
            lines.append(f"partial failures: {parts}")
        for key, value in sorted(self.timings.items()):
            lines.append(f"  {key}: {value:.3f}s")
        return "\n".join(lines)


class DCatch:
    """The detector, wired for one workload."""

    #: Valid ``PipelineConfig.detect_mode`` values.
    DETECT_MODES = ("batch", "streaming")

    def __init__(
        self, workload: Workload, config: Optional[PipelineConfig] = None
    ) -> None:
        self.workload = workload
        self.config = config or PipelineConfig()
        if self.config.detect_mode not in self.DETECT_MODES:
            raise ValueError(
                f"unknown detect_mode {self.config.detect_mode!r}; "
                f"expected one of {self.DETECT_MODES}"
            )

    # -- stages ----------------------------------------------------------------

    def _make_scope(self) -> TracingScope:
        if self.config.scope == "full":
            return FullScope()
        return selective_scope_for(self.workload.modules())

    def _build_cluster(self) -> Cluster:
        cluster = self.workload.cluster(self.config.monitored_seed)
        if self.config.fault_plan is not None:
            self.config.fault_plan.install(cluster)
        return cluster

    def run_traced(self) -> tuple:
        cluster = self._build_cluster()
        wal = None
        if self.config.trace_dir:
            import os

            from repro.trace.wal import WalSink

            # Per-benchmark, per-seed subdirectory so runs over many
            # seeds never clobber each other's logs.
            wal = WalSink(
                os.path.join(
                    self.config.trace_dir,
                    self.workload.info.bug_id,
                    f"seed-{cluster.seed}",
                )
            )
        tracer = Tracer(
            scope=self._make_scope(),
            name=self.workload.info.bug_id,
            wal=wal,
        )
        tracer.bind(cluster)
        try:
            result = cluster.run()
        finally:
            # Seal the surviving WAL streams even when the run blows up —
            # a salvageable log is the whole point of the durable path.
            tracer.close()
        return result, tracer.trace

    def run(self) -> PipelineResult:
        """Run all stages under this run's observability context.

        A fresh registry and span tracer are activated for the duration
        of the run — unless the caller already activated ones (e.g.
        ``dcatch profile``, which exports them), which are then reused.
        The snapshot lands on ``PipelineResult.metrics`` either way.
        """
        registry = (
            obs.get_registry()
            if obs.get_registry().enabled
            else obs.MetricsRegistry(name=self.workload.info.bug_id)
        )
        tracer = (
            obs.get_tracer()
            if obs.get_tracer().enabled
            else obs.SpanTracer(name=self.workload.info.bug_id)
        )
        with obs.use_registry(registry), obs.use_tracer(tracer):
            result = self._run_stages()
        result.metrics = registry.snapshot()
        result.profile = tracer
        return result

    def _run_streaming_analysis(self, trace: Trace, budget) -> DetectionResult:
        """Streaming-mode analysis: skip the whole-trace HB graph and
        reachability closure entirely; one bounded-memory pass over the
        records (``repro.detect.streaming``).  ``detection.graph`` is
        None and downstream stages degrade gracefully (placement falls
        back to non-graph gating)."""
        from repro.detect.streaming import detect_races_streaming

        stream = detect_races_streaming(
            records=trace.records,
            expected_streams=trace.per_thread.keys(),
            should_stop=budget.exceeded,
        )
        return stream.to_detection(trace)

    def _run_stages(self) -> PipelineResult:
        """Trace, analyse, prune and trigger.  A stage that fails or
        overruns its deadline is recorded in ``stage_status`` instead of
        raising."""
        config = self.config
        timings: Dict[str, float] = {}
        stage_status: Dict[str, str] = {}
        #: One per stage that ran; each is polled a last time as its
        #: stage ends, so ``deadline_hit`` says which ones overran.
        budgets: List[StageBudget] = []
        obs.counter("pipeline_runs_total", "DCatch pipeline executions").inc()

        # -- run-time tracing: the one monitored run --------------------------
        started = time.perf_counter()
        budget = StageBudget("trace", started, config.max_stage_seconds)
        budgets.append(budget)
        with obs.span("pipeline.tracing", scope=config.scope):
            monitored_result, trace = self.run_traced()
            if obs.enabled():
                from repro.trace.stats import compute_stats, publish_stats

                publish_stats(compute_stats(trace))
        timings["tracing_seconds"] = time.perf_counter() - started
        budget.exceeded()
        stage_status["trace"] = "ok"

        detection = None
        reports_pre = None
        prune_result = None
        reports = None
        oom = None
        sp_oom = None
        outcomes: List[TriggerOutcome] = []
        errors: List[str] = []

        def stage_failed(stage: str, exc: Exception) -> None:
            stage_status[stage] = "failed"
            errors.append(f"{stage}: {type(exc).__name__}: {exc}")
            obs.counter(
                "pipeline_stage_failures_total", "degraded pipeline stages"
            ).labels(stage=stage).inc()

        # -- trace analysis: HB graph, reachability, detection ----------------
        # A closure that does not fit the budget ends the analysis
        # (``result.oom``): nothing below it can run without one.
        reach_budget = (
            DEFAULT_MEMORY_BUDGET
            if config.memory_budget_mb is None
            else config.memory_budget_mb * 1024 * 1024
        )
        started = time.perf_counter()
        budget = StageBudget("analysis", started, config.max_stage_seconds)
        budgets.append(budget)
        try:
            with obs.span("pipeline.analysis"):
                if config.detect_mode == "streaming":
                    detection = self._run_streaming_analysis(trace, budget)
                else:
                    graph = HBGraph(trace, memory_budget=reach_budget)
                    graph.reach_stats()
                    detection = detect_races(
                        trace,
                        memory_budget=reach_budget,
                        graph=graph,
                        should_stop=budget.exceeded,
                    )
                    try:
                        # no lock sections: the SP order is the HB order
                        annotate_sync_preserving(
                            detection,
                            memory_budget=reach_budget,
                            sp_graph=None if lock_section_edges(trace) else graph,
                        )
                    except TraceAnalysisOOM as exc:
                        sp_oom = exc  # skip the tier, not the analysis
                stage_status["analysis"] = (
                    "degraded" if detection.stopped_early else "ok"
                )
                reports_pre = ReportSet.from_detection(detection)
            reports = reports_pre
            timings["analysis_seconds"] = time.perf_counter() - started
        except TraceAnalysisOOM as exc:
            # The closure did not fit: record the OOM and mark the
            # stage failed instead of raising.
            oom = exc
            stage_failed("analysis", exc)
        except Exception as exc:  # noqa: BLE001 - degrade, don't die
            stage_failed("analysis", exc)
        budget.exceeded()

        # -- static pruning ---------------------------------------------------
        if reports is not None:
            try:
                started = time.perf_counter()
                with obs.span("pipeline.pruning"):
                    index = SourceIndex.from_modules(self.workload.modules())
                    pruner = StaticPruner.for_trace(index, trace)
                    # detection may be graph-less (streaming mode);
                    # the pruner tolerates that — ranking context
                    # comes from the reports' soundness tiers.
                    prune_result = pruner.apply(
                        reports_pre, detection=detection
                    )
                reports = prune_result.kept
                timings["pruning_seconds"] = time.perf_counter() - started
                stage_status["prune"] = "ok"
            except Exception as exc:  # noqa: BLE001
                # Pruning is an optimization: fall back to the
                # unpruned set, in the trigger-queue order pruning
                # would have left it in.
                stage_failed("prune", exc)
                reports = ReportSet(rank_reports(reports_pre))

        # -- triggering -------------------------------------------------------
        if reports is not None and detection is not None and config.trigger:
            started = time.perf_counter()
            budget = StageBudget("trigger", started, config.max_stage_seconds)
            budgets.append(budget)
            with obs.span("pipeline.trigger", reports=len(reports)):
                try:
                    from repro.trigger import PlacementAnalyzer, TriggerModule

                    placement = PlacementAnalyzer(trace, detection.graph)
                    module = TriggerModule(
                        self.workload.factory(), seeds=TRIGGER_SEEDS
                    )
                except Exception as exc:  # noqa: BLE001
                    stage_failed("trigger", exc)
                else:
                    stage_status.setdefault("trigger", "ok")
                    # ``reports`` is in trigger-queue order
                    # (``rank_reports``): under a deadline the reports
                    # left UNKNOWN are the weakest tier.
                    for report in reports:
                        if budget.exceeded():
                            # Deadline: remaining reports stay UNKNOWN.
                            stage_status["trigger"] = "degraded"
                            break
                        # Each report's re-runs are isolated: one
                        # hung or crashed trigger execution is that
                        # report's outcome, not the pipeline's.
                        try:
                            outcome = module.validate_report(
                                report, placement
                            )
                        except Exception as exc:  # noqa: BLE001
                            stage_failed("trigger", exc)
                            continue
                        if outcome is not None:
                            outcomes.append(outcome)
            timings["trigger_seconds"] = time.perf_counter() - started
            budget.exceeded()

        for budget in budgets:
            # A deadline overrun degrades the stage even when its loop
            # happened to finish; "failed" stays the stronger signal.
            if budget.deadline_hit and stage_status.get(budget.name) in (
                None,
                "ok",
            ):
                stage_status[budget.name] = "degraded"

        return PipelineResult(
            workload=self.workload,
            config=config,
            monitored_result=monitored_result,
            trace=trace,
            detection=detection,
            reports_pre_prune=reports_pre,
            prune_result=prune_result,
            reports=reports,
            outcomes=outcomes,
            timings=timings,
            oom=oom,
            sp_oom=sp_oom,
            errors=errors,
            stage_status=stage_status,
        )
