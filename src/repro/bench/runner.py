"""Shared, cached pipeline executions for the evaluation harness.

Most tables consume the same artifacts (one monitored+analyzed+triggered
pipeline run per benchmark), so the harness memoizes them per process.
Determinism makes the cache sound: the same workload and seed always
produce the same trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.detect.races import detect_races
from repro.detect.report import ReportSet
from repro.errors import TraceAnalysisOOM
from repro.hb.graph import HBGraph
from repro.hb.model import FULL_MODEL
from repro.pipeline import DCatch, PipelineConfig, PipelineResult
from repro.systems import all_workloads, workload_by_id
from repro.trace.scope import FullScope
from repro.trace.store import Trace
from repro.trace.tracer import Tracer

#: Scaled trace-analysis memory budget for the Table 8 experiment.  The
#: paper's JVM had 50 GB for systems of 10^5-10^6 LoC; our mini systems
#: are roughly three orders of magnitude smaller.
FULL_TRACING_BUDGET = 4 * 1024 * 1024


@dataclass
class FullTracingResult:
    """One row of Table 8."""

    bug_id: str
    trace: Trace
    tracing_seconds: float
    analysis_seconds: Optional[float]  # None = out of memory
    oom: Optional[TraceAnalysisOOM]


class BenchCache:
    """Per-process memo of expensive artifacts."""

    def __init__(self) -> None:
        self._pipeline: Dict[Tuple[str, bool], PipelineResult] = {}
        self._full_tracing: Dict[str, FullTracingResult] = {}

    # -- standard pipeline runs -----------------------------------------------

    def pipeline(self, bug_id: str, trigger: bool = True) -> PipelineResult:
        key = (bug_id, trigger)
        if key not in self._pipeline:
            workload = workload_by_id(bug_id)
            config = PipelineConfig(trigger=trigger)
            self._pipeline[key] = DCatch(workload, config).run()
            if trigger:
                # A triggered run contains everything an untriggered one
                # does; reuse it.
                self._pipeline[(bug_id, False)] = self._pipeline[key]
        return self._pipeline[key]

    # -- Table 5: staged pruning -------------------------------------------------

    def staged_counts(self, bug_id: str) -> Dict[str, Tuple[int, int]]:
        """{stage: (static, callstack)} for TA, TA+SP, TA+SP+LP."""
        result = self.pipeline(bug_id, trigger=False)
        trace = result.trace
        workload = result.workload

        from repro.analysis.astutil import SourceIndex
        from repro.analysis.pruner import StaticPruner

        index = SourceIndex.from_modules(workload.modules())

        no_pull = detect_races(trace, model=FULL_MODEL.without("pull"))
        reports_ta = ReportSet.from_detection(no_pull)
        pruner = StaticPruner.for_trace(index, trace)
        reports_sp = pruner.apply(reports_ta).kept

        with_pull = detect_races(trace, model=FULL_MODEL)
        reports_lp_all = ReportSet.from_detection(with_pull)
        reports_lp = pruner.apply(reports_lp_all).kept

        return {
            "TA": (reports_ta.static_count(), reports_ta.callstack_count()),
            "TA+SP": (reports_sp.static_count(), reports_sp.callstack_count()),
            "TA+SP+LP": (reports_lp.static_count(), reports_lp.callstack_count()),
        }

    # -- Table 8: unselective tracing ----------------------------------------------

    def full_tracing(self, bug_id: str) -> FullTracingResult:
        if bug_id not in self._full_tracing:
            workload = workload_by_id(bug_id)
            started = time.perf_counter()
            cluster = workload.cluster(None)
            tracer = Tracer(scope=FullScope(), name=f"{bug_id}-full")
            tracer.bind(cluster)
            cluster.run()
            tracing_seconds = time.perf_counter() - started

            analysis_seconds: Optional[float] = None
            oom: Optional[TraceAnalysisOOM] = None
            started = time.perf_counter()
            try:
                # The paper's original algorithm: every vertex (incl.
                # memory accesses) gets a reachability bit set.
                detect_races(
                    tracer.trace,
                    memory_budget=FULL_TRACING_BUDGET,
                    graph=HBGraph(
                        tracer.trace,
                        memory_budget=FULL_TRACING_BUDGET,
                        compress_mem=False,
                    ),
                )
                analysis_seconds = time.perf_counter() - started
            except TraceAnalysisOOM as exc:
                oom = exc
            self._full_tracing[bug_id] = FullTracingResult(
                bug_id=bug_id,
                trace=tracer.trace,
                tracing_seconds=tracing_seconds,
                analysis_seconds=analysis_seconds,
                oom=oom,
            )
        return self._full_tracing[bug_id]


#: The module-level cache used by the benchmark suite.
CACHE = BenchCache()


def all_bug_ids():
    return [w.info.bug_id for w in all_workloads()]
