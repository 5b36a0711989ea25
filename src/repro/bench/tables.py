"""Generators for every table and figure of the paper's evaluation.

Each function returns a ``TableResult`` whose rows mirror the paper's
layout.  Absolute numbers differ (our substrate is a simulator, not the
authors' testbed); the *shape* — who is detected, what gets pruned, what
blows up — is the reproduction target, and ``EXPERIMENTS.md`` records the
side-by-side comparison.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List

from repro.bench.format import TableResult, check_mark
from repro.bench.runner import CACHE, all_bug_ids
from repro.detect.races import detect_races
from repro.detect.report import Verdict
from repro.hb.ablation import ablate_trace
from repro.hb.graph import HBGraph
from repro.runtime.ops import OpKind
from repro.systems import all_workloads

# A verb used purely as the push protocol's carrier; not counted as
# application-level socket communication in Table 1.
_PUSH_CARRIER_VERBS = {"zk-notify"}


# ---------------------------------------------------------------- Table 1

def table1_mechanisms() -> TableResult:
    """Concurrency & communication mechanisms per system (Table 1).

    Derived from trace evidence: which record kinds each system's
    monitored workloads actually produced.
    """
    per_system: Dict[str, Dict[str, bool]] = {}
    for workload in all_workloads():
        result = CACHE.pipeline(workload.info.bug_id, trigger=False)
        trace = result.trace
        mechanisms = per_system.setdefault(
            workload.info.system,
            {"rpc": False, "socket": False, "custom": False,
             "threads": False, "events": False},
        )
        for record in trace.records:
            if record.kind is OpKind.RPC_CREATE:
                mechanisms["rpc"] = True
            elif record.kind is OpKind.SOCK_SEND:
                if record.extra.get("verb") not in _PUSH_CARRIER_VERBS:
                    mechanisms["socket"] = True
            elif record.kind is OpKind.ZK_UPDATE:
                mechanisms["custom"] = True  # push-based protocol
            elif record.kind in (OpKind.THREAD_CREATE, OpKind.THREAD_BEGIN):
                mechanisms["threads"] = True
            elif record.kind is OpKind.EVENT_CREATE:
                mechanisms["events"] = True
        if result.detection is not None and result.detection.graph.pull_edges:
            mechanisms["custom"] = True  # pull-based protocol

    rows = [
        [
            system,
            check_mark(m["rpc"]),
            check_mark(m["socket"]),
            check_mark(m["custom"]),
            check_mark(m["threads"]),
            check_mark(m["events"]),
        ]
        for system, m in per_system.items()
    ]
    return TableResult(
        table_id="Table 1",
        title="Concurrency & communication in distributed systems",
        headers=["App", "Sync.RPC", "Async.Socket", "Custom Protocol",
                 "Sync.Threads", "Async.Events"],
        rows=rows,
        notes=["derived from monitored-run trace evidence"],
    )


# ---------------------------------------------------------------- Table 3

def table3_benchmarks() -> TableResult:
    rows = []
    for workload in all_workloads():
        info = workload.info
        rows.append(
            [
                info.bug_id,
                f"{workload.lines_of_code()} LoC",
                info.workload,
                info.symptom,
                info.error_pattern,
                info.root_cause,
            ]
        )
    return TableResult(
        table_id="Table 3",
        title="Benchmark bugs and applications",
        headers=["BugID", "LoC", "Workload", "Symptom", "Error", "Root"],
        rows=rows,
        notes=["LoC is the mini system's size (paper: real systems 61K-1.4M)"],
    )


# ---------------------------------------------------------------- Table 4

def table4_detection() -> TableResult:
    rows = []
    totals = Counter()
    for bug_id in all_bug_ids():
        result = CACHE.pipeline(bug_id, trigger=True)
        static = result.verdict_counts("static")
        callstack = result.verdict_counts("callstack")
        detected = callstack.get("harmful", 0) > 0
        rows.append(
            [
                bug_id,
                check_mark(detected),
                static.get("harmful", 0),
                static.get("benign", 0),
                static.get("serial", 0),
                callstack.get("harmful", 0),
                callstack.get("benign", 0),
                callstack.get("serial", 0),
            ]
        )
        for key in ("harmful", "benign", "serial"):
            totals[f"s_{key}"] += static.get(key, 0)
            totals[f"c_{key}"] += callstack.get(key, 0)
    rows.append(
        [
            "Total",
            "",
            totals["s_harmful"],
            totals["s_benign"],
            totals["s_serial"],
            totals["c_harmful"],
            totals["c_benign"],
            totals["c_serial"],
        ]
    )
    return TableResult(
        table_id="Table 4",
        title="DCatch bug detection results",
        headers=["BugID", "Detected?", "S.Bug", "S.Benign", "S.Serial",
                 "C.Bug", "C.Benign", "C.Serial"],
        rows=rows,
        notes=[
            "S.* = unique static instruction pairs, C.* = unique callstack pairs",
            "verdicts assigned by the triggering module (Section 5)",
        ],
    )


# ---------------------------------------------------------------- Table 5

def table5_pruning() -> TableResult:
    rows = []
    for bug_id in all_bug_ids():
        staged = CACHE.staged_counts(bug_id)
        rows.append(
            [
                bug_id,
                staged["TA"][0],
                staged["TA+SP"][0],
                staged["TA+SP+LP"][0],
                staged["TA"][1],
                staged["TA+SP"][1],
                staged["TA+SP+LP"][1],
            ]
        )
    return TableResult(
        table_id="Table 5",
        title="# of DCbugs reported by trace analysis (TA) alone, plus "
              "static pruning (SP), plus loop-based synchronization (LP)",
        headers=["BugID", "S.TA", "S.TA+SP", "S.TA+SP+LP",
                 "C.TA", "C.TA+SP", "C.TA+SP+LP"],
        rows=rows,
    )


# ---------------------------------------------------------------- Table 6

def table6_performance() -> TableResult:
    rows = []
    for bug_id in all_bug_ids():
        result = CACHE.pipeline(bug_id, trigger=False)
        # Base: the same workload and seed, run once without DCatch.
        started = time.perf_counter()
        result.workload.cluster(result.config.monitored_seed).run()
        base = time.perf_counter() - started
        rows.append(
            [
                bug_id,
                base,
                result.timings.get("tracing_seconds", 0.0),
                result.timings.get("analysis_seconds", 0.0),
                result.timings.get("pruning_seconds", 0.0),
                f"{result.trace.size_bytes() / 1024:.1f}KB",
            ]
        )
    return TableResult(
        table_id="Table 6",
        title="DCatch performance results",
        headers=["BugID", "Base(s)", "Tracing(s)", "TraceAnalysis(s)",
                 "StaticPruning(s)", "TraceSize"],
        rows=rows,
        notes=["Base is the execution time without DCatch"],
    )


# ---------------------------------------------------------------- Table 7

def table7_trace_breakdown() -> TableResult:
    rows = []
    for bug_id in all_bug_ids():
        result = CACHE.pipeline(bug_id, trigger=False)
        counts = result.trace.category_counts()
        rows.append(
            [
                bug_id,
                len(result.trace),
                counts.get("mem", 0),
                f"{counts.get('rpc', 0)} / {counts.get('socket', 0)}",
                counts.get("event", 0),
                counts.get("thread", 0),
                counts.get("lock", 0),
                counts.get("push", 0),
            ]
        )
    return TableResult(
        table_id="Table 7",
        title="Break down of # of major types of trace records",
        headers=["BugID", "Total", "Mem", "RPC/Socket", "Event",
                 "Thread", "Lock", "Push"],
        rows=rows,
    )


# ---------------------------------------------------------------- Table 8

def table8_full_tracing() -> TableResult:
    rows = []
    for bug_id in all_bug_ids():
        full = CACHE.full_tracing(bug_id)
        selective = CACHE.pipeline(bug_id, trigger=False)
        blowup = full.trace.size_bytes() / max(1, selective.trace.size_bytes())
        rows.append(
            [
                bug_id,
                f"{full.trace.size_bytes() / 1024:.0f}KB",
                f"{blowup:.0f}x",
                full.tracing_seconds,
                "Out of Memory" if full.oom else f"{full.analysis_seconds:.3f}s",
            ]
        )
    return TableResult(
        table_id="Table 8",
        title="Full (unselective) memory tracing results",
        headers=["BugID", "TraceSize", "vs.selective", "Tracing(s)",
                 "TraceAnalysis"],
        rows=rows,
        notes=[
            "analysis uses the paper's per-vertex bit-set algorithm with a "
            "budget scaled to the simulator (4MB ~ the paper's 50GB)",
        ],
    )


# ---------------------------------------------------------------- Table 9

_ABLATION_FAMILIES = ["event", "rpc", "socket", "push"]


def table9_hb_ablation() -> TableResult:
    rows = []
    for bug_id in all_bug_ids():
        result = CACHE.pipeline(bug_id, trigger=False)
        trace = result.trace
        baseline = result.detection
        base_static = set(baseline.static_pairs().keys())
        base_callstack = set(baseline.callstack_pairs().keys())
        row: List[object] = [bug_id]
        for family in _ABLATION_FAMILIES:
            ablated_trace = ablate_trace(trace, {family})
            ablated = detect_races(ablated_trace)
            abl_static = set(ablated.static_pairs().keys())
            abl_callstack = set(ablated.callstack_pairs().keys())
            fn_s = len(base_static - abl_static)
            fp_s = len(abl_static - base_static)
            fn_c = len(base_callstack - abl_callstack)
            fp_c = len(abl_callstack - base_callstack)
            if fn_s == fp_s == fn_c == fp_c == 0:
                row.append("-")
            else:
                row.append(f"-{fn_s}/+{fp_s} (-{fn_c}/+{fp_c})")
        rows.append(row)
    return TableResult(
        table_id="Table 9",
        title="False negatives (-) and false positives (+) of ignoring "
              "certain HB-related operations",
        headers=["BugID", "Event", "RPC", "Socket", "Push"],
        rows=rows,
        notes=["static counts, callstack counts in parentheses; '-' = no change"],
    )


# ---------------------------------------------------------------- Figures

def figure1_mr_hang() -> TableResult:
    """Figure 1/2: trigger the MR-3274 hang and report the scenario."""
    result = CACHE.pipeline("MR-3274", trigger=True)
    rows = []
    for outcome in result.outcomes:
        rep = outcome.report.representative
        rows.append(
            [
                f"#{outcome.report.report_id}",
                rep.variable,
                rep.first.kind.value,
                rep.second.kind.value,
                outcome.verdict.value,
                outcome.detail[:60],
            ]
        )
    notes = []
    for outcome in result.outcomes:
        if outcome.verdict is Verdict.HARMFUL:
            for run in outcome.runs:
                if run.enforced and run.failed:
                    kinds = ",".join(
                        sorted({k.value for k in run.result.failure_kinds()})
                    )
                    notes.append(
                        f"enforced {run.order[0]}->{run.order[1]}: {kinds} "
                        "(the Figure 1 hang: Cancel before GetTask)"
                    )
    return TableResult(
        table_id="Figure 1/2",
        title="The Hadoop MR-3274 DCbug: hang iff Cancel happens before "
              "GetTask",
        headers=["Report", "Variable", "Access1", "Access2", "Verdict",
                 "Detail"],
        rows=rows,
        notes=notes,
    )


def figure3_hb_chain() -> TableResult:
    """Figure 3: the HBase W=>R ordering needs every rule family."""
    result = CACHE.pipeline("HB-4539", trigger=False)
    trace = result.trace
    # W: the split path's regions_in_transition.put; R: the watcher read.
    writes = [
        r
        for r in trace.mem_accesses()
        if r.is_write
        and str(r.obj_id).endswith("regions_in_transition")
        and r.site
        and "split_table" in r.site.func
    ]
    reads = [
        r
        for r in trace.mem_accesses()
        if not r.is_write
        and str(r.obj_id).endswith("regions_in_transition")
        and r.site
        and "on_region_state_change" in r.site.func
    ]
    w, r = writes[0], reads[0]
    rows = []
    full_graph = result.detection.graph
    rows.append(["full model", "ordered" if full_graph.happens_before(w, r) else "CONCURRENT"])
    for family in ("rpc", "push", "event", "thread"):
        ablated = HBGraph(ablate_trace(trace, {family}))
        w2 = next(x for x in ablated.trace.records if x.seq == w.seq)
        r2 = next(x for x in ablated.trace.records if x.seq == r.seq)
        status = "ordered" if ablated.happens_before(w2, r2) else "CONCURRENT"
        rows.append([f"without {family}", status])
    return TableResult(
        table_id="Figure 3",
        title="HBase W => R through thread fork, RPC, event queue and "
              "ZooKeeper push: every hop is load-bearing",
        headers=["Model", "W vs R"],
        rows=rows,
        notes=[f"W: {w.site}", f"R: {r.site}"],
    )


def figure4_mr_structure() -> TableResult:
    """Figure 4: mini-MapReduce's concurrency structure from the trace."""
    result = CACHE.pipeline("MR-3274", trigger=False)
    trace = result.trace
    threads = sorted({r.thread_name for r in trace.records})
    queues = sorted(
        {
            r.extra.get("queue_name")
            for r in trace.records
            if r.kind is OpKind.EVENT_BEGIN
        }
    )
    rpc_methods = sorted(
        {
            r.extra.get("method")
            for r in trace.records
            if r.kind is OpKind.RPC_CREATE
        }
    )
    rows = [
        ["threads", len(threads), ", ".join(threads)[:80]],
        ["event queues", len(queues), ", ".join(q for q in queues if q)],
        ["RPC methods", len(rpc_methods), ", ".join(m for m in rpc_methods if m)],
    ]
    return TableResult(
        table_id="Figure 4",
        title="Concurrency and communication in mini-MapReduce",
        headers=["Kind", "Count", "Names"],
        rows=rows,
    )


ALL_TABLES = {
    "table1": table1_mechanisms,
    "table3": table3_benchmarks,
    "table4": table4_detection,
    "table5": table5_pruning,
    "table6": table6_performance,
    "table7": table7_trace_breakdown,
    "table8": table8_full_tracing,
    "table9": table9_hb_ablation,
    "figure1": figure1_mr_hang,
    "figure3": figure3_hb_chain,
    "figure4": figure4_mr_structure,
}
