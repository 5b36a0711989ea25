"""Command-line interface: ``dcatch``.

Subcommands::

    dcatch list                     # the benchmark inventory (Table 3)
    dcatch run MR-3274              # full pipeline on one benchmark
    dcatch run MR-3274 --no-trigger # detection + pruning only
    dcatch table table4             # regenerate one evaluation table
    dcatch table all                # regenerate everything
    dcatch trace ZK-1144 --out DIR  # save the monitored run's trace as a WAL
    dcatch stream DIR               # ... and stream-detect the saved trace
    dcatch trace ZK-1144 --stats    # per-category trace statistics
    dcatch trace --load DIR --stats # statistics of a saved trace
    dcatch run MR-3274 --trace-dir ./wal  # durable write-ahead tracing
    dcatch salvage ./wal/MR-3274/seed-0   # recover a trace from a WAL
    dcatch profile MR-3274          # per-stage span table + exports
    dcatch profile ZK-1144 --prom metrics.prom  # + Prometheus text
    dcatch generate minimr --preset xl --out ./gen  # million-record WAL
    dcatch stream ./gen/wal --ground-truth ./gen/ground_truth.json
    dcatch run MR-3274 --detect-mode streaming  # bounded-memory detection

Every benchmark is named by its bug id.  Unknown bug ids — and damaged
saved traces — exit with status 2 and a one-line error on stderr
instead of a traceback; Ctrl-C ends any verb with one ``interrupted``
line and status 130.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import (
    ServiceError,
    TraceFormatError,
    UnknownBenchmarkError,
)


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.systems import all_workloads, extra_workloads

    header = f"{'BugID':11s} {'System':17s} {'Workload':44s} {'Symptom':20s} Err Root"
    print(header)
    for workload in all_workloads():
        info = workload.info
        print(
            f"{info.bug_id:11s} {info.system:17s} {info.workload:44s} "
            f"{info.symptom:20s} {info.error_pattern:3s} {info.root_cause}"
        )
    print("-- beyond the paper's benchmarks --")
    for workload in extra_workloads():
        info = workload.info
        print(
            f"{info.bug_id:11s} {info.system:17s} {info.workload:44s} "
            f"{info.symptom:20s} {info.error_pattern:3s} {info.root_cause}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.pipeline import DCatch, PipelineConfig
    from repro.systems import workload_by_id

    workload = workload_by_id(args.bug_id)
    config = PipelineConfig(
        scope="full" if args.full_scope else "selective",
        trigger=not args.no_trigger,
        monitored_seed=args.seed,
        trace_dir=args.trace_dir,
        memory_budget_mb=args.memory_budget_mb,
        detect_mode=args.detect_mode,
    )
    result = DCatch(workload, config).run()
    print(result.summary())
    if result.reports is not None:
        print()
        for report in result.reports:
            print(report.describe())
            print()
    for outcome in result.outcomes:
        print(outcome.describe())
        print()
    if args.save_reports and result.reports is not None:
        from repro.detect import save_reports

        save_reports(result.reports, args.save_reports)
        print(f"reports saved to {args.save_reports}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.bench import ALL_TABLES

    names = list(ALL_TABLES) if "all" in args.names else args.names
    unknown = [n for n in names if n not in ALL_TABLES]
    if unknown:
        print(
            f"error: unknown table(s) {unknown}; "
            f"known: {sorted(ALL_TABLES)} or all",
            file=sys.stderr,
        )
        return 2
    text = "".join(ALL_TABLES[name]().render() + "\n\n" for name in names)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"tables written to {args.out}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Explain the happens-before relation between a variable's accesses."""
    from repro.detect import detect_races
    from repro.hb import ChainExplainer
    from repro.systems import workload_by_id
    from repro.trace import Tracer, selective_scope_for

    workload = workload_by_id(args.bug_id)
    cluster = workload.cluster(args.seed, churn=False)
    tracer = Tracer(scope=selective_scope_for(workload.modules()))
    tracer.bind(cluster)
    cluster.run()
    detection = detect_races(tracer.trace)
    explainer = ChainExplainer(detection.graph)

    accesses = [
        r
        for r in tracer.trace.mem_accesses()
        if args.variable in str(r.obj_id)
    ]
    if not accesses:
        print(f"no accesses match variable substring {args.variable!r}")
        return 1
    shown = 0
    for i, a in enumerate(accesses):
        for b in accesses[i + 1:]:
            if a.segment == b.segment:
                continue
            print(explainer.render(a, b))
            print()
            shown += 1
            if shown >= args.limit:
                return 0
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace import Trace, compute_stats

    if args.load:
        # A saved trace instead of a benchmark run.  Any damage exits 2
        # via the TraceFormatError catch in main(), not a traceback.
        trace = Trace.load(args.load)
        print(f"loaded {len(trace)} records from {args.load}")
        if args.stats:
            print()
            print(compute_stats(trace).render())
        return 0
    if not args.bug_id:
        print("error: a benchmark id (or --load DIR) is required", file=sys.stderr)
        return 2
    from repro.pipeline import DCatch, PipelineConfig
    from repro.systems import workload_by_id

    # The monitored run of ``dcatch run``, and nothing after it.
    config = PipelineConfig(monitored_seed=args.seed)
    result, trace = DCatch(workload_by_id(args.bug_id), config).run_traced()
    print(result.summary())
    if args.stats:
        print()
        print(compute_stats(trace).render())
    if args.out:
        trace.save(args.out)
        print(
            f"saved {len(trace)} records "
            f"({len(trace.per_thread)} thread files) to {args.out}"
        )
    return 0


def _cmd_salvage(args: argparse.Namespace) -> int:
    """Recover a trace from a WAL directory; never dies on damage."""
    import json

    from repro.trace import compute_stats, salvage_trace

    trace, report = salvage_trace(args.wal_dir)
    print(report.render())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"salvage report written to {args.report}")
    if args.out:
        trace.save(args.out)
        print(
            f"salvaged trace saved to {args.out} "
            f"({len(trace)} records, {len(trace.per_thread)} thread files)"
        )
    if args.stats and len(trace):
        print()
        print(compute_stats(trace).render())
    if args.analyze:
        from repro.detect import detect_races

        detection = detect_races(trace)
        print()
        print(
            f"trace analysis: {len(detection.candidates)} dynamic pairs, "
            f"{detection.static_count()} static, "
            f"{detection.callstack_count()} callstack "
            f"(confidence: {detection.confidence})"
        )
    return 0 if len(trace) else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run the pipeline with fresh observability objects installed,
    then print the span table and write the requested exports."""
    from repro import obs
    from repro.obs import (
        profile_to_json,
        render_prometheus,
        render_span_table,
        write_chrome_trace,
        write_json,
    )
    from repro.pipeline import DCatch, PipelineConfig
    from repro.systems import workload_by_id

    workload = workload_by_id(args.bug_id)
    registry = obs.MetricsRegistry(name=workload.info.bug_id)
    tracer = obs.SpanTracer(name=workload.info.bug_id)
    config = PipelineConfig(
        trigger=not args.no_trigger,
        monitored_seed=args.seed,
    )
    with obs.use_registry(registry), obs.use_tracer(tracer):
        result = DCatch(workload, config).run()
    print(result.summary())
    print()
    print(render_span_table(tracer))
    if args.out:
        write_json(args.out, profile_to_json(tracer, registry))
        print(f"profile written to {args.out}")
    if args.chrome:
        write_chrome_trace(args.chrome, tracer)
        print(f"chrome trace written to {args.chrome} (load in chrome://tracing)")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(render_prometheus(registry))
        print(f"metrics written to {args.prom}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workload import generate_workload

    generated = generate_workload(
        args.system,
        args.preset,
        args.seed,
        args.out,
        segment_records=args.segment_records,
    )
    spec = generated.spec
    print(
        f"generated {generated.system} preset={generated.preset} "
        f"seed={generated.seed}"
    )
    print(
        f"  scenario: {spec.workers} workers x {spec.phases} phases "
        f"(chain={spec.chain_len}, racers={spec.racers})"
    )
    print(
        f"  records:  {generated.records} "
        f"({generated.hb_records} HB, {generated.mem_records} memory) "
        f"across {generated.streams} streams"
    )
    print(f"  planted:  {len(generated.planted_races)} races")
    print(f"  wal:      {generated.wal_dir}")
    print(f"  truth:    {generated.ground_truth_path}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.detect.streaming import detect_races_streaming
    from repro.trace import build_sampler

    result = detect_races_streaming(
        wal_dir=args.wal_dir,
        window=args.window,
        sampler=build_sampler(args.sampling, args.sampling_seed),
    )
    print(
        f"streamed {result.records_consumed} records in "
        f"{result.analysis_seconds:.2f}s "
        f"({result.records_per_second:,.0f} records/s)"
    )
    print(
        f"  candidates: {len(result.firsts)} "
        f"(pairs examined: {result.pairs_examined})"
    )
    print(
        f"  memory:     {result.evictions} evictions, "
        f"{result.compactions} compactions, "
        f"active high-water {result.active_high_water}, "
        f"RSS high-water {result.rss_high_water_mb:.0f} MB"
    )
    print(f"  confidence: {result.confidence}")
    if result.damage:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(result.damage.items()))
        print(f"  damage:     {parts}")
    if result.sampled_dropped:
        parts = ", ".join(
            f"{k}={v}" for k, v in sorted(result.sampled_dropped.items())
        )
        print(f"  sampled out: {parts}")
    if args.report_out:
        from repro.service.report import (
            render_report,
            report_from_stream_result,
        )

        doc = report_from_stream_result(args.report_tenant, result)
        with open(args.report_out, "wb") as fh:
            fh.write(render_report(doc))
        print(f"  canonical report written to {args.report_out}")

    if args.ground_truth is None:
        return 0

    from repro.workload import load_ground_truth

    truth = load_ground_truth(args.ground_truth)
    planted = {
        frozenset((race["first_seq"], race["second_seq"]))
        for race in truth["planted_races"]
    }
    found = {frozenset(pair) for pair in result.candidate_seq_pairs()}
    missed = planted - found
    extra = found - planted
    recall = 100.0 if not planted else 100.0 * (1 - len(missed) / len(planted))
    print(
        f"  ground truth: {len(planted) - len(missed)}/{len(planted)} "
        f"planted races found ({recall:.1f}% recall), "
        f"{len(extra)} unplanted candidates"
    )
    if missed:
        sample = sorted(tuple(sorted(pair)) for pair in missed)[:5]
        print(f"  missed: {sample}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service.server import DetectionServer, FleetBudget

    limits = FleetBudget(
        max_tenants=args.max_tenants,
        memory_budget_mb=args.memory_budget_mb,
        queue_segments=args.queue_segments,
    )
    server = DetectionServer(
        args.data_dir,
        host=args.host,
        port=args.port,
        limits=limits,
        window=args.window,
        http_port=None if args.no_http else args.http_port,
    ).start()
    print(
        f"detection service on {server.host}:{server.port} "
        f"(data: {server.data_dir})",
        flush=True,
    )
    if server.http is not None:
        print(
            f"probes on http://{server.host}:{server.http.port}"
            "/healthz /readyz /metrics",
            flush=True,
        )

    stop = threading.Event()

    def _graceful(signum: int, frame: object) -> None:
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _graceful)
    while not stop.is_set() and not server.stopping:
        stop.wait(0.2)
    print("shutting down", flush=True)
    server.stop()
    return 0


def _cmd_ship(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient
    from repro.service.report import render_report
    from repro.service.server import load_service_file

    host, port = args.host, args.port
    if args.data_dir is not None:
        doc = load_service_file(args.data_dir)
        host, port = str(doc["host"]), int(doc["port"])
    if port is None:
        print("error: need --port or --data-dir", file=sys.stderr)
        return 2
    with ServiceClient(
        host,
        port,
        args.tenant,
        retry_deadline_s=args.retry_deadline,
    ) as client:
        result = client.ship_wal_dir(args.wal_dir)
        print(
            f"shipped {result.segments_shipped} segments "
            f"({result.records_shipped} records, "
            f"{result.bytes_shipped} bytes) in {result.elapsed_s:.2f}s"
        )
        print(
            f"  ingest latency: p50 {result.latency_quantile(0.5) * 1000:.1f}ms "
            f"p99 {result.latency_quantile(0.99) * 1000:.1f}ms"
        )
        if result.backpressure_waits:
            print(
                f"  held back: {result.backpressure_waits} queue-credit waits"
            )
        if result.reconnects:
            print(f"  reconnects: {result.reconnects}")
        if args.no_wait:
            return 0
        report = client.wait_report(args.report_timeout)
        print(
            f"  report: {report['candidate_count']} candidates over "
            f"{report['records']} records, confidence {report['confidence']}"
        )
        if args.report_out:
            with open(args.report_out, "wb") as fh:
                fh.write(render_report(report))
            print(f"  canonical report written to {args.report_out}")
    return 0



def build_parser() -> argparse.ArgumentParser:
    from repro.pipeline import DCatch

    parser = argparse.ArgumentParser(
        prog="dcatch",
        description="DCatch reproduction: distributed concurrency bug "
        "detection on simulated cloud systems (ASPLOS'17)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark workloads").set_defaults(
        fn=_cmd_list
    )

    run = sub.add_parser("run", help="run the DCatch pipeline on a benchmark")
    run.add_argument("bug_id", help="benchmark id, e.g. MR-3274")
    run.add_argument("--seed", type=int, default=None, help="monitored-run seed")
    run.add_argument(
        "--no-trigger", action="store_true", help="skip the triggering stage"
    )
    run.add_argument(
        "--full-scope",
        action="store_true",
        help="unselective memory tracing (the Table 8 alternative)",
    )
    run.add_argument(
        "--save-reports",
        metavar="PATH",
        default=None,
        help="write the final bug reports as JSON",
    )
    run.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        dest="trace_dir",
        help="also write the monitored run's trace to a crash-tolerant "
        "write-ahead log under DIR (salvage it with 'salvage')",
    )
    run.add_argument(
        "--memory-budget-mb",
        type=int,
        default=None,
        metavar="MB",
        dest="memory_budget_mb",
        help="the run's memory budget: in batch mode each closure's byte "
        "budget (an HB closure that does not fit is reported as OUT OF "
        "MEMORY, an SP one skips the sound tier; default 512 MB); "
        "streaming mode has no closure and ignores it",
    )
    run.add_argument(
        "--detect-mode",
        choices=DCatch.DETECT_MODES,
        default="batch",
        dest="detect_mode",
        help="batch = whole-trace HB graph + closure (the paper), plus "
        "the sound SP tier (candidates with a sync-preserving witness "
        "are marked sp-sound and triggered first); streaming = "
        "single-pass bounded-memory detection",
    )
    run.set_defaults(fn=_cmd_run)

    table = sub.add_parser(
        "table", help="regenerate evaluation tables and figures"
    )
    table.add_argument(
        "names", nargs="+", metavar="name",
        help="table1|table3|...|figure1|...|all",
    )
    table.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the tables to FILE instead of stdout",
    )
    table.set_defaults(fn=_cmd_table)

    explain = sub.add_parser(
        "explain",
        help="show happens-before chains between a variable's accesses",
    )
    explain.add_argument("bug_id")
    explain.add_argument("--variable", required=True, help="substring match")
    explain.add_argument("--seed", type=int, default=None)
    explain.add_argument("--limit", type=int, default=6)
    explain.set_defaults(fn=_cmd_explain)

    trace = sub.add_parser("trace", help="save a monitored run's trace")
    trace.add_argument("bug_id", nargs="?", default=None)
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument(
        "--out", metavar="DIR", help="save the trace as a WAL ('stream DIR' reads it)"
    )
    trace.add_argument(
        "--stats",
        action="store_true",
        help="print per-category record counts and byte sizes",
    )
    trace.add_argument(
        "--load",
        metavar="DIR",
        default=None,
        help="load a saved trace instead of running a benchmark (strict)",
    )
    trace.set_defaults(fn=_cmd_trace)

    salvage = sub.add_parser(
        "salvage",
        help="recover a trace from a (possibly damaged) write-ahead log",
    )
    salvage.add_argument("wal_dir", help="WAL directory (run --trace-dir output)")
    salvage.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the structured SalvageReport as JSON",
    )
    salvage.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="save the recovered trace as a clean, sealed WAL directory",
    )
    salvage.add_argument(
        "--stats",
        action="store_true",
        help="print per-category statistics of the recovered trace",
    )
    salvage.add_argument(
        "--analyze",
        action="store_true",
        help="run HB analysis on the recovered trace (reports confidence)",
    )
    salvage.set_defaults(fn=_cmd_salvage)

    profile = sub.add_parser(
        "profile",
        help="run the pipeline with spans enabled and print the stage table",
    )
    profile.add_argument("bug_id", help="benchmark id, e.g. MR-3274")
    profile.add_argument("--seed", type=int, default=None)
    profile.add_argument(
        "--no-trigger", action="store_true", help="skip the triggering stage"
    )
    profile.add_argument(
        "--out", default=None, metavar="PATH", help="write the profile as JSON"
    )
    profile.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="write a chrome://tracing trace-event file",
    )
    profile.add_argument(
        "--prom",
        default=None,
        metavar="PATH",
        help="write the metrics registry as Prometheus text exposition",
    )
    profile.set_defaults(fn=_cmd_profile)

    generate = sub.add_parser(
        "generate",
        help="synthesize a large deterministic workload trace (WAL form)",
    )
    generate.add_argument(
        "system",
        choices=("minizk", "minica", "minimr", "minihb"),
        help="which mini system's vocabulary to generate with",
    )
    generate.add_argument(
        "--preset",
        choices=("small", "medium", "xl"),
        default="small",
        help="scenario size (small ~500 records, medium ~200k, xl >1M)",
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="output directory (WAL segments under DIR/wal, "
        "ground truth at DIR/ground_truth.json)",
    )
    generate.add_argument(
        "--segment-records",
        type=int,
        default=None,
        metavar="N",
        dest="segment_records",
        help="records per WAL segment (default: preset's)",
    )
    generate.set_defaults(fn=_cmd_generate)

    stream = sub.add_parser(
        "stream",
        help="single-pass streaming detection over a WAL directory",
    )
    stream.add_argument(
        "wal_dir", help="WAL trace directory (e.g. from 'generate', 'trace --out')"
    )
    stream.add_argument(
        "--ground-truth",
        default=None,
        metavar="PATH",
        dest="ground_truth",
        help="generator manifest to score against; exit 1 if any "
        "planted race is missed",
    )
    stream.add_argument(
        "--window",
        type=int,
        default=8192,
        metavar="RECORDS",
        help="records between HB-frontier compaction passes",
    )
    stream.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        dest="report_out",
        help="write the canonical (byte-stable) detection report here — "
        "comparable byte-for-byte against the detection service's "
        "per-tenant report",
    )
    stream.add_argument(
        "--report-tenant",
        default="offline",
        metavar="NAME",
        dest="report_tenant",
        help="tenant name stamped into --report-out (match the service "
        "tenant to diff reports)",
    )

    def sampling_spec(text: str) -> str:
        from repro.trace import build_sampler

        try:
            build_sampler(text)
        except ValueError as exc:
            # Not parser.error(): one line, like every other exit 2.
            stream.exit(2, f"error: {exc}\n")
        return text

    stream.add_argument(
        "--sampling",
        metavar="RATE|SPEC",
        type=sampling_spec,
        default=None,
        help="sample the memory accesses this pass reads: a rate (0.1 = "
        "per-location budget of 8 plus 10%% hash-rate keep) or a spec "
        "(all, rate:R, budget:N, budget:N+rate:R).  HB/lock records are "
        "always kept; results carry confidence=sampled",
    )
    stream.add_argument(
        "--sampling-seed",
        type=int,
        default=0,
        metavar="N",
        dest="sampling_seed",
        help="seed for the sampling policy's deterministic hashing "
        "(same policy+seed = same kept records)",
    )
    stream.set_defaults(fn=_cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="run the always-on multi-tenant detection service",
    )
    serve.add_argument(
        "data_dir",
        help="service data directory (spools, reports; "
        "recovered on restart)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral; see <data_dir>/service.json)",
    )
    serve.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="RECORDS",
        help="per-tenant streaming-detector compaction window",
    )
    serve.add_argument(
        "--max-tenants",
        type=int,
        default=16,
        dest="max_tenants",
        metavar="N",
        help="admission control: refuse new tenants beyond this count",
    )
    serve.add_argument(
        "--memory-budget-mb",
        type=int,
        default=None,
        dest="memory_budget_mb",
        metavar="MB",
        help="fleet RSS budget: new tenants are refused (and /readyz "
        "answers 503) above 92%%",
    )
    serve.add_argument(
        "--queue-segments",
        type=int,
        default=64,
        dest="queue_segments",
        metavar="N",
        help="per-tenant ingest queue depth (credit-based backpressure)",
    )
    serve.add_argument(
        "--http-port",
        type=int,
        default=0,
        dest="http_port",
        metavar="PORT",
        help="probe/metrics HTTP port (0 = ephemeral)",
    )
    serve.add_argument(
        "--no-http",
        action="store_true",
        dest="no_http",
        help="disable the /healthz /readyz /metrics endpoint",
    )
    # Accepted and ignored: the server has no overload ladder to poll,
    # but benchmarks/perf/passes.py SERVE_FLAGS still passes it.  It goes
    # when ROADMAP item 2 rewrites SERVE_FLAGS.
    serve.add_argument(
        "--overload-poll-s", type=float, default=None, help=argparse.SUPPRESS
    )
    serve.set_defaults(fn=_cmd_serve)

    ship = sub.add_parser(
        "ship",
        help="ship a WAL directory to the detection service as one tenant",
    )
    ship.add_argument("wal_dir", help="WAL trace directory to ship")
    ship.add_argument(
        "--tenant", required=True, help="tenant id for this stream"
    )
    ship.add_argument(
        "--data-dir",
        default=None,
        dest="data_dir",
        metavar="DIR",
        help="service data directory (reads service.json for host/port)",
    )
    ship.add_argument("--host", default="127.0.0.1")
    ship.add_argument("--port", type=int, default=None)
    ship.add_argument(
        "--no-wait",
        action="store_true",
        dest="no_wait",
        help="return after finalize instead of waiting for the report",
    )
    ship.add_argument(
        "--report-out",
        default=None,
        dest="report_out",
        metavar="PATH",
        help="write the tenant's canonical report bytes here",
    )
    ship.add_argument(
        "--report-timeout",
        type=float,
        default=300.0,
        dest="report_timeout",
        metavar="SECONDS",
        help="how long to wait for detection to finish",
    )
    ship.add_argument(
        "--retry-deadline",
        type=float,
        default=120.0,
        dest="retry_deadline",
        metavar="SECONDS",
        help="give up on transient refusals/reconnects after this long",
    )
    ship.set_defaults(fn=_cmd_ship)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UnknownBenchmarkError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ConnectionError as exc:
        print(f"error: service unreachable: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
