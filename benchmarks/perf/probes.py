"""Per-layer probes and the span log of the traced run.

Every layer is timed from outside, around calls into its public
functions, on the workload's own input.  The probes a workload's entry
point actually goes through (its *path*) run back to back under one
root span named ``pass`` — that is the traced pass, a decomposed
re-execution of the workload's job.  The remaining probes run once, off
the path, so that every per-layer metric has a value on every workload.

Span = ``{name, start_s, end_s, parent, workload, pass, isolated}``.  A
layer's self time is its span minus its child spans.  ``isolated``
marks a child that had to be measured on its own (``json.loads`` runs
inside the merge iterator and cannot be timed in place): its interval
lies outside its parent's, its duration is still subtracted.

Each probe runs in its own try/except: one that cannot import or raises
reports ``null`` for its metrics plus the error, and leaves the others
alone, so a refactor of one internal function cannot brick the ledger.
"""

from __future__ import annotations

import gc
import os
import shutil
import socket
import statistics
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from passes import check_pairs, service_pass
from workloads import SAMPLING_SPEC, oracle_report, pair_digest

MB = 1024.0 * 1024.0

#: Records between harness-driven compactions in the feed/observe probes
#: (the window of the untraced entry point; the cadence does not change
#: the candidate set).
COMPACT_EVERY = 8192


def duration(spans: List[Dict[str, object]], name: str) -> float:
    return sum(s["end_s"] - s["start_s"] for s in spans if s["name"] == name)


def self_time(spans: List[Dict[str, object]], name: str) -> float:
    """A layer's span minus the part its child spans cover."""
    children = sum(s["end_s"] - s["start_s"] for s in spans if s["parent"] == name)
    return duration(spans, name) - children


def descendants(spans: List[Dict[str, object]], root: str) -> List[str]:
    """Names of the spans below ``root`` (each once)."""
    names: List[str] = []
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        for s in spans:
            if s["parent"] == parent and s["name"] not in names:
                names.append(s["name"])
                frontier.append(s["name"])
    return names


class SpanLog:
    """Spans kept in memory until the run ends.  ``index`` is the traced
    pass the spans belong to (None: measured once, off the path)."""

    def __init__(self, workload: str, origin: float, index: Optional[int]) -> None:
        self.workload = workload
        self.origin = origin
        self.index = index
        self.spans: List[Dict[str, object]] = []

    def add(self, name: str, start: float, end: float, parent: Optional[str],
            isolated: bool = False) -> None:
        self.spans.append(
            {
                "name": name,
                "start_s": start - self.origin,
                "end_s": end - self.origin,
                "parent": parent,
                "workload": self.workload,
                "pass": self.index,
                "isolated": isolated,
            }
        )

    @contextmanager
    def span(self, name: str, parent: Optional[str], isolated: bool = False) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent, isolated)

    def duration(self, name: str) -> float:
        return duration(self.spans, name)


class Context:
    """What the probes share: the job, the span log, intermediate data
    one probe leaves for the next, and the correctness tally."""

    def __init__(self, job: Dict[str, object], scratch: str, log: SpanLog) -> None:
        self.job = job
        self.entry = job["inputs"][0]
        self.scratch = scratch
        self.log = log
        self.data: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    def need(self, key: str):
        if key not in self.data:
            raise RuntimeError(f"{key} unavailable (an earlier probe failed)")
        return self.data[key]

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def segments(self) -> List[bytes]:
        """Every segment file of the first input, in memory."""
        if "segments" not in self.data:
            from repro.trace.wal import list_stream_segments

            blobs = []
            for paths in list_stream_segments(self.entry["wal_dir"]).values():
                for path in paths:
                    with open(path, "rb") as fh:
                        blobs.append(fh.read())
            self.data["segments"] = blobs
        return self.data["segments"]

    def tids(self) -> List[int]:
        if "tids" not in self.data:
            from repro.detect.streaming import wal_stream_tids

            self.data["tids"] = wal_stream_tids(self.entry["wal_dir"])
        return self.data["tids"]


Probe = Callable[[Context, Optional[str], bool], Dict[str, Optional[float]]]


# -- trace.wal / trace.records -----------------------------------------------


def probe_verify(ctx: Context, parent, isolated):
    from repro.trace.wal import verify_segment_bytes

    blobs = ctx.segments()
    with ctx.log.span("trace.wal.verify", parent, isolated):
        verdicts = [verify_segment_bytes(blob) for blob in blobs]
    ctx.check(all(sealed and damage is None for _n, sealed, damage in verdicts))
    total = sum(len(blob) for blob in blobs)
    return {"trace.wal.verify_mb_per_s": total / MB / ctx.log.duration("trace.wal.verify")}


def probe_decode(ctx: Context, parent, isolated):
    """``json.loads`` and ``record_from_dict`` per record, a segment at
    a time with nothing kept — like the readers, which stream.  (Holding
    every decoded dict at once makes the collector's work grow with the
    trace and the probe slower than the code it stands for.)"""
    from repro.trace.records import record_from_dict
    from repro.trace.wal import iter_segment_records

    records = 0
    json_s = from_dict_s = 0.0
    start = time.perf_counter()
    for blob in ctx.segments():
        t0 = time.perf_counter()
        raw = list(iter_segment_records(blob))
        t1 = time.perf_counter()
        for doc in raw:
            record_from_dict(doc)
        from_dict_s += time.perf_counter() - t1
        json_s += t1 - t0
        records += len(raw)
    ctx.log.add("trace.wal.json_decode", start, start + json_s, parent, isolated)
    ctx.log.add(
        "trace.records.from_dict", start + json_s, start + json_s + from_dict_s,
        parent, isolated,
    )
    ctx.check(records == ctx.entry["records"])
    return {
        "trace.wal.json_decode_records_per_s": records / json_s,
        "trace.records.from_dict_records_per_s": records / from_dict_s,
    }


def probe_to_dict(ctx: Context, parent, isolated):
    from repro.trace.records import record_to_dict

    events = ctx.need("events")
    with ctx.log.span("trace.records.to_dict", parent, isolated):
        for event in events:
            record_to_dict(event)  # nothing kept, as in probe_decode
    return {
        "trace.records.to_dict_records_per_s": len(events)
        / ctx.log.duration("trace.records.to_dict")
    }


def probe_encode(ctx: Context, parent, isolated):
    from repro.trace.wal import WalSink

    events = ctx.need("events")
    out = tempfile.mkdtemp(prefix="encode-probe-", dir=ctx.scratch)
    with ctx.log.span("trace.wal.encode", parent, isolated):
        sink = WalSink(out, segment_records=ctx.entry["segment_records"])
        for event in events:
            sink.append(event)
        sink.close()
    written = sink.bytes_written
    return {
        "trace.wal.encode_records_per_s": len(events)
        / ctx.log.duration("trace.wal.encode"),
        "trace.wal.bytes_per_record": written / len(events),
    }


# -- detect.streaming / hb.incremental / trace.sampling ------------------------


def probe_read_merge(ctx: Context, parent, isolated):
    from repro.detect.streaming import iter_wal_records

    with ctx.log.span("detect.streaming.read_merge", parent, isolated):
        events = list(iter_wal_records(ctx.entry["wal_dir"]))
    ctx.data["events"] = events
    ctx.check(len(events) == ctx.entry["records"])
    return {
        "detect.streaming.read_merge_records_per_s": len(events)
        / ctx.log.duration("detect.streaming.read_merge")
    }


def probe_sampling(ctx: Context, parent, isolated):
    from repro.trace.sampling import build_sampler

    events = ctx.need("events")
    sampler = build_sampler(SAMPLING_SPEC, ctx.job["seed"])
    with ctx.log.span("trace.sampling.observe", parent, isolated):
        kept = [event for event in events if sampler.observe(event)[0]]
    ctx.data["kept"] = kept
    return {
        "trace.sampling.observe_records_per_s": len(events)
        / ctx.log.duration("trace.sampling.observe"),
        "trace.sampling.kept_fraction": len(kept) / len(events),
    }


def _fed_events(ctx: Context):
    """What reaches the detector: the sampler's output on the sampled
    workload, every record elsewhere."""
    return ctx.need("kept") if ctx.job["sampled"] else ctx.need("events")


def probe_observe(ctx: Context, parent, isolated):
    """``StreamingHBState.observe`` alone.  Between chunks (untimed) the
    clocks are pruned at the frontier of the segments that have touched
    memory, as the detector's compaction would, so the clocks observed
    are as wide as they are in the real pass."""
    from repro.hb.incremental import StreamingHBState

    events = _fed_events(ctx)
    state = StreamingHBState(expected_streams=ctx.tids())
    observe = state.observe
    mem_segments = set()
    busy = 0.0
    start = time.perf_counter()
    for offset in range(0, len(events), COMPACT_EVERY):
        chunk = events[offset:offset + COMPACT_EVERY]
        t0 = time.perf_counter()
        for event in chunk:
            observe(event)
        busy += time.perf_counter() - t0
        mem_segments.update(e.segment for e in chunk if e.is_mem)
        state.prune(state.frontier(mem_segments))
    # One span of the busy time (the untimed pruning is harness work).
    ctx.log.add("hb.incremental.observe", start, start + busy, parent, isolated)
    return {"hb.incremental.observe_records_per_s": len(events) / busy}


def probe_feed(ctx: Context, parent, isolated):
    """The detector stage: ``feed`` over pre-decoded events with the
    harness calling ``compact()`` every COMPACT_EVERY records, one
    checkpoint save at the half-way record, then ``finish()``."""
    from repro.detect.streaming import (
        StreamingDetector,
        save_stream_checkpoint,
        stream_fingerprint,
    )
    from repro.hb.model import FULL_MODEL

    events = _fed_events(ctx)
    tids = ctx.tids()
    detector = StreamingDetector(window=10**12, expected_streams=tids)
    feed = detector.feed
    name = "detect.streaming.feed"
    ckpt_path = os.path.join(ctx.scratch, "probe-stream.ckpt")  # overwritten each repeat
    halfway = (len(events) // 2 // COMPACT_EVERY) * COMPACT_EVERY
    clock_high = pending_high = 0
    excluded = 0.0  # checkpoint + stats sampling: not the detector's work
    start = time.perf_counter()
    for offset in range(0, len(events), COMPACT_EVERY):
        if offset == halfway:
            t0 = time.perf_counter()
            save_stream_checkpoint(
                ckpt_path, detector,
                stream_fingerprint(FULL_MODEL, COMPACT_EVERY, "probe"),
            )
            t1 = time.perf_counter()
            ctx.log.add("detect.streaming.checkpoint_save", t0, t1, None)
            excluded += t1 - t0
        for event in events[offset:offset + COMPACT_EVERY]:
            feed(event)
        with ctx.log.span("detect.streaming.compact", name):
            detector.compact()
        t0 = time.perf_counter()
        stats = detector.state.stats()
        clock_high = max(clock_high, stats["clock_entries"])
        pending_high = max(pending_high, stats["pending_snapshots"])
        excluded += time.perf_counter() - t0
    for tid in tids:
        detector.close_stream(tid)
    detector.finish()
    end = time.perf_counter()
    ctx.log.add(name, start, end - excluded, parent, isolated)
    checkpoint_bytes = os.path.getsize(ckpt_path)

    pairs = [(c.first.seq, c.second.seq) for c in detector.candidates]
    ctx.check(pair_digest(pairs) == ctx.entry["digest"])
    feed_s = ctx.log.duration(name)
    return {
        "detect.streaming.feed_records_per_s": len(events) / feed_s,
        "detect.streaming.compact_s": ctx.log.duration("detect.streaming.compact"),
        "detect.streaming.compactions": detector.compactions,
        "detect.streaming.evictions": detector.evictions,
        "detect.streaming.active_high_water": detector.active_high_water,
        "detect.streaming.pairs_examined": detector.pairs_examined,
        "detect.streaming.candidates_per_pair": (
            len(pairs) / detector.pairs_examined if detector.pairs_examined else 0.0
        ),
        "detect.streaming.checkpoint_save_s": ctx.log.duration(
            "detect.streaming.checkpoint_save"
        ),
        "detect.streaming.checkpoint_bytes": checkpoint_bytes,
        "hb.incremental.clock_entries_high_water": clock_high,
        "hb.incremental.pending_snapshots_high_water": pending_high,
    }


# -- trace.salvage / hb.graph / hb.reach / detect.races ------------------------


def probe_salvage(ctx: Context, parent, isolated):
    from repro.trace.salvage import salvage_trace

    with ctx.log.span("trace.salvage.load", parent, isolated):
        trace, report = salvage_trace(ctx.entry["wal_dir"])
    ctx.data["trace"] = trace
    ctx.check(not report.damaged and len(trace.records) == ctx.entry["records"])
    return {
        "trace.salvage.load_records_per_s": len(trace.records)
        / ctx.log.duration("trace.salvage.load")
    }


def probe_graph(ctx: Context, parent, isolated):
    from repro.hb.graph import HBGraph

    trace = ctx.need("trace")
    with ctx.log.span("hb.graph.build", parent, isolated):
        ctx.data["graph"] = HBGraph(trace)  # rules only; reachability is lazy
    return {"hb.graph.build_s": ctx.log.duration("hb.graph.build")}


def probe_reach(ctx: Context, parent, isolated):
    graph = ctx.need("graph")
    with ctx.log.span("hb.reach.build", parent, isolated):
        stats = graph.reach_stats()  # first call forces the closure
    return {
        "hb.reach.build_s": ctx.log.duration("hb.reach.build"),
        "hb.reach.matrix_mb": stats["bytes"] / MB,
    }


def probe_enumerate(ctx: Context, parent, isolated):
    from repro.detect.races import detect_races

    trace, graph = ctx.need("trace"), ctx.need("graph")
    with ctx.log.span("detect.races.enumerate", parent, isolated):
        result = detect_races(trace, graph=graph)
    pairs = [(c.first.seq, c.second.seq) for c in result.candidates]
    ctx.check(check_pairs(ctx.entry, pairs, result.confidence, False))
    del ctx.data["trace"], ctx.data["graph"]  # the closure is tens of MB
    return {"detect.races.enumerate_s": ctx.log.duration("detect.races.enumerate")}


# -- service -----------------------------------------------------------------


def probe_frame(ctx: Context, parent, isolated):
    """Every segment body through ``send_frame``/``recv_frame`` over a
    socket pair (sender on a thread: the pair's buffer is finite)."""
    from repro.service import protocol

    blobs = ctx.segments()
    left, right = socket.socketpair()
    errors: List[BaseException] = []

    def send() -> None:
        try:
            with left.makefile("wb") as wfile:
                for index, blob in enumerate(blobs):
                    protocol.send_frame(
                        wfile, {"verb": "segment", "index": index}, blob
                    )
        except BaseException as exc:  # surfaced by the receiver below
            errors.append(exc)
        finally:
            left.close()

    sender = threading.Thread(target=send, name="frame-probe-sender")
    received = 0
    try:
        with right.makefile("rb") as rfile:
            with ctx.log.span("service.protocol.frame", parent, isolated):
                sender.start()
                while True:
                    frame = protocol.recv_frame(rfile)
                    if frame is None:
                        break
                    received += len(frame[1])
    finally:
        sender.join(timeout=60)
        right.close()
    if errors:
        raise errors[0]
    ctx.check(received == sum(len(blob) for blob in blobs))
    return {
        "service.protocol.frame_mb_per_s": received / MB
        / ctx.log.duration("service.protocol.frame")
    }


def probe_oracles(ctx: Context, parent, isolated):
    """Offline streaming over each input: the report the service must
    reproduce, and the offline rate ``service.vs_offline_ratio`` is
    relative to.  Reports no metric of its own."""
    oracles, offline_s = [], 0.0
    for entry in ctx.job["inputs"]:
        report, elapsed = oracle_report(entry["tenant"], entry["wal_dir"])
        oracles.append(report)
        offline_s += elapsed
    ctx.data["oracles"] = oracles
    ctx.data["offline_s"] = offline_s
    return {}


def probe_pump(ctx: Context, parent, isolated):
    """``Tenant`` with a pre-filled spool and no sockets or threads:
    merge + detector + report, i.e. the service minus its transport."""
    from repro.service.report import render_report
    from repro.service.tenants import Tenant, stream_key_str
    from repro.trace.wal import list_stream_segments

    oracle = ctx.need("oracles")[0]
    tenant_id = ctx.entry["tenant"]
    root = tempfile.mkdtemp(prefix="pump-probe-", dir=ctx.scratch)
    segments = list_stream_segments(ctx.entry["wal_dir"])
    totals = {stream_key_str(key): len(paths) for key, paths in segments.items()}
    tenant = Tenant(tenant_id, root, window=ctx.job["window"])
    tenant.declare_streams(sorted(segments))
    tenant.declare_totals(totals)
    tenant.save_state()
    shutil.copytree(ctx.entry["wal_dir"], tenant.spool_dir)
    tenant = Tenant.recover(tenant_id, root)
    error = tenant.finalize(totals)
    if error:
        raise RuntimeError(error)
    with ctx.log.span("service.tenants.pump", parent, isolated):
        while not tenant.drained:
            before = tenant.consumed_raw
            # Returns None, not the count, when it stops on `limit`.
            tenant.pump(limit=4096)
            if tenant.consumed_raw == before and not tenant.drained:
                raise RuntimeError("pump starved on a complete spool")
        doc = tenant.write_report()
    consumed = tenant.consumed_raw
    ctx.check(render_report(doc) == oracle)
    return {
        "service.tenants.pump_records_per_s": consumed
        / ctx.log.duration("service.tenants.pump")
    }


def probe_service(ctx: Context, parent, isolated):
    """One pass through the real server subprocess, with spans."""
    inputs = ctx.job["inputs"]
    # The pass span is first hello -> last report, exactly; on the path
    # it *is* the traced pass, so it takes the root's name.
    root = parent or "service.pass"
    result = service_pass(
        inputs, ctx.need("oracles"),
        tempfile.mkdtemp(prefix="service-probe-", dir=ctx.scratch), ctx.job["window"],
    )
    ctx.attempted += result["attempted"]
    ctx.failed += result["failed"]
    started = result["started"]
    ctx.log.add(root, started, started + result["wall_s"], None)
    shipped = [t for t in result["tenants"] if "error" not in t]
    if not shipped:
        raise RuntimeError(f"no tenant shipped: {result['tenants']}")
    for tenant in shipped:
        ctx.log.add("service.client.ship", tenant["ship_start"], tenant["ship_end"], root)
        ctx.log.add("service.drain", tenant["ship_end"], tenant["report_at"], root)
    latencies_ms = sorted(s * 1000 for s in result["ingest_latencies_s"])
    records = sum(entry["records"] for entry in inputs)
    return {
        "service.client.ship_s": statistics.fmean(t["ship_s"] for t in shipped),
        "service.ingest_p50_ms": statistics.median(latencies_ms),
        "service.ingest_mean_ms": statistics.fmean(latencies_ms),
        "service.ingest_p95_ms": latencies_ms[int(0.95 * (len(latencies_ms) - 1))],
        "service.ingest_max_ms": latencies_ms[-1],
        "service.drain_lag_s": statistics.fmean(
            t["report_at"] - t["ship_end"] for t in shipped
        ),
        "service.backpressure_waits": sum(t["backpressure_waits"] for t in shipped),
        "service.segments_shipped": sum(t["segments_shipped"] for t in shipped),
        "service.vs_offline_ratio": (records / result["wall_s"])
        / (records / ctx.need("offline_s")),
    }


# -- the traced run ------------------------------------------------------------

#: (probe, metrics it reports, layer its span is an isolated child of
#: when it runs off the path).  Order satisfies the data each needs, and
#: puts the isolated children next to the layers they are subtracted
#: from, before later probes grow the heap the collector walks.
PROBES: List[Tuple[Probe, Tuple[str, ...], Optional[str]]] = [
    (probe_read_merge, ("detect.streaming.read_merge_records_per_s",), None),
    (probe_sampling,
     ("trace.sampling.observe_records_per_s", "trace.sampling.kept_fraction"), None),
    (probe_feed,
     ("detect.streaming.feed_records_per_s", "detect.streaming.compact_s",
      "detect.streaming.compactions", "detect.streaming.evictions",
      "detect.streaming.active_high_water", "detect.streaming.pairs_examined",
      "detect.streaming.candidates_per_pair", "detect.streaming.checkpoint_save_s",
      "detect.streaming.checkpoint_bytes", "hb.incremental.clock_entries_high_water",
      "hb.incremental.pending_snapshots_high_water"), None),
    (probe_decode,
     ("trace.wal.json_decode_records_per_s", "trace.records.from_dict_records_per_s"),
     "detect.streaming.read_merge"),
    (probe_observe, ("hb.incremental.observe_records_per_s",), "detect.streaming.feed"),
    (probe_salvage, ("trace.salvage.load_records_per_s",), None),
    (probe_graph, ("hb.graph.build_s",), None),
    (probe_reach, ("hb.reach.build_s", "hb.reach.matrix_mb"), None),
    (probe_enumerate, ("detect.races.enumerate_s",), None),
    (probe_service,
     ("service.client.ship_s", "service.ingest_p50_ms", "service.ingest_mean_ms",
      "service.ingest_p95_ms", "service.ingest_max_ms", "service.drain_lag_s",
      "service.backpressure_waits", "service.segments_shipped",
      "service.vs_offline_ratio"), None),
    (probe_verify, ("trace.wal.verify_mb_per_s",), None),
    (probe_to_dict, ("trace.records.to_dict_records_per_s",), None),
    (probe_encode,
     ("trace.wal.encode_records_per_s", "trace.wal.bytes_per_record"), None),
    (probe_frame, ("service.protocol.frame_mb_per_s",), None),
    (probe_pump, ("service.tenants.pump_records_per_s",), None),
]

#: Timed repeats of the traced pass; on-path metrics and the derived
#: ones are medians over them (one ~0.5 s pass alone is +-10%).
TRACED_PASSES = 3


def path_of(job: Dict[str, object]) -> Tuple[Probe, ...]:
    """The probes the workload's entry point goes through, in order."""
    if job["kind"] == "batch":
        return (probe_salvage, probe_graph, probe_reach, probe_enumerate)
    if job["kind"] == "service":
        return (probe_service,)
    if job["sampled"]:
        return (probe_read_merge, probe_sampling, probe_feed)
    return (probe_read_merge, probe_feed)


def run_traced(
    job: Dict[str, object],
    scratch: str,
    untraced_pass: Callable[[], Dict[str, object]],
) -> Dict[str, object]:
    """One untimed warm-up of the traced pass, the off-path probes on
    the data it leaves, then TRACED_PASSES timed repeats, each right
    after an untraced pass it is reconciled against (paired in time: on
    a shared box both see the same weather).  Returns metrics,
    per-metric errors, spans and the correctness tally."""
    origin = time.perf_counter()
    workload = job["workload"]
    path = path_of(job)
    names_of = {probe: names for probe, names, _attributed in PROBES}
    metrics: Dict[str, Optional[float]] = {}
    errors: Dict[str, str] = {}

    def attempt(ctx: Context, probe: Probe, parent, isolated, record=True):
        try:
            return probe(ctx, parent, isolated)
        except Exception as exc:
            if record:
                for metric in names_of.get(probe, ()):
                    errors[metric] = f"{type(exc).__name__}: {exc}"
                errors[probe.__name__] = traceback.format_exc(limit=4)
            return None

    # Warm-up pass on a log nobody reads; then every off-path probe, on
    # the data the warm-up left, into the log the repeats share.
    shared = SpanLog(workload, origin, None)
    warm = Context(job, scratch, SpanLog(workload, origin, None))
    attempt(warm, probe_oracles, None, False)
    for probe in path:
        attempt(warm, probe, "pass", False, record=False)
    warm.log = shared
    warm.attempted = warm.failed = 0
    for probe, names, attributed in PROBES:
        if probe not in path:
            values = attempt(warm, probe, attributed, attributed is not None)
            for metric in names:
                metrics[metric] = values[metric] if values else None
    attempted, failed = warm.attempted, warm.failed
    carried = {k: warm.data[k] for k in ("oracles", "offline_s") if k in warm.data}
    del warm

    repeats: List[Tuple[SpanLog, Optional[Dict[str, float]]]] = []
    untraced_walls: List[float] = []
    for index in range(TRACED_PASSES):
        gc.collect()
        outcome = untraced_pass()
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        untraced_walls.append(outcome["wall_s"])
        ctx = Context(job, scratch, SpanLog(workload, origin, index))
        ctx.data.update(carried)
        gc.collect()
        if job["kind"] == "service":  # records its own root: hello -> last report
            values = attempt(ctx, probe_service, "pass", False)
        else:
            values = {}
            with ctx.log.span("pass", None):
                for probe in path:
                    got = attempt(ctx, probe, "pass", False)
                    values = None if got is None or values is None else {**values, **got}
        repeats.append((ctx.log, values))
        attempted += ctx.attempted
        failed += ctx.failed
        del ctx
    for probe in path:
        for metric in names_of[probe]:
            per_repeat = [values[metric] if values else None for _log, values in repeats]
            metrics[metric] = (
                None if None in per_repeat else statistics.median(per_repeat)
            )

    # A service pass runs one lane per client thread side by side; its
    # layer spans add up to `lanes` times the wall.
    lanes = len(job["inputs"]) if job["kind"] == "service" else 1

    def merge_self(spans, _wall) -> float:
        return self_time(spans, "detect.streaming.read_merge")

    def feed_self(spans, _wall) -> float:
        return self_time(spans, "detect.streaming.feed")

    def coverage(spans, untraced_wall_s) -> float:
        covered = sum(self_time(spans, name) for name in descendants(spans, "pass"))
        return covered / (untraced_wall_s * lanes)

    def overhead(spans, untraced_wall_s) -> float:
        return (duration(spans, "pass") - untraced_wall_s) / untraced_wall_s

    def derive(metric: str, compute, needs: Tuple[str, ...]) -> Optional[float]:
        per_repeat = []
        for (log, _values), wall in zip(repeats, untraced_walls):
            spans = log.spans + shared.spans
            missing = [name for name in needs if not duration(spans, name)]
            if missing:
                errors[metric] = f"no span for {', '.join(missing)}"
                return None
            per_repeat.append(compute(spans, wall))
        return statistics.median(per_repeat)

    for metric, compute, needs in (
        ("detect.streaming.merge_self_s", merge_self,
         ("detect.streaming.read_merge", "trace.wal.json_decode",
          "trace.records.from_dict")),
        ("detect.streaming.feed_self_s", feed_self,
         ("detect.streaming.feed", "hb.incremental.observe")),
        ("harness.layers_coverage", coverage, ("pass",)),
        ("harness.trace_overhead_share", overhead, ("pass",)),
    ):
        metrics[metric] = derive(metric, compute, needs)

    return {
        "metrics": metrics,
        "errors": errors,
        "spans": [s for log, _values in repeats for s in log.spans] + shared.spans,
        "attempted": attempted,
        "failed": failed,
        "untraced_wall_s": statistics.median(untraced_walls),
    }
