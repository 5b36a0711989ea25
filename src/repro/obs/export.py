"""Exporters: Prometheus text exposition, JSON, Chrome trace events.

Three consumers, three formats:

* ``render_prometheus(registry)`` — the text exposition format, for
  scraping or eyeballing (``repro metrics``);
* ``profile_to_json`` — a machine-readable snapshot for regression
  checks (``dcatch profile --out profile.json``);
* ``spans_to_chrome(tracer)`` — Chrome trace-event format (JSON object
  with a ``traceEvents`` array of complete ``"ph": "X"`` events); load
  the file in ``chrome://tracing`` or https://ui.perfetto.dev to see the
  pipeline as a flamegraph.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import Span, SpanTracer


# -- Prometheus text exposition ------------------------------------------------


def _prom_labels(label_key) -> str:
    if not label_key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in label_key)
    return "{" + inner + "}"


def _prom_number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []
    for metric in sorted(registry.metrics(), key=lambda m: m.name):
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        children = metric.children()
        if isinstance(metric, Histogram):
            cumulative = 0
            counts = metric.bucket_counts()
            for bound, count in zip(metric.buckets, counts):
                cumulative += count
                lines.append(
                    f'{metric.name}_bucket{{le="{_prom_number(bound)}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f'{metric.name}_bucket{{le="+Inf"}} {metric.count}'
            )
            lines.append(f"{metric.name}_sum {_prom_number(metric.sum)}")
            lines.append(f"{metric.name}_count {metric.count}")
        elif children:
            for key, child in sorted(children.items()):
                lines.append(
                    f"{metric.name}{_prom_labels(key)} "
                    f"{_prom_number(child.value)}"
                )
        else:
            lines.append(f"{metric.name} {_prom_number(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- JSON ---------------------------------------------------------------------


def profile_to_json(
    tracer: SpanTracer,
    registry: Optional[MetricsRegistry] = None,
    **extra: object,
) -> Dict[str, object]:
    """One self-describing profile document: spans + metrics + context."""
    doc: Dict[str, object] = {
        "format": "repro-profile",
        "version": 1,
        "profile": tracer.to_dict(),
    }
    if registry is not None:
        doc["metrics"] = registry.snapshot()
    doc.update(extra)
    return doc


def write_json(path: str, document: Dict[str, object]) -> None:
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# -- Chrome trace-event format -------------------------------------------------


def spans_to_chrome(tracer: SpanTracer, pid: int = 1) -> Dict[str, object]:
    """Complete ('ph': 'X') trace events, one per closed span.

    Timestamps and durations are microseconds relative to the tracer's
    epoch, as the trace-event spec requires.  Thread-name metadata
    events label each simulated/OS thread lane.
    """
    events: List[Dict[str, object]] = []
    thread_ids: Dict[str, int] = {}
    for span in sorted(tracer.closed(), key=lambda s: s.start_wall):
        tid = thread_ids.setdefault(span.thread, len(thread_ids) + 1)
        args: Dict[str, object] = {
            "cpu_ms": round(span.cpu_seconds * 1e3, 3),
            "status": span.status,
        }
        if span.error:
            args["error"] = span.error
        args.update({k: str(v) for k, v in span.attrs.items()})
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round(span.start_wall * 1e6, 1),
                "dur": round(span.wall_seconds * 1e6, 1),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    for thread, tid in thread_ids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tracer": tracer.name},
    }


def write_chrome_trace(path: str, tracer: SpanTracer, pid: int = 1) -> None:
    write_json(path, spans_to_chrome(tracer, pid=pid))


# -- human-readable span table -------------------------------------------------


def render_span_table(tracer: SpanTracer, indent: str = "  ") -> str:
    """Per-span table, tree-indented, with wall/CPU time and share.

    Shares are of the total root wall time, so sibling stages sum to
    roughly 100% and nested spans show where a stage's time went.
    """
    closed = tracer.closed()
    if not closed:
        return "(no spans recorded)"
    total = tracer.total_wall() or 1e-12
    by_parent: Dict[Optional[int], List[Span]] = {}
    for span in sorted(closed, key=lambda s: s.start_wall):
        by_parent.setdefault(span.parent_id, []).append(span)

    rows: List[tuple] = []

    def walk(parent_id: Optional[int], depth: int) -> None:
        for span in by_parent.get(parent_id, []):
            marker = " [error]" if span.status != "ok" else ""
            rows.append(
                (
                    indent * depth + span.name + marker,
                    f"{span.wall_seconds:.3f}",
                    f"{span.cpu_seconds:.3f}",
                    f"{100.0 * span.wall_seconds / total:5.1f}%",
                )
            )
            walk(span.span_id, depth + 1)

    walk(None, 0)
    headers = ("span", "wall s", "cpu s", "share")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(4)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
