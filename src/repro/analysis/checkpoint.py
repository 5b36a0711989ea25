"""Stage-level checkpoint/resume for the analysis pipeline.

The tracing side has been crash-tolerant since the WAL (PR 4); this
module is the analysis-side twin.  It persists the two artefacts that
cost a re-execution of the workload to rebuild — the monitored run's
trace and the trigger verdicts — and nothing else: HB graph, closure,
detection and pruning take milliseconds and are recomputed from the
restored trace.  ``dcatch run --resume`` validates the manifest against
the config fingerprint and skips the completed stages, so a killed
analyzer loses at most the trigger *report* that was in flight.

Layout (one run per checkpoint directory)::

    <dir>/manifest.json            schema-versioned, atomically replaced
    <dir>/trace/                   the trace, as ``Trace.save`` writes it
    <dir>/trace.json               run results + timings, CRC32-checked
    <dir>/trigger-outcomes.jsonl   incremental: one framed line per report
    <dir>/trigger.json             stage seal (report count, seconds)

The trace is read by the strict ``Trace.load``; the log is ``R`` lines
of `repro.framing` (``docs/framing.md``), so a SIGKILL mid-append
leaves a torn tail the loader drops.  Damage, stale schema versions and
fingerprint mismatches raise ``CheckpointError`` (exit 2), never a
traceback.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import CheckpointError, TraceFormatError
from repro.framing import Damage, atomic_write, crc32, decode_line, encode_line
from repro.trace.store import Trace

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 2

#: Checkpointed stages in execution order.  ``trigger`` also keeps an
#: incremental file so a mid-stage crash only loses the in-flight report.
STAGES = ("trace", "trigger")

_INCREMENTAL_FILES = {"trigger": "trigger-outcomes.jsonl"}


def config_fingerprint(benchmark: str, config: "object") -> str:
    """Hash of every config knob that changes analysis *results*.

    Knobs that only change cost (observability, the streaming window)
    are deliberately excluded: resuming under a different one is safe."""
    model = config.model
    fields = {
        "benchmark": benchmark,
        "scope": config.scope,
        "model": model.describe(),
        "monitored_seed": config.monitored_seed,
        "prune": config.prune,
        "trigger": config.trigger,
        "trigger_seeds": list(config.trigger_seeds),
        "trigger_max_wait": config.trigger_max_wait,
        "detect_mode": config.detect_mode,
        # The plan's *content*, not just its presence: resuming after an
        # edited fault plan must invalidate the checkpointed trace.
        "fault_plan": (
            config.fault_plan.describe()
            if config.fault_plan is not None
            else None
        ),
        # Sampling thins the traced record stream itself, so resuming a
        # sampled checkpoint under a different policy/seed is refused.
        "sampling": config.sampling,
        "sampling_seed": config.sampling_seed,
    }
    blob = json.dumps(fields, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class ShardLog:
    """Append-only, CRC-framed JSONL file for one incremental stage."""

    def __init__(self, path: str) -> None:
        self.path = path
        # A SIGKILL mid-append leaves a torn partial line at the tail.
        # Truncate to the last intact framed line before appending:
        # otherwise the first resumed entry concatenates with the torn
        # fragment into one malformed line, and the *next* crash/resume
        # cycle discards every entry after it.
        _, valid_bytes = _scan_shard_file(path)
        self._fh = open(path, "ab")
        self._fh.truncate(valid_bytes)

    def append(self, entry: Dict[str, Any]) -> None:
        payload = json.dumps(entry, sort_keys=True).encode()
        self._fh.write(encode_line(b"R", payload))
        # Flush per shard: the unflushed suffix is exactly what a crash
        # loses, and a shard is the unit we promise to lose at most.
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def _scan_shard_file(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Every intact framed line plus the byte length of the valid
    prefix (just past the last intact, newline-terminated line).  The
    scan stops at the first damaged line: a torn tail is dropped, and
    everything after a damaged *interior* line might be misframed."""
    entries: List[Dict[str, Any]] = []
    valid_bytes = 0
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return entries, 0
    with fh:
        for raw in fh:
            payload = decode_line(raw, b"R", valid_bytes)
            if isinstance(payload, Damage):
                break
            try:
                entries.append(json.loads(payload))
            except ValueError:
                break
            valid_bytes += len(raw)
    return entries, valid_bytes


@dataclass
class CheckpointStore:
    """One run's checkpoint directory plus its manifest."""

    directory: str
    benchmark: str
    config_fp: str
    resume: bool = False
    manifest: Dict[str, Any] = field(default_factory=dict)
    #: Stages loaded from disk instead of recomputed, in order.
    stages_skipped: List[str] = field(default_factory=list)
    _shard_logs: Dict[str, ShardLog] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._manifest_path = os.path.join(self.directory, "manifest.json")
        self.trace_dir = os.path.join(self.directory, "trace")
        if self.resume:
            self.manifest = self._load_manifest()
            self._validate_manifest()
        else:
            os.makedirs(self.directory, exist_ok=True)
            self._clear_previous_run()
            self.manifest = {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "benchmark": self.benchmark,
                "config_fingerprint": self.config_fp,
                "stages": {},
            }
            self._write_manifest()

    def _clear_previous_run(self) -> None:
        """Delete the trace, stage payloads and shard files of an earlier run.

        A fresh (non-resume) run owns the directory.  ShardLog appends
        and ``load_shards`` reads whatever file is present, so without
        this sweep a reused directory — exactly what "re-run without
        --resume to rebuild" advises — would silently restore verdicts
        computed from a different trace or config."""
        shutil.rmtree(self.trace_dir, ignore_errors=True)
        names = [f"{stage}.json" for stage in STAGES]
        names += [f"{name}.tmp" for name in names]
        names += _INCREMENTAL_FILES.values()
        for name in names:
            try:
                os.remove(os.path.join(self.directory, name))
            except FileNotFoundError:
                pass

    # -- manifest -------------------------------------------------------------

    def _load_manifest(self) -> Dict[str, Any]:
        if not os.path.isdir(self.directory):
            raise CheckpointError(
                f"{self.directory} is not a checkpoint directory "
                f"(run with --checkpoint-dir first, then --resume)"
            )
        try:
            with open(self._manifest_path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            raise CheckpointError(
                f"no checkpoint manifest in {self.directory} "
                f"(nothing to resume)"
            ) from None
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"damaged checkpoint manifest {self._manifest_path}: {exc.msg}"
            ) from None

    def _validate_manifest(self) -> None:
        manifest = self.manifest
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{self._manifest_path} is not a checkpoint manifest "
                f"(format {manifest.get('format')!r})"
            )
        version = manifest.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"stale checkpoint schema version {version!r} "
                f"(this reader understands version {CHECKPOINT_VERSION}); "
                f"re-run without --resume to rebuild"
            )
        if manifest.get("benchmark") != self.benchmark:
            raise CheckpointError(
                f"checkpoint is for benchmark {manifest.get('benchmark')!r}, "
                f"not {self.benchmark!r}"
            )
        if manifest.get("config_fingerprint") != self.config_fp:
            raise CheckpointError(
                "checkpoint config fingerprint mismatch: the checkpoint "
                f"was produced with different analysis settings "
                f"({manifest.get('config_fingerprint')} != {self.config_fp}); "
                f"re-run without --resume to rebuild"
            )

    def _write_manifest(self) -> None:
        text = json.dumps(self.manifest, indent=2, sort_keys=True) + "\n"
        atomic_write(self._manifest_path, text.encode())

    # -- stage lifecycle ------------------------------------------------------

    def stage_completed(self, name: str) -> bool:
        entry = self.manifest.get("stages", {}).get(name)
        return bool(entry and entry.get("completed"))

    def mark_skipped(self, name: str) -> None:
        self.stages_skipped.append(name)
        obs.counter(
            "checkpoint_stages_skipped_total",
            "completed stages skipped by --resume",
        ).labels(stage=name).inc()

    def seal_stage(
        self, name: str, payload: Dict[str, Any], trace: Optional[Trace] = None
    ) -> None:
        """Write one stage's payload and mark it completed (atomic:
        ``trace`` into :attr:`trace_dir` and the payload file first,
        then the manifest replace): a kill can never leave a completed
        ``trace`` stage without its trace on disk."""
        with obs.span("checkpoint.seal", stage=name):
            if trace is not None:
                trace.save(self.trace_dir)
            blob = json.dumps(payload, sort_keys=True).encode()
            filename = f"{name}.json"
            atomic_write(os.path.join(self.directory, filename), blob)
            entry = self.manifest["stages"].setdefault(name, {})
            entry.update(
                {"file": filename, "crc": f"{crc32(blob):08x}", "completed": True}
            )
            self._write_manifest()
        obs.counter(
            "checkpoint_stages_sealed_total", "pipeline stages checkpointed"
        ).labels(stage=name).inc()
        obs.counter(
            "checkpoint_bytes_written_total", "bytes of sealed stage payloads"
        ).inc(len(blob))

    def load_stage(self, name: str) -> Dict[str, Any]:
        entry = self.manifest.get("stages", {}).get(name)
        if not entry or not entry.get("completed"):
            raise CheckpointError(f"stage {name} is not completed in {self.directory}")
        path = os.path.join(self.directory, entry["file"])
        with obs.span("checkpoint.load", stage=name):
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except FileNotFoundError:
                raise CheckpointError(
                    f"checkpoint stage file missing: {path}"
                ) from None
            if f"{crc32(blob):08x}" != entry.get("crc"):
                raise CheckpointError(
                    f"checkpoint stage {name} failed its CRC check "
                    f"({path} is damaged); re-run without --resume"
                )
            return json.loads(blob.decode())

    # -- incremental shards ---------------------------------------------------

    def shard_log(self, stage: str) -> ShardLog:
        """The append-only shard file for an incremental stage; noted in
        the manifest (``completed: false``) the first time it opens."""
        log = self._shard_logs.get(stage)
        if log is None:
            filename = _INCREMENTAL_FILES[stage]
            entry = self.manifest["stages"].setdefault(stage, {})
            if entry.get("shards_file") != filename:
                entry.update({"shards_file": filename, "completed": False})
                self._write_manifest()
            log = ShardLog(os.path.join(self.directory, filename))
            self._shard_logs[stage] = log
        return log

    def load_shards(self, stage: str) -> List[Dict[str, Any]]:
        """Intact shard entries written before a crash (torn tail dropped)."""
        entries, _ = _scan_shard_file(
            os.path.join(self.directory, _INCREMENTAL_FILES[stage])
        )
        if entries:
            obs.counter(
                "checkpoint_shards_resumed_total",
                "per-shard results recovered from a checkpoint",
            ).labels(stage=stage).inc(len(entries))
        return entries

    def seal(self) -> None:
        """Flush and close every open incremental file (called on clean
        stage completion *and* on interrupt — the manifest is already
        consistent because it is rewritten atomically at every step)."""
        for log in self._shard_logs.values():
            log.close()
        self._shard_logs.clear()


# -- stage payload builders / restorers ---------------------------------------
#
# These keep the (de)serialization of pipeline artifacts next to the
# store so repro.pipeline stays readable.  Everything round-trips
# through plain JSON; OpEvents reuse the trace record schema.


def run_result_to_dict(result: "object") -> Dict[str, Any]:
    return {
        "name": result.name,
        "seed": result.seed,
        "steps": result.steps,
        "clock": result.clock,
        "completed": result.completed,
        "wall_seconds": result.wall_seconds,
        "ops": result.ops,
        "failures": [
            {
                "kind": event.kind.value,
                "node": event.node,
                "thread": event.thread,
                "message": event.message,
                "step": event.step,
            }
            for event in result.failures.events
        ],
    }


def run_result_from_dict(data: Dict[str, Any]) -> "object":
    from repro.runtime.cluster import RunResult
    from repro.runtime.failures import FailureEvent, FailureKind, FailureLog

    failures = FailureLog()
    for event in data.get("failures", []):
        failures.record(
            FailureEvent(
                kind=FailureKind(event["kind"]),
                node=event["node"],
                thread=event["thread"],
                message=event["message"],
                step=event["step"],
            )
        )
    return RunResult(
        name=data["name"],
        seed=data["seed"],
        steps=data["steps"],
        clock=data["clock"],
        completed=data["completed"],
        failures=failures,
        wall_seconds=data["wall_seconds"],
        ops=data["ops"],
    )


def trace_stage_payload(
    trace: Trace, base_result: "object", monitored_result: "object", timings: Dict
) -> Dict[str, Any]:
    """``trace.json``: what the trace directory does not hold."""
    return {
        "name": trace.name,
        "base_result": run_result_to_dict(base_result),
        "monitored_result": run_result_to_dict(monitored_result),
        "timings": timings,
    }


def restore_trace_stage(
    store: CheckpointStore, payload: Dict[str, Any]
) -> Tuple[Trace, "object", "object"]:
    try:
        trace = Trace.load(store.trace_dir, name=payload["name"])
    except TraceFormatError as exc:
        raise CheckpointError(f"{exc}; re-run without --resume") from None
    return (
        trace,
        run_result_from_dict(payload["base_result"]),
        run_result_from_dict(payload["monitored_result"]),
    )


def outcome_pair(report: "object") -> List[int]:
    """``[first.seq, second.seq]`` of the report's representative: names
    a logged verdict by content — ``report_id`` is only an ordinal into
    a detection that every resume recomputes."""
    first, second = report.representative.accesses()
    return [first.seq, second.seq]


def outcome_to_dict(outcome: "object") -> Dict[str, Any]:
    """Serialize one ``TriggerOutcome`` (per-report checkpoint unit)."""
    return {
        "report_id": outcome.report.report_id,
        "pair": outcome_pair(outcome.report),
        "verdict": outcome.verdict.value,
        "detail": outcome.detail,
        "plan": outcome.plan.describe() if outcome.plan is not None else "",
        "runs": [
            {
                "order": list(run.order),
                "seed": run.seed,
                "enforced": run.enforced,
                "co_occurred": run.co_occurred,
                "error": run.error,
                "result": run_result_to_dict(run.result),
            }
            for run in outcome.runs
        ],
    }


@dataclass
class RestoredGatePlan:
    """A checkpointed plan: only its description survives (gates are
    re-derivable from the trace, but a restored outcome never re-runs)."""

    description: str

    def describe(self) -> str:
        return self.description


def outcome_from_dict(data: Dict[str, Any], report: "object") -> "object":
    from repro.detect.report import Verdict
    from repro.trigger.explorer import TriggerOutcome, TriggerRun

    outcome = TriggerOutcome(
        report=report,
        plan=RestoredGatePlan(data.get("plan", "")),
        verdict=Verdict(data["verdict"]),
        detail=data.get("detail", ""),
    )
    for run in data.get("runs", []):
        outcome.runs.append(
            TriggerRun(
                order=tuple(run["order"]),
                seed=run["seed"],
                enforced=run["enforced"],
                co_occurred=run["co_occurred"],
                result=run_result_from_dict(run["result"]),
                error=run.get("error"),
            )
        )
    report.verdict = outcome.verdict
    report.verdict_detail = outcome.detail
    if outcome.verdict in (Verdict.HARMFUL, Verdict.BENIGN):
        # Restored verdicts carry the same evidence live ones do: both
        # orders were actually enforced in a re-execution.
        report.soundness = "trigger-confirmed"
    return outcome
