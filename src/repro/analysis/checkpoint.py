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

    <dir>/manifest.json   one CRC-enveloped document, atomically replaced
    <dir>/trace/          the trace, as ``Trace.save`` writes it

The manifest (``repro.framing.write_document``) holds the config
fingerprint, each sealed stage's payload under ``stages`` (``trace``:
the monitored run's result and time; ``trigger``: report count and
seconds) and ``verdicts``, one entry per finished trigger report.  It
is rewritten when the trace seals, after every verdict and when the
trigger stage seals — a handful of kilobytes each time.  The trace is read by the
strict ``Trace.load``.  Damage, stale schema versions and fingerprint
mismatches raise ``CheckpointError`` (exit 2), never a traceback.
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
from repro.framing import Damage, read_document, write_document
from repro.trace.store import Trace

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 3


def config_fingerprint(benchmark: str, config: "object") -> str:
    """Hash of every config knob that changes analysis *results*.

    Knobs that only change cost (observability, deadlines) are
    deliberately excluded: resuming under a different one is safe."""
    fields = {
        "benchmark": benchmark,
        "scope": config.scope,
        "monitored_seed": config.monitored_seed,
        "trigger": config.trigger,
        # A former knob, now the fixed ``TRIGGER_SEEDS``: kept so a
        # checkpoint written while it was a knob still resumes.
        "trigger_seeds": [0, 1],
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


def load_manifest(directory: str) -> Dict[str, Any]:
    """The CRC-verified manifest of checkpoint ``directory``, of this
    format and version; ``CheckpointError`` (one line) otherwise."""
    if not os.path.isdir(directory):
        raise CheckpointError(
            f"{directory} is not a checkpoint directory "
            f"(run with --checkpoint-dir first, then --resume)"
        )
    path = os.path.join(directory, "manifest.json")
    try:
        manifest = read_document(path)
    except FileNotFoundError:
        raise CheckpointError(
            f"no checkpoint manifest in {directory} (nothing to resume)"
        ) from None
    if isinstance(manifest, Damage):
        # Versions 1 and 2 wrote plain JSON: refused below as stale.
        damage, manifest = manifest, None
        try:
            with open(path) as fh:
                manifest = json.load(fh)
        except ValueError:
            pass
        if not isinstance(manifest, dict) or manifest.get("version") == CHECKPOINT_VERSION:
            raise CheckpointError(
                f"damaged checkpoint manifest {path}: {damage.detail}"
            )
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a checkpoint manifest (format {fmt!r})")
    version = manifest.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"stale checkpoint schema version {version!r} "
            f"(this reader understands version {CHECKPOINT_VERSION}); "
            f"re-run without --resume to rebuild"
        )
    return manifest


@dataclass
class CheckpointStore:
    """One run's checkpoint directory plus its manifest."""

    directory: str
    benchmark: str
    config_fp: str
    resume: bool = False
    manifest: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._manifest_path = os.path.join(self.directory, "manifest.json")
        self.trace_dir = os.path.join(self.directory, "trace")
        if self.resume:
            self.manifest = load_manifest(self.directory)
            self._validate_manifest()
        else:
            # A fresh run owns the directory: the new manifest replaces
            # the old stages and verdicts, and the old trace goes.
            os.makedirs(self.directory, exist_ok=True)
            shutil.rmtree(self.trace_dir, ignore_errors=True)
            self.manifest = {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "benchmark": self.benchmark,
                "config_fingerprint": self.config_fp,
                "stages": {},
                "verdicts": [],
            }
            self._write_manifest()

    def _validate_manifest(self) -> None:
        manifest = self.manifest
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
        write_document(self._manifest_path, self.manifest)

    # -- stage lifecycle ------------------------------------------------------

    def stage_completed(self, name: str) -> bool:
        return name in self.manifest["stages"]

    def seal_stage(
        self, name: str, payload: Dict[str, Any], trace: Optional[Trace] = None
    ) -> None:
        """Record one stage's payload as completed.  ``trace`` is saved
        into :attr:`trace_dir` before the manifest replace: a kill can
        never leave a completed ``trace`` stage without its trace."""
        with obs.span("checkpoint.seal", stage=name):
            if trace is not None:
                trace.save(self.trace_dir)
            self.manifest["stages"][name] = payload
            self._write_manifest()
        obs.counter(
            "checkpoint_stages_sealed_total", "pipeline stages checkpointed"
        ).labels(stage=name).inc()

    def load_stage(self, name: str) -> Dict[str, Any]:
        """A completed stage's payload, read back instead of re-run."""
        if not self.stage_completed(name):
            raise CheckpointError(f"stage {name} is not completed in {self.directory}")
        obs.counter(
            "checkpoint_stages_skipped_total",
            "completed stages skipped by --resume",
        ).labels(stage=name).inc()
        return self.manifest["stages"][name]

    # -- trigger verdicts -----------------------------------------------------

    def add_verdict(self, entry: Dict[str, Any]) -> None:
        """Append one finished report's verdict; it is on disk (fsynced)
        when this returns, so a kill loses at most the next report."""
        self.manifest["verdicts"].append(entry)
        self._write_manifest()

    def load_verdicts(self) -> List[Dict[str, Any]]:
        """The verdicts a previous run recorded (none on a fresh run)."""
        entries = self.manifest["verdicts"]
        if entries:
            obs.counter(
                "checkpoint_shards_resumed_total",
                "per-shard results recovered from a checkpoint",
            ).labels(stage="trigger").inc(len(entries))
        return entries


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
    trace: Trace, monitored_result: "object", tracing_seconds: float
) -> Dict[str, Any]:
    """The manifest's ``trace`` stage: what the trace directory does not hold."""
    return {
        "name": trace.name,
        "monitored_result": run_result_to_dict(monitored_result),
        "timings": {"tracing_seconds": tracing_seconds},
    }


def restore_trace_stage(
    store: CheckpointStore, payload: Dict[str, Any]
) -> Tuple[Trace, "object"]:
    """The trace and the monitored run's result.  Other payload keys (an
    older writer's untraced baseline run) are ignored."""
    try:
        trace = Trace.load(store.trace_dir, name=payload["name"])
    except TraceFormatError as exc:
        raise CheckpointError(f"{exc}; re-run without --resume") from None
    return trace, run_result_from_dict(payload["monitored_result"])


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
    # A restored verdict carries the same evidence a live one does.
    outcome.apply()
    return outcome
