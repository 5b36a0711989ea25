"""Checkpoint/resume for the analysis pipeline: a verdict log.

The tracing side is crash-tolerant through the WAL; this module is the
analysis-side twin.  It persists the one artefact that costs
re-executions of the workload to rebuild — the trigger verdicts — and
nothing else.  The monitored run is seeded and deterministic, a pure
function of the config the fingerprint pins, so ``dcatch run --resume``
re-runs it (a fraction of a second on the benchmarks), recomputes
detection and pruning from it, and triggers only the reports no logged
verdict covers: a killed analyzer loses at most the trigger *report*
that was in flight.

Layout (one run per checkpoint directory)::

    <dir>/manifest.json   one CRC-enveloped document, atomically replaced

The manifest (``repro.framing.write_document``) holds the config
fingerprint, ``trace_digest`` (the sha256 of the monitored run's
records, written once that run ends) and ``verdicts``, one entry per
finished trigger report, each naming its report by the seq pair of the
representative.  It is rewritten after the monitored run and after
every verdict — a handful of kilobytes each time.  A resume whose
re-traced digest differs from the recorded one is refused: logged seq
pairs never attach to a different trace.  Damage, stale schema
versions, fingerprint and digest mismatches raise ``CheckpointError``
(exit 2), never a traceback.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro import obs
from repro.errors import CheckpointError
from repro.framing import Damage, read_document, write_document
from repro.trace.records import dump_records
from repro.trace.store import Trace

CHECKPOINT_FORMAT = "repro-checkpoint"
#: Version 5 dropped the two sampling keys from the config fingerprint,
#: so a version-4 manifest is refused as stale, not as another config.
CHECKPOINT_VERSION = 5


def config_fingerprint(benchmark: str, config: "object") -> str:
    """Hash of every config knob that changes analysis *results*.

    Knobs that only change cost (observability, deadlines) are
    deliberately excluded: resuming under a different one is safe."""
    fields = {
        "benchmark": benchmark,
        "scope": config.scope,
        "monitored_seed": config.monitored_seed,
        "trigger": config.trigger,
        "detect_mode": config.detect_mode,
        # The plan's *content*, not just its presence: resuming after an
        # edited fault plan must invalidate the logged verdicts.
        "fault_plan": (
            config.fault_plan.describe()
            if config.fault_plan is not None
            else None
        ),
    }
    blob = json.dumps(fields, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def trace_digest(trace: Trace) -> str:
    """sha256 of the trace's records as ``dump_records`` writes them:
    the identity of the monitored run a verdict log belongs to."""
    return hashlib.sha256(dump_records(trace.records).encode()).hexdigest()


def load_manifest(directory: str) -> Dict[str, Any]:
    """The CRC-verified manifest of checkpoint ``directory``, of this
    format and version; ``CheckpointError`` (one line) otherwise."""
    manifest = _read_manifest(directory)
    version = manifest.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"stale checkpoint schema version {version!r} "
            f"(this reader understands version {CHECKPOINT_VERSION}); "
            f"re-run without --resume to rebuild"
        )
    return manifest


def _read_manifest(directory: str) -> Dict[str, Any]:
    """The checkpoint manifest of ``directory``, of any version."""
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
        if self.resume:
            self.manifest = load_manifest(self.directory)
            self._validate_manifest()
        else:
            # A fresh run owns the directory: the new manifest replaces
            # the old trace digest and verdicts.
            self._sweep_old_trace_copy()
            os.makedirs(self.directory, exist_ok=True)
            self.manifest = {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "benchmark": self.benchmark,
                "config_fingerprint": self.config_fp,
                "verdicts": [],
            }
            self._write_manifest()

    def _sweep_old_trace_copy(self) -> None:
        """Versions up to 3 kept a copy of the monitored trace in
        ``trace/``; nothing reads it now, so it goes with the old
        manifest.  A directory without such a manifest is left alone."""
        try:
            version = _read_manifest(self.directory).get("version")
        except CheckpointError:
            return
        if isinstance(version, int) and version <= 3:
            shutil.rmtree(os.path.join(self.directory, "trace"), ignore_errors=True)

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

    def pin_trace(self, digest: str) -> None:
        """Record the monitored run's :func:`trace_digest`, or — when a
        previous run recorded one — refuse a different trace."""
        recorded = self.manifest.get("trace_digest")
        if recorded is None:
            self.manifest["trace_digest"] = digest
            self._write_manifest()
        elif recorded != digest:
            raise CheckpointError(
                f"checkpoint trace digest mismatch: the re-traced monitored "
                f"run ({digest[:16]}) is not the one the logged verdicts "
                f"belong to ({recorded[:16]}); re-run without --resume to "
                f"rebuild"
            )

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


# -- verdict (de)serialization -----------------------------------------------
#
# These keep the (de)serialization of trigger outcomes next to the store
# so repro.pipeline stays readable.  Everything round-trips through
# plain JSON.


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
