"""Bug-report serialization: save/load DCatch findings as JSON.

Schema history:

* **version 1** (implicit — no ``format``/``version`` keys): a bare
  ``{"reports": [...]}`` document; reports carry no soundness tier.
* **version 2**: adds ``format``/``version`` headers and a per-report
  ``soundness`` tier (``repro.detect.report.SOUNDNESS_TIERS``); the
  ``confidence`` field gained a third value, ``"sampled"``, for reports
  from deliberately-thinned traces (``repro.trace.sampling``) — an
  additive change, so the version stays 2.

``load_reports`` accepts both: version-1 documents load with every
report at the ``hb-predicted`` tier (which is exactly what they were —
pre-SP exports had no sound evidence recorded).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.detect.report import (
    CONFIDENCE_LEVELS,
    SOUNDNESS_TIERS,
    BugReport,
    ReportSet,
    Verdict,
)
from repro.errors import TraceFormatError
from repro.trace.records import record_from_dict, record_to_dict

REPORTS_FORMAT = "repro-reports"
REPORTS_SCHEMA_VERSION = 2


def report_to_dict(report: BugReport) -> Dict[str, Any]:
    return {
        "report_id": report.report_id,
        "verdict": report.verdict.value,
        "verdict_detail": report.verdict_detail,
        "confidence": report.confidence,
        "soundness": report.soundness,
        "dynamic_instances": report.dynamic_instances,
        "candidates": [
            {
                "first": record_to_dict(c.first),
                "second": record_to_dict(c.second),
            }
            for c in report.candidates
        ],
    }


def report_from_dict(data: Dict[str, Any]) -> BugReport:
    from repro.detect.races import Candidate

    candidates = [
        Candidate(
            first=record_from_dict(c["first"]),
            second=record_from_dict(c["second"]),
        )
        for c in data["candidates"]
    ]
    report = BugReport(report_id=data["report_id"], candidates=candidates)
    report.verdict = Verdict(data["verdict"])
    report.verdict_detail = data.get("verdict_detail", "")
    confidence = data.get("confidence", "full")
    if confidence not in CONFIDENCE_LEVELS:
        raise TraceFormatError(
            f"unknown report confidence {confidence!r}; "
            f"expected one of {CONFIDENCE_LEVELS}"
        )
    report.confidence = confidence
    soundness = data.get("soundness", "hb-predicted")
    if soundness not in SOUNDNESS_TIERS:
        raise TraceFormatError(
            f"unknown report soundness tier {soundness!r}; "
            f"expected one of {SOUNDNESS_TIERS}"
        )
    report.soundness = soundness
    return report


def dump_reports(reports: ReportSet) -> str:
    """JSON-encode a report set (stable, human-diffable)."""
    return json.dumps(
        {
            "format": REPORTS_FORMAT,
            "version": REPORTS_SCHEMA_VERSION,
            "reports": [report_to_dict(r) for r in reports],
        },
        indent=2,
        sort_keys=True,
    )


def load_reports(text: str) -> ReportSet:
    data = json.loads(text)
    if "format" in data and data["format"] != REPORTS_FORMAT:
        raise TraceFormatError(
            f"not a {REPORTS_FORMAT} document (format {data['format']!r})"
        )
    version = data.get("version", 1)
    if version not in (1, REPORTS_SCHEMA_VERSION):
        raise TraceFormatError(
            f"unsupported report schema version {version!r} "
            f"(this reader understands 1..{REPORTS_SCHEMA_VERSION})"
        )
    return ReportSet([report_from_dict(r) for r in data["reports"]])


def save_reports(reports: ReportSet, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dump_reports(reports))
