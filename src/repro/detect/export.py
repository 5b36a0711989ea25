"""Bug-report serialization: save DCatch findings as JSON.

The document is version 2: ``format``/``version`` headers and, per
report, its verdict, ``confidence`` (``repro.detect.races.
CONFIDENCE_LEVELS``), ``soundness`` tier (``SOUNDNESS_TIERS``) and
candidate records.  Nothing in the repository reads it back; it is
output for people and for byte comparison.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.detect.report import BugReport, ReportSet
from repro.trace.records import record_to_dict

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


def save_reports(reports: ReportSet, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dump_reports(reports))
