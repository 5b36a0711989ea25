"""DCbug candidate detection and reporting (paper Section 3.2)."""

from repro.detect.export import save_reports
from repro.detect.races import detect_races
from repro.detect.report import ReportSet, Verdict
from repro.detect.syncpres import build_sp_graph

__all__ = [
    "detect_races",
    "ReportSet",
    "Verdict",
    "build_sp_graph",
    "save_reports",
]
