"""DCbug candidate detection and reporting (paper Section 3.2)."""

from repro.detect.export import (
    dump_reports,
    load_reports,
    load_reports_file,
    report_from_dict,
    report_to_dict,
    save_reports,
)
from repro.detect.lockset import LocksetIndex, LocksetSplit, split_by_lockset
from repro.detect.races import Candidate, DetectionResult, detect_races
from repro.detect.report import (
    CONFIDENCE_LEVELS,
    CONFIDENCE_RANK,
    SOUNDNESS_RANK,
    SOUNDNESS_TIERS,
    BugReport,
    ReportSet,
    Verdict,
)
from repro.detect.streaming import (
    StreamingDetector,
    StreamResult,
    detect_races_streaming,
)
from repro.detect.syncpres import (
    annotate_sync_preserving,
    build_sp_graph,
    detect_races_sync_preserving,
    lock_section_edges,
)

__all__ = [
    "Candidate",
    "DetectionResult",
    "detect_races",
    "BugReport",
    "ReportSet",
    "Verdict",
    "SOUNDNESS_TIERS",
    "SOUNDNESS_RANK",
    "CONFIDENCE_LEVELS",
    "CONFIDENCE_RANK",
    "annotate_sync_preserving",
    "build_sp_graph",
    "detect_races_sync_preserving",
    "lock_section_edges",
    "LocksetIndex",
    "LocksetSplit",
    "split_by_lockset",
    "StreamingDetector",
    "StreamResult",
    "detect_races_streaming",
    "dump_reports",
    "load_reports",
    "save_reports",
    "load_reports_file",
    "report_to_dict",
    "report_from_dict",
]
