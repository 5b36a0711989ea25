"""Report set serialization."""

import json

from repro.detect import ReportSet, Verdict, detect_races
from repro.detect.export import (
    REPORTS_FORMAT,
    REPORTS_SCHEMA_VERSION,
    dump_reports,
    save_reports,
)
from repro.runtime import Cluster
from repro.trace import FullScope, Tracer, record_to_dict


def _reports():
    cluster = Cluster(seed=0)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    node = cluster.add_node("n")
    var = node.shared_var("x", 0)
    node.spawn(lambda: var.set(1), name="a")
    node.spawn(lambda: var.get(), name="b")
    cluster.run()
    return ReportSet.from_detection(detect_races(tracer.trace))


def _dumped(reports):
    return json.loads(dump_reports(reports))["reports"]


def test_roundtrip_preserves_everything():
    reports = _reports()
    reports.reports[0].verdict = Verdict.HARMFUL
    reports.reports[0].verdict_detail = "hang when B first"
    restored = _dumped(reports)
    assert len(restored) == len(reports)
    first, original = restored[0], reports.reports[0]
    assert first["verdict"] == "harmful"
    assert first["verdict_detail"] == "hang when B first"
    assert first["dynamic_instances"] == original.dynamic_instances
    assert first["candidates"] == [
        {"first": record_to_dict(c.first), "second": record_to_dict(c.second)}
        for c in original.candidates
    ]


def test_file_roundtrip(tmp_path):
    reports = _reports()
    path = tmp_path / "reports.json"
    save_reports(reports, str(path))
    assert path.read_text() == dump_reports(reports)


def test_json_is_stable():
    reports = _reports()
    assert dump_reports(reports) == dump_reports(reports)


def test_roundtrip_preserves_soundness_tier():
    reports = _reports()
    reports.reports[0].soundness = "sp-sound"
    assert _dumped(reports)[0]["soundness"] == "sp-sound"


def test_v2_document_carries_format_headers():
    payload = json.loads(dump_reports(_reports()))
    assert payload["format"] == REPORTS_FORMAT
    assert payload["version"] == REPORTS_SCHEMA_VERSION


def test_roundtrip_preserves_sampled_confidence():
    reports = _reports()
    for report in reports.reports:
        report.confidence = "sampled"
    assert all(r["confidence"] == "sampled" for r in _dumped(reports))
