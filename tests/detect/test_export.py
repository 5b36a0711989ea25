"""Report set serialization."""

import json

import pytest

from repro.detect import ReportSet, Verdict, detect_races
from repro.detect.export import (
    REPORTS_FORMAT,
    REPORTS_SCHEMA_VERSION,
    dump_reports,
    load_reports,
    save_reports,
)
from repro.errors import TraceFormatError
from repro.runtime import Cluster
from repro.trace import FullScope, Tracer


def _reports():
    cluster = Cluster(seed=0)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    node = cluster.add_node("n")
    var = node.shared_var("x", 0)
    node.spawn(lambda: var.set(1), name="a")
    node.spawn(lambda: var.get(), name="b")
    cluster.run()
    return ReportSet.from_detection(detect_races(tracer.trace))


def test_roundtrip_preserves_everything():
    reports = _reports()
    reports.reports[0].verdict = Verdict.HARMFUL
    reports.reports[0].verdict_detail = "hang when B first"
    restored = load_reports(dump_reports(reports))
    assert len(restored) == len(reports)
    first = restored.reports[0]
    assert first.verdict is Verdict.HARMFUL
    assert first.verdict_detail == "hang when B first"
    assert first.static_pair == reports.reports[0].static_pair
    assert first.callstack_pair == reports.reports[0].callstack_pair
    assert first.dynamic_instances == reports.reports[0].dynamic_instances


def test_file_roundtrip(tmp_path):
    reports = _reports()
    path = tmp_path / "reports.json"
    save_reports(reports, str(path))
    restored = load_reports(path.read_text())
    assert len(restored) == len(reports)


def test_json_is_stable():
    reports = _reports()
    assert dump_reports(reports) == dump_reports(reports)


def test_roundtrip_preserves_soundness_tier():
    reports = _reports()
    reports.reports[0].soundness = "sp-sound"
    restored = load_reports(dump_reports(reports))
    assert restored.reports[0].soundness == "sp-sound"
    assert restored.soundness_counts() == reports.soundness_counts()


def test_v2_document_carries_format_headers():
    payload = json.loads(dump_reports(_reports()))
    assert payload["format"] == REPORTS_FORMAT
    assert payload["version"] == REPORTS_SCHEMA_VERSION


def test_v1_document_loads_as_hb_predicted():
    """Pre-SP exports (bare {"reports": [...]}, no soundness field)
    load instead of erroring, every report at the default tier."""
    payload = json.loads(dump_reports(_reports()))
    for report in payload["reports"]:
        del report["soundness"]
    v1 = json.dumps({"reports": payload["reports"]})
    restored = load_reports(v1)
    assert len(restored) >= 1
    assert all(r.soundness == "hb-predicted" for r in restored)


def test_unknown_soundness_tier_rejected():
    payload = json.loads(dump_reports(_reports()))
    payload["reports"][0]["soundness"] = "vibes"
    with pytest.raises(TraceFormatError):
        load_reports(json.dumps(payload))


def test_wrong_format_or_future_version_rejected():
    payload = json.loads(dump_reports(_reports()))
    with pytest.raises(TraceFormatError):
        load_reports(json.dumps({**payload, "format": "not-reports"}))
    with pytest.raises(TraceFormatError):
        load_reports(json.dumps({**payload, "version": 99}))


def test_roundtrip_preserves_sampled_confidence():
    reports = _reports()
    for report in reports.reports:
        report.confidence = "sampled"
    restored = load_reports(dump_reports(reports))
    assert all(r.confidence == "sampled" for r in restored.reports)


def test_unknown_confidence_rejected():
    payload = json.loads(dump_reports(_reports()))
    payload["reports"][0]["confidence"] = "vibes"
    with pytest.raises(TraceFormatError):
        load_reports(json.dumps(payload))
