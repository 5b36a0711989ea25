"""``detect_mode="streaming"`` through the full pipeline.

Streaming skips the whole-trace HB graph; its candidate set equals
batch detection under the streaming-expressible model (everything but
the whole-trace inference families).
"""

import pytest

from repro.detect import detect_races
from repro.hb.incremental import STREAM_UNSUPPORTED_FAMILIES
from repro.hb.model import FULL_MODEL
from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id

STREAM_MODEL = FULL_MODEL.without(*STREAM_UNSUPPORTED_FAMILIES)


def _pairs(result):
    return {
        (c.first.seq, c.second.seq) for c in result.detection.candidates
    }


@pytest.fixture(scope="module")
def streaming_result():
    config = PipelineConfig(trigger=False, detect_mode="streaming")
    return DCatch(workload_by_id("ZK-1144"), config).run()


def test_streaming_mode_runs_all_stages(streaming_result):
    assert streaming_result.detection is not None
    assert streaming_result.detection.graph is None  # no whole-trace graph
    assert streaming_result.reports is not None
    assert streaming_result.timings["analysis_seconds"] >= 0


def test_streaming_matches_batch_restricted_model(streaming_result):
    batch = detect_races(streaming_result.trace, model=STREAM_MODEL)
    assert _pairs(streaming_result) == {
        (c.first.seq, c.second.seq) for c in batch.candidates
    }


def test_pruner_tolerates_graphless_detection(streaming_result):
    """Regression: the pruner ranks on report soundness tiers and must
    never touch ``detection.graph`` — streaming results carry None."""
    from repro.analysis import SourceIndex, StaticPruner
    from repro.detect import ReportSet

    workload = workload_by_id("ZK-1144")
    detection = streaming_result.detection
    assert detection.graph is None
    reports = ReportSet.from_detection(detection)
    index = SourceIndex.from_modules(workload.modules())
    pruner = StaticPruner.for_trace(index, detection.trace)
    result = pruner.apply(reports, detection=detection)
    assert len(result.kept) + len(result.pruned) == len(reports)
