"""Every surviving detection mode agrees on real mini-system traces.

The relations the retired ``BENCH_detect.json`` recorded as ``equal``
blocks, asserted on the unselective (Table-8-style) traces of one
lock-free and one lock-heavy benchmark."""

import pytest

from repro.detect import detect_races
from repro.detect.syncpres import annotate_sync_preserving
from repro.hb import HBGraph
from repro.systems import workload_by_id
from repro.trace import FullScope, Tracer


def _pairs(detection):
    return {(c.first.seq, c.second.seq) for c in detection.candidates}


@pytest.mark.parametrize("bug_id", ["HB-4539", "MR-3274"])
def test_detection_modes_agree_on_full_scope_trace(bug_id):
    cluster = workload_by_id(bug_id).cluster(0)
    tracer = Tracer(scope=FullScope(), name=bug_id).bind(cluster)
    cluster.run()
    trace = tracer.trace

    compressed = detect_races(trace)
    assert compressed.candidates
    per_vertex = detect_races(trace, graph=HBGraph(trace, compress_mem=False))
    assert _pairs(per_vertex) == _pairs(compressed)

    sp = annotate_sync_preserving(detect_races(trace))
    assert _pairs(sp) == _pairs(compressed)
    assert sp.sp_pairs <= _pairs(compressed)
    if bug_id == "MR-3274":
        # Lock-protected candidates: reported, but not in the sound tier.
        assert 1 <= len(sp.sp_pairs) < len(sp.candidates)
