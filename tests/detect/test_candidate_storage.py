"""How the streaming detector holds its candidates: two record
references per pair, no object per pair, handed out in
``(first.seq, second.seq)`` order."""

import gc
import tracemalloc

import pytest

from repro.detect.streaming import detect_races_streaming
from repro.workload import WorkloadSpec, generate_workload

#: One phase of the ``stream_contended`` benchmark shape: 120 of 128
#: workers race on one hot key, so nearly every access pairs.
CONTENDED = WorkloadSpec(
    preset="contended", workers=128, phases=1, local_ops=0, chain_len=6,
    racers=120,
)

#: Two list slots per candidate, plus the lists' growth slack.
MAX_BYTES_PER_CANDIDATE = 24


@pytest.fixture(scope="module")
def contended(tmp_path_factory):
    out = tmp_path_factory.mktemp("contended-storage")
    return generate_workload("minimr", CONTENDED, 0, str(out))


def test_a_finished_result_holds_at_most_24_bytes_per_candidate(contended):
    tracemalloc.start()
    try:
        result = detect_races_streaming(wal_dir=contended.wal_dir)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/detect/streaming.py")]
    )
    count = len(result.candidates)
    assert count >= 5000
    per_candidate = sum(s.size for s in held.statistics("filename")) / count
    assert per_candidate <= MAX_BYTES_PER_CANDIDATE, per_candidate


def test_seq_pairs_follow_the_candidates_in_order_on_every_call(contended):
    result = detect_races_streaming(wal_dir=contended.wal_dir, window=64)
    pairs = list(result.candidate_seq_pairs())
    assert len(pairs) >= 5000
    assert pairs == sorted(pairs)
    assert pairs == [(c.first.seq, c.second.seq) for c in result.candidates]
    assert list(result.candidate_seq_pairs()) == pairs

