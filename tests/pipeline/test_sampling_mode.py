"""``PipelineConfig.sampling`` through the full pipeline.

Sampling composes with the selective scope: the scope decides which
accesses are *eligible*, the sampler enforces a *budget* on them.  A
sampled run downgrades report confidence to ``"sampled"``; rate 1.0 is
a guaranteed no-op that reproduces the unsampled pipeline exactly.
"""

import pytest

from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id
from repro.trace import dump_records


def _run(**kwargs):
    config = PipelineConfig(trigger=False, **kwargs)
    return DCatch(workload_by_id("ZK-1144"), config).run()


def _pairs(result):
    return {(c.first.seq, c.second.seq) for c in result.detection.candidates}


def test_sampled_run_marks_reports():
    result = _run(sampling="0.5")
    assert result.trace.sampled is True
    assert result.detection.confidence == "sampled"
    assert result.reports
    assert all(r.confidence == "sampled" for r in result.reports.reports)


def test_rate_one_sampling_matches_unsampled_run():
    plain = _run()
    sampled = _run(sampling="1.0")
    assert sampled.trace.sampled is False
    assert sampled.detection.confidence == plain.detection.confidence
    assert _pairs(sampled) == _pairs(plain)
    assert dump_records(sampled.trace.records) == dump_records(
        plain.trace.records
    )


def test_sampled_runs_are_reproducible():
    first = _run(sampling="0.3", sampling_seed=4)
    second = _run(sampling="0.3", sampling_seed=4)
    assert dump_records(first.trace.records) == dump_records(
        second.trace.records
    )
    assert _pairs(first) == _pairs(second)


def test_invalid_sampling_spec_rejected_up_front():
    with pytest.raises(ValueError):
        _run(sampling="bogus")
