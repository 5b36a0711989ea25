"""Pipeline-level determinism and degraded-mode behaviour."""

import pytest

from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id


def _detection_fingerprint(result):
    return sorted(
        (
            str(c.first.site),
            str(c.second.site),
            c.first.kind.value,
            c.second.kind.value,
        )
        for c in result.detection.candidates
    )


def test_same_seed_same_reports():
    config = PipelineConfig(trigger=False)
    first = DCatch(workload_by_id("ZK-1144"), config).run()
    second = DCatch(workload_by_id("ZK-1144"), config).run()
    assert _detection_fingerprint(first) == _detection_fingerprint(second)
    assert len(first.trace) == len(second.trace)
    assert first.trace.size_bytes() == second.trace.size_bytes()


@pytest.mark.parametrize("bug", ["CA-1011", "ZK-1144"])
@pytest.mark.parametrize("mode", ["batch", "streaming"])
def test_rerun_equals_first_run_in_every_detect_mode(bug, mode):
    """A stopped run is re-run: with triggering on, a second run gives
    the same report bytes, verdicts and soundness tiers as the first."""
    from repro.detect.export import dump_reports

    config = PipelineConfig(detect_mode=mode)
    first = DCatch(workload_by_id(bug), config).run()
    second = DCatch(workload_by_id(bug), config).run()
    assert dump_reports(second.reports) == dump_reports(first.reports)
    assert [(o.report.report_id, o.verdict) for o in second.outcomes] == [
        (o.report.report_id, o.verdict) for o in first.outcomes
    ]
    assert second.detection.sp_pairs == first.detection.sp_pairs
    assert (second.detection.sp_pairs is None) == (mode == "streaming")
    assert [r.soundness for r in second.reports] == [
        r.soundness for r in first.reports
    ]
    assert len(first.outcomes) > 0


def test_oom_pipeline_degrades_gracefully():
    """An analysis OOM is reported, not raised, and the summary says so."""
    config = PipelineConfig(
        trigger=False, scope="full", memory_budget_mb=0  # nothing fits
    )
    result = DCatch(workload_by_id("ZK-1270"), config).run()
    assert result.oom is not None
    assert result.detection is None
    assert result.stage_status["analysis"] == "failed"
    assert [error.split(":")[0] for error in result.errors] == ["analysis"]
    assert result.degraded
    assert "OUT OF MEMORY" in result.summary()


def test_reports_have_consistent_ids_across_runs():
    config = PipelineConfig(trigger=False)
    first = DCatch(workload_by_id("CA-1011"), config).run()
    second = DCatch(workload_by_id("CA-1011"), config).run()
    firsts = [(r.report_id, r.representative.variable) for r in first.reports]
    seconds = [(r.report_id, r.representative.variable) for r in second.reports]
    assert firsts == seconds


def test_read_repair_races_are_not_harmful():
    """The Cassandra read path's races are tolerated by design: DCatch
    must not flag them harmful (a false-positive regression check)."""
    from repro.detect import Verdict
    from repro.runtime import Cluster, sleep
    from repro.systems.base import BenchmarkInfo, Workload
    from repro.systems.minica.bootstrap import BootstrapNode
    from repro.systems.minica.gossip import SeedNode

    class ReadPathWorkload(Workload):
        info = BenchmarkInfo(
            bug_id="CA-READ",
            system="Cassandra",
            workload="read with read repair",
            symptom="none expected",
            error_pattern="-",
            root_cause="-",
        )
        max_steps = 20_000
        trigger_max_steps = 8_000
        source_packages = ("repro.systems.minica",)

        def build(self, cluster: Cluster) -> None:
            # replication=1: the write path has no under-replication
            # failure, so only the read path's behaviour is under test
            # (gating the read pair must not invent failures).
            seed = SeedNode(cluster, "ca1", replication=1)
            BootstrapNode(cluster, "ca2", seed="ca1", token=42)
            seed.start_writer("k1", "v1", delay=60)

            def reader():
                sleep(120)
                seed.client_read("k1")

            seed.node.spawn(reader, name="reader")

    result = DCatch(ReadPathWorkload()).run()
    assert not result.monitored_result.harmful
    read_path_outcomes = [
        o
        for o in result.outcomes
        if any(
            a.site and ("client_read" in a.site.func or "read_repair" in a.site.func)
            for a in o.report.representative.accesses()
        )
    ]
    for outcome in read_path_outcomes:
        assert outcome.verdict is not Verdict.HARMFUL, outcome.describe()
