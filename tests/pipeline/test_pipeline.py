"""End-to-end pipeline behaviour on a fast benchmark."""

import pytest

from repro.detect import Verdict
from repro.pipeline import STAGES, DCatch, PipelineConfig
from repro.systems import workload_by_id


@pytest.fixture(scope="module")
def zk1144_result():
    return DCatch(workload_by_id("ZK-1144")).run()


def test_monitored_run_correct(zk1144_result):
    assert not zk1144_result.monitored_result.harmful
    assert zk1144_result.oom is None


def test_stages_all_ran(zk1144_result):
    result = zk1144_result
    assert result.detection is not None
    assert result.reports_pre_prune is not None
    assert result.prune_result is not None
    assert result.reports is not None
    assert sorted(result.timings) == [
        "analysis_seconds", "pruning_seconds", "tracing_seconds",
        "trigger_seconds",
    ]
    assert all(seconds >= 0 for seconds in result.timings.values())


def test_root_bug_confirmed_harmful(zk1144_result):
    harmful = [
        o for o in zk1144_result.outcomes if o.verdict is Verdict.HARMFUL
    ]
    assert harmful
    rep = harmful[0].report.representative
    assert "accepted_epoch" in rep.variable


def test_verdict_counts_views(zk1144_result):
    static = zk1144_result.verdict_counts("static")
    callstack = zk1144_result.verdict_counts("callstack")
    assert static["harmful"] >= 1
    assert callstack["harmful"] >= static["harmful"] - 1
    assert set(static) == {"harmful", "benign", "serial"}


def test_summary_renders(zk1144_result):
    text = zk1144_result.summary()
    assert "ZK-1144" in text
    assert "DCatch reports" in text


def test_no_trigger_config():
    config = PipelineConfig(trigger=False)
    result = DCatch(workload_by_id("ZK-1270"), config).run()
    assert result.outcomes == []
    assert result.reports is not None
    assert all(r.verdict is Verdict.UNKNOWN for r in result.reports)


def test_full_scope_config_traces_more():
    selective = DCatch(
        workload_by_id("ZK-1270"), PipelineConfig(trigger=False)
    ).run()
    full = DCatch(
        workload_by_id("ZK-1270"),
        PipelineConfig(trigger=False, scope="full"),
    ).run()
    assert len(full.trace) > len(selective.trace)


def test_monitored_seed_override():
    config = PipelineConfig(trigger=False, monitored_seed=3)
    result = DCatch(workload_by_id("ZK-1144"), config).run()
    assert result.monitored_result.seed == 3


def test_docs_quick_reference_matches_pipeline_config():
    """The ``PipelineConfig(...)`` block in docs/pipeline.md names every
    field, in order, with the code's default."""
    import ast
    import dataclasses
    from pathlib import Path

    text = (
        Path(__file__).resolve().parents[2] / "docs" / "pipeline.md"
    ).read_text()
    section = text.split("## Configuration quick reference", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    (call,) = [
        node for node in ast.walk(ast.parse(block)) if isinstance(node, ast.Call)
    ]
    documented = {
        kw.arg: eval(
            compile(ast.Expression(kw.value), "pipeline.md", "eval"), {}
        )
        for kw in call.keywords
    }
    fields = dataclasses.fields(PipelineConfig)
    assert len(fields) == 7
    assert list(documented) == [f.name for f in fields]
    assert documented == {f.name: f.default for f in fields}


def test_one_run_executes_the_workload_once(monkeypatch):
    """The monitored run is the only execution of an untriggered run:
    there is no separate untraced baseline."""
    from repro.runtime.cluster import Cluster

    calls = []
    real_run = Cluster.run

    def counting_run(self, *args, **kwargs):
        calls.append(self.seed)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Cluster, "run", counting_run)
    result = DCatch(
        workload_by_id("ZK-1144"), PipelineConfig(trigger=False)
    ).run()
    assert calls == [result.monitored_result.seed]


def test_prune_failure_is_reported_under_its_stage_name(monkeypatch):
    from repro.analysis.pruner import StaticPruner

    def explode(self, reports, detection=None):
        raise RuntimeError("pruner wedged")

    monkeypatch.setattr(StaticPruner, "apply", explode)
    result = DCatch(
        workload_by_id("ZK-1144"), PipelineConfig(trigger=False)
    ).run()
    assert result.stage_status == {
        "trace": "ok", "analysis": "ok", "prune": "failed",
    }
    assert result.errors == ["prune: RuntimeError: pruner wedged"]
    series = result.metrics["pipeline_stage_failures_total"]["series"]
    assert list(series) == ["stage=prune"]
    assert "partial failures: prune: 1" in result.summary().splitlines()
    assert result.degraded
    assert result.reports is not None  # the unpruned set, ranked


def test_stage_status_keys_are_the_stage_names():
    result = DCatch(workload_by_id("ZK-1144"), PipelineConfig()).run()
    assert set(result.stage_status) == set(STAGES)
    assert set(result.stage_status.values()) <= {"ok", "failed"}


@pytest.mark.parametrize("mode", ["psychic", "sync-preserving"])
def test_unknown_detect_mode_rejected(mode):
    assert DCatch.DETECT_MODES == ("batch", "streaming")
    with pytest.raises(ValueError):
        DCatch(workload_by_id("ZK-1144"), PipelineConfig(detect_mode=mode))

