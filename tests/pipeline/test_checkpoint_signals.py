"""Crash and signal semantics of the checkpointed pipeline, exercised
through real subprocesses: SIGINT seals the checkpoint and exits 130;
SIGKILL mid-stage leaves a resumable directory; ``--resume`` re-runs
the monitored run and reproduces the uninterrupted run byte for byte,
re-executing only the trigger reports whose verdict had not reached the
manifest."""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis.checkpoint import load_manifest
from repro.errors import CheckpointError

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")
BUG = "CA-1011"


def _env(stall=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("DCATCH_STALL", None)
    if stall:
        env["DCATCH_STALL"] = stall
    return env


def _run_cli(*args, stall=None, wait=True, bug=BUG):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "run", bug, *args],
        env=_env(stall),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if not wait:
        return proc
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def _wait_for(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def _manifest(ckdir):
    """The manifest as the store loads it; None before there is one."""
    try:
        return load_manifest(ckdir)
    except CheckpointError:
        return None


def _traced(ckdir):
    """The monitored run has ended and its digest is in the manifest."""
    return "trace_digest" in (_manifest(ckdir) or {})


def _restored(out):
    """``k`` of the summary's ``resumed from checkpoint <dir>: k ...``."""
    match = re.search(
        r"^resumed from checkpoint .*: (\d+) trigger verdicts restored$",
        out,
        re.M,
    )
    assert match, out
    return int(match.group(1))


def _verdicts(ckdir):
    return len((_manifest(ckdir) or {"verdicts": []})["verdicts"])


@pytest.fixture(scope="module")
def clean_reports(tmp_path_factory):
    """The uninterrupted run's saved reports: the byte-identity oracle."""
    path = str(tmp_path_factory.mktemp("oracle") / "reports.json")
    code, out, err = _run_cli("--save-reports", path)
    assert code == 0, err
    with open(path) as fh:
        return fh.read()


def test_sigint_during_hb_build_seals_and_resumes(tmp_path, clean_reports):
    ckdir = str(tmp_path / "ck")
    proc = _run_cli(
        "--checkpoint-dir", ckdir, stall="hb_build:60", wait=False
    )
    try:
        # the stall point sits between the trace digest and HB construction
        assert _wait_for(lambda: _traced(ckdir))
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 130
    assert "interrupted" in err
    assert "--resume" in err  # the hint names the resume flag

    saved = str(tmp_path / "reports.json")
    code, out, err = _run_cli(
        "--checkpoint-dir", ckdir, "--resume", "--save-reports", saved
    )
    assert code == 0, err
    assert _restored(out) == 0
    assert open(saved).read() == clean_reports


def test_sigkill_mid_detect_resumes_byte_identical(tmp_path, clean_reports):
    ckdir = str(tmp_path / "ck")
    proc = _run_cli(
        "--checkpoint-dir", ckdir, stall="detect_shard:60", wait=False
    )
    try:
        # the digest is written, then the run stalls after the first
        # location: nothing of the analysis is on disk to resume from
        assert _wait_for(lambda: _traced(ckdir))
        proc.kill()  # SIGKILL: no handler, no chance to seal
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()

    assert _manifest(ckdir)["verdicts"] == []
    assert os.listdir(ckdir) == ["manifest.json"]

    saved = str(tmp_path / "reports.json")
    code, out, err = _run_cli(
        "--checkpoint-dir", ckdir, "--resume", "--save-reports", saved
    )
    assert code == 0, err
    assert _restored(out) == 0
    assert open(saved).read() == clean_reports


def test_sigint_during_trigger_resumes_verdicts(tmp_path, clean_reports):
    ckdir = str(tmp_path / "ck")
    proc = _run_cli(
        "--checkpoint-dir", ckdir, stall="trigger_report:5", wait=False
    )
    try:
        # the stall sits before each report: once the first verdict is
        # in the manifest the run is parked ahead of the second
        assert _wait_for(lambda: _verdicts(ckdir) >= 1)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 130

    saved = str(tmp_path / "reports.json")
    code, out, err = _run_cli(
        "--checkpoint-dir", ckdir, "--resume", "--save-reports", saved
    )
    assert code == 0, err
    assert _restored(out) >= 1
    assert open(saved).read() == clean_reports


def test_sigkill_after_first_verdict_reruns_only_the_rest(tmp_path):
    """The kill that matters: triggering is where the seconds go.  A
    run killed once its first verdict is in the manifest resumes with that
    verdict restored and re-executes only the unfinished reports."""
    from repro.detect.export import dump_reports
    from repro.pipeline import DCatch, PipelineConfig
    from repro.systems import workload_by_id

    clean = DCatch(workload_by_id("ZK-1144"), PipelineConfig()).run()
    assert len(clean.outcomes) == 3

    ckdir = str(tmp_path / "ck")
    proc = _run_cli(
        "--checkpoint-dir",
        ckdir,
        stall="trigger_report:5",
        wait=False,
        bug="ZK-1144",
    )
    try:
        assert _wait_for(lambda: _verdicts(ckdir) >= 1)
        proc.kill()
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert 1 <= _verdicts(ckdir) < len(clean.outcomes)

    resumed = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(checkpoint_dir=ckdir, resume=True),
    ).run()
    assert set(resumed.stage_status.values()) == {"ok"}
    restored = resumed.metrics["checkpoint_shards_resumed_total"]["series"][
        "stage=trigger"
    ]["value"]
    assert 1 <= restored < len(clean.outcomes)
    assert (
        0
        < resumed.metrics["trigger_runs_total"]["value"]
        < clean.metrics["trigger_runs_total"]["value"]
    )
    assert dump_reports(resumed.reports) == dump_reports(clean.reports)
    assert _verdicts(ckdir) == len(clean.outcomes)
