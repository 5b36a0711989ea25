"""Process probes: the RSS probe and stall points."""

import time

import pytest

from repro.analysis.governor import maybe_stall, process_rss_mb


def test_process_rss_is_positive():
    rss = process_rss_mb()
    assert rss > 0  # a live interpreter is at least a few MB


def test_maybe_stall_ignores_other_points(monkeypatch):
    monkeypatch.setenv("DCATCH_STALL", "here:60")
    started = time.perf_counter()
    maybe_stall("elsewhere")  # different point: no sleep
    assert time.perf_counter() - started < 1


def test_maybe_stall_sleeps_at_named_point(monkeypatch):
    monkeypatch.setenv("DCATCH_STALL", "here:0.05")
    started = time.perf_counter()
    maybe_stall("here")
    assert time.perf_counter() - started >= 0.05


def test_maybe_stall_tolerates_malformed_spec(monkeypatch):
    monkeypatch.setenv("DCATCH_STALL", "here:not-a-number")
    maybe_stall("here")  # must not raise
