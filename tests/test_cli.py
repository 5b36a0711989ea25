"""The dcatch command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "MR-3274" in out
    assert "ZooKeeper" in out


def test_table_command_table3(capsys):
    assert main(["table", "table3"]) == 0
    out = capsys.readouterr().out
    assert "Benchmark bugs" in out


def test_table_command_unknown(capsys):
    assert main(["table", "tableX"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "unknown table" in captured.err


def test_table_out_writes_the_named_tables(tmp_path, capsys):
    out = tmp_path / "tables.txt"
    assert main(["table", "table3", "table1", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.index("Benchmark bugs") < text.index("Concurrency &")
    assert capsys.readouterr().out == f"tables written to {out}\n"


def test_table_unknown_name_among_known_renders_nothing(tmp_path, capsys):
    out = tmp_path / "tables.txt"
    assert main(["table", "table3", "table99", "--out", str(out)]) == 2
    assert not out.exists()
    assert "table99" in capsys.readouterr().err


def test_stream_memory_budget_flag_is_unknown(capsys):
    """Streaming has no closure to budget: the flag that forced extra
    compactions, and never retired an access, is gone."""
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(
            ["stream", "wal", "--memory-budget-mb", "1"]
        )
    assert info.value.code == 2
    assert "--memory-budget-mb" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["stream", "wal", "--checkpoint", "stream.ckpt"],
        ["stream", "wal", "--resume"],
        ["run", "ZK-1144", "--checkpoint-dir", "ckpt"],
        ["run", "ZK-1144", "--resume"],
    ],
)
def test_stream_checkpoint_flags_are_unknown(flags, capsys):
    """A stopped stream pass or run is re-run: neither has a checkpoint
    to resume, so each command line exits 2 on its third word."""
    with pytest.raises(SystemExit) as info:
        main(flags)
    assert info.value.code == 2
    assert flags[2] in capsys.readouterr().err


def test_run_command_no_trigger(capsys):
    assert main(["run", "ZK-1144", "--no-trigger"]) == 0
    out = capsys.readouterr().out
    assert "DCatch on ZK-1144" in out
    assert "DCatch reports" in out


def test_trace_command(tmp_path, capsys):
    out_dir = tmp_path / "trace"
    assert main(["trace", "ZK-1270", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "saved" in out
    assert list(out_dir.glob("*/thread-*/seg-0000.wal"))

    from repro.trace import Trace

    restored = Trace.load(str(out_dir))
    assert len(restored) > 0


def test_explain_command(capsys):
    assert main(
        ["explain", "ZK-1144", "--variable", "accepted_epoch", "--limit", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "CONCURRENT" in out or "=>" in out


def test_explain_unknown_variable(capsys):
    assert main(["explain", "ZK-1144", "--variable", "nope_xyz"]) == 1


def test_list_includes_extras(capsys):
    main(["list"])
    out = capsys.readouterr().out
    assert "MR-SPEC" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_unknown_bug_exits_2(capsys):
    assert main(["run", "NOPE-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown benchmark NOPE-1")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_run_and_profile_take_one_positional(capsys):
    """A benchmark is named by its bug id only: the retired
    ``<system> <workload>`` spelling is an argparse error."""
    for command in ("run", "profile"):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, "minizk", "1270"])
        assert info.value.code == 2
        assert "unrecognized arguments: 1270" in capsys.readouterr().err


def test_metrics_verb_is_gone(capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["metrics", "ZK-1270"])
    assert info.value.code == 2
    assert "invalid choice: 'metrics'" in capsys.readouterr().err


def test_keyboard_interrupt_exits_130_with_one_line(monkeypatch, capsys):
    """Ctrl-C ends any verb with one stderr line, not a traceback."""
    import repro.cli as cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_list", interrupted)
    assert main(["list"]) == 130
    err = capsys.readouterr().err
    assert err == "interrupted\n"
    assert "Traceback" not in err


def test_profile_unknown_workload_exits_2(capsys):
    assert main(["profile", "ZK-9999"]) == 2
    err = capsys.readouterr().err
    assert "unknown benchmark ZK-9999" in err
    assert "ZK-1144" in err  # the known names are listed
    assert len(err.strip().splitlines()) == 1


def test_profile_command(tmp_path, capsys):
    import json

    out = tmp_path / "profile.json"
    chrome = tmp_path / "trace.json"
    assert main(
        [
            "profile",
            "ZK-1270",
            "--no-trigger",
            "--out",
            str(out),
            "--chrome",
            str(chrome),
        ]
    ) == 0
    stdout = capsys.readouterr().out
    assert "pipeline.tracing" in stdout
    assert "share" in stdout

    profile = json.loads(out.read_text())
    assert profile["format"] == "repro-profile"
    span_names = {s["name"] for s in profile["profile"]["spans"]}
    assert "pipeline.analysis" in span_names
    assert "pipeline_runs_total" in profile["metrics"]

    trace = json.loads(chrome.read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_profile_prom_writes_the_metrics_registry(tmp_path, capsys):
    prom = tmp_path / "metrics.prom"
    assert main(["profile", "ZK-1270", "--no-trigger", "--prom", str(prom)]) == 0
    assert f"metrics written to {prom}" in capsys.readouterr().out
    text = prom.read_text()
    assert "# TYPE pipeline_runs_total counter" in text
    assert "pipeline_runs_total 1" in text


def test_profile_out_holds_the_metrics_snapshot(tmp_path, capsys):
    import json

    out = tmp_path / "profile.json"
    assert main(["profile", "ZK-1270", "--no-trigger", "--out", str(out)]) == 0
    snapshot = json.loads(out.read_text())["metrics"]
    assert snapshot["pipeline_runs_total"]["value"] == 1


def test_trace_stats_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "ZK-1270", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "by category:" in out
    assert "bytes by category:" in out
    assert "hb ops:" in out
    assert list(tmp_path.iterdir()) == []  # nothing saved without --out


def test_trace_load_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "trace"
    assert main(["trace", "ZK-1144", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["trace", "--load", str(out_dir), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "loaded" in out
    assert "by category:" in out


def test_trace_saves_what_the_pipeline_traces(tmp_path, capsys):
    """``dcatch trace --out`` saves the monitored run of ``dcatch run``,
    seed included."""
    from repro.pipeline import DCatch, PipelineConfig
    from repro.systems import workload_by_id
    from repro.trace import Trace, record_to_dict

    out_dir = str(tmp_path / "trace")
    argv = ["trace", "ZK-1144", "--seed", "3"]
    assert main(argv + ["--out", out_dir]) == 0
    config = PipelineConfig(trigger=False, monitored_seed=3)
    traced = DCatch(workload_by_id("ZK-1144"), config).run().trace
    saved = Trace.load(out_dir)
    assert [record_to_dict(r) for r in saved.records] == [
        record_to_dict(r) for r in traced.records
    ]


def test_trace_load_malformed_json_exits_2(tmp_path, capsys):
    """A frame whose CRC holds but whose payload is not a record."""
    from repro.framing import crc32, encode_line, encode_seal
    from repro.trace.wal import segment_header

    stream = tmp_path / "broken" / "n" / "thread-0"
    stream.mkdir(parents=True)
    header = segment_header("n", 0, 0)
    line = encode_line(b"R", b"not json")
    seal = encode_seal(1, crc32(b"not json"))
    (stream / "seg-0000.wal").write_bytes(header + line + seal)
    assert main(["trace", "--load", str(tmp_path / "broken")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    # points at the file and the byte offset of the malformed line
    where = f"n/thread-0/seg-0000.wal byte {len(header)}"
    assert f"{where}: payload is not valid JSON" in err


def _saved_trace_marked(tmp_path, sampled):
    """A saved ZK-1144 trace whose ``meta.json`` carries the sampling
    keys a tracer that sampled at trace time wrote beside the streams."""
    from repro.framing import read_document, write_document

    out_dir = str(tmp_path / "trace")
    assert main(["trace", "ZK-1144", "--out", out_dir]) == 0
    meta_path = os.path.join(out_dir, "meta.json")
    meta = read_document(meta_path)
    meta.update(
        sampled=sampled,
        sampling_rate=0.1 if sampled else None,
        sampled_dropped={"mem_read": 4} if sampled else {},
    )
    write_document(meta_path, meta)
    return out_dir


def test_trace_sampled_when_recorded_is_refused(tmp_path, capsys):
    """Such a trace is missing accesses nothing here can name: loading or
    streaming it is one error line and exit 2, not a full-looking read."""
    out_dir = _saved_trace_marked(tmp_path, sampled=True)
    capsys.readouterr()
    for argv in (["trace", "--load", out_dir], ["stream", out_dir]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith(f"error: sampled trace {out_dir}: meta.json ")


def test_trace_marked_unsampled_loads_and_streams_full(tmp_path, capsys):
    out_dir = _saved_trace_marked(tmp_path, sampled=False)
    capsys.readouterr()
    assert main(["trace", "--load", out_dir]) == 0
    assert main(["stream", out_dir]) == 0
    assert "  confidence: full" in capsys.readouterr().out


def test_salvaged_trace_streams_with_its_partial_confidence(
    tmp_path, capsys
):
    from repro.trace.wal import list_stream_segments

    wal_root = tmp_path / "wal"
    assert main(
        ["run", "ZK-1270", "--no-trigger", "--trace-dir", str(wal_root)]
    ) == 0
    wal_dir = str(wal_root / "ZK-1270" / "seed-0")
    paths = next(iter(list_stream_segments(wal_dir).values()))
    with open(paths[-1], "r+b") as fh:  # tear the seal off one stream
        fh.truncate(fh.seek(0, 2) - 5)
    out_dir = str(tmp_path / "salvaged")
    assert main(["salvage", wal_dir, "--out", out_dir]) == 0
    assert "DAMAGED" in capsys.readouterr().out
    assert main(["stream", out_dir]) == 0
    out = capsys.readouterr().out
    assert "  confidence: partial" in out
    assert "damage:" not in out  # the saved WAL itself is clean


def test_salvage_command_end_to_end(tmp_path, capsys):
    wal_root = tmp_path / "wal"
    assert main(
        ["run", "ZK-1270", "--no-trigger", "--trace-dir", str(wal_root)]
    ) == 0
    capsys.readouterr()
    wal_dir = wal_root / "ZK-1270" / "seed-0"
    report_path = tmp_path / "report.json"
    out_dir = tmp_path / "salvaged"
    assert main(
        [
            "salvage",
            str(wal_dir),
            "--report",
            str(report_path),
            "--out",
            str(out_dir),
            "--analyze",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "salvage of" in out
    assert "clean" in out
    assert "confidence: full" in out

    import json

    report = json.loads(report_path.read_text())
    assert report["format"] == "repro-salvage-report"
    assert report["damaged"] is False
    assert report["records_recovered"] > 0

    from repro.trace import Trace

    assert len(Trace.load(str(out_dir))) == report["records_recovered"]

    # The salvaged trace is a sealed WAL: both readers take it.
    assert main(["trace", "--load", str(out_dir), "--stats"]) == 0
    capsys.readouterr()
    assert main(["stream", str(out_dir)]) == 0
    assert "confidence: full" in capsys.readouterr().out


def test_salvage_missing_directory_exits_2(tmp_path, capsys):
    assert main(["salvage", str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err
    assert "not a WAL directory" in err
    assert len(err.strip().splitlines()) == 1


def test_run_budget_flags_parse():
    parser = build_parser()
    args = parser.parse_args(
        [
            "run",
            "ZK-1144",
            "--max-stage-seconds",
            "1.5",
            "--memory-budget-mb",
            "64",
        ]
    )
    assert args.max_stage_seconds == 1.5
    assert args.memory_budget_mb == 64
    args = parser.parse_args(["run", "ZK-1144"])
    assert args.max_stage_seconds is None
    assert args.memory_budget_mb is None


def test_workers_flag_is_unknown(capsys):
    """Detection is in-process only: the retired ``--workers`` knob is
    rejected like any other unknown flag."""
    for command in ("run", "profile"):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, "ZK-1144", "--workers", "2"])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err


def test_stream_sampling_keeps_recall_and_identities(tmp_path, capsys):
    """The small generated workload streamed behind the sampler: at 0.1
    every planted race is still found (``--ground-truth`` exits 1 on a
    miss) and the pass reads ``sampled``; rate 1.0 is a byte-identical
    no-op with full confidence; a bare rate is its ``budget:8+rate``
    composite, byte for byte."""
    gen = tmp_path / "gen"
    argv = ["generate", "minimr", "--preset", "small", "--seed", "0"]
    assert main(argv + ["--out", str(gen)]) == 0
    wal, truth = str(gen / "wal"), str(gen / "ground_truth.json")
    capsys.readouterr()

    def stream(*flags, report=None):
        extra = ["--report-out", str(tmp_path / report)] if report else []
        code = main(["stream", wal, *flags, *extra])
        out = capsys.readouterr().out
        return code, out, (tmp_path / report).read_bytes() if report else None

    code, out, _ = stream("--ground-truth", truth, "--sampling", "0.1")
    assert code == 0
    assert "  confidence: sampled" in out
    assert "planted races found (100.0% recall)" in out

    code, _, unsampled = stream("--ground-truth", truth, report="unsampled.json")
    assert code == 0
    code, out, rate1 = stream(
        "--ground-truth", truth, "--sampling", "1.0", report="rate1.json"
    )
    assert code == 0
    assert "  confidence: full" in out
    assert rate1 == unsampled

    _, _, bare = stream("--sampling", "0.1", report="bare.json")
    _, _, composite = stream("--sampling", "budget:8+rate:0.1", report="composite.json")
    assert bare == composite
    assert bare != unsampled


@pytest.mark.parametrize(
    "spec", ["bogus", "reservoir:8", "epoch:1:2", "rate:2", "budget:0"]
)
def test_bad_sampling_spec_exits_2(spec, capsys):
    """Rejected where argparse reads it: one line, before anything runs.
    Only a stream pass samples; ``run`` and ``trace`` record every
    in-scope access and do not know the flag."""
    with pytest.raises(SystemExit) as info:
        main(["stream", "wal", "--sampling", spec])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad sampling spec {spec!r}")
    assert "supported: R, all, rate:R, budget:N, budget:N+rate:R" in err
    assert len(err.strip().splitlines()) == 1
    for command in (["run", "ZK-1144"], ["trace", "ZK-1144"]):
        for flag in ("--sampling", "--sampling-seed"):
            with pytest.raises(SystemExit) as info:
                main(command + [flag, "1"])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
