"""The dcatch command-line interface."""

import os

import pytest

from repro.analysis.checkpoint import load_manifest
from repro.cli import build_parser, main
from repro.framing import write_document


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
    "flags", [["--checkpoint", "stream.ckpt"], ["--resume"]]
)
def test_stream_checkpoint_flags_are_unknown(flags, capsys):
    """A stopped stream pass is re-run: it has no checkpoint to resume."""
    with pytest.raises(SystemExit) as info:
        main(["stream", "wal", *flags])
    assert info.value.code == 2
    assert flags[0] in capsys.readouterr().err


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
    seed and sampling included."""
    from repro.pipeline import DCatch, PipelineConfig
    from repro.systems import workload_by_id
    from repro.trace import Trace, record_to_dict

    out_dir = str(tmp_path / "trace")
    argv = ["trace", "ZK-1144", "--seed", "3", "--sampling", "0.1"]
    assert main(argv + ["--out", out_dir]) == 0
    config = PipelineConfig(trigger=False, monitored_seed=3, sampling="0.1")
    traced = DCatch(workload_by_id("ZK-1144"), config).run().trace
    saved = Trace.load(out_dir)
    assert saved.sampled and traced.sampled
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


def test_saved_trace_streams_with_its_sampled_confidence(tmp_path, capsys):
    out_dir = str(tmp_path / "trace")
    assert main(
        ["trace", "ZK-1144", "--sampling", "0.1", "--out", out_dir]
    ) == 0
    capsys.readouterr()
    assert main(["stream", out_dir]) == 0
    assert "  confidence: sampled" in capsys.readouterr().out


def test_saved_trace_that_sampling_thinned_nothing_streams_full(
    tmp_path, capsys
):
    """A budget no location exceeds drops no record: the saved trace is
    marked ``sampled`` (the sampler could drop) but streams as complete."""
    out_dir = str(tmp_path / "trace")
    assert main(
        ["trace", "ZK-1144", "--sampling", "budget:100000", "--out", out_dir]
    ) == 0
    capsys.readouterr()
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


def test_salvage_missing_directory_exits_2(tmp_path, capsys):
    assert main(["salvage", str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err
    assert "not a WAL directory" in err
    assert len(err.strip().splitlines()) == 1


def test_run_checkpoint_flags_parse():
    parser = build_parser()
    args = parser.parse_args(
        [
            "run",
            "ZK-1144",
            "--checkpoint-dir",
            "/tmp/ck",
            "--resume",
            "--max-stage-seconds",
            "1.5",
            "--memory-budget-mb",
            "64",
        ]
    )
    assert args.checkpoint_dir == "/tmp/ck"
    assert args.resume is True
    assert args.max_stage_seconds == 1.5
    assert args.memory_budget_mb == 64
    args = parser.parse_args(["run", "ZK-1144"])
    assert args.checkpoint_dir is None
    assert args.resume is False


def test_workers_flag_is_unknown(capsys):
    """Detection is in-process only: the retired ``--workers`` knob is
    rejected like any other unknown flag."""
    for command in ("run", "profile"):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, "ZK-1144", "--workers", "2"])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err


def test_resume_missing_checkpoint_dir_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    code = main(
        ["run", "ZK-1144", "--checkpoint-dir", missing, "--resume"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "not a checkpoint directory" in err
    assert len(err.strip().splitlines()) == 1


def test_resume_stale_schema_version_exits_2(tmp_path, capsys):
    ckdir = tmp_path / "ck"
    assert main(
        ["run", "ZK-1144", "--no-trigger", "--checkpoint-dir", str(ckdir)]
    ) == 0
    capsys.readouterr()
    manifest = load_manifest(str(ckdir))
    manifest["version"] = 99
    write_document(str(ckdir / "manifest.json"), manifest)
    code = main(
        ["run", "ZK-1144", "--checkpoint-dir", str(ckdir), "--resume"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "stale checkpoint schema version 99" in err
    assert len(err.strip().splitlines()) == 1


def test_resume_v1_checkpoint_exits_2(tmp_path, capsys):
    """A version-1 directory (the trace inside ``trace.json``), a
    version-2 one (verdicts in ``trigger-outcomes.jsonl``) or a
    version-3 one (a saved ``trace/`` beside ``stages``) is refused in
    one line; there is no reader for any of them.  Versions 1 and 2
    wrote the manifest as plain JSON, version 3 enveloped it."""
    import json as _json

    ckdir = tmp_path / "ck"
    assert main(
        ["run", "ZK-1144", "--no-trigger", "--checkpoint-dir", str(ckdir)]
    ) == 0
    capsys.readouterr()
    manifest = load_manifest(str(ckdir))
    for version in (1, 2):
        manifest.update(version=version)
        (ckdir / "manifest.json").write_text(_json.dumps(manifest, indent=2))
        code = main(
            ["run", "ZK-1144", "--checkpoint-dir", str(ckdir), "--resume"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: stale checkpoint schema version {version} ")
        assert "re-run without --resume" in err
        assert len(err.strip().splitlines()) == 1
    manifest.update(version=3, stages={"trace": {"name": "ZK-1144"}})
    write_document(str(ckdir / "manifest.json"), manifest)
    code = main(["run", "ZK-1144", "--checkpoint-dir", str(ckdir), "--resume"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stale checkpoint schema version 3 ")
    assert len(err.strip().splitlines()) == 1


def test_resume_with_a_tampered_trace_digest_exits_2(tmp_path, capsys):
    """A verdict log pinned to a trace the resume does not reproduce is
    refused in one line, never attached to the re-traced run."""
    ckdir = tmp_path / "ck"
    assert main(["run", "ZK-1144", "--checkpoint-dir", str(ckdir)]) == 0
    capsys.readouterr()
    manifest = load_manifest(str(ckdir))
    manifest["trace_digest"] = "0" * 64
    write_document(str(ckdir / "manifest.json"), manifest)
    code = main(["run", "ZK-1144", "--checkpoint-dir", str(ckdir), "--resume"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint trace digest mismatch: ")
    assert err.rstrip().endswith("re-run without --resume to rebuild")
    assert len(err.strip().splitlines()) == 1


def test_resume_config_fingerprint_mismatch_exits_2(tmp_path, capsys):
    ckdir = tmp_path / "ck"
    assert main(
        ["run", "ZK-1144", "--no-trigger", "--checkpoint-dir", str(ckdir)]
    ) == 0
    capsys.readouterr()
    # a different scope changes the analysis: the checkpoint must refuse
    code = main(
        [
            "run",
            "ZK-1144",
            "--no-trigger",
            "--full-scope",
            "--checkpoint-dir",
            str(ckdir),
            "--resume",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "fingerprint mismatch" in err
    assert len(err.strip().splitlines()) == 1


def test_resume_of_a_checkpoint_hashing_trigger_seeds_exits_2(tmp_path, capsys):
    """A version-4 checkpoint whose fingerprint still hashed the former
    ``trigger_seeds`` knob (ZK-1144's was ``5692c87fe4a82fe6``) is
    refused like any other fingerprint mismatch, in one line."""
    ckdir = tmp_path / "ck"
    assert main(["run", "ZK-1144", "--checkpoint-dir", str(ckdir)]) == 0
    capsys.readouterr()
    manifest = load_manifest(str(ckdir))
    assert manifest["version"] == 4
    assert manifest["config_fingerprint"] != "5692c87fe4a82fe6"
    manifest["config_fingerprint"] = "5692c87fe4a82fe6"
    write_document(str(ckdir / "manifest.json"), manifest)
    code = main(["run", "ZK-1144", "--checkpoint-dir", str(ckdir), "--resume"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint config fingerprint mismatch")
    assert len(err.strip().splitlines()) == 1


def test_run_resume_round_trip_via_cli(tmp_path, capsys):
    ckdir = str(tmp_path / "ck")
    assert main(
        ["run", "ZK-1144", "--no-trigger", "--checkpoint-dir", ckdir]
    ) == 0
    first = capsys.readouterr().out
    assert main(
        [
            "run",
            "ZK-1144",
            "--no-trigger",
            "--checkpoint-dir",
            ckdir,
            "--resume",
        ]
    ) == 0
    second = capsys.readouterr().out
    assert f"resumed from checkpoint {ckdir}: 0 trigger verdicts restored" in second
    assert "resumed from" not in first
    assert "DCatch reports" in first and "DCatch reports" in second
    assert os.listdir(ckdir) == ["manifest.json"]
    assert "stages" not in load_manifest(ckdir)


@pytest.mark.parametrize(
    "spec", ["bogus", "reservoir:8", "epoch:1:2", "rate:2", "budget:0"]
)
def test_bad_sampling_spec_exits_2(spec, capsys):
    """Rejected where argparse reads it: one line, before anything runs."""
    for command in (["run", "ZK-1144"], ["trace", "ZK-1144"], ["stream", "wal"]):
        with pytest.raises(SystemExit) as info:
            main(command + ["--sampling", spec])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad sampling spec {spec!r}")
        assert "supported: R, all, rate:R, budget:N, budget:N+rate:R" in err
        assert len(err.strip().splitlines()) == 1
