"""The one frame decoder, fuzzed, and the readers built on it compared.

Two suites over mutated bytes (byte flips, truncation at any offset,
duplicated / swapped / deleted lines, garbage between frames):

* the decoder alone — never raises, never yields a payload whose CRC
  fails, and gives every line the verdict a per-line oracle gives it
  (so its damage count is exact);
* the four readers of a WAL segment — ``verify_segment_bytes``,
  ``salvage_trace``, the live stream reader and the service's tenant
  spool reader — agree on whether the segment is damaged and on which
  of its records are intact.

And one over intact frames around arbitrary payloads: the readers that
decode agree with ``json.loads`` + ``record_from_dict`` on which of them
hold a record.
"""

import io
import json
import os
import shutil
import tempfile
import zlib
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detect.streaming import detect_races_streaming, iter_wal_records
from repro.errors import TraceFormatError
from repro.framing import (
    Damage,
    SegmentScan,
    atomic_write,
    decode_document,
    decode_line,
    encode_document,
    encode_line,
    encode_seal,
    seal_count,
)
from repro.service.report import render_report, report_from_stream_result
from repro.service.tenants import Tenant, stream_key_str
from repro.ids import CallStack, Frame
from repro.runtime.ops import OpEvent, OpKind
from repro.trace.records import record_from_dict, record_to_dict
from repro.trace.salvage import salvage_trace
from repro.trace.wal import (
    WalStreamReader,
    iter_segment_records,
    list_stream_segments,
    verify_segment_bytes,
)
from repro.workload import generate_workload

WINDOW = 64
#: The stream session's window where checkpoint cadence matters: it
#: saves every eight windows, here every 64 records.
SESSION_WINDOW = 8


# -- mutations -----------------------------------------------------------------

_mutations = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
        st.tuples(st.just("duplicate"), st.integers(0, 1 << 10)),
        st.tuples(st.just("swap"), st.integers(0, 1 << 10), st.integers(0, 1 << 10)),
        st.tuples(st.just("delete"), st.integers(0, 1 << 10)),
        st.tuples(
            st.just("garbage"),
            st.integers(0, 1 << 10),
            st.binary(min_size=1, max_size=40),
        ),
    ),
    min_size=1,
    max_size=4,
)


def _lines(data):
    return list(io.BytesIO(data))


def mutate(data, mutations):
    """Apply ``mutations`` (line numbers and offsets wrap) to bytes."""
    for op in mutations:
        lines = _lines(data)
        if not lines:
            break
        kind = op[0]
        if kind == "flip":
            at = op[1] % len(data)
            data = data[:at] + bytes([data[at] ^ op[2]]) + data[at + 1:]
            continue
        if kind == "truncate":
            data = data[: op[1] % (len(data) + 1)]
            continue
        if kind == "duplicate":
            at = op[1] % len(lines)
            lines.insert(at, lines[at])
        elif kind == "swap":
            a, b = op[1] % len(lines), op[2] % len(lines)
            lines[a], lines[b] = lines[b], lines[a]
        elif kind == "delete":
            del lines[op[1] % len(lines)]
        elif kind == "garbage":
            lines.insert(op[1] % len(lines), op[2].replace(b"\n", b"?") + b"\n")
        data = b"".join(lines)
    return data


# -- the decoder alone ---------------------------------------------------------


def _segment_bytes(payloads):
    running, out = 0, [b'H {"format": "repro-wal"}\n']
    for payload in payloads:
        out.append(encode_line(b"R", payload))
        running = zlib.crc32(payload, running)
    out.append(encode_seal(len(payloads), running))
    return b"".join(out)


_payloads = st.lists(
    st.binary(min_size=0, max_size=60).map(lambda b: b.replace(b"\n", b" ")),
    min_size=1,
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=80), tag=st.sampled_from([b"R", b"F"]))
def test_decode_line_never_raises_on_arbitrary_bytes(raw, tag):
    payload = decode_line(raw, tag)
    assert isinstance(payload, Damage) or raw == encode_line(tag, payload)
    framed = encode_line(tag, raw.replace(b"\n", b" "))
    assert decode_line(framed, tag) == raw.replace(b"\n", b" ")
    other = b"F" if tag == b"R" else b"R"
    assert decode_line(framed, other).kind == "garbage"


@settings(max_examples=300, deadline=None)
@given(payloads=_payloads, mutations=_mutations)
def test_every_line_of_a_mutated_segment_gets_the_right_verdict(
    payloads, mutations
):
    """Per-line oracle, so the damage count is exact: a record line is
    intact iff it is byte for byte what the encoder emits for the
    payload it carries; headers and blanks carry nothing; a seal must
    match the intact records before it; every other line is damage."""
    data = mutate(_segment_bytes(payloads), mutations)
    scan = SegmentScan()
    count = running = 0
    for raw in _lines(data):
        offset = scan.offset
        item = scan.feed(raw)  # never raises
        if raw[:2] == b"R " and raw == encode_line(b"R", raw[20:-1]):
            assert item == raw[20:-1]
            # Never a payload whose CRC fails.
            assert int(raw[11:19], 16) == zlib.crc32(item)
            count += 1
            running = zlib.crc32(item, running)
        elif raw.startswith(b"H ") or raw == b"\n":
            assert item is None
        elif raw == encode_seal(count, running):
            assert item is None and scan.sealed
        else:
            assert isinstance(item, Damage), (raw, item)
            assert item.offset == offset
    assert (scan.count, scan.crc, scan.offset) == (count, running, len(data))


@settings(max_examples=100, deadline=None)
@given(payloads=_payloads)
def test_unmutated_segment_is_intact_and_sealed(payloads):
    data = _segment_bytes(payloads)
    scan = SegmentScan()
    items = [scan.feed(raw) for raw in _lines(data)]
    assert [i for i in items if i is not None] == payloads
    assert scan.sealed and scan.count == len(payloads)
    assert verify_segment_bytes(data) == (len(payloads), True, None)
    # What the client counts as shipped: the seal's count, or 0 when
    # the bytes do not end in a whole seal line.
    assert seal_count(data) == len(payloads)
    assert seal_count(data[:-1]) == 0
    assert seal_count(data[: data.rindex(b"S ")]) == 0


@settings(max_examples=200, deadline=None)
@given(payload=st.binary(max_size=200), mutations=_mutations)
def test_document_envelope_roundtrip_and_damage(payload, mutations):
    framed = encode_document(payload)
    assert decode_document(framed) == payload
    mutated = mutate(framed, [m for m in mutations if m[0] in ("flip", "truncate")])
    decoded = decode_document(mutated)  # never raises
    if mutated != framed:
        assert isinstance(decoded, Damage)


def test_atomic_write_replaces_whole_file(tmp_path):
    path = str(tmp_path / "doc.json")
    atomic_write(path, b"old")
    atomic_write(path, b"new contents")
    assert open(path, "rb").read() == b"new contents"
    assert os.listdir(tmp_path) == ["doc.json"]  # no .tmp left behind


# -- the four readers ----------------------------------------------------------


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    out = tmp_path_factory.mktemp("framing-workload")
    return generate_workload(
        "minimr", "small", seed=5, out_dir=str(out), segment_records=16
    )


def _victim(wal_dir):
    """A mid-stream segment of the longest stream: damage there has
    both earlier segments to keep and later ones to truncate."""
    streams = list_stream_segments(wal_dir)
    key = max(streams, key=lambda k: len(streams[k]))
    return key, len(streams[key]) // 2


def _tenant_report(wal_dir, root):
    """The report the service's spool reader produces for ``wal_dir``
    (a tenant over a pre-filled spool: no sockets, no threads)."""
    segments = list_stream_segments(wal_dir)
    totals = {stream_key_str(k): len(p) for k, p in segments.items()}
    os.makedirs(root)
    tenant = Tenant("t", root, window=WINDOW)
    tenant.declare_streams(sorted(segments))
    tenant.declare_totals(totals)
    tenant.save_state()
    shutil.copytree(wal_dir, tenant.spool_dir)
    tenant = Tenant.recover("t", root)
    assert tenant.finalize(totals) is None
    while not tenant.drained:
        advanced = tenant.pump(limit=100)
        assert advanced or tenant.drained, "pump starved on a complete spool"
    return tenant.write_report()


def _check_readers_agree(wal_dir, scratch):
    key, index = _victim(wal_dir)
    paths = list_stream_segments(wal_dir)[key]
    with open(paths[index], "rb") as fh:
        count, sealed, reason = verify_segment_bytes(fh.read())
    damaged = reason is not None or not sealed

    live_damage = Counter()
    live = [event.seq for event in iter_wal_records(wal_dir, live_damage)]
    trace, salvage = salvage_trace(wal_dir)
    offline = detect_races_streaming(wal_dir=wal_dir, window=WINDOW)
    spool = _tenant_report(wal_dir, os.path.join(scratch, "tenant"))

    # One verdict.
    assert salvage.damaged == damaged
    assert bool(live_damage) == damaged
    assert (spool["confidence"] == "partial") == damaged
    # One set of intact records: the truncating readers keep exactly
    # verify's count of the victim segment and nothing after it, all of
    # it records salvage recovered too.
    lost_tail = sum(
        verify_segment_bytes(open(p, "rb").read())[0] for p in paths[index + 1:]
    )
    whole = sum(
        verify_segment_bytes(open(p, "rb").read())[0]
        for ps in list_stream_segments(wal_dir).values()
        for p in ps
    )
    assert len(live) == whole - (lost_tail if damaged else 0)
    assert not Counter(live) - Counter(r.seq for r in trace.records)
    if not damaged:
        assert sorted(live) == [r.seq for r in trace.records]
    # The tenant's report is the offline pass over the same bytes.
    assert spool["records"] == len(live)
    assert spool["damage"] == dict(live_damage)
    assert render_report(spool) == render_report(
        report_from_stream_result("t", offline)
    )
    return damaged


@settings(max_examples=60, deadline=None)
@given(mutations=_mutations)
def test_readers_agree_on_any_mutated_segment(workload, mutations):
    with tempfile.TemporaryDirectory() as scratch:
        wal_dir = os.path.join(scratch, "wal")
        shutil.copytree(workload.wal_dir, wal_dir)
        key, index = _victim(wal_dir)
        path = list_stream_segments(wal_dir)[key][index]
        with open(path, "rb") as fh:
            data = mutate(fh.read(), mutations)
        with open(path, "wb") as fh:
            fh.write(data)
        _check_readers_agree(wal_dir, scratch)


def _rewrite_victim(wal_dir, edit):
    key, index = _victim(wal_dir)
    path = list_stream_segments(wal_dir)[key][index]
    with open(path, "rb") as fh:
        lines = _lines(fh.read())
    with open(path, "wb") as fh:
        fh.write(b"".join(edit(lines)))


def test_silently_lost_record_is_partial_on_every_reader(workload, tmp_path):
    """One whole ``R`` line gone from a sealed segment: only the seal
    can tell.  Every reader must notice (the live reader used to accept
    any ``S`` line as a valid seal and report ``full``)."""
    wal_dir = str(tmp_path / "wal")
    shutil.copytree(workload.wal_dir, wal_dir)
    _rewrite_victim(wal_dir, lambda lines: lines[:3] + lines[4:])
    assert _check_readers_agree(wal_dir, str(tmp_path)) is True
    result = detect_races_streaming(wal_dir=wal_dir, window=WINDOW)
    assert result.confidence == "partial"
    assert result.damage == {"damaged_records": 1}


def test_rotted_spool_segment_is_partial_on_every_reader(workload, tmp_path):
    """A payload byte rots after the segment was verified and ACKed:
    the tenant pump must survive it (it used to die on JSONDecodeError)
    and report what offline reports."""
    wal_dir = str(tmp_path / "wal")
    shutil.copytree(workload.wal_dir, wal_dir)

    def rot(lines):
        line = lines[5]
        return lines[:5] + [line[:25] + b"\x00" + line[26:]] + lines[6:]

    _rewrite_victim(wal_dir, rot)
    assert _check_readers_agree(wal_dir, str(tmp_path)) is True


def test_missing_segment_is_partial_offline_and_in_salvage(workload, tmp_path):
    wal_dir = str(tmp_path / "wal")
    shutil.copytree(workload.wal_dir, wal_dir)
    key, index = _victim(wal_dir)
    os.remove(list_stream_segments(wal_dir)[key][index])
    result = detect_races_streaming(wal_dir=wal_dir, window=WINDOW)
    assert result.confidence == "partial"
    assert result.damage == {"missing_segments": 1}
    _trace, salvage = salvage_trace(wal_dir)
    assert salvage.threads[f"{key[0]}/thread-{key[1]}"].missing_segments == [index]


# -- one session, two drivers ----------------------------------------------------
#
# The offline ``stream`` pass and the tenant pump run the same stream
# session over the same merge, so over the same spool they publish the
# same bytes: whatever the damage, and wherever the tenant is killed
# and recovered (by replaying its spool).


def _lying_seal(lines):
    seal = next(i for i, l in enumerate(lines) if l.startswith(b"S "))
    return lines[:seal] + [encode_seal(999, 0)] + lines[seal + 1:]


def _flip_crc(lines):
    line = lines[4]  # "R <len> <crc> <payload>": change one CRC digit
    digit = b"0" if line[12:13] != b"0" else b"1"
    return lines[:4] + [line[:12] + digit + line[13:]] + lines[5:]


_DAMAGE = {
    "intact": None,
    "torn-tail": lambda lines: lines[:-2] + [lines[-2][: len(lines[-2]) // 2]],
    "crc-flipped": _flip_crc,
    "lying-seal": _lying_seal,
    "missing-segment": "remove",
}


def _spool_tenant(spool, root, recover=False):
    """A finalized tenant over ``spool``."""
    segments = list_stream_segments(spool)
    totals = {stream_key_str(k): len(p) for k, p in segments.items()}
    if recover:
        tenant = Tenant.recover("t", root)
    else:
        os.makedirs(root)
        tenant = Tenant("t", root, window=SESSION_WINDOW)
        tenant.declare_streams(sorted(segments))
        os.symlink(spool, tenant.spool_dir)
        for key, paths in segments.items():
            tenant.streams[key].received = len(paths)
    assert tenant.finalize(totals) is None
    return tenant


def _drained_report(tenant, batch):
    while not tenant.drained:
        assert tenant.pump(limit=batch) or tenant.drained
    return render_report(tenant.write_report())


@pytest.mark.parametrize("damage", sorted(_DAMAGE))
@settings(max_examples=15, deadline=None)
@given(batch=st.integers(1, 90), kill_after=st.integers(0, 12))
def test_offline_pass_and_tenant_publish_the_same_bytes(
    workload, damage, batch, kill_after
):
    with tempfile.TemporaryDirectory() as scratch:
        spool = os.path.join(scratch, "wal")
        shutil.copytree(workload.wal_dir, spool)
        edit = _DAMAGE[damage]
        if edit == "remove":
            key, index = _victim(spool)
            os.remove(list_stream_segments(spool)[key][index])
        elif edit is not None:
            _rewrite_victim(spool, edit)

        offline = detect_races_streaming(wal_dir=spool, window=SESSION_WINDOW)
        oracle = render_report(report_from_stream_result("t", offline))
        assert (offline.confidence == "partial") == (damage != "intact")
        merged = sum(1 for _ in iter_wal_records(spool))
        assert offline.records_consumed == merged

        # The tenant, uninterrupted.
        steady = _spool_tenant(spool, os.path.join(scratch, "steady"))
        assert _drained_report(steady, batch) == oracle

        # The tenant, killed after ``kill_after`` pump batches and
        # recovered: the recovered tenant replays from record 0.
        root = os.path.join(scratch, "killed")
        killed = _spool_tenant(spool, root)
        for _ in range(kill_after):
            killed.pump(limit=batch)
        recovered = _spool_tenant(spool, root, recover=True)
        assert recovered.consumed_raw == 0
        assert _drained_report(recovered, batch) == oracle
        assert recovered.consumed_raw == merged


# -- what decodes ----------------------------------------------------------------
#
# A frame that verifies need not hold a record.  Every reader that turns
# payloads into records does it through ``decode_record``, which accepts
# what ``json.loads`` and then ``record_from_dict`` accept: its bare
# scanner must take nothing ``json.loads`` refuses (trailing bytes) and
# refuse nothing it takes (leading whitespace, a BOM).

_WIRE = record_to_dict(
    OpEvent(
        seq=1, kind=OpKind.MEM_WRITE, obj_id="n.x", node="n", tid=0,
        thread_name="n.main", segment=0,
        callstack=CallStack([Frame("repro/systems/x/a.py", "f", 7)]),
        location=(3, "x"), extra={"etype": "é"},
    )
)


def _payload(**changes):
    return json.dumps({**_WIRE, **changes}, sort_keys=True).encode()


_RECORD = _payload()

#: payload -> does it hold a record?
_ODD_PAYLOADS = {
    _RECORD: True,
    _RECORD + b" ": True,
    b"  " + _RECORD: True,
    b"\xef\xbb\xbf" + _RECORD: True,  # a BOM: ``json.loads`` skips it
    _RECORD + b"{}": False,
    b"1": False,
    b"[]": False,
    b"{}": False,
    b'{"v": 1}': False,
    _payload(v=99): False,
    _payload(kind=["mem_write"]): False,
    b"\xff\xfe" + _RECORD: False,  # not UTF-8
    b"": False,
    b"[" * 100_000: False,  # RecursionError, not ValueError
}


def _decodes_to(payload):
    """The oracle: the event, or ``None`` for a payload that is none."""
    try:
        return record_from_dict(json.loads(payload))
    except (ValueError, RecursionError, TraceFormatError):
        return None


@settings(max_examples=150, deadline=None)
@given(
    payloads=st.lists(
        st.one_of(
            st.sampled_from(sorted(_ODD_PAYLOADS)),
            st.binary(max_size=40).map(lambda b: b.replace(b"\n", b" ")),
        ),
        min_size=1,
        max_size=6,
    )
)
@example(payloads=list(_ODD_PAYLOADS))
def test_readers_accept_exactly_what_json_loads_then_record_from_dict_accept(
    payloads,
):
    data = _segment_bytes(payloads)
    assert verify_segment_bytes(data) == (len(payloads), True, None)
    expected = [_decodes_to(payload) for payload in payloads]
    for payload, event in zip(payloads, expected):
        assert _ODD_PAYLOADS.get(payload, False) == (event is not None), payload
    accepted = [event for event in expected if event is not None]
    first_bad = expected.index(None) if None in expected else len(expected)

    # The JSON half on its own: dicts, until the first frame that is
    # not JSON raises what ``json.loads`` raises.
    dicts = iter(iter_segment_records(data))
    for payload in payloads:
        try:
            want = json.loads(payload)
        except (ValueError, RecursionError) as exc:
            with pytest.raises(type(exc)):
                next(dicts)
            break
        assert repr(next(dicts)) == repr(want)  # repr: NaN != NaN

    with tempfile.TemporaryDirectory() as wal_dir:
        path = os.path.join(wal_dir, "n", "thread-0", "seg-0000.wal")
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(data)

        trace, report = salvage_trace(wal_dir)
        thread = report.threads["n/thread-0"]
        assert trace.records == accepted
        assert report.records_recovered == thread.records_recovered == len(accepted)
        lost = len(payloads) - len(accepted)
        assert report.records_quarantined == thread.records_quarantined == lost
        assert report.bad_records == len(report.quarantined) == lost
        assert report.seal_mismatches == 0 and report.sealed_segments == 1

        damage = Counter()
        live = list(WalStreamReader(damage).stream([path]))
        assert live == expected[:first_bad]
        assert damage == ({"damaged_records": 1} if lost else {})
