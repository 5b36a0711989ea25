"""Property-based tests: trace record serialization round-trips."""

import copy
import json
import pickle
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.ids import CallStack, Frame
from repro.runtime.ops import OpEvent, OpKind
from repro.trace import Trace, record_from_dict, record_to_dict
from repro.trace import records as records_module
from repro.trace.records import TRACE_SCHEMA_VERSION, _untuple, record_to_list
from repro.trace.wal import _encode_json

_kinds = st.sampled_from(list(OpKind))
_obj_ids = st.one_of(
    st.integers(min_value=0, max_value=10_000),
    st.text(alphabet="abcdefgh-/0123456789", min_size=1, max_size=16),
    st.tuples(st.text(alphabet="abc/", min_size=1, max_size=8), st.integers(0, 99)),
)
_frames = st.builds(
    Frame,
    path=st.sampled_from(
        ["repro/systems/x/a.py", "repro/systems/y/b.py", "examples/q.py"]
    ),
    func=st.sampled_from(["f", "g", "handler", "poll"]),
    line=st.integers(min_value=1, max_value=500),
)
_stacks = st.lists(_frames, max_size=4).map(CallStack)
_locations = st.one_of(
    st.none(), st.tuples(st.integers(0, 50), st.text("abck#", min_size=1, max_size=6))
)

_events = st.builds(
    OpEvent,
    seq=st.integers(min_value=1, max_value=1_000_000),
    kind=_kinds,
    obj_id=_obj_ids,
    node=st.sampled_from(["am", "nm1", "zk2"]),
    tid=st.integers(0, 64),
    thread_name=st.sampled_from(["am.rpc", "nm1.main"]),
    segment=st.integers(0, 512),
    callstack=_stacks,
    location=_locations,
    observed_write=st.one_of(st.none(), st.integers(1, 1_000_000)),
    in_handler=st.booleans(),
    extra=st.dictionaries(
        st.sampled_from(["method", "verb", "queue", "etype"]),
        st.one_of(st.text(max_size=8), st.integers(0, 99), st.booleans()),
        max_size=3,
    ),
)


@settings(max_examples=100, deadline=None)
@given(event=_events)
def test_single_record_roundtrip(event):
    restored = record_from_dict(record_to_dict(event))
    assert restored.seq == event.seq
    assert restored.kind == event.kind
    assert restored.obj_id == event.obj_id
    assert restored.node == event.node
    assert restored.tid == event.tid
    assert restored.segment == event.segment
    assert restored.callstack == event.callstack
    assert restored.location == event.location
    assert restored.observed_write == event.observed_write
    assert restored.in_handler == event.in_handler
    assert restored.extra == event.extra


@settings(max_examples=40, deadline=None)
@example(events=[], partial=True, dropped_mem=1)
@given(
    events=st.lists(_events, max_size=20),
    partial=st.booleans(),
    dropped_mem=st.integers(0, 9),
)
def test_record_stream_roundtrip(tmp_path_factory, events, partial, dropped_mem):
    """``Trace.load(Trace.save(t))`` is ``t``, record for record and in
    every loss field."""
    # Make seqs unique so ordering is well defined.
    events = [
        replace(e, seq=i + 1) for i, e in enumerate(events)
    ]
    trace = Trace()
    for event in reversed(events):
        trace.append(event)
    trace.partial, trace.dropped_mem = partial, dropped_mem
    directory = str(tmp_path_factory.mktemp("saved"))
    trace.save(directory)
    restored = Trace.load(directory)
    assert [record_to_dict(r) for r in restored] == [
        record_to_dict(e) for e in events
    ]
    for name in ("partial", "dropped_mem"):
        assert getattr(restored, name) == getattr(trace, name)


@settings(max_examples=30, deadline=None)
@given(events=st.lists(_events, max_size=30))
def test_trace_keeps_seq_order_regardless_of_insertion(events):
    events = [
        replace(e, seq=i + 1) for i, e in enumerate(events)
    ]
    trace = Trace()
    # Insert in a scrambled but deterministic order.
    for event in sorted(events, key=lambda e: (e.tid, -e.seq)):
        trace.append(event)
    seqs = [r.seq for r in trace.records]
    assert seqs == sorted(seqs)
    for event in events:
        assert trace.by_seq(event.seq) is not None


# -- schema versioning -------------------------------------------------------

_unicode_obj_ids = st.one_of(
    st.text(min_size=1, max_size=12),  # full unicode, including emoji etc.
    st.tuples(st.text(min_size=1, max_size=6), st.integers(0, 999)),
)
@settings(max_examples=100, deadline=None)
@given(event=_events, obj_id=_unicode_obj_ids)
def test_roundtrip_preserves_unicode_and_tuple_obj_ids(event, obj_id):
    from repro.trace import TRACE_SCHEMA_VERSION, record_from_dict, record_to_dict

    event = replace(event, obj_id=obj_id)
    data = record_to_dict(event)
    assert data["v"] == TRACE_SCHEMA_VERSION
    restored = record_from_dict(data)
    assert restored.obj_id == event.obj_id
    assert restored.extra == event.extra


@settings(max_examples=50, deadline=None)
@given(event=_events, version=st.integers(min_value=2, max_value=99))
def test_unknown_schema_version_rejected(event, version):
    from repro.errors import TraceFormatError
    from repro.trace import record_from_dict, record_to_dict

    data = record_to_dict(event)
    data["v"] = version
    try:
        record_from_dict(data)
    except TraceFormatError as exc:
        assert str(version) in str(exc)
    else:
        raise AssertionError("future schema version must be rejected")


def test_missing_version_field_defaults_to_v1():
    # Pre-versioning traces carry no "v" key; they must keep loading.
    from repro.trace import record_from_dict, record_to_dict

    event = OpEvent(
        seq=1, kind=OpKind.MEM_READ, obj_id="x", node="n", tid=0,
        thread_name="t", segment=0, callstack=CallStack([]),
    )
    data = record_to_dict(event)
    del data["v"]
    assert record_from_dict(data).seq == 1


@settings(max_examples=40, deadline=None)
@given(events=st.lists(_events, min_size=1, max_size=10))
def test_wal_roundtrip_equals_direct_roundtrip(tmp_path_factory, events):
    """Records that pass through the WAL + salvage must decode exactly
    like records that round-trip through record_to_dict alone."""
    from repro.trace import WalSink, salvage_trace

    events = [
        replace(e, seq=i + 1, node="n", tid=0)
        for i, e in enumerate(events)
    ]
    directory = str(tmp_path_factory.mktemp("wal"))
    sink = WalSink(directory, flush_every=1)
    for event in events:
        sink.append(event)
    sink.close()
    trace, report = salvage_trace(directory)
    assert not report.damaged
    assert [r.seq for r in trace.records] == [e.seq for e in events]
    for restored, original in zip(trace.records, events):
        assert restored.kind == original.kind
        assert restored.obj_id == original.obj_id
        assert restored.callstack == original.callstack
        assert restored.extra == original.extra


# -- lean records --------------------------------------------------------------
#
# A whole trace of decoded events is resident on the whole-graph path,
# so an event carries no ``__dict__`` and shares what its site shares.


def _off_the_wire(event):
    """Decoded as a reader decodes it: through JSON text, so that equal
    strings arrive as distinct objects."""
    return record_from_dict(json.loads(json.dumps(record_to_dict(event))))


def _at_site(seq, line=31):
    return OpEvent(
        seq=seq, kind=OpKind.MEM_WRITE, obj_id="x", node="worker-0007", tid=3,
        thread_name="worker-0007.main", segment=3,
        callstack=CallStack([Frame("repro/systems/x/a.py", "local_write", line)]),
        location=(9, "x"),
    )


def test_events_have_no_instance_dict():
    event = _off_the_wire(_at_site(1))
    assert not hasattr(event, "__dict__")
    with pytest.raises(AttributeError):
        event.scratch = 1


def test_records_of_one_site_share_one_stack_and_one_node_string():
    first, second = _off_the_wire(_at_site(1)), _off_the_wire(_at_site(2))
    assert first.callstack == _at_site(1).callstack
    assert first.callstack is second.callstack
    assert first.node is second.node
    assert first.thread_name is second.thread_name
    assert _off_the_wire(_at_site(3, line=32)).callstack is not first.callstack


def test_stack_cache_stays_under_its_cap():
    cap = records_module._STACK_CACHE_MAX
    for line in range(1, cap + 100):
        assert _off_the_wire(_at_site(line, line=line)).callstack[0].line == line
        assert len(records_module._stack_cache) <= cap


def test_a_look_alike_line_number_is_not_planted_under_a_real_site():
    # True == 1 (and hashes alike): caching the hand-made stack would
    # hand ``line=True`` to every later record of the real site.
    wire = record_to_dict(_at_site(1, line=1))
    wire["stack"] = [["repro/systems/x/lookalike.py", "f", True]]
    assert record_from_dict(wire).callstack[0].line is True
    wire["stack"] = [["repro/systems/x/lookalike.py", "f", 1]]
    assert type(record_from_dict(wire).callstack[0].line) is int


def test_a_look_alike_path_does_not_decode_as_a_cached_stack():
    # 1 == True: a cached ``[[1, "f", 3]]`` must not hand its path to a
    # later ``[[True, "f", 3]]``.
    wire = record_to_dict(_at_site(1))
    wire["stack"] = [[1, "f", 3]]
    assert record_from_dict(wire).callstack[0].path == 1
    wire["stack"] = [[True, "f", 3]]
    decoded = record_from_dict(wire)
    assert decoded.callstack[0].path is True
    assert record_to_dict(decoded)["stack"] == [[True, "f", 3]]


def test_accesses_at_one_location_share_its_location_and_obj_id():
    first = _off_the_wire(_at_site(1))
    second = _off_the_wire(_at_site(2, line=40))
    assert first.location == (9, "x") and first.obj_id == "x"
    assert first.location is second.location
    assert first.obj_id is second.obj_id


def test_part_cache_stays_under_its_cap():
    cap = records_module._PART_CACHE_MAX
    for uid in range(5_000):
        event = _off_the_wire(replace(_at_site(uid), location=(uid, "x")))
        assert event.location == (uid, "x")
        assert len(records_module._part_cache) <= cap


def test_hb_ids_pass_the_part_cache_by():
    before = dict(records_module._part_cache)
    for n in range(10_000):
        event = replace(
            _at_site(n), kind=OpKind.EVENT_CREATE, obj_id=f"e{n}", location=None
        )
        assert _off_the_wire(event).obj_id == f"e{n}"
    assert records_module._part_cache == before


@pytest.mark.parametrize("first", [1, True, 1.0])
def test_look_alike_locations_keep_their_element_types(first):
    wire = record_to_dict(_at_site(1))
    for value in (1, True, 1.0):  # each planted before and after ``first``
        wire["location"] = [value, "x"]
        record_from_dict(wire)
        wire["location"] = [first, "x"]
        location = record_from_dict(wire).location
        assert location == (1, "x") and type(location[0]) is type(first)


def test_a_location_holding_a_list_decodes_as_before():
    wire = record_to_dict(_at_site(1))
    wire["location"] = [[1, 2], "x"]
    decoded = record_from_dict(wire)
    assert decoded.location == ([1, 2], "x")
    assert decoded == _reference_record_from_dict(wire)


def test_decoded_records_share_one_read_only_empty_extra():
    first, second = _off_the_wire(_at_site(1)), _off_the_wire(_at_site(2))
    assert first.extra == {} and first.extra is second.extra
    with pytest.raises(TypeError):
        first.extra["writer_tid"] = 1
    assert first.extra == {}
    # A copy of a decoded record keeps sharing it.
    assert pickle.loads(pickle.dumps(first)).extra is first.extra
    assert copy.deepcopy(first).extra is first.extra


def test_a_non_empty_extra_decodes_to_a_fresh_dict():
    event = replace(_at_site(1), extra={"writer_tid": 2, "writer_node": "nm1"})
    first, second = _off_the_wire(event), _off_the_wire(event)
    assert type(first.extra) is dict and first.extra is not second.extra
    assert first.extra == {"writer_tid": 2, "writer_node": "nm1"}


@pytest.mark.parametrize("value", [[], 0, None])
def test_an_extra_that_is_not_a_dict_decodes_as_it_is(value):
    wire = record_to_dict(_at_site(1))
    wire["extra"] = value
    assert record_from_dict(wire).extra is value


def test_a_missing_extra_decodes_to_an_empty_mapping():
    wire = record_to_dict(_at_site(1))
    del wire["extra"]
    assert record_from_dict(wire).extra == {}


_WIRE = (
    '{"v": 1, "seq": 1, "kind": "mem_write", "obj_id": "x", '
    '"node": "worker-0007", "tid": 3, "thread": "worker-0007.main", '
    '"segment": 3, "stack": [["repro/systems/x/a.py", "local_write", 31]], '
    '"location": [9, "x"], "observed_write": null, "in_handler": false, '
    '"extra": %s}'
)


@pytest.mark.parametrize(
    "extra", ["{}", '{"writer_tid": 2, "writer_node": "nm1"}']
)
def test_a_decoded_record_encodes_to_the_same_bytes(extra):
    event = replace(_at_site(1), extra=json.loads(extra))
    assert json.dumps(record_to_dict(_off_the_wire(event))) == _WIRE % extra


@settings(max_examples=50, deadline=None)
@given(event=_events)
def test_replace_pickle_and_copy_roundtrip(event):
    assert replace(event) == event
    assert replace(event, seq=event.seq + 1).seq == event.seq + 1
    assert pickle.loads(pickle.dumps(event)) == event
    shallow = copy.copy(event)
    assert shallow == event and shallow.extra is event.extra
    assert copy.deepcopy(event) == event


#: The positional form's fields, in order: the keyed form's, less ``v``.
_FIELDS = (
    "seq", "kind", "obj_id", "node", "tid", "thread", "segment", "stack",
    "location", "observed_write", "in_handler", "extra",
)


def _reference_record_from_dict(data):
    """``record_from_dict`` as it was before it was table-driven: the
    statement of what is accepted and what each rejection says.  A list
    is the positional form: exactly the twelve fields, in order, read
    as the keyed form with every field present."""
    if isinstance(data, list):
        try:  # twelve, or the unpacking's own words for the miss
            (seq, kind, obj_id, node, tid, thread, segment, stack, location,
             observed_write, in_handler, extra) = data
        except ValueError as exc:
            raise TraceFormatError(
                f"malformed trace record (ValueError: {exc})"
            ) from exc
        data = dict(zip(_FIELDS, data))
    if not isinstance(data, dict):
        raise TraceFormatError(f"trace record is not an object: {data!r}")
    version = data.get("v", 1)
    if version != TRACE_SCHEMA_VERSION:
        raise TraceFormatError(
            f"unknown trace schema version {version!r} "
            f"(this reader understands version {TRACE_SCHEMA_VERSION})"
        )
    try:
        return OpEvent(
            seq=data["seq"],
            kind=OpKind(data["kind"]),
            obj_id=_untuple(data["obj_id"]),
            node=data["node"],
            tid=data["tid"],
            thread_name=data["thread"],
            segment=data["segment"],
            callstack=CallStack(Frame(p, f, l) for p, f, l in data["stack"]),
            location=tuple(data["location"]) if data["location"] else None,
            observed_write=data["observed_write"],
            in_handler=data.get("in_handler", False),
            extra=data.get("extra", {}),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(
            f"malformed trace record ({type(exc).__name__}: {exc})"
        ) from exc


_junk = st.sampled_from(
    [None, True, 0, 1.5, "", "mem_read", "x", [], {}, [1, 2], "abc",
     [[1, 2, 3]], [["a", "b", True]], [["a", "b"]], [[["a"], "b", 3]], [5],
     {"__tuple__": [1, "a"]}, 99]
)
_edits = st.lists(
    st.tuples(
        st.sampled_from(
            ["v", "seq", "kind", "obj_id", "node", "tid", "thread", "segment",
             "stack", "location", "observed_write", "in_handler", "extra"]
        ),
        st.one_of(st.just("<delete>"), _junk),
    ),
    max_size=3,
)


@settings(max_examples=400, deadline=None)
@given(event=_events, edits=_edits, whole=st.one_of(st.none(), _junk))
def test_table_driven_decode_accepts_and_rejects_what_the_reference_does(
    event, edits, whole
):
    data = json.loads(json.dumps(record_to_dict(event)))
    for key, value in edits:
        if value == "<delete>":
            data.pop(key, None)
        else:
            data[key] = value
    if whole is not None:
        data = whole
    try:
        expected = _reference_record_from_dict(data)
    except TraceFormatError as exc:
        with pytest.raises(TraceFormatError) as caught:
            record_from_dict(data)
        assert str(caught.value) == str(exc)
    else:
        assert record_from_dict(data) == expected


def _as_list(data):
    """A keyed dict written as a list: its values in field order.  An
    absent field the keyed reader defaults is written as that default;
    an absent field it requires is left out, so the list is short."""
    defaults = {"in_handler": False, "extra": {}}
    return [
        data[field] if field in data else defaults[field]
        for field in _FIELDS
        if field in data or field in defaults
    ]


def _decode(data):
    try:
        return record_from_dict(data)
    except TraceFormatError as exc:
        return exc


# -- the positional form -------------------------------------------------------


def test_the_positional_form_is_the_keyed_values_in_field_order():
    event = replace(_at_site(1), extra={"writer_tid": 2})
    keyed = record_to_dict(event)
    assert record_to_list(event) == [keyed[field] for field in _FIELDS]
    assert list(keyed) == ["v", *_FIELDS]


@settings(max_examples=200, deadline=None)
@given(event=_events)
def test_positional_roundtrip_through_the_wal_encoder(event):
    assert record_from_dict(json.loads(_encode_json(record_to_list(event)))) == event


@settings(max_examples=400, deadline=None)
@given(event=_events, edits=_edits)
def test_positional_and_keyed_forms_decode_alike(event, edits):
    data = json.loads(json.dumps(record_to_dict(event)))
    for key, value in edits:
        if value == "<delete>":
            data.pop(key, None)
        else:
            data[key] = value
    # A list has no version: only a keyed record the reader takes for
    # the current version has a positional twin.
    assume(data.get("v", 1) == TRACE_SCHEMA_VERSION)
    positional = _as_list(data)
    keyed_result, positional_result = _decode(data), _decode(positional)
    if isinstance(keyed_result, TraceFormatError):
        assert isinstance(positional_result, TraceFormatError)
        if len(positional) == len(_FIELDS):  # the same field is at fault
            assert str(positional_result) == str(keyed_result)
    else:
        assert positional_result == keyed_result
    try:
        expected = _reference_record_from_dict(positional)
    except TraceFormatError as exc:
        assert str(positional_result) == str(exc)
    else:
        assert positional_result == expected


_json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
        st.text(max_size=6), _junk,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.builds(lambda v: {"__tuple__": v}, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(data=st.lists(_json_values, max_size=16).filter(
    lambda values: len(values) != len(_FIELDS)
))
def test_a_positional_record_of_the_wrong_length_is_rejected(data):
    with pytest.raises(TraceFormatError, match="malformed trace record"):
        record_from_dict(data)


@settings(max_examples=400, deadline=None)
@given(
    event=_events,
    swaps=st.dictionaries(st.integers(0, len(_FIELDS) - 1), _json_values, max_size=4),
)
def test_a_junk_positional_record_raises_only_trace_format_error(event, swaps):
    data = record_to_list(event)
    for index, value in swaps.items():
        data[index] = value
    _decode(data)  # an event or a TraceFormatError, never anything else
