"""Segment clocks: the streaming HB state's bytes are pinned.

A star barrier (one coordinator, 64 workers, every worker messaging
the coordinator and back each phase) is streamed through
:class:`StreamingDetector` with ``compact()`` and a checkpoint save
every ``CADENCE`` records.  The checkpoint bytes, the per-compaction
``state.stats()`` and the candidate pairs are goldens recorded with
the plain dict-of-dicts clocks, so a change to how a clock is stored
has to leave every one of them where it was.
"""

import hashlib

import pytest
from dict_clocks import DictClockState
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.streaming import (
    StreamingDetector,
    iter_wal_records,
    save_stream_checkpoint,
    stream_fingerprint,
    wal_stream_tids,
)
from repro.hb import incremental
from repro.hb.incremental import FOLD_THRESHOLD, StreamingHBState, _logical
from repro.hb.model import FULL_MODEL
from repro.ids import CallStack
from repro.runtime.ops import OpEvent, OpKind
from repro.workload import WorkloadSpec, generate_workload

STAR = WorkloadSpec(
    preset="star", workers=64, phases=3, local_ops=0, chain_len=6
)
#: Records between compactions (and checkpoint saves).
CADENCE = 97
FINGERPRINT = stream_fingerprint(FULL_MODEL, CADENCE, "star")

#: ``state.stats()`` after each compaction, in this key order.
STATS_KEYS = (
    "segments_live",
    "clock_entries",
    "pending_snapshots",
    "pending_entries",
    "streams_started",
    "streams_closed",
    "rootless_segments",
    "records_observed",
)


@pytest.fixture(scope="module")
def star(tmp_path_factory):
    out = tmp_path_factory.mktemp("star")
    return generate_workload("minimr", STAR, 0, str(out))


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _stream(wal_dir, ckpt):
    """Stream the WAL, compacting and saving ``ckpt`` every CADENCE
    records.  Returns (checkpoint digests, stats rows, candidate
    digest, final bytes)."""
    detector = StreamingDetector(
        window=10**12, expected_streams=wal_stream_tids(wal_dir)
    )
    digests, stats = [], []
    records = iter_wal_records(wal_dir, on_stream_end=detector.close_stream)
    for n, event in enumerate(records, 1):
        detector.feed(event)
        if n % CADENCE:
            continue
        detector.compact()
        row = detector.state.stats()
        stats.append(tuple(row[k] for k in STATS_KEYS))
        save_stream_checkpoint(ckpt, detector, FINGERPRINT)
        digests.append(_sha256(ckpt))
    detector.finish()
    pairs = repr([(c.first.seq, c.second.seq) for c in detector.candidates])
    save_stream_checkpoint(ckpt, detector, FINGERPRINT)
    with open(ckpt, "rb") as fh:
        final = fh.read()
    return digests, stats, hashlib.sha256(pairs.encode()).hexdigest(), final


GOLDEN_DIGESTS = [
    "2b629bf5a512e022de99bbf9a425ba980027283b973d4793fbe1f980e55bc4de",
    "954d593420c9ac09eba4564b61618afea14473f6b54394fe893b0e6e9a671b25",
    "a118b0ee39c4456184f75a253ab87669be6e47189abb6798f972039cd8f54db9",
    "0753e632622ee018f4debe61663b1a367cebeed2d75a5243b96ca91e953e3cd3",
    "a760c41c596e4731aac261d1533a8d32a50f25a5f31de2520aec3c447170c192",
    "9d79e521804d1b88db81a9fef4ef3c01c04459d6e836b6991e5bc403ebb81d0c",
    "8c3ad84605fcb8a2c20a0493693d12b7ad69997986e8bfed2378159bae552ce2",
    "93accdd926f93d013f3ecabad0c1155ccba9ce6668f0968ad47067683f4da915",
]
GOLDEN_STATS = [
    (15, 30, 65, 82, 15, 0, 0, 97),
    (58, 125, 65, 137, 58, 0, 0, 194),
    (65, 208, 17, 1105, 65, 0, 0, 291),
    (65, 1651, 64, 4160, 65, 0, 0, 388),
    (65, 3280, 63, 3180, 65, 0, 0, 485),
    (65, 3295, 34, 2210, 65, 0, 0, 582),
    (35, 1767, 64, 4160, 65, 30, 0, 679),
    (1, 54, 46, 2326, 65, 64, 0, 776),
]
GOLDEN_PAIRS = "8de0139ab815429d324e8e5b36aa208eff3fbcef616b27d72a189e0df79b1a54"
GOLDEN_FINAL = "ed9dbcda54a6e0fe12e90d6f43028a14b993fce407d2c747c108ab93169764a7"


def test_star_stream_matches_goldens(star, tmp_path):
    digests, stats, pairs, final = _stream(
        star.wal_dir, str(tmp_path / "stream.ckpt")
    )
    assert digests == GOLDEN_DIGESTS
    assert stats == GOLDEN_STATS
    assert pairs == GOLDEN_PAIRS
    assert hashlib.sha256(final).hexdigest() == GOLDEN_FINAL


# -- differential oracle ---------------------------------------------------


class _Script:
    """A record stream under construction, with the harness's own steps
    (``close`` a stream, ``compact``) interleaved."""

    def __init__(self):
        self.steps = []
        self.tids = set()

    def op(self, seg, kind, obj, location=None):
        self.tids.add(seg)
        self.steps.append(("observe", OpEvent(
            seq=len(self.steps), kind=kind, obj_id=obj, node="n", tid=seg,
            thread_name=f"t{seg}", segment=seg, callstack=CallStack(),
            location=location,
        )))

    def send(self, seg, tag):
        self.op(seg, OpKind.SOCK_SEND, tag)

    def recv(self, seg, tag):
        self.op(seg, OpKind.SOCK_RECV, tag)

    def write(self, seg, key):
        self.op(seg, OpKind.MEM_WRITE, key, location=(1, key))


def _star(script, hub, workers, phase, order):
    """``hub`` opens a phase for every worker and collects them in
    ``order``; the first two workers hand a token along on the way.
    A message the hub sends first reaches the first worker only after
    the collect, so the frontier can pass its pending snapshot."""
    script.send(hub, f"{hub}/{phase}/late")
    for w in workers:
        script.send(hub, f"{hub}/{phase}/start/{w}")
    for i, w in enumerate(workers):
        script.recv(w, f"{hub}/{phase}/start/{w}")
        if i == 1:
            script.recv(w, f"{hub}/{phase}/tok")
        script.write(w, f"{hub}/{phase}")
        if i == 0:
            script.send(w, f"{hub}/{phase}/tok")
        script.send(w, f"{hub}/{phase}/done/{w}")
    for i in order:
        script.recv(hub, f"{hub}/{phase}/done/{workers[i]}")
    script.recv(workers[0], f"{hub}/{phase}/late")


@st.composite
def _scripts(draw, shape):
    script = _Script()
    width = draw(st.integers(3, 7))
    phases = draw(st.integers(2, 4))
    order = st.permutations(range(width))
    if shape == "star":
        for phase in range(phases):
            _star(script, 0, list(range(1, width + 1)), phase, draw(order))
    elif shape == "relay":
        for hop in range(phases * width):
            seg = hop % width
            if hop:
                script.recv(seg, f"hop/{hop}")
            script.write(seg, "relay")
            script.send(seg, f"hop/{hop + 1}")
    elif shape == "hubs":
        left = list(range(2, 2 + width))
        right = list(range(2 + width, 2 + 2 * width))
        for phase in range(phases):
            _star(script, 0, left, phase, draw(order))
            _star(script, 1, right, phase, draw(order))
            script.send(0, f"x/{phase}/0")
            script.send(1, f"x/{phase}/1")
            script.recv(1, f"x/{phase}/0")
            script.recv(0, f"x/{phase}/1")
    else:  # "leave": half the workers quit after the first phase
        workers = list(range(1, width + 1))
        _star(script, 0, workers, 0, draw(order))
        stay = workers[: width // 2 + 1]
        for phase in range(1, phases):
            _star(script, 0, stay, phase, list(range(len(stay))))
            if phase == 1:
                script.steps += [("close", w) for w in workers[len(stay):]]
        # ... and come back: their segments start over on fresh clocks
        # while the hub's base still holds their old counts.
        _star(script, 0, workers, phases, draw(order))
    n = len(script.steps)
    every = draw(st.sampled_from([1, 2, 3, 5, 8, 13, n]))  # n: never
    for at in reversed(range(every, n, every)):
        script.steps.insert(at, ("compact", None))
    return script, draw(st.sampled_from([0, 1, 2, FOLD_THRESHOLD]))


def _assert_same(state, ref):
    clocks = {
        seg: _logical(seg, c.own, c.base, c.delta)
        for seg, c in state._clocks.items()
    }
    assert clocks == ref.clocks
    pending = {key: _logical(*snap) for key, snap in state._pending.items()}
    assert list(pending) == list(ref.pending)
    assert pending == ref.pending
    assert state.stats() == ref.stats()
    assert state.to_snapshot() == ref.to_snapshot()


def _probe_accesses(ref, seg, seen):
    """One location's ``(segment, count, record)`` list straddling
    every boundary the reference clock of ``seg`` draws: for ``seg``
    itself, each segment the clock holds and each seen segment it does
    not, the count the clock holds and the next, as a read and a
    write.  Each record is distinct, so list order is checkable."""
    clock = ref.clocks.get(seg, {})
    accesses = []
    for s in sorted(set(clock) | seen | {seg}):
        v = clock.get(s, 0)
        for count in (v, v + 1):
            for kind in (OpKind.MEM_READ, OpKind.MEM_WRITE):
                accesses.append((s, count, OpEvent(
                    seq=len(accesses), kind=kind, obj_id="probe", node="n",
                    tid=s, thread_name=f"t{s}", segment=s,
                    callstack=CallStack(), location=(1, "probe"),
                )))
    return accesses


def _assert_query_matches(state, ref, seg, seen):
    """``concurrent_accesses`` against the reference's per-pair
    answers: the examined pairs are the conflicting ones in other
    segments, and the concurrent subset keeps list order."""
    accesses = _probe_accesses(ref, seg, seen)
    for is_write in (False, True):
        examined = [
            (s, count, record)
            for s, count, record in accesses
            if s != seg and (is_write or record.kind is OpKind.MEM_WRITE)
        ]
        concurrent = [
            record
            for s, count, record in examined
            if not ref.ordered_before(s, count, seg)
        ]
        assert state.concurrent_accesses(seg, accesses, is_write) == (
            concurrent,
            len(examined),
        )


def _run_differential(script, threshold):
    """Run ``script`` on the engine and the reference in step; returns
    the engine's general joins."""
    state = StreamingHBState(expected_streams=script.tids)
    ref = DictClockState(expected_streams=script.tids)
    seen = set()
    incremental.FOLD_THRESHOLD = threshold
    try:
        for step, arg in script.steps:
            if step == "observe":
                assert state.observe(arg) == ref.observe(arg)
                seen.add(arg.segment)
                _assert_query_matches(state, ref, arg.segment, seen)
            elif step == "close":
                state.close_stream(arg)
                ref.close_stream(arg)
                # The closed stream's segment has no clock any more:
                # every examined pair reads as concurrent.
                assert arg not in ref.clocks
                _assert_query_matches(state, ref, arg, seen)
            else:
                frontier = state.frontier(seen)
                assert frontier == ref.frontier(seen)
                assert state.prune(frontier) == ref.prune(frontier)
            _assert_same(state, ref)
    finally:
        incremental.FOLD_THRESHOLD = FOLD_THRESHOLD
    return state.general_joins


@pytest.mark.parametrize("shape", ["star", "relay", "hubs", "leave"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_logical_clocks_equal_the_dict_reference(shape, data):
    script, threshold = data.draw(_scripts(shape))
    joins = _run_differential(script, threshold)
    if shape == "star" and threshold >= 2:
        # Workers whose deltas (the hub's count, a token) stay unfolded
        # only ever meet bases they know or adopt.
        assert joins == 0


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cross_feeding_hubs_take_the_general_join(data):
    """Two hubs each fold their own base, so a message between them is
    a join across unrelated bases: the O(width) path must run (and be
    checked against the reference) on every such script, even with
    the workers' own deltas below the fold threshold."""
    script, _ = data.draw(_scripts("hubs"))
    joins = _run_differential(script, 2)
    assert joins > 0
