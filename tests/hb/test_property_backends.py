"""Property-based differential test of the three batch reachability engines.

Random small traces (random segment interleavings, random mix of HB and
memory records, random extra cross-segment edges) are fed to the bit-set
engine, the naive DFS, and vector clocks; all three must agree on
``happens_before`` and ``concurrent`` for every record pair.  This is
the detector's core query — any divergence here is a missed or phantom
race downstream.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hb import HBGraph, NaiveReachability, VectorClockEngine
from repro.hb.model import HBModel
from repro.ids import CallStack
from repro.runtime.ops import OpEvent, OpKind
from repro.trace.store import Trace

#: Program order only: every cross-segment edge is then introduced by
#: the test itself, so the random edge set fully controls the DAG shape.
PO_MODEL = HBModel(
    rpc=False,
    socket=False,
    push=False,
    pull=False,
    fork_join=False,
    event=False,
    eserial=False,
)

RECORDS = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(["hb", "read", "write"])),
    min_size=2,
    max_size=24,
)
EDGE_PICKS = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)), max_size=8
)


def _build_trace(recipe):
    trace = Trace(name="prop")
    for i, (segment, kind) in enumerate(recipe):
        if kind == "hb":
            event = OpEvent(
                seq=i,
                kind=OpKind.EVENT_CREATE,
                obj_id=f"e{i}",  # unique: no rule edges beyond Rule-Preg
                node="n",
                tid=segment,
                thread_name=f"t{segment}",
                segment=segment,
                callstack=CallStack(),
            )
        else:
            event = OpEvent(
                seq=i,
                kind=OpKind.MEM_READ if kind == "read" else OpKind.MEM_WRITE,
                obj_id=1,
                node="n",
                tid=segment,
                thread_name=f"t{segment}",
                segment=segment,
                callstack=CallStack(),
                location=(1, "x"),
            )
        trace.append(event)
    return trace


def _apply_random_edges(graph, edge_picks):
    """Add random forward cross edges to the graph."""
    backbone = graph.backbone
    if len(backbone) < 2:
        return
    for x, y in edge_picks:
        i, j = sorted((x % len(backbone), y % len(backbone)))
        if i == j:
            continue
        graph.add_edge(backbone[i].seq, backbone[j].seq, "test")


@settings(max_examples=200, deadline=None)
@given(recipe=RECORDS, edge_picks=EDGE_PICKS)
def test_three_engines_agree_on_every_pair(recipe, edge_picks):
    trace = _build_trace(recipe)
    bitset = HBGraph(trace, model=PO_MODEL)
    _apply_random_edges(bitset, edge_picks)
    naive = NaiveReachability(bitset)
    vc = VectorClockEngine(bitset)
    for x, y in itertools.combinations(trace.records, 2):
        expected = naive.happens_before(x, y)
        assert bitset.happens_before(x, y) == expected, (x, y)
        assert vc.happens_before(x, y) == expected, (x, y)
        expected_rev = naive.happens_before(y, x)
        assert bitset.happens_before(y, x) == expected_rev, (y, x)
        assert vc.happens_before(y, x) == expected_rev, (y, x)
        concurrent = not expected and not expected_rev
        assert bitset.concurrent(x, y) == concurrent
        assert naive.concurrent(x, y) == concurrent
        assert vc.concurrent(x, y) == concurrent
