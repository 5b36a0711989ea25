"""The server's verbs, driven out of order and duplicated.

A hypothesis rule-based machine calls ``DetectionServer._dispatch``
in-process (the socket loop adds only framing, fuzzed in
``tests/test_framing.py``) with ``hello``, ``segment``, ``finalize``,
``report`` and ``status`` for one tenant over a small generated WAL.
It keeps a model of which segments have landed and checks each reply
against it: no reply is ever ``internal`` and no exception escapes the
dispatcher; session replies carry credits and nothing else of the
session; and once every segment and ``finalize`` have landed, the
report is byte-identical to the offline ``stream`` pass.
"""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.detect.streaming import detect_races_streaming
from repro.service.report import render_report, report_from_stream_result
from repro.service.server import DetectionServer
from repro.service.tenants import stream_key_str
from repro.trace.wal import list_stream_segments
from repro.workload import generate_workload

WINDOW = 64
TENANT = "t"
#: Keys a ``hello``/``segment``/``finalize`` success may carry.
SESSION_KEYS = {"ok", "credits", "resumed", "report_ready", "duplicate"}


@pytest.fixture(scope="module")
def wal(tmp_path_factory):
    out = tmp_path_factory.mktemp("workload")
    generated = generate_workload(
        "minizk", "small", seed=3, out_dir=str(out), segment_records=24
    )
    segments = list_stream_segments(generated.wal_dir)
    blobs = {}
    for key, paths in segments.items():
        for path in paths:
            with open(path, "rb") as fh:
                blobs.setdefault(key, []).append(fh.read())
    result = detect_races_streaming(wal_dir=generated.wal_dir, window=WINDOW)
    oracle = render_report(report_from_stream_result(TENANT, result))
    return blobs, oracle


class VerbMachine(RuleBasedStateMachine):
    blobs = {}
    oracle = b""

    def __init__(self):
        super().__init__()
        self.data_dir = tempfile.mkdtemp(prefix="verb-fuzz-")
        self.server = DetectionServer(
            self.data_dir, window=WINDOW, http_port=None
        ).start()
        self.streams = sorted(self.blobs)
        self.counts = {
            stream_key_str(key): len(self.blobs[key]) for key in self.streams
        }
        self.helloed = False
        self.received = {key: 0 for key in self.streams}
        self.finalized = False

    def teardown(self):
        self.server.stop()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def _call(self, doc, body=b""):
        reply, payload = self.server._dispatch(doc, body)
        assert reply.get("error") != "internal", reply
        return reply, payload

    def _session_reply(self, reply):
        assert "credits" in reply
        assert set(reply) <= SESSION_KEYS

    @rule(totals=st.booleans())
    def hello(self, totals):
        doc = {
            "verb": "hello",
            "tenant": TENANT,
            "streams": [[node, tid] for node, tid in self.streams],
        }
        if totals:
            doc["totals"] = self.counts
        reply, _ = self._call(doc)
        assert reply["ok"], reply
        self._session_reply(reply)
        assert reply["resumed"] == self.helloed
        self.helloed = True

    def _send(self, key, index):
        node, tid = key
        return self._call(
            {
                "verb": "segment",
                "tenant": TENANT,
                "node": node,
                "tid": tid,
                "index": index,
            },
            self.blobs[key][index],
        )[0]

    @rule(data=st.data(), skew=st.sampled_from([-1, 0, 0, 1]))
    def segment(self, data, skew):
        key = data.draw(st.sampled_from(self.streams))
        received = self.received[key]
        index = min(max(0, received + skew), len(self.blobs[key]) - 1)
        reply = self._send(key, index)
        if not self.helloed:
            assert reply["error"] == "bad_request", reply
        elif index < received:
            assert reply["ok"] and reply["duplicate"], reply
            self._session_reply(reply)
        elif index > received:
            assert reply["error"] == "out_of_order", reply
            assert reply["expected"] == received
        else:
            assert reply["ok"] and "duplicate" not in reply, reply
            self._session_reply(reply)
            self.received[key] += 1

    @rule()
    def ship_the_rest(self):
        """What a client's ``ship_wal_dir`` does: every missing segment,
        in order."""
        if not self.helloed:
            return
        for key in self.streams:
            while self.received[key] < len(self.blobs[key]):
                reply = self._send(key, self.received[key])
                assert reply["ok"] and "duplicate" not in reply, reply
                self._session_reply(reply)
                self.received[key] += 1

    @rule()
    def finalize(self):
        reply, _ = self._call(
            {"verb": "finalize", "tenant": TENANT, "counts": self.counts}
        )
        complete = all(
            self.received[key] == len(self.blobs[key]) for key in self.streams
        )
        if not self.helloed:
            assert reply["error"] == "bad_request", reply
        elif complete:
            assert reply["ok"], reply
            self._session_reply(reply)
            self.finalized = True
        else:
            assert reply["error"] == "incomplete", reply

    @rule()
    def report(self):
        doc = {"verb": "report", "tenant": TENANT}
        if self.finalized:
            doc["wait_s"] = 30
        reply, body = self._call(doc)
        if not self.helloed:
            assert reply["error"] == "bad_request", reply
        elif self.finalized:
            assert reply == {"ok": True}
            assert body == self.oracle
        else:
            assert reply["error"] == "not_ready", reply

    @rule()
    def status(self):
        reply, _ = self._call({"verb": "status"})
        assert set(reply) == {"ok", "pid", "tenants"}
        if self.helloed:
            tenant = reply["tenants"][TENANT]
            assert tenant["finalized"] == self.finalized
            assert tenant["received_segments"] == sum(self.received.values())


def test_verbs_out_of_order_and_duplicated(wal):
    VerbMachine.blobs, VerbMachine.oracle = wal
    state = VerbMachine.TestCase
    state.settings = settings(
        max_examples=50, stateful_step_count=30, deadline=None
    )
    state().runTest()
