"""In-process DetectionServer behavior: shipping, idempotency,
admission control, structured errors, backpressure, the pending-segment
gauge, and the circuit breaker.  Uses real TCP on an ephemeral
localhost port."""

import http.client
import os
import shutil
import threading
import time

import pytest

from repro import obs
from repro.errors import ServiceError
from repro.detect.streaming import detect_races_streaming
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.framing import atomic_write, read_document
from repro.service.report import (
    build_report_doc,
    render_report,
    report_from_stream_result,
)
from repro.service.server import (
    PUMP_BATCH,
    DetectionServer,
    FleetBudget,
    load_service_file,
)
from repro.service.tenants import Tenant, stream_key_str
from repro.trace.wal import list_stream_segments
from repro.workload import generate_workload

WINDOW = 256


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("workload")
    return generate_workload("minizk", "small", seed=11, out_dir=str(out))


@pytest.fixture(scope="module")
def wal_dir(generated):
    return generated.wal_dir


@pytest.fixture()
def server(tmp_path):
    srv = DetectionServer(
        str(tmp_path / "data"), window=WINDOW, http_port=None
    ).start()
    yield srv
    srv.stop()


def _client(server, tenant, **kwargs):
    kwargs.setdefault("retry_deadline_s", 30.0)
    return ServiceClient("127.0.0.1", server.port, tenant, **kwargs)


def _offline_report(wal_dir, tenant, window=WINDOW):
    result = detect_races_streaming(wal_dir=wal_dir, window=window)
    return render_report(report_from_stream_result(tenant, result))


class TestShipAndReport:
    def test_report_matches_offline_stream_byte_for_byte(
        self, server, wal_dir
    ):
        with _client(server, "alpha") as client:
            result = client.ship_wal_dir(wal_dir)
            report = client.wait_report()
        assert result.segments_shipped > 0
        assert result.segments_duplicate == 0
        assert render_report(report) == _offline_report(wal_dir, "alpha")
        assert report["confidence"] == "full"

    def test_records_shipped_counts_the_wal(self, server, generated):
        with _client(server, "alpha") as client:
            result = client.ship_wal_dir(generated.wal_dir)
        assert result.records_shipped == generated.records > 0

    def test_spool_is_the_wal_layout(self, server, wal_dir):
        """The tenant spool is itself a streamable WAL directory."""
        with _client(server, "alpha") as client:
            client.ship_wal_dir(wal_dir)
            client.wait_report()
        spool = os.path.join(server.tenants_dir, "alpha", "spool")
        assert list_stream_segments(spool).keys() == \
            list_stream_segments(wal_dir).keys()
        offline = detect_races_streaming(wal_dir=spool, window=WINDOW)
        assert render_report(
            report_from_stream_result("alpha", offline)
        ) == _offline_report(wal_dir, "alpha")

    def test_reshipping_is_idempotent(self, server, wal_dir):
        with _client(server, "alpha") as client:
            first = client.ship_wal_dir(wal_dir)
            report_a = client.wait_report()
        with _client(server, "alpha") as client:
            again = client.ship_wal_dir(wal_dir)
            report_b = client.wait_report()
        assert again.segments_duplicate == first.segments_shipped
        assert render_report(report_a) == render_report(report_b)

    def test_two_tenants_same_wal_same_candidates(self, server, wal_dir):
        def ship(tenant, out):
            with _client(server, tenant) as client:
                client.ship_wal_dir(wal_dir)
                out[tenant] = client.wait_report()

        reports = {}
        threads = [
            threading.Thread(target=ship, args=(t, reports))
            for t in ("alpha", "beta")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reports["alpha"]["candidates"] == reports["beta"]["candidates"]
        assert reports["alpha"]["tenant"] == "alpha"

    def test_full_tenant_report_is_not_sampled(self, server, wal_dir):
        with _client(server, "cold") as client:
            client.ship_wal_dir(wal_dir)
            report = client.wait_report()
        assert report["confidence"] == "full"
        assert report["sampled_dropped"] == {}

    def test_service_file_is_discoverable(self, server):
        doc = load_service_file(server.data_dir)
        assert doc["port"] == server.port
        assert doc["pid"] == os.getpid()


class TestLifecycle:
    def test_stop_wakes_the_accept_thread(self, tmp_path):
        """Closing the listener does not wake a blocked accept(); stop()
        used to wait out its 5 s join timeout on every server."""
        srv = DetectionServer(str(tmp_path / "data"), http_port=None).start()
        accept = srv._accept_thread
        # The accept loop is the server's one thread until a tenant
        # comes: nothing polls fleet pressure.
        assert [t for t in threading.enumerate() if t.name.startswith(
            "service-"
        )] == [accept]
        started = time.monotonic()
        srv.stop()
        assert time.monotonic() - started < 1.0
        assert not accept.is_alive()

    def test_stop_restores_the_registry_start_replaced(self, tmp_path):
        before = obs.get_registry()
        srv = DetectionServer(str(tmp_path / "data"), http_port=None).start()
        assert obs.get_registry() is srv.registry
        srv.stop()
        assert obs.get_registry() is before

    def test_report_over_the_frame_json_cap_is_fetchable(self, tmp_path):
        """A finished tenant with >=100k candidate pairs: its report is
        several MiB of JSON, beyond the 1 MiB frame-JSON cap, and rides
        as the frame body."""
        root = tmp_path / "data" / "tenants" / "big"
        root.mkdir(parents=True)
        tenant = Tenant("big", str(root), window=WINDOW)
        tenant.declare_streams([("n1", 1)])
        tenant.save_state()
        doc = build_report_doc(
            tenant="big", model="m", window=WINDOW, records=200_000,
            streams=1, pairs=[(i, i + 1) for i in range(120_000)],
            confidence="full", damage={}, sampled_dropped={},
        )
        published = render_report(doc)
        assert len(published) > 1 << 20
        atomic_write(tenant.report_path, published)
        srv = DetectionServer(
            str(tmp_path / "data"), window=WINDOW, http_port=None
        ).start()
        try:
            with _client(srv, "big") as client:
                report = client.wait_report(timeout_s=10)
        finally:
            srv.stop()
        assert report == doc
        assert render_report(report) == published


class _Watched(threading.Event):
    """A tenant's ``settled`` event that tells when a request waits on
    it, so a test acts only once the ``report`` is held."""

    def __init__(self):
        super().__init__()
        self.waited = threading.Event()

    def wait(self, timeout=None):
        self.waited.set()
        return super().wait(timeout)


def _watch(tenant):
    tenant.settled = _Watched()
    return tenant.settled


def _in_thread(call):
    """Start ``call`` in a thread; the dict gets its ``result`` or
    ``error`` and the monotonic time ``at`` it returned."""
    out = {}

    def run():
        try:
            out["result"] = call()
        except ServiceError as exc:
            out["error"] = exc
        out["at"] = time.monotonic()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, out


class TestReportWait:
    """A ``report`` carrying ``wait_s`` is held until it has an answer."""

    def test_report_arrives_when_published(self, server, wal_dir):
        streams = sorted(list_stream_segments(wal_dir))
        with _client(server, "alpha") as shipper, \
                _client(server, "alpha") as waiter:
            shipper.hello(streams)
            tenant = server.tenants["alpha"]
            watched = _watch(tenant)
            published = []
            write_report = tenant.write_report

            def publish():
                doc = write_report()
                published.append(time.monotonic())
                return doc

            tenant.write_report = publish
            thread, got = _in_thread(lambda: waiter.wait_report(timeout_s=60))
            assert watched.waited.wait(10)
            shipper.ship_wal_dir(wal_dir)
            thread.join(30)
        assert got["at"] - published[0] < 0.05
        assert render_report(got["result"]) == _offline_report(wal_dir, "alpha")

    def test_wait_report_honours_its_timeout(self, server, wal_dir):
        """``request`` used to retry ``not_ready`` until
        ``retry_deadline_s``: this raised after 4 s, not 0.5 s."""
        with _client(server, "alpha", retry_deadline_s=4) as client:
            client.hello(sorted(list_stream_segments(wal_dir)))
            started = time.monotonic()
            with pytest.raises(ServiceError) as err:
                client.wait_report(timeout_s=0.5)
            elapsed = time.monotonic() - started
        assert err.value.code == "not_ready"
        assert 0.5 <= elapsed < 1.5

    def test_quarantine_wakes_the_waiter(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        node, tid = sorted(segments)[0]
        with _client(server, "mallory") as shipper, \
                _client(server, "mallory") as waiter:
            shipper.hello(sorted(segments))
            watched = _watch(server.tenants["mallory"])
            thread, got = _in_thread(lambda: waiter.wait_report(timeout_s=60))
            assert watched.waited.wait(10)
            for _ in range(3):
                with pytest.raises(ServiceError):
                    shipper.send_segment(node, tid, 0, b"not a wal segment\n")
            thread.join(10)
        assert not thread.is_alive()
        assert got["error"].code == "quarantined"

    def test_stop_releases_a_held_report(self, server, wal_dir):
        with _client(server, "alpha") as client, \
                _client(server, "alpha") as waiter:
            client.hello(sorted(list_stream_segments(wal_dir)))
            watched = _watch(server.tenants["alpha"])
            thread, got = _in_thread(lambda: waiter.request(
                {"verb": "report", "tenant": "alpha", "wait_s": 60},
                retry_transient=False,
            ))
            assert watched.waited.wait(10)
            server.stop()
            thread.join(10)
        assert not thread.is_alive()
        assert got["error"].code == "not_ready"

    def test_without_wait_s_not_ready_comes_at_once(self, server, wal_dir):
        with _client(server, "alpha") as client:
            client.hello(sorted(list_stream_segments(wal_dir)))
            watched = _watch(server.tenants["alpha"])
            with pytest.raises(ServiceError) as err:
                client.request(
                    {"verb": "report", "tenant": "alpha"},
                    retry_transient=False,
                )
        assert err.value.code == "not_ready"
        assert not watched.waited.is_set()


def _prefilled_tenant(wal_dir, root, window=WINDOW):
    """A finalized tenant over a spool that already holds ``wal_dir``."""
    segments = list_stream_segments(wal_dir)
    totals = {stream_key_str(k): len(p) for k, p in segments.items()}
    os.makedirs(root)
    tenant = Tenant("t", root, window=window)
    tenant.declare_streams(sorted(segments))
    tenant.declare_totals(totals)
    tenant.save_state()
    shutil.copytree(wal_dir, tenant.spool_dir)
    tenant = Tenant.recover("t", root)
    assert tenant.finalize(totals) is None
    return tenant


class TestTenantPump:
    def test_pump_returns_the_count_when_it_stops_on_limit(
        self, tmp_path, wal_dir
    ):
        """It used to fall off its loop and return None on a full
        batch, so the server's ``service_pump`` stall (taken only when
        the pump advanced) never fired under load."""
        tenant = _prefilled_tenant(wal_dir, str(tmp_path / "t"))
        assert tenant.pump(limit=7) == 7
        assert tenant.consumed_raw == 7
        while not tenant.drained:
            assert tenant.pump(limit=PUMP_BATCH) or tenant.drained

    def test_damaged_spool_survives_recovery_without_double_counting(
        self, tmp_path, wal_dir
    ):
        """A spooled segment rots after its ACK; the server is then
        killed and recovered mid-merge.  The replay re-reads the spool,
        so the damage must be counted once, and the report must be the
        offline pass over the same spool."""
        damaged = str(tmp_path / "wal")
        shutil.copytree(wal_dir, damaged)
        streams = list_stream_segments(damaged)
        victim = streams[max(streams, key=lambda k: len(streams[k]))][0]
        with open(victim, "rb") as fh:
            data = bytearray(fh.read())
        data[data.index(b"\nR ") + 30] ^= 0xFF
        with open(victim, "wb") as fh:
            fh.write(bytes(data))

        root = str(tmp_path / "t")
        # A window of 8 saves every 64 records.
        tenant = _prefilled_tenant(damaged, root, window=8)
        assert tenant.pump(limit=120) == 120
        assert tenant.maybe_checkpoint()
        assert tenant.damage == {"damaged_records": 1}
        # kill -9 here; a new process recovers from disk.
        tenant = Tenant.recover("t", root)
        tenant.finalize(
            {stream_key_str(k): len(p) for k, p in streams.items()},
            persist=False,
        )
        while not tenant.drained:
            assert tenant.pump(limit=PUMP_BATCH) or tenant.drained
        report = tenant.write_report()
        assert report["confidence"] == "partial"
        assert report["damage"] == {"damaged_records": 1}
        assert render_report(report) == _offline_report(tenant.spool_dir, "t", 8)


class TestAdmission:
    def test_tenant_budget_refusal_names_the_limit(self):
        budget = FleetBudget(max_tenants=2)
        assert budget.admit_tenant(1) is None
        refusal = budget.admit_tenant(2)
        assert refusal is not None and "2/2" in refusal


class TestStructuredErrors:
    def test_admission_refusal_is_over_capacity(self, tmp_path, wal_dir):
        srv = DetectionServer(
            str(tmp_path / "data"),
            limits=FleetBudget(max_tenants=1),
            window=WINDOW,
            http_port=None,
        ).start()
        try:
            streams = sorted(list_stream_segments(wal_dir))
            with _client(srv, "alpha") as first:
                first.hello(streams)
                with _client(srv, "beta", retry_deadline_s=0.5) as second:
                    with pytest.raises(ServiceError) as err:
                        second.hello(streams)
            assert err.value.code == "over_capacity"
            assert err.value.retry_after_s is not None
        finally:
            srv.stop()

    def test_node_name_cannot_escape_the_tenant_directory(
        self, server, wal_dir
    ):
        with open(next(iter(list_stream_segments(wal_dir).values()))[0], "rb") as fh:
            data = fh.read()
        with _client(server, "alpha") as client:
            for node in ("../../../escape", "a/b", ".hidden"):
                with pytest.raises(ServiceError) as err:
                    client.hello([(node, 0)])
                assert err.value.code == "bad_request"
                with pytest.raises(ServiceError) as err:
                    client.send_segment(node, 0, 0, data)
                assert err.value.code == "bad_request"
        assert "alpha" not in server.tenants
        assert sorted(os.listdir(server.data_dir)) == ["service.json", "tenants"]
        assert os.listdir(server.tenants_dir) == []
        assert not os.path.exists(
            os.path.join(os.path.dirname(server.data_dir), "escape")
        )

    def test_segment_before_hello_is_bad_request(self, server):
        with _client(server, "ghost") as client:
            with pytest.raises(ServiceError) as err:
                client.send_segment("n1", 1, 0, b"")
        assert err.value.code == "bad_request"

    def test_undeclared_stream_is_unknown_stream(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        with open(next(iter(segments.values()))[0], "rb") as fh:
            data = fh.read()
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            with pytest.raises(ServiceError) as err:
                client.send_segment("not-a-node", 999, 0, data)
        assert err.value.code == "unknown_stream"

    def test_gap_in_segment_indexes_is_out_of_order(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        (node, tid), paths = sorted(segments.items())[0]
        with open(paths[0], "rb") as fh:
            data = fh.read()
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            with pytest.raises(ServiceError) as err:
                client.send_segment(node, tid, 5, data)
        assert err.value.code == "out_of_order"

    def test_changing_the_stream_set_is_refused(self, server, wal_dir):
        streams = sorted(list_stream_segments(wal_dir))
        with _client(server, "alpha") as client:
            client.hello(streams)
        with _client(server, "alpha") as client:
            with pytest.raises(ServiceError) as err:
                client.hello(streams[:-1])
        assert err.value.code == "bad_request"

    def test_finalize_before_all_segments_is_incomplete(
        self, server, wal_dir
    ):
        segments = list_stream_segments(wal_dir)
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            with pytest.raises(ServiceError) as err:
                client.finalize(
                    {f"{n}/{t}": len(p) for (n, t), p in segments.items()}
                )
        assert err.value.code == "incomplete"
        assert "re-ship" in str(err.value)

    def test_retryable_codes_are_the_ones_the_server_sends(self):
        assert protocol.RETRYABLE_ERRORS == {
            "over_capacity", "over_queue", "not_ready"
        }

    def test_negative_segment_index_is_bad_request(self, server, wal_dir):
        """``-1 < received`` used to answer ``ok, duplicate: true``."""
        segments = list_stream_segments(wal_dir)
        (node, tid), paths = sorted(segments.items())[0]
        with open(paths[0], "rb") as fh:
            data = fh.read()
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            with pytest.raises(ServiceError) as err:
                client.send_segment(node, tid, -1, data)
        assert err.value.code == "bad_request"

    def test_non_integer_finalize_count_is_bad_request(self, server, wal_dir):
        """It used to raise inside the handler and come back
        ``internal``, counted as a handler error."""
        segments = list_stream_segments(wal_dir)
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            with pytest.raises(ServiceError) as err:
                client.finalize({f"{n}/{t}": "x" for n, t in segments})
        assert err.value.code == "bad_request"
        assert "service_handler_errors_total" not in server.registry.snapshot()

    def test_hello_takes_only_json_integers(self, server):
        """``int()`` read a stream ``["n", 1.9]`` with totals
        ``{"n/1": 2.7}`` as tid 1 with 2 segments, and ``true`` and
        ``"3"`` as 1 and 3."""
        with _client(server, "alpha") as client:
            for bad in (1.9, True, "3"):
                for fields in (
                    {"streams": [["n", bad]]},
                    {"streams": [["n", 1]], "totals": {"n/1": bad}},
                ):
                    with pytest.raises(ServiceError) as err:
                        client.request(
                            {"verb": "hello", "tenant": "alpha", **fields}
                        )
                    assert err.value.code == "bad_request"
        assert "alpha" not in server.tenants

    def test_segment_takes_only_json_integers(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        (node, tid), paths = sorted(segments.items())[0]
        with open(paths[0], "rb") as fh:
            data = fh.read()
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            for bad_tid, bad_index in (
                (float(tid), 0), (str(tid), 0), (tid, 0.0), (tid, False),
            ):
                with pytest.raises(ServiceError) as err:
                    client.send_segment(node, bad_tid, bad_index, data)
                assert err.value.code == "bad_request"
        assert server.tenants["alpha"].streams[(node, tid)].received == 0

    def test_finalize_takes_only_json_integers(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            for as_wire in (float, str, bool):
                with pytest.raises(ServiceError) as err:
                    client.finalize(
                        {
                            stream_key_str(key): as_wire(len(paths))
                            for key, paths in segments.items()
                        }
                    )
                assert err.value.code == "bad_request"
        assert not server.tenants["alpha"].finalized

    def test_finalize_cannot_change_totals_declared_at_hello(
        self, server, wal_dir
    ):
        """Counts of 0 used to overwrite the hello totals and finalize a
        tenant that had shipped nothing."""
        segments = list_stream_segments(wal_dir)
        with _client(server, "alpha") as client:
            client.hello(
                sorted(segments),
                totals={key: len(paths) for key, paths in segments.items()},
            )
            with pytest.raises(ServiceError) as err:
                client.finalize({f"{n}/{t}": 0 for n, t in segments})
        assert err.value.code == "bad_request"
        assert "immutable once declared" in str(err.value)
        assert not server.tenants["alpha"].finalized


class TestBackpressure:
    @pytest.fixture(scope="class")
    def chunked_wal_dir(self, tmp_path_factory):
        """Several segments per stream — a stream with data buffered is
        no longer "hungry", so its next segment CAN be refused."""
        out = tmp_path_factory.mktemp("chunked")
        generated = generate_workload(
            "minizk", "small", seed=11, out_dir=str(out), segment_records=16
        )
        return generated.wal_dir

    def test_full_queue_defers_and_still_completes(
        self, tmp_path, chunked_wal_dir, monkeypatch
    ):
        monkeypatch.setenv("DCATCH_STALL", "service_pump:0.05")
        srv = DetectionServer(
            str(tmp_path / "data"),
            limits=FleetBudget(queue_segments=1),
            window=WINDOW,
            http_port=None,
        ).start()
        try:
            with _client(srv, "alpha") as client:
                result = client.ship_wal_dir(chunked_wal_dir)
                report = client.wait_report()
            assert result.backpressure_waits > 0
            assert render_report(report) == _offline_report(
                chunked_wal_dir, "alpha"
            )
        finally:
            srv.stop()

    def test_more_streams_than_credits_does_not_deadlock(
        self, tmp_path, wal_dir, monkeypatch
    ):
        """Regression: the small workload has 9 streams; with only 2
        queue credits the merge used to starve on streams the client
        was never allowed to ship, freezing the tenant forever.  The
        starvation-relief carve-out must keep it live — and with no
        records actually dropped the report stays byte-identical."""
        monkeypatch.setenv("DCATCH_STALL", "service_pump:0.02")
        srv = DetectionServer(
            str(tmp_path / "data"),
            limits=FleetBudget(queue_segments=2),
            window=WINDOW,
            http_port=None,
        ).start()
        try:
            with _client(srv, "alpha") as client:
                client.ship_wal_dir(wal_dir)
                report = client.wait_report(timeout_s=120)
            assert render_report(report) == _offline_report(wal_dir, "alpha")
        finally:
            srv.stop()

    def test_full_queue_under_fleet_pressure_is_over_queue(
        self, tmp_path, chunked_wal_dir
    ):
        """RSS far above the memory budget refuses new tenants, not
        segments: the refusal a full queue gets is still ``over_queue``."""
        segments = list_stream_segments(chunked_wal_dir)
        (node, tid), paths = max(segments.items(), key=lambda kv: len(kv[1]))
        assert len(paths) >= 3
        blobs = []
        for path in paths[:3]:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        srv = DetectionServer(
            str(tmp_path / "data"),
            limits=FleetBudget(queue_segments=1),
            window=WINDOW,
            http_port=None,
        ).start()
        try:
            with _client(srv, "alpha") as client:
                client.hello(sorted(segments))
                # Admitted: over 1 MB of RSS is far over the budget.
                srv.limits.memory_budget_mb = 1
                assert "memory budget exhausted" in srv.limits.admit_tenant(0)
                stream = srv.tenants["alpha"].streams[(node, tid)]
                client.send_segment(node, tid, 0, blobs[0])
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline and not stream.pending:
                    time.sleep(0.01)
                # Segment 0 sits parsed in the merge buffer, so the
                # stream is not hungry; segment 1 takes the one credit.
                client.send_segment(node, tid, 1, blobs[1])
                with pytest.raises(ServiceError) as err:
                    client.send_segment(
                        node, tid, 2, blobs[2], retry_transient=False
                    )
            assert err.value.code == "over_queue"
        finally:
            srv.stop()

    def test_segment_ack_carries_credits(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        (node, tid), paths = sorted(segments.items())[0]
        with open(paths[0], "rb") as fh:
            data = fh.read()
        with _client(server, "alpha") as client:
            hello = client.hello(sorted(segments))
            assert hello["credits"] > 0
            ack = client.send_segment(node, tid, 0, data)
            assert set(hello) <= {"ok", "resumed", "report_ready", "credits"}
            assert set(ack) == {"ok", "credits"}

    def test_pending_gauge_follows_the_spool(self, tmp_path, chunked_wal_dir):
        """The gauge moves on each ACK and each parse, not by a poll: it
        counts a segment parked behind a starved pump, and reads 0 once
        the tenant drains."""
        segments = list_stream_segments(chunked_wal_dir)
        (node, tid), paths = max(segments.items(), key=lambda kv: len(kv[1]))
        srv = DetectionServer(
            str(tmp_path / "data"), window=WINDOW, http_port=None
        ).start()
        gauge = lambda: srv.registry.get("service_pending_segments").value
        try:
            with _client(srv, "alpha") as client:
                client.hello(sorted(segments))  # no totals: merge starves
                for index in (0, 1):
                    with open(paths[index], "rb") as fh:
                        client.send_segment(node, tid, index, fh.read())
                assert gauge() >= 1  # set by the ACK itself
                # The pump parses segment 0 into the merge buffer and
                # starves on every other stream; segment 1 waits.
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline and gauge() != 1:
                    time.sleep(0.01)
                assert gauge() == 1
                assert srv.tenants["alpha"].streams[(node, tid)].pending
                client.ship_wal_dir(chunked_wal_dir)
                client.wait_report()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and gauge() != 0:
                time.sleep(0.01)
            assert gauge() == 0
        finally:
            srv.stop()


class TestCircuitBreaker:
    def _ship_garbage(self, client, node, tid, index):
        # CRC-valid framing is checked server-side; raw noise is "torn".
        return client.send_segment(node, tid, index, b"not a wal segment\n")

    def test_quarantine_after_bad_streak(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        (node, tid), _paths = sorted(segments.items())[0]
        with _client(server, "mallory") as client:
            client.hello(sorted(segments))
            for _ in range(2):
                with pytest.raises(ServiceError) as err:
                    self._ship_garbage(client, node, tid, 0)
                assert err.value.code == "bad_segment"
            with pytest.raises(ServiceError) as err:
                self._ship_garbage(client, node, tid, 0)
            assert err.value.code == "quarantined"
            # every verb is now refused for this tenant
            with pytest.raises(ServiceError) as err:
                client.wait_report(timeout_s=1)
            assert err.value.code == "quarantined"
        qdir = os.path.join(server.tenants_dir, "mallory", "quarantine")
        evidence = sorted(os.listdir(qdir))
        assert len([e for e in evidence if e.endswith(".wal")]) == 3
        assert any(e.endswith(".reason") for e in evidence)
        state = read_document(
            os.path.join(server.tenants_dir, "mallory", "state.json")
        )
        assert state["quarantined"] is True

    def test_good_segment_resets_the_streak(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        (node, tid), paths = sorted(segments.items())[0]
        with open(paths[0], "rb") as fh:
            data = fh.read()
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            for _ in range(2):
                with pytest.raises(ServiceError):
                    self._ship_garbage(client, node, tid, 0)
            client.send_segment(node, tid, 0, data)  # streak broken
            for _ in range(2):
                with pytest.raises(ServiceError) as err:
                    self._ship_garbage(client, node, tid, 1)
            assert err.value.code == "bad_segment"  # not quarantined

    def test_quarantine_survives_reconnect(self, server, wal_dir):
        streams = sorted(list_stream_segments(wal_dir))
        node, tid = streams[0]
        with _client(server, "mallory") as client:
            client.hello(streams)
            for _ in range(3):
                with pytest.raises(ServiceError):
                    self._ship_garbage(client, node, tid, 0)
        with _client(server, "mallory") as client:
            with pytest.raises(ServiceError) as err:
                client.hello(streams)
        assert err.value.code == "quarantined"


class TestStatus:
    def test_status_reports_fleet_shape(self, server, wal_dir):
        with _client(server, "alpha") as client:
            client.ship_wal_dir(wal_dir)
            client.wait_report()
            status = client.status()
        assert set(status) == {"ok", "pid", "tenants"}
        tenant = status["tenants"]["alpha"]
        assert set(tenant) == {
            "done", "quarantined", "finalized", "pending_segments",
            "received_segments", "records_consumed",
        }
        assert tenant["done"] is True
        assert tenant["finalized"] is True
        assert tenant["quarantined"] is False


class TestRawProtocolEdges:
    def test_unknown_verb_is_bad_request(self, server):
        sock = protocol.connect("127.0.0.1", server.port)
        try:
            wfile = sock.makefile("wb")
            rfile = sock.makefile("rb")
            # There is no stop verb: the server stops on SIGINT/SIGTERM.
            for verb in ("frobnicate", "shutdown"):
                protocol.send_frame(wfile, {"verb": verb})
                doc, _ = protocol.recv_frame(rfile)
                assert doc["ok"] is False and doc["error"] == "bad_request"
        finally:
            sock.close()
        assert not server.stopping

    def test_corrupt_frame_gets_protocol_error_reply(self, server):
        sock = protocol.connect("127.0.0.1", server.port)
        try:
            sock.sendall(b"F 00000004 00000000 oops\n")
            rfile = sock.makefile("rb")
            doc, _ = protocol.recv_frame(rfile)
            assert doc["ok"] is False and doc["error"] == "protocol"
        finally:
            sock.close()


def _http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode()
    finally:
        conn.close()


class TestHttpProbes:
    def test_probes_follow_admission_and_serve_metrics(self, tmp_path, wal_dir):
        srv = DetectionServer(
            str(tmp_path / "data"),
            limits=FleetBudget(max_tenants=1),
            window=WINDOW,
            http_port=0,
        ).start()
        try:
            port = srv.http.port
            assert load_service_file(srv.data_dir)["http_port"] == port
            assert _http_get(port, "/healthz") == (200, "ok\n")
            assert _http_get(port, "/readyz") == (200, "ready\n")
            streams = sorted(list_stream_segments(wal_dir))
            with _client(srv, "alpha") as client:
                client.hello(streams)
                status, body = _http_get(port, "/readyz")
                assert status == 503
                assert body == (
                    "not ready: tenant budget exhausted (1/1 active)\n"
                )
                client.ship_wal_dir(wal_dir)
                client.wait_report()
            status, metrics = _http_get(port, "/metrics")
            assert status == 200
            assert "service_segments_ingested_total" in metrics
            assert _http_get(port, "/readyz") == (200, "ready\n")
        finally:
            srv.stop()
