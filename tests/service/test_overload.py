"""The overload ladder: FleetBudget rung selection (with hysteresis)
and the honesty contract — a tenant that was ever sampled must publish
a report that says so."""

import os

import pytest

from repro.framing import read_document
from repro.service.client import ServiceClient
from repro.service.server import DetectionServer, FleetBudget, OVERLOAD_LADDER
from repro.service.tenants import Tenant
from repro.trace.wal import list_stream_segments
from repro.workload import generate_workload

WINDOW = 256


@pytest.fixture(scope="module")
def wal_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("workload")
    generated = generate_workload("minizk", "small", seed=11, out_dir=str(out))
    return generated.wal_dir


class TestLadderRungs:
    """queue-pressure axis: pending segments against fleet capacity."""

    def _level(self, pending, current="full", queue=100, tenants=1):
        budget = FleetBudget(queue_segments=queue)
        return budget.overload_level(
            current, pending_segments=pending, active_tenants=tenants
        )

    def test_ladder_order(self):
        assert OVERLOAD_LADDER == ("full", "sampled")

    def test_idle_fleet_is_full(self):
        assert self._level(0) == "full"

    def test_soft_pressure_degrades_to_sampled(self):
        assert self._level(74) == "full"
        assert self._level(75) == "sampled"

    def test_hard_pressure_stays_sampled(self):
        """There is no rung above sampled: credits already refuse
        uploads once a tenant's queue is full."""
        assert self._level(92) == "sampled"
        assert self._level(95, current="full") == "sampled"
        assert self._level(150, current="sampled") == "sampled"

    def test_capacity_scales_with_active_tenants(self):
        # 4 tenants -> 400 aggregate capacity; 75 pending is now idle.
        assert self._level(75, tenants=4) == "full"
        assert self._level(300, tenants=4) == "sampled"

    def test_recovery_has_hysteresis(self):
        # engaged at 75; hovering just below must NOT flap back to full
        assert self._level(74, current="sampled") == "sampled"
        assert self._level(68, current="sampled") == "sampled"
        assert self._level(66, current="sampled") == "full"


class TestAdmission:
    def test_tenant_budget_refusal_names_the_limit(self):
        budget = FleetBudget(max_tenants=2)
        assert budget.admit_tenant(1) is None
        refusal = budget.admit_tenant(2)
        assert refusal is not None and "2/2" in refusal


class TestSampledHonesty:
    def test_sampled_tenant_report_says_sampled(self, tmp_path, wal_dir):
        """Degrade a tenant mid-ingest; the published report must carry
        confidence "sampled" and the per-location drop counts — even
        though pressure recovered before the report was written."""
        srv = DetectionServer(
            str(tmp_path / "data"), window=WINDOW, http_port=None
        ).start()
        try:
            streams = sorted(list_stream_segments(wal_dir))
            with ServiceClient("127.0.0.1", srv.port, "hot") as client:
                client.hello(streams)
                srv.tenants["hot"].set_mode("sampled")
                client.ship_wal_dir(wal_dir)
                srv.tenants["hot"].set_mode("full")  # pressure recovered
                report = client.wait_report()
            assert report["confidence"] == "sampled"
            assert sum(report["sampled_dropped"].values()) > 0
            assert report["records"] < 456  # small preset's record count
            state = read_document(
                os.path.join(srv.tenants_dir, "hot", "state.json")
            )
            assert state["ever_sampled"] is True
        finally:
            srv.stop()

    def test_full_tenant_report_is_not_sampled(self, tmp_path, wal_dir):
        srv = DetectionServer(
            str(tmp_path / "data"), window=WINDOW, http_port=None
        ).start()
        try:
            with ServiceClient("127.0.0.1", srv.port, "cold") as client:
                client.ship_wal_dir(wal_dir)
                report = client.wait_report()
            assert report["confidence"] == "full"
            assert report["sampled_dropped"] == {}
        finally:
            srv.stop()

    def test_ever_sampled_survives_recovery(self, tmp_path):
        root = str(tmp_path / "tenant")
        os.makedirs(root)
        tenant = Tenant("t", root, window=WINDOW)
        tenant.declare_streams([("n1", 1)])
        tenant.set_mode("sampled")
        tenant.save_state()
        recovered = Tenant.recover("t", root, window=WINDOW)
        assert recovered.ever_sampled is True
        assert recovered.session.sampler is not None  # re-engaged for the replay
