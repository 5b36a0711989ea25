"""The HRegionServer (HRS): opens regions via a single-consumer queue.

``open_region`` is an RPC from the master; the implementation enqueues a
region-open event (steps 3-4 of the paper's Figure 3).  The handler does
the open work and publishes ``RS_ZK_REGION_OPENED`` to the region's
znode (steps 5-6), which ZooKeeper pushes to the master (step 7).
"""

from __future__ import annotations

from repro.runtime import sleep
from repro.runtime.cluster import Cluster

REGION_OPENED = "RS_ZK_REGION_OPENED"


class HRegionServer:
    """One region server."""

    def __init__(
        self,
        cluster: Cluster,
        name: str = "hrs1",
        open_ticks: int = 4,
        register_ephemeral: bool = False,
    ) -> None:
        self.cluster = cluster
        self.node = cluster.add_node(name)
        self.log = self.node.log
        self.online_regions = self.node.shared_set("online_regions")
        self.open_queue = self.node.event_queue("open-region", consumers=1)
        self.open_queue.register("open", self.on_open_region)
        self.open_ticks = open_ticks
        self.node.rpc_server.register("open_region", self.open_region)
        if register_ephemeral:
            self._register_in_zk()

    def _register_in_zk(self) -> None:
        def register() -> None:
            zk = self.node.zk()
            zk.create(f"/rs/{self.node.name}", data="alive", ephemeral=True)

        self.node.spawn(register, name="zk-register")

    # -- RPC functions ------------------------------------------------------

    def open_region(self, region: str) -> bool:
        """RPC from the master (Figure 3 step 3-4): queue the open."""
        self.open_queue.post("open", {"region": region})
        return True

    # -- event handlers -------------------------------------------------------

    def on_open_region(self, event) -> None:
        """Figure 3 step 5-6: open, then publish the state change."""
        region = event.payload["region"]
        sleep(self.open_ticks)  # load store files, replay WAL, ...
        with self.node.lock("online-regions"):
            self.online_regions.add(region)
        zk = self.node.zk()
        path = f"/region/{region}"
        if zk.exists(path):
            zk.set_data(path, REGION_OPENED)
        else:
            zk.create(path, data=REGION_OPENED)
        self.log.info(f"region {region} opened")
