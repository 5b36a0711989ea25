"""mini-HBase: a region-serving key-value store coordinated via ZooKeeper.

The region-open path is the paper's Figure 3, end to end: the HMaster
records a region in transition and forks a thread that RPCs ``OpenRegion``
on an HRegionServer; the server's single-consumer open-queue handler
opens the region and updates the region's znode; ZooKeeper pushes the
state change back to the master, whose watcher handler finishes the
bookkeeping.  Every hop of the W ⇒ R chain (thread fork, RPC, event
queue, coordination-service push) is real, so the HB model must combine
all four rule families to see the ordering.

Seeded bugs (Table 3):

* **HB-4539** — split table & alter table: the alter path force-removes
  the region's in-transition record concurrently with the watcher
  handler's read; if the remove wins, the master aborts on an unexpected
  region state (system master crash, order violation).
* **HB-4729** — enable table & expire server: the server-expiry handler
  deletes the region's unassigned znode concurrently with the enable
  path's check-then-delete; losing the race makes the enable path's
  znode delete throw and crash the master (system master crash,
  atomicity violation).
"""
