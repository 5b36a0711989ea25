"""mini-ZooKeeper: the coordination service *as a system under test*.

Unlike ``repro.runtime.zookeeper`` (the substrate other systems use),
this package implements ZooKeeper's own startup protocols — the epoch
handshake between leader and follower, and leader election — over raw
socket messages and event queues, matching Table 1 of the paper
(ZooKeeper: asynchronous sockets + events, no RPC).

Seeded bugs (Table 3):

* **ZK-1144** — the follower's disk-restored ``accepted_epoch`` write
  races with the NEWEPOCH handler's write; if the restore lands second it
  clobbers the new epoch and the follower waits forever (service
  unavailable, local hang, order violation).
* **ZK-1270** — a peer's vote notification races with the election
  round bump that clears the vote table; a vote arriving before the
  clear is lost and never re-sent, so the election never converges
  (service unavailable, local hang, order violation).
"""
