"""mini-Cassandra: gossip-based ring membership with staged handlers.

Communication is socket-only (Table 1: Cassandra uses asynchronous
sockets, custom protocols and events, no RPC).  Gossip digests land on a
single-consumer "gossip stage" event queue (Cassandra's SEDA design);
bootstrap uses a custom pull loop (the booting node polls its own acked
flag, set by the ack digest handler).

Seeded bug (Table 3):

* **CA-1011** — startup: a write request computes its replica targets
  from the token map concurrently with the gossip-stage handler
  registering the bootstrapping node's token.  If the read wins, the
  write is not replicated to the bootstrap backup (data backup failure,
  distributed explicit error, atomicity violation).
"""
