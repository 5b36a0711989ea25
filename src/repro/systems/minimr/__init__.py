"""mini-MapReduce: a YARN-style computing framework.

Structure mirrors Figure 4 of the paper: a ResourceManager (RM), an
ApplicationMaster (AM) with a single-consumer event dispatcher whose
handlers register/unregister tasks, NodeManagers (NM) whose containers
poll the AM for task payloads over RPC, and a job client.

Seeded bugs (Table 3):

* **MR-3274** — the paper's Figure 1/2 bug: a client-initiated kill can
  unregister a task concurrently with an NM container's ``get_task`` RPC
  polling loop; if the unregister wins, the container hangs forever
  (distributed hang, order violation).
* **MR-4637** — a late task heartbeat can reach the AM after job
  completion removed the job record; the status-update handler throws and
  crashes the job master (local explicit error, order violation).
"""
