"""DCatch reproduction: distributed concurrency bug detection (ASPLOS 2017).

Public API highlights:

* ``repro.runtime`` — deterministic simulated distributed runtime.
* ``repro.trace`` — run-time tracing (paper Section 3.1).
* ``repro.hb`` — the MTEP happens-before model and graph (Sections 2, 3.2).
* ``repro.detect`` — DCbug candidate detection (Section 3.2.2).
* ``repro.analysis`` — static pruning (Section 4).
* ``repro.trigger`` — DCbug triggering and validation (Section 5).
* ``repro.systems`` — the four mini cloud systems and seven benchmark
  workloads (Section 7.1, Table 3).
* ``repro.pipeline`` — the end-to-end DCatch pipeline.
"""

__version__ = "1.0.0"
