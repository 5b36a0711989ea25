"""Always-on multi-tenant detection service.

The deployment shape the whole repo has been building toward (see
ROADMAP.md): instead of one offline pass per trace, a long-running
server ingests WAL segment streams from many tenants concurrently and
publishes a canonical detection report per tenant.  The pieces:

* :mod:`repro.service.protocol` — CRC-framed verb protocol on TCP;
* :mod:`repro.service.server`   — :class:`DetectionServer`: admission
  control, credit backpressure, circuit-breaker quarantine, and crash
  recovery from the durable spool;
* :mod:`repro.service.tenants`  — per-tenant spool + deterministic
  k-way merge + streaming detector + checkpoints;
* :mod:`repro.service.client`   — :class:`ServiceClient`: reconnect,
  full-jitter retries, idempotent shipping;
* :mod:`repro.service.report`   — the canonical, byte-stable report.

``repro serve`` / ``repro ship`` are the CLI faces; see
``docs/service.md`` for the operational story.
"""
