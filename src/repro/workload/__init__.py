"""Deterministic workload engine: million-record synthetic WAL traces.

Scales the four mini systems' coordination skeleton to hundreds of
nodes and hundreds of barrier phases, emitting traces directly in WAL
segment form with planted-race ground truth (see
:mod:`repro.workload.spec` for the scenario and its guarantees).
"""

from repro.workload.generator import generate_workload, load_ground_truth
from repro.workload.spec import PRESETS, SYSTEM_FLAVORS, WorkloadSpec, resolve_spec

__all__ = [
    "generate_workload",
    "load_ground_truth",
    "PRESETS",
    "SYSTEM_FLAVORS",
    "WorkloadSpec",
    "resolve_spec",
]
