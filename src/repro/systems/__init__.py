"""The four mini cloud systems and seven benchmark workloads (Table 3)."""

from repro.systems.extra import extra_workloads
from repro.systems.registry import (
    WORKLOAD_CLASSES,
    all_workloads,
    workload_by_id,
)

__all__ = [
    "WORKLOAD_CLASSES",
    "all_workloads",
    "workload_by_id",
    "extra_workloads",
]
