"""The benchmark registry: the paper's Table 3 as executable objects."""

from __future__ import annotations

from typing import List, Type

from repro.errors import UnknownBenchmarkError
from repro.systems.base import Workload
from repro.systems.minica.workloads import CA1011Workload
from repro.systems.minihb.workloads import HB4539Workload, HB4729Workload
from repro.systems.minimr.workloads import MR3274Workload, MR4637Workload
from repro.systems.minizk.workloads import ZK1144Workload, ZK1270Workload

#: Table 3 order.
WORKLOAD_CLASSES: List[Type[Workload]] = [
    CA1011Workload,
    HB4539Workload,
    HB4729Workload,
    MR3274Workload,
    MR4637Workload,
    ZK1144Workload,
    ZK1270Workload,
]


def _all_classes() -> List[Type[Workload]]:
    from repro.systems.extra import EXTRA_WORKLOAD_CLASSES

    return WORKLOAD_CLASSES + EXTRA_WORKLOAD_CLASSES


def all_workloads() -> List[Workload]:
    return [cls() for cls in WORKLOAD_CLASSES]


def workload_by_id(bug_id: str) -> Workload:
    for cls in _all_classes():
        if cls.info.bug_id.lower() == bug_id.lower():
            return cls()
    known = ", ".join(cls.info.bug_id for cls in _all_classes())
    raise UnknownBenchmarkError(f"unknown benchmark {bug_id}; known: {known}")
