"""Simulated distributed-system runtime substrate.

This package is the substitute for the real Java cloud systems the paper
instruments: a deterministic cooperative scheduler plus every concurrency
and communication mechanism of the paper's Table 1 — threads (fork/join),
FIFO event queues, synchronous RPC, asynchronous sockets, a ZooKeeper-like
coordination service with watches, shared-memory heap objects and locks.
"""

from repro.runtime.api import sleep
from repro.runtime.cluster import Cluster
from repro.runtime.failures import FailureKind
from repro.runtime.faults import FaultAction, FaultKind, FaultPlan
from repro.runtime.locks import SimCondition, SimSemaphore
from repro.runtime.network import (
    Delivery,
    FlakyNetwork,
    NetworkPolicy,
    ReliableNetwork,
)
from repro.runtime.node import NodeBehavior
from repro.runtime.ops import OpKind
from repro.runtime.scheduler import RandomStrategy, current_sim_thread

__all__ = [
    "Cluster",
    "NodeBehavior",
    "FaultKind",
    "FaultAction",
    "FaultPlan",
    "FailureKind",
    "SimCondition",
    "SimSemaphore",
    "NetworkPolicy",
    "ReliableNetwork",
    "FlakyNetwork",
    "Delivery",
    "OpKind",
    "RandomStrategy",
    "current_sim_thread",
    "sleep",
]
