"""The DCatch happens-before model and graph (paper Sections 2 and 3.2)."""

from repro.hb.ablation import FAMILY_KINDS, ablate_trace
from repro.hb.explain import ChainExplainer, Hop
from repro.hb.export import graph_to_dot
from repro.hb.graph import DEFAULT_MEMORY_BUDGET, HBGraph
from repro.hb.model import FULL_MODEL, NO_PULL_MODEL, HBModel
from repro.hb.pull import PullEdge, infer_pull_edges
from repro.hb.reach import BitsetReachability
from repro.hb.reference import NaiveReachability, VectorClockEngine

__all__ = [
    "BitsetReachability",
    "HBModel",
    "FULL_MODEL",
    "NO_PULL_MODEL",
    "HBGraph",
    "ChainExplainer",
    "Hop",
    "graph_to_dot",
    "DEFAULT_MEMORY_BUDGET",
    "PullEdge",
    "infer_pull_edges",
    "NaiveReachability",
    "VectorClockEngine",
    "ablate_trace",
    "FAMILY_KINDS",
]
