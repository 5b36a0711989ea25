"""The DCatch happens-before model and graph (paper Sections 2 and 3.2)."""

from repro.hb.ablation import FAMILY_KINDS, ablate_trace
from repro.hb.explain import ChainExplainer
from repro.hb.graph import HBGraph
from repro.hb.model import FULL_MODEL, HBModel
from repro.hb.reference import NaiveReachability, VectorClockEngine

__all__ = [
    "HBModel",
    "FULL_MODEL",
    "HBGraph",
    "ChainExplainer",
    "NaiveReachability",
    "VectorClockEngine",
    "ablate_trace",
    "FAMILY_KINDS",
]
