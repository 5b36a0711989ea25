"""Static pruning: program analysis over system sources (paper Section 4)."""

from repro.analysis.astutil import SourceIndex, access_calls_at_line
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import TaintAnalysis
from repro.analysis.failures import (
    DEFAULT_FAILURE_SPEC,
    FailureClass,
    find_failure_instructions,
)
from repro.analysis.impact import ImpactAnalyzer, RpcLink
from repro.analysis.pdg import control_dependence, postdominator_sets
from repro.analysis.pruner import StaticPruner

__all__ = [
    "SourceIndex",
    "access_calls_at_line",
    "build_cfg",
    "TaintAnalysis",
    "FailureClass",
    "DEFAULT_FAILURE_SPEC",
    "find_failure_instructions",
    "ImpactAnalyzer",
    "RpcLink",
    "postdominator_sets",
    "control_dependence",
    "StaticPruner",
]
