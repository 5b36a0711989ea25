"""Evaluation harness: regenerates every table and figure of the paper."""

from repro.bench.format import TableResult, check_mark
from repro.bench.runner import CACHE, all_bug_ids
from repro.bench.tables import (
    ALL_TABLES,
    figure1_mr_hang,
    figure3_hb_chain,
    figure4_mr_structure,
    table1_mechanisms,
    table3_benchmarks,
    table4_detection,
    table5_pruning,
    table6_performance,
    table7_trace_breakdown,
    table8_full_tracing,
    table9_hb_ablation,
)

__all__ = [
    "TableResult",
    "check_mark",
    "CACHE",
    "all_bug_ids",
    "ALL_TABLES",
    "table1_mechanisms",
    "table3_benchmarks",
    "table4_detection",
    "table5_pruning",
    "table6_performance",
    "table7_trace_breakdown",
    "table8_full_tracing",
    "table9_hb_ablation",
    "figure1_mr_hang",
    "figure3_hb_chain",
    "figure4_mr_structure",
]
