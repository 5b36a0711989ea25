"""Compare two results documents of ``run.py`` against the bounds.

    python benchmarks/perf/compare.py A.json B.json

A is the baseline (parent commit, or the first of two sets of runs of one
commit), B the candidate.  One row per workload x end-to-end metric with
a verdict from the bounds in BENCHMARK.json:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better by more than the bound, or every
                 run of B reads better than every run of A;
* ``unresolved`` the run-to-run spread (interquartile range over the
                 median, the wider side) exceeds the bound, so a
                 difference of that size cannot be told from noise;
* ``within``     neither.

Spread needs at least four runs a side (``run.py --runs N``); with fewer
no row can be ``unresolved``.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(summary: Dict[str, object]) -> Optional[float]:
    if "q1" not in summary or not summary["median"]:
        return None
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(
    a: Dict[str, object], b: Dict[str, object], better: str, bound: float
) -> str:
    sign = -1.0 if better == "higher" else 1.0  # worsening as a positive share
    worsening = sign * (b["median"] - a["median"]) / abs(a["median"])
    every_b_better = all(
        sign * (vb - va) < 0 for va in a["values"] for vb in b["values"]
    )
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return "better" if every_b_better else "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound or every_b_better and worsening < 0:
        return "better"
    return "within"


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[Dict[str, object]]:
    with open(BENCHMARK_JSON) as fh:
        metrics = json.load(fh)["end_to_end"]
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        side_a = a["workloads"][name].get("end_to_end", {})
        side_b = b["workloads"][name].get("end_to_end", {})
        for metric in metrics:
            if metric["name"] not in side_a or metric["name"] not in side_b:
                continue
            sa, sb = side_a[metric["name"]], side_b[metric["name"]]
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": sa["median"],
                    "b": sb["median"],
                    "change": (sb["median"] - sa["median"]) / abs(sa["median"]),
                    "spread": max(
                        (s for s in (spread(sa), spread(sb)) if s is not None),
                        default=None,
                    ),
                    "bound": metric["bound"],
                    "verdict": verdict(sa, sb, metric["better"], metric["bound"]),
                }
            )
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    documents = []
    for path in argv[1:]:
        with open(path) as fh:
            documents.append(json.load(fh))
    for label, document in zip("AB", documents):
        if not document.get("comparable", True):
            print(f"warning: {label} was run at scale != 1; not comparable")
    rows = compare(*documents)
    print(f"{'workload':<18} {'metric':<22} {'A':>12} {'B':>12} "
          f"{'change':>8} {'spread':>8} {'bound':>6}  verdict")
    for row in rows:
        shown_spread = "-" if row["spread"] is None else f"{row['spread']:.1%}"
        print(
            f"{row['workload']:<18} {row['metric']:<22} {row['a']:>12.6g} "
            f"{row['b']:>12.6g} {row['change']:>+8.1%} {shown_spread:>8} "
            f"{row['bound']:>6.0%}  {row['verdict']}"
        )
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
