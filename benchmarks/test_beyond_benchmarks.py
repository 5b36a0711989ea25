"""Beyond-benchmark findings (paper Section 7.2).

"DCatch also found a few harmful DCbugs ... that go beyond the 7
benchmarks.  We were unaware of these bugs" — the reproduction's
equivalents live in ``repro.systems.extra`` and this bench confirms the
detector finds and triggers them end to end.
"""

import pytest
from conftest import run_once

from repro.bench import TableResult
from repro.detect import Verdict
from repro.pipeline import DCatch
from repro.systems import extra_workloads


def beyond_benchmarks() -> TableResult:
    rows = []
    for workload in extra_workloads():
        result = DCatch(workload).run()
        harmful = [
            o for o in result.outcomes if o.verdict is Verdict.HARMFUL
        ]
        rows.append(
            [
                workload.info.bug_id,
                workload.info.workload,
                workload.info.symptom,
                "yes" if not result.monitored_result.harmful else "NO",
                len(harmful),
                harmful[0].report.representative.variable if harmful else "-",
            ]
        )
    return TableResult(
        table_id="Beyond",
        title="Harmful DCbugs beyond the seven benchmarks (paper §7.2)",
        headers=["BugID", "Workload", "Symptom", "Correct run?",
                 "Harmful reports", "Racing variable"],
        rows=rows,
    )


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: MR-SPEC classed benign"
)
def test_beyond_benchmarks(benchmark, save_table):
    table = run_once(benchmark, beyond_benchmarks)
    save_table(table)

    for row in table.rows:
        assert row[3] == "yes", "monitored run must be correct"
        assert row[4] >= 1, f"{row[0]}: extra bug not confirmed harmful"
