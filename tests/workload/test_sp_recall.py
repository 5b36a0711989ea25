"""Ground-truth recall of the sync-preserving tier.

For every mini system the generator plants known races and writes them
to ``ground_truth.json``.  The SP tier must recall 100% of them: the
sync-preserving restriction only removes pairs that are ordered by the
observed synchronization, and a planted race never is.  Anything the
SP tier *does* remove is an HB-only candidate the trigger stage would
otherwise have spent re-executions on — the test records that count.

``small`` presets run everywhere; set ``REPRO_RECALL_MEDIUM=1`` to add
the ~180k-record ``medium`` presets (CI's sp-equivalence job does).
"""

import os

import pytest

from repro.detect import detect_races
from repro.detect.syncpres import annotate_sync_preserving
from repro.trace.salvage import salvage_trace
from repro.workload import SYSTEM_FLAVORS, generate_workload

SYSTEMS = sorted(SYSTEM_FLAVORS)

PRESETS = ["small"] + (
    ["medium"] if os.environ.get("REPRO_RECALL_MEDIUM") else []
)


def _planted(generated):
    return {
        frozenset((r["first_seq"], r["second_seq"]))
        for r in generated.planted_races
    }


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("preset", PRESETS)
def test_sp_recalls_all_planted_races(system, preset, tmp_path):
    generated = generate_workload(system, preset, 11, str(tmp_path))
    trace, report = salvage_trace(generated.wal_dir)
    assert report.records_recovered == generated.records

    # medium's ~180k records (73,500 backbone vertices) need 322 MB of
    # bit vectors per closure, inside the 512 MB default budget.
    detection = annotate_sync_preserving(detect_races(trace))
    planted = _planted(generated)
    sound = {frozenset(p) for p in detection.sp_pairs}
    missed = planted - sound
    assert not missed, f"{system}/{preset}: SP dropped planted races {missed}"

    # The eliminated HB-only candidates are the tier's payoff: they can
    # only ever be sync-ordered pairs, never planted ones.
    hb_only = len(detection.candidates) - len(detection.sp_pairs)
    assert hb_only >= 0
    all_pairs = {
        frozenset((c.first.seq, c.second.seq)) for c in detection.candidates
    }
    assert not (planted & (all_pairs - sound))
