"""Property-based tests: the stream filter over random schedules.

Replays the shared ``STEPS`` schedules through a ``StreamSession`` with
a sampler attached (what ``dcatch stream --sampling`` runs) and checks
the sampling contract on the records that reach the detector:

* the sampled trace (the kept records) is a subset of the full one
  (never invents records);
* every HB-related and lock record survives — only ``MEM_KINDS`` are
  thinned, so the happens-before order is unchanged;
* a fixed ``(policy, seed)`` pair keeps byte-identical records;
* rate 1.0 is an identity: every record is kept, nothing is counted as
  dropped, and the pass reads ``confidence: full`` with the candidates
  of an unsampled pass.
"""

from conftest import STEPS, build_trace
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.streaming import StreamSession
from repro.hb.model import FULL_MODEL
from repro.runtime.ops import MEM_KINDS
from repro.trace import build_sampler, dump_records

SPECS = st.sampled_from(
    [
        "rate:0.4",
        "budget:2",
        "budget:1+rate:0.2",
        "0.3",
    ]
)
SEEDS = st.integers(0, 7)


def _stream(trace, sampler=None):
    """One stream pass over ``trace``: the records the filter let
    through to the detector, and the pass's result."""
    session = StreamSession(FULL_MODEL, window=8192, sampler=sampler)
    detector = session.open()
    kept = []
    feed = detector.feed

    def recording_feed(event):
        kept.append(event)
        feed(event)

    detector.feed = recording_feed
    session.pump(iter(trace.records))
    return kept, session.finish()


@given(recipe=STEPS, spec=SPECS, seed=SEEDS)
@settings(max_examples=60, deadline=None)
def test_sampled_trace_is_subset_retaining_all_hb_ops(recipe, spec, seed):
    full = build_trace(recipe)
    kept, result = _stream(full, build_sampler(spec, seed))
    full_seqs = {r.seq for r in full}
    kept_seqs = {r.seq for r in kept}
    assert kept_seqs <= full_seqs
    hb_seqs = {r.seq for r in full if r.kind not in MEM_KINDS}
    assert hb_seqs <= kept_seqs
    # Everything dropped was a memory access, and was counted.
    dropped = full_seqs - kept_seqs
    kinds = {r.seq: r.kind for r in full}
    assert all(kinds[seq] in MEM_KINDS for seq in dropped)
    assert sum(result.sampled_dropped.values()) == len(dropped)
    assert result.confidence == ("sampled" if dropped else "full")


@given(recipe=STEPS, spec=SPECS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_fixed_policy_and_seed_are_byte_identical(recipe, spec, seed):
    full = build_trace(recipe)
    first, _ = _stream(full, build_sampler(spec, seed))
    second, _ = _stream(full, build_sampler(spec, seed))
    assert dump_records(first) == dump_records(second)


@given(recipe=STEPS)
@settings(max_examples=40, deadline=None)
def test_rate_one_is_byte_identical_to_unsampled(recipe):
    full = build_trace(recipe)
    plain_kept, plain = _stream(full)
    kept, result = _stream(full, build_sampler("1.0"))
    assert dump_records(kept) == dump_records(plain_kept) == dump_records(full.records)
    assert result.sampled_dropped == {}
    assert result.confidence == plain.confidence == "full"
    assert list(result.candidate_seq_pairs()) == list(plain.candidate_seq_pairs())
