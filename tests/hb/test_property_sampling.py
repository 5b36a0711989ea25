"""Property-based tests: sampled tracing over random schedules.

Replays the shared ``STEPS`` schedules through a real ``Tracer`` with a
sampler attached and checks the sampling contract:

* the sampled trace is a subset of the full one (never invents records);
* every HB-related and lock record survives — only ``MEM_KINDS`` are
  thinned, so the happens-before graph is unchanged;
* a fixed ``(policy, seed)`` pair reproduces byte-identical output;
* rate 1.0 is a no-op: byte-identical to the unsampled tracer.
"""

from types import SimpleNamespace

from conftest import STEPS, build_trace
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.ops import MEM_KINDS
from repro.trace import FullScope, Tracer, build_sampler, dump_records

SPECS = st.sampled_from(
    [
        "rate:0.4",
        "budget:2",
        "budget:1+rate:0.2",
        "0.3",
    ]
)
SEEDS = st.integers(0, 7)


def _replay(trace, sampler=None):
    """Feed a prebuilt trace's records through a fresh Tracer."""
    tracer = Tracer(scope=FullScope(), sampler=sampler)
    tracer.bind(
        SimpleNamespace(
            nodes={"n": SimpleNamespace(traced=True)},
            add_interceptor=lambda interceptor: None,
        )
    )
    for event in trace:
        tracer.after(event)
    return tracer.trace


@given(recipe=STEPS, spec=SPECS, seed=SEEDS)
@settings(max_examples=60, deadline=None)
def test_sampled_trace_is_subset_retaining_all_hb_ops(recipe, spec, seed):
    full = build_trace(recipe)
    sampled = _replay(full, build_sampler(spec, seed))
    full_seqs = {r.seq for r in full}
    sampled_seqs = {r.seq for r in sampled}
    assert sampled_seqs <= full_seqs
    hb_seqs = {r.seq for r in full if r.kind not in MEM_KINDS}
    assert hb_seqs <= sampled_seqs
    # Everything dropped was a memory access.
    dropped = full_seqs - sampled_seqs
    kinds = {r.seq: r.kind for r in full}
    assert all(kinds[seq] in MEM_KINDS for seq in dropped)


@given(recipe=STEPS, spec=SPECS, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_fixed_policy_and_seed_are_byte_identical(recipe, spec, seed):
    full = build_trace(recipe)
    first = _replay(full, build_sampler(spec, seed))
    second = _replay(full, build_sampler(spec, seed))
    assert dump_records(first.records) == dump_records(second.records)


@given(recipe=STEPS)
@settings(max_examples=40, deadline=None)
def test_rate_one_is_byte_identical_to_unsampled(recipe):
    full = build_trace(recipe)
    plain = _replay(full)
    sampled = _replay(full, build_sampler("1.0"))
    assert sampled.sampled is False
    assert dump_records(sampled.records) == dump_records(plain.records)
