"""The sampling decision a stream pass makes (``dcatch stream --sampling``)."""

import zlib

import pytest

from repro.ids import CallStack
from repro.runtime import OpKind
from repro.runtime.ops import OpEvent
from repro.trace import build_sampler


def _event(seq, kind, location=None, tid=0):
    return OpEvent(
        seq=seq,
        kind=kind,
        obj_id="o",
        node="n",
        tid=tid,
        thread_name=f"t{tid}",
        segment=tid,
        callstack=CallStack(),
        location=location,
    )


def _mem(seq, loc="x", kind=OpKind.MEM_WRITE, tid=0):
    return _event(seq, kind, (1, loc), tid)


def _lock(seq, tid=0):
    return _event(seq, OpKind.LOCK_ACQUIRE, tid=tid)


def _kept(sampler, events):
    return [sampler.observe(e)[0] for e in events]


# -- the decision -------------------------------------------------------------


def test_hash_rate_deterministic_and_seed_sensitive():
    events = [_mem(i, loc=f"x{i % 7}") for i in range(200)]
    first = _kept(build_sampler("rate:0.3", seed=1), events)
    second = _kept(build_sampler("rate:0.3", seed=1), events)
    other_seed = _kept(build_sampler("rate:0.3", seed=2), events)
    assert first == second
    assert first != other_seed
    # Rough proportionality: keeps a minority, not none.
    assert 0 < sum(first) < len(events)


def test_hash_rate_bounds():
    with pytest.raises(ValueError):
        build_sampler("rate:1.5")
    with pytest.raises(ValueError):
        build_sampler("rate:-0.1")
    assert not any(_kept(build_sampler("rate:0.0"), map(_mem, range(50))))


def test_per_location_budget_keeps_prefix_per_location():
    sampler = build_sampler("budget:2")
    hot = _kept(sampler, [_mem(i, loc="hot") for i in range(5)])
    cold = _kept(sampler, [_mem(100 + i, loc="cold") for i in range(2)])
    assert hot == [True, True, False, False, False]
    assert cold == [True, True]


def test_keep_all_cannot_drop():
    # A union with keep-all never drops, whatever else it names.
    for spec in ("all", "all+rate:0.5", "rate:0.5+all", "budget:4+rate:1.0"):
        sampler = build_sampler(spec)
        assert (sampler.budget, sampler.rate) == (None, 1.0)
        assert all(_kept(sampler, map(_mem, range(50))))


def test_state_is_one_count_per_location():
    """50,000 accesses over 10 locations, about half admitted: what the
    sampler holds must not grow with the records it has admitted."""
    sampler = build_sampler("0.5")
    events = [_mem(seq, loc=seq % 10) for seq in range(50_000)]
    assert 20_000 < sum(_kept(sampler, events)) < 30_000
    held, stack, visited = 0, [sampler], set()
    while stack:
        obj = stack.pop()
        if id(obj) in visited:
            continue
        visited.add(id(obj))
        if isinstance(obj, dict):
            held += len(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            held += len(obj)
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    assert held <= 10


def test_observe_allocates_nothing():
    sampler = build_sampler("budget:1+rate:0.0")
    keep = sampler.observe(_lock(0))
    assert keep == (True, ())
    assert sampler.observe(_lock(1)) is keep
    assert sampler.observe(_mem(2)) is keep  # within the budget
    drop = sampler.observe(_mem(3))
    assert drop == (False, ())
    assert sampler.observe(_mem(4, kind=OpKind.MEM_READ)) is drop


#: (spec, seed) -> (kept count, crc32 of the kept seqs), computed with
#: the policy classes this module replaced: the kept set of every
#: surviving spec is theirs.
GOLDENS = [
    ("0.01", 0, 8379, 0x01960718),
    ("0.5", 7, 14127, 0xD9B04AD1),
    ("rate:0.3", 0, 10643, 0x250611CA),
    ("budget:4", 0, 7466, 0x27FB76A5),
    ("budget:8+rate:0.1", 3, 9430, 0xA0C60A4B),
    ("1.0", 0, 20000, 0xF3989F0E),
]


@pytest.mark.parametrize("spec,seed,count,digest", GOLDENS)
def test_kept_sets_match_the_policy_classes(spec, seed, count, digest):
    sampler = build_sampler(spec, seed)
    kinds = (OpKind.MEM_READ, OpKind.MEM_WRITE, OpKind.SOCK_SEND)
    kept = []
    for seq in range(20_000):
        kind = kinds[seq % 3]
        location = (
            None
            if kind is OpKind.SOCK_SEND
            else ((seq * 7919) % 300, "ab"[seq % 2])
        )
        if sampler.observe(_event(seq, kind, location))[0]:
            kept.append(seq)
    assert len(kept) == count
    assert zlib.crc32(",".join(map(str, kept)).encode()) == digest


# -- spec parsing -------------------------------------------------------------


def test_bare_rate_builds_budgeted_composite():
    sampler = build_sampler("0.1", seed=3)
    assert (sampler.budget, sampler.rate, sampler.seed) == (8, 0.1, 3)


def test_rate_one_is_keep_all():
    for spec in ("1.0", "rate:1", "all"):
        sampler = build_sampler(spec)
        assert (sampler.budget, sampler.rate) == (None, 1.0)


def _terms(sampler):
    return sampler.budget, sampler.rate, sampler.seed


def test_term_grammar():
    assert _terms(build_sampler("rate:0.25")) == (None, 0.25, 0)
    assert _terms(build_sampler("budget:16")) == (16, None, 0)
    # The same policy whatever the order the terms were written in.
    for spec in ("budget:4+rate:0.05", "rate:0.05 + budget:4"):
        assert _terms(build_sampler(spec)) == (4, 0.05, 0)


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(" ", id=""),  # "" itself is "sampling off", below
        "2.0",
        "-0.5",
        "nan",
        "bogus",
        "rate:x",
        "rate:2",
        "budget:0",
        "budget:1.5",
        "all:1",
        "epoch:5",
        "epoch:500:8192",
        "reservoir:8",
        "rate:0.1+rate:0.2",
        "budget:4+budget:8",
        "budget:4+",
    ],
)
def test_bad_specs_rejected(spec):
    with pytest.raises(ValueError, match="supported: R, all, rate:R, budget:N"):
        build_sampler(spec)


def test_build_sampler_off_for_empty_spec():
    assert build_sampler(None) is None
    assert build_sampler("") is None
    assert _terms(build_sampler("0.5", seed=7)) == (8, 0.5, 7)


def test_nominal_rate_surfaces_hash_component():
    assert build_sampler("0.1").rate == 0.1
    assert build_sampler("1.0").rate == 1.0
    assert build_sampler("budget:8").rate is None

