"""Deterministic crash/restart fault injection.

DCatch predicts DCbugs from one *correct* run, but the bugs it hunts
live in the timing windows that crashes, retries and message loss open
up.  This module lets a run (or a whole pipeline) execute under a
scripted sequence of faults:

* a ``FaultPlan`` is an ordered list of ``FaultAction``s — crash a node,
  restart it, cut a (possibly one-way) partition, heal it — pinned to
  logical clock ticks, so a plan is as deterministic as the scheduler
  seed;
* ``FaultPlan.seeded(...)`` generates a random-but-reproducible plan
  (crash/restart pairs + partition/heal pairs) from a seed;
* ``install(cluster)`` spawns a *fault injector* thread that sleeps
  until each action's tick and applies it — faults are just another
  deterministic participant in the schedule;
* ``PipelineConfig.fault_plan`` runs the whole DCatch pipeline under a
  plan: ``DCatch(w, replace(cfg, fault_plan=plan, monitored_seed=seed))``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.runtime.network import FlakyNetwork
from repro.runtime.scheduler import current_sim_thread


class FaultKind(Enum):
    CRASH = "crash"
    RESTART = "restart"
    PARTITION = "partition"
    PARTITION_ONE_WAY = "partition_one_way"
    HEAL = "heal"


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: what happens, to whom, at which clock tick."""

    at: int
    kind: FaultKind
    target: Optional[str] = None  # crash / restart
    group_a: Tuple[str, ...] = ()  # partition / heal
    group_b: Tuple[str, ...] = ()

    def describe(self) -> str:
        if self.kind in (FaultKind.CRASH, FaultKind.RESTART):
            return f"@{self.at} {self.kind.value} {self.target}"
        groups = f"{list(self.group_a)}|{list(self.group_b)}"
        return f"@{self.at} {self.kind.value} {groups}"


class FaultPlan:
    """An immutable, deterministic schedule of faults for one run.

    Besides the scheduled actions, a plan can carry probabilistic network
    faults (message duplication, drops, delivery delay); installing such a
    plan swaps in a ``FlakyNetwork`` seeded off the cluster seed, so the
    whole run — actions and coin flips alike — replays exactly."""

    def __init__(
        self,
        actions: Sequence[FaultAction] = (),
        duplicate_probability: float = 0.0,
        drop_probability: float = 0.0,
        max_delay: int = 0,
    ) -> None:
        self.actions: Tuple[FaultAction, ...] = tuple(
            sorted(actions, key=lambda a: a.at)
        )
        self.duplicate_probability = duplicate_probability
        self.drop_probability = drop_probability
        self.max_delay = max_delay
        for action in self.actions:
            if action.kind in (FaultKind.CRASH, FaultKind.RESTART):
                if not action.target:
                    raise ReproError(f"{action.kind.value} needs a target node")
            elif not action.group_a or not action.group_b:
                raise ReproError(f"{action.kind.value} needs two node groups")

    def __len__(self) -> int:
        return len(self.actions)

    def describe(self) -> str:
        parts = "; ".join(a.describe() for a in self.actions)
        knobs = []
        if self.duplicate_probability:
            knobs.append(f"dup={self.duplicate_probability}")
        if self.drop_probability:
            knobs.append(f"drop={self.drop_probability}")
        if self.max_delay:
            knobs.append(f"delay<={self.max_delay}")
        tail = f" [{', '.join(knobs)}]" if knobs else ""
        return (parts or "<empty plan>") + tail

    @property
    def needs_network(self) -> bool:
        return (
            any(
                a.kind
                in (FaultKind.PARTITION, FaultKind.PARTITION_ONE_WAY, FaultKind.HEAL)
                for a in self.actions
            )
            or self.duplicate_probability > 0.0
            or self.drop_probability > 0.0
            or self.max_delay > 0
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def seeded(
        cls,
        seed: int,
        nodes: Sequence[str],
        horizon: int = 200,
        crashes: int = 1,
        partitions: int = 1,
        restart_after: int = 40,
        heal_after: int = 30,
        protected: Sequence[str] = (),
        duplicate_probability: float = 0.0,
        max_delay: int = 0,
    ) -> "FaultPlan":
        """A reproducible random plan: ``crashes`` crash/restart pairs and
        ``partitions`` partition/heal pairs inside ``horizon`` ticks,
        optionally with seeded message duplication and delivery delay.

        Nodes in ``protected`` are never crashed (but may be partitioned)
        — use it to keep a workload's client driver alive."""
        rng = random.Random(seed)
        names = list(nodes)
        actions: List[FaultAction] = []
        candidates = [n for n in names if n not in set(protected)]
        for _ in range(crashes):
            if not candidates:
                break
            target = candidates[rng.randrange(len(candidates))]
            at = 1 + rng.randrange(max(1, horizon))
            actions.append(FaultAction(at, FaultKind.CRASH, target=target))
            actions.append(
                FaultAction(at + restart_after, FaultKind.RESTART, target=target)
            )
        for _ in range(partitions):
            if len(names) < 2:
                break
            shuffled = list(names)
            rng.shuffle(shuffled)
            cut = 1 + rng.randrange(len(shuffled) - 1)
            group_a, group_b = tuple(shuffled[:cut]), tuple(shuffled[cut:])
            at = 1 + rng.randrange(max(1, horizon))
            actions.append(
                FaultAction(
                    at, FaultKind.PARTITION, group_a=group_a, group_b=group_b
                )
            )
            actions.append(
                FaultAction(
                    at + heal_after, FaultKind.HEAL, group_a=group_a, group_b=group_b
                )
            )
        return cls(
            actions,
            duplicate_probability=duplicate_probability,
            max_delay=max_delay,
        )

    # -- installation --------------------------------------------------------

    def install(self, cluster: "object") -> "FaultInjector":
        """Attach this plan to a freshly built (unrun) cluster.  A plan is
        stateless and may be installed on any number of clusters."""
        injector = FaultInjector(cluster, self)
        injector.start()
        return injector


class FaultInjector:
    """The per-cluster thread that applies a plan's actions on schedule."""

    def __init__(self, cluster: "object", plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.applied: List[str] = []

    def start(self) -> None:
        # Fail fast on typo'd targets: by install time the cluster's node
        # set is known, and a crash scheduled against a node that does
        # not exist would otherwise only surface as the injector thread
        # dying mid-run (an UNCAUGHT failure in the monitored log).
        known = set(self.cluster.nodes)
        for action in self.plan.actions:
            if action.target is not None and action.target not in known:
                raise ReproError(
                    f"fault plan targets unknown node "
                    f"{action.target!r} (cluster has: {sorted(known)})"
                )
        if self.plan.needs_network and not hasattr(self.cluster.network, "partition"):
            # Partitions / probabilistic faults need a fault-capable
            # policy; seed it off the cluster seed so the swap stays
            # deterministic.
            self.cluster.set_network(
                FlakyNetwork(
                    seed=self.cluster.seed,
                    max_delay=self.plan.max_delay,
                    drop_probability=self.plan.drop_probability,
                    duplicate_probability=self.plan.duplicate_probability,
                )
            )
        if not self.plan.actions:
            return
        self.cluster.scheduler.spawn(self._run, name="fault-injector")

    def _run(self) -> None:
        me = current_sim_thread()
        for action in self.plan.actions:
            if action.at > self.cluster.scheduler.clock:
                me.sleep_until(action.at)
            self._apply(action)

    def _apply(self, action: FaultAction) -> None:
        from repro import obs

        obs.counter(
            "faults_injected_total", "fault actions applied by the injector"
        ).labels(kind=action.kind.value).inc()
        if action.kind is FaultKind.CRASH:
            self.cluster.node(action.target).crash()
        elif action.kind is FaultKind.RESTART:
            self.cluster.node(action.target).restart()
        elif action.kind is FaultKind.PARTITION:
            self.cluster.network.partition(action.group_a, action.group_b)
        elif action.kind is FaultKind.PARTITION_ONE_WAY:
            self.cluster.network.partition_one_way(action.group_a, action.group_b)
        elif action.kind is FaultKind.HEAL:
            self.cluster.network.heal(action.group_a, action.group_b)
        self.applied.append(action.describe())
