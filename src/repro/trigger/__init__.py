"""DCbug triggering and validation (paper Section 5)."""

from repro.trigger.controller import OrderController
from repro.trigger.explorer import TriggerModule
from repro.trigger.gates import GateSpec, TriggerInterceptor
from repro.trigger.naive import NaiveSleepTrigger
from repro.trigger.placement import GatePlan, PlacementAnalyzer

__all__ = [
    "OrderController",
    "GateSpec",
    "TriggerInterceptor",
    "GatePlan",
    "PlacementAnalyzer",
    "TriggerModule",
    "NaiveSleepTrigger",
]
