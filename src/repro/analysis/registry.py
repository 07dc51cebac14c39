"""The default replint rule set, in stable report order."""

from __future__ import annotations

from repro.analysis.rules_dataflow import (
    EnvTaintRule,
    MutableGlobalStateRule,
    RngForeignDrawRule,
    RngSharedDrainRule,
    RngSoleConstructorRule,
    SignaturePurityRule,
)
from repro.analysis.rules_determinism import (
    GlobalRandomRule,
    SetIterationRule,
    UnseededRngRule,
    UnsortedWalkRule,
    WallClockRule,
)
from repro.analysis.rules_engine import (
    EventTableRule,
    HeapPushRule,
    SlotsAttrsRule,
    TransmitUnpackRule,
)

__all__ = ["all_rules", "rules_by_id"]

_RULE_CLASSES = (
    # determinism
    UnseededRngRule,
    GlobalRandomRule,
    WallClockRule,
    UnsortedWalkRule,
    SetIterationRule,
    # engine invariants
    EventTableRule,
    HeapPushRule,
    SlotsAttrsRule,
    TransmitUnpackRule,
    # dataflow
    RngSoleConstructorRule,
    RngForeignDrawRule,
    RngSharedDrainRule,
    EnvTaintRule,
    MutableGlobalStateRule,
    SignaturePurityRule,
)


def all_rules() -> list:
    """Fresh instances of every registered rule."""
    return [cls() for cls in _RULE_CLASSES]


def rules_by_id() -> dict:
    """``{rule_id: rule_instance}`` for the default rule set."""
    return {rule.id: rule for rule in all_rules()}
