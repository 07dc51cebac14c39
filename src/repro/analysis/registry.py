"""The default replint rule set, in stable report order."""

from __future__ import annotations

from repro.analysis.rules_dataflow import (
    MutableGlobalStateRule,
    RngForeignDrawRule,
    RngSoleConstructorRule,
)
from repro.analysis.rules_determinism import (
    GlobalRandomRule,
    SetIterationRule,
    UnsortedWalkRule,
    WallClockRule,
)

__all__ = ["all_rules", "rules_by_id"]

_RULE_CLASSES = (
    # determinism
    GlobalRandomRule,
    WallClockRule,
    UnsortedWalkRule,
    SetIterationRule,
    # dataflow
    RngSoleConstructorRule,
    RngForeignDrawRule,
    MutableGlobalStateRule,
)


def all_rules() -> list:
    """Fresh instances of every registered rule."""
    return [cls() for cls in _RULE_CLASSES]


def rules_by_id() -> dict:
    """``{rule_id: rule_instance}`` for the default rule set."""
    return {rule.id: rule for rule in all_rules()}
