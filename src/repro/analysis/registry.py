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

__all__ = ["all_rules"]

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
