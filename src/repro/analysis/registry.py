"""The default replint rule set, in stable report order."""

from __future__ import annotations

from repro.analysis.rules_batch import (
    BatchIsolationRule,
    BatchRngRule,
    BatchSharedMutableRule,
)
from repro.analysis.rules_dataflow import (
    EnvTaintRule,
    MutableGlobalStateRule,
    RngForeignDrawRule,
    RngSharedDrainRule,
    RngStreamOwnershipRule,
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
from repro.analysis.rules_faults import (
    FaultSignatureCoverageRule,
    FaultStreamDeclarationRule,
)
from repro.analysis.rules_fingerprint import FingerprintCoverageRule
from repro.analysis.rules_rng import AdhocRngRule

__all__ = ["all_rules", "rules_by_id"]

_RULE_CLASSES = (
    # determinism
    UnseededRngRule,
    GlobalRandomRule,
    WallClockRule,
    UnsortedWalkRule,
    SetIterationRule,
    # fingerprint coverage
    FingerprintCoverageRule,
    # engine invariants
    EventTableRule,
    HeapPushRule,
    SlotsAttrsRule,
    TransmitUnpackRule,
    # RNG-stream discipline
    AdhocRngRule,
    # cross-module dataflow (whole-program layer)
    RngStreamOwnershipRule,
    RngForeignDrawRule,
    RngSharedDrainRule,
    EnvTaintRule,
    MutableGlobalStateRule,
    SignaturePurityRule,
    # cross-cell isolation (batched execution)
    BatchSharedMutableRule,
    BatchRngRule,
    BatchIsolationRule,
    # fault injection
    FaultSignatureCoverageRule,
    FaultStreamDeclarationRule,
)


def all_rules() -> list:
    """Fresh instances of every registered rule."""
    return [cls() for cls in _RULE_CLASSES]


def rules_by_id() -> dict:
    """``{rule_id: rule_instance}`` for the default rule set."""
    return {rule.id: rule for rule in all_rules()}
