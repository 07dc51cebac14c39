"""replint: determinism & cache-correctness static analysis.

Everything this reproduction promises -- bit-identical golden traces,
serial==parallel suite identity, and a fingerprint-keyed result cache
whose staleness rules live in :meth:`repro.eval.scenarios.Scenario.
fingerprint` -- rests on invariants that are easy to break silently:
a generator built outside the RNG census, a wall-clock read in the
engine, a draw from another object's stream.  This package keeps a
rule only for what neither structure nor the tests can see (that
every dataclass field reaches the cache key is structural, derived
from ``dataclasses.fields()`` in :mod:`repro.netsim.signing`; the
engine's handler table, heap tuples, ``Packet`` slots and
``transmit()`` arity are enforced by the interpreter on paths the
goldens run):

* :mod:`repro.analysis.core` -- the framework: :class:`Finding`,
  :class:`AstRule`, the :class:`Analyzer` driver and inline
  ``# replint: disable=RULE`` suppressions;
* :mod:`repro.analysis.rules_determinism` -- global RNG state,
  wall-clock reads, unsorted directory walks, set-order iteration;
* :mod:`repro.analysis.rules_dataflow` -- RNG discipline (generators
  are constructed in :mod:`repro.netsim.rngstreams` only; no foreign
  draws) and mutable global state in simulation packages.

Run it with ``python -m repro.analysis`` (or ``scripts/replint.py``);
``--format=sarif`` emits SARIF 2.1.0 for GitHub code scanning.  The
tier-1 test :mod:`tests.test_analysis` asserts zero findings on the
repository.
"""

from repro.analysis.core import Analyzer, AstRule, Finding
from repro.analysis.registry import all_rules

__all__ = ["Analyzer", "AstRule", "Finding", "all_rules"]
