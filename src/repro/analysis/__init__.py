"""replint: determinism & cache-correctness static analysis.

Everything this reproduction promises -- bit-identical golden traces,
serial==parallel suite identity, and a fingerprint-keyed result cache
whose staleness rules live in :meth:`repro.eval.scenarios.Scenario.
fingerprint` -- rests on invariants that are easy to break silently:
an unseeded RNG stream, a wall-clock read in the engine, an ``EV_*``
event kind missing from the handler table.  This package turns the
invariants structure cannot express into machine-checked rules (that
every dataclass field reaches the cache key is *not* one of them: the
key is derived from ``dataclasses.fields()``,
:mod:`repro.netsim.signing`):

* :mod:`repro.analysis.core` -- the framework: :class:`Finding`,
  :class:`Rule` (per-file AST rules and whole-project introspection
  rules), the :class:`Analyzer` driver and inline ``# replint:
  disable=RULE`` suppressions;
* :mod:`repro.analysis.rules_determinism` -- unseeded/global RNG,
  wall-clock reads, unsorted directory walks, set-order iteration;
* :mod:`repro.analysis.rules_engine` -- the ``EV_*`` handler table,
  heap-push tuple arity, ``__slots__`` discipline, 4-tuple
  ``Link.transmit()`` unpacking;
* :mod:`repro.analysis.rules_dataflow` -- RNG discipline (generators
  are constructed in :mod:`repro.netsim.rngstreams` only; no foreign
  draws or shared drains), env-taint (no ``os.environ`` read outside
  ``config.py``), mutable global state in simulation packages, and
  fingerprint/signature purity.

Run it with ``python -m repro.analysis`` (or ``scripts/replint.py``);
``--format=sarif`` emits SARIF 2.1.0 for GitHub code scanning.  The
tier-1 test :mod:`tests.test_analysis` asserts zero findings on the
repository.
"""

from repro.analysis.core import (
    Analyzer,
    AstRule,
    Finding,
    ProjectRule,
    Rule,
)
from repro.analysis.registry import all_rules, rules_by_id

__all__ = ["Analyzer", "AstRule", "Finding", "ProjectRule", "Rule",
           "all_rules", "rules_by_id"]
