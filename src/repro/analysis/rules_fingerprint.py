"""Fingerprint coverage: every dataclass field reaches its signature.

The result cache (:mod:`repro.eval.parallel`) is keyed by
:func:`repro.eval.scenarios.fingerprint_cells` (``Scenario.fingerprint``
is its one-cell case), which folds in :meth:`FlowDef.signature` and
``_topology_signature``.  The failure
mode this rule exists for: someone adds a behavioural field to one of
those dataclasses, forgets the signature function, and two scenarios
that differ only in the new field now *alias the same cache entry* --
the second run silently returns the first run's results.

The check introspects the live dataclasses (``dataclasses.fields``)
and the *source* of the consuming function (``inspect.getsource`` +
``ast``): a field is covered when the consumer's body reads an
attribute of that name.  Deliberately uncovered fields (display names,
suite labels) must be listed in the spec's ``exclusions`` dict with a
one-line justification, and the rule also flags exclusion entries that
name fields which no longer exist -- the list cannot rot silently.

Coverage-by-attribute-name is intentionally coarse: it cannot prove
the read *contributes* to the hash, only that the author touched the
field while writing the signature.  That is the right trade -- the
drift being guarded against is *forgetting the field entirely*.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

from repro.analysis.core import Finding, ProjectRule

__all__ = ["CoverageSpec", "FingerprintCoverageRule", "check_coverage",
           "consumed_attrs", "default_specs"]


@dataclass(frozen=True)
class CoverageSpec:
    """One dataclass/consumer pair the coverage rule verifies.

    ``exclusions`` maps field name -> justification for fields that are
    *deliberately* not part of the fingerprint.
    """

    cls: type
    consumer: object  # function or unbound method whose source is scanned
    relpath: str      # where findings should point
    exclusions: tuple = ()  # ((field, justification), ...)

    def excluded_fields(self) -> dict:
        return dict(self.exclusions)


def consumed_attrs(func) -> frozenset:
    """Attribute names read anywhere in ``func``'s source.

    Collects every ``ast.Attribute.attr`` -- whichever variable holds
    the instance (``self``, ``ld``, ``p``, ``spec``), a read of field
    ``x`` appears as an attribute access named ``x``.
    """
    source = textwrap.dedent(inspect.getsource(func))
    tree = ast.parse(source)
    return frozenset(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute))


def check_coverage(spec: CoverageSpec, rule_id: str = "fingerprint-coverage"
                   ) -> list:
    """Findings for one spec: uncovered fields and stale exclusions."""
    if not is_dataclass(spec.cls):
        return [Finding(spec.relpath, 1, 0, rule_id,
                        f"{spec.cls.__name__} is not a dataclass; the "
                        f"coverage spec is stale")]
    consumer_name = getattr(spec.consumer, "__qualname__",
                            getattr(spec.consumer, "__name__", "consumer"))
    try:
        consumed = consumed_attrs(spec.consumer)
    except (OSError, TypeError) as exc:
        return [Finding(spec.relpath, 1, 0, rule_id,
                        f"cannot read source of {consumer_name}: {exc}")]
    line = _class_lineno(spec.cls)
    excluded = spec.excluded_fields()
    field_names = {f.name for f in fields(spec.cls)}

    findings = []
    for name in sorted(field_names):
        if name in consumed or name in excluded:
            continue
        findings.append(Finding(
            spec.relpath, line, 0, rule_id,
            f"{spec.cls.__name__}.{name} is not consumed by "
            f"{consumer_name} and not on its exclusion list -- scenarios "
            f"differing only in {name!r} would alias one cache entry"))
    for name in sorted(excluded):
        if name not in field_names:
            findings.append(Finding(
                spec.relpath, line, 0, rule_id,
                f"exclusion list for {spec.cls.__name__} names "
                f"{name!r}, which is not a field -- stale entry"))
    return findings


def _class_lineno(cls: type) -> int:
    try:
        return inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):
        return 1


def default_specs() -> list[CoverageSpec]:
    """The repository's fingerprint surface.

    Imports lazily so the analysis framework itself stays importable
    without numpy/netsim (e.g. when only syntax rules run on fixtures).
    """
    from repro.eval import scenarios
    from repro.netsim.topology import LinkDef, PathDef, TopologySpec

    return [
        CoverageSpec(
            cls=scenarios.Scenario,
            consumer=scenarios.fingerprint_cells,
            relpath="eval/scenarios.py",
            exclusions=(
                ("name", "display label; renames keep cache entries"),
                ("suite", "grouping label, never shapes results"),
                ("lineup", "display label of the source line-up"),
                ("churn", "fully captured by the start/stop it rewrites "
                          "onto the flows in __post_init__"),
            )),
        CoverageSpec(
            cls=scenarios.FlowDef,
            consumer=scenarios.FlowDef.signature,
            relpath="eval/scenarios.py",
            exclusions=(
                ("label", "display label; display_label() falls back to "
                          "the fingerprinted scheme"),
            )),
        CoverageSpec(
            cls=LinkDef,
            consumer=scenarios._topology_signature,
            relpath="eval/scenarios.py",
            exclusions=()),
        CoverageSpec(
            cls=PathDef,
            consumer=scenarios._topology_signature,
            relpath="eval/scenarios.py",
            exclusions=()),
        CoverageSpec(
            cls=TopologySpec,
            consumer=scenarios._topology_signature,
            relpath="eval/scenarios.py",
            exclusions=(
                ("name", "display name; excluded so topology renames "
                         "keep their cache entries"),
            )),
    ]


class FingerprintCoverageRule(ProjectRule):
    id = "fingerprint-coverage"
    family = "fingerprint"
    description = ("every Scenario/FlowDef/LinkDef/PathDef/TopologySpec "
                   "field is consumed by its signature function or "
                   "explicitly excluded")
    anchors = ("eval/scenarios.py", "netsim/topology.py")

    def check_project(self, root: Path):
        try:
            specs = default_specs()
        except Exception as exc:  # pragma: no cover - import environment issue
            return [Finding("eval/scenarios.py", 1, 0, self.id,
                            f"cannot introspect fingerprint surface: {exc}")]
        findings = []
        for spec in specs:
            findings.extend(check_coverage(spec, self.id))
        return findings
