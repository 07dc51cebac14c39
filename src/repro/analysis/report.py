"""Text, JSON, and SARIF reporters for replint findings."""

from __future__ import annotations

import json

from repro.analysis.core import finding_to_dict

__all__ = ["render_json", "render_sarif", "render_text"]


def render_text(findings, n_files: int | None = None) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [str(f) for f in findings]
    if findings:
        by_rule: dict[str, int] = {}
        for f in findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        breakdown = ", ".join(f"{rule}: {count}"
                              for rule, count in sorted(by_rule.items()))
        lines.append("")
        lines.append(f"{len(findings)} finding(s) ({breakdown})")
    else:
        lines.append("no findings")
    if n_files is not None:
        lines.append(f"{n_files} file(s) analyzed")
    return "\n".join(lines) + "\n"


def render_json(findings, n_files: int | None = None) -> str:
    """Machine-readable report (the CI artifact format)."""
    payload = {
        "findings": [finding_to_dict(f) for f in findings],
        "summary": {
            "total": len(findings),
            "files": n_files,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"


def render_sarif(findings, rules=(), uri_prefix: str = "") -> str:
    """SARIF 2.1.0 report for GitHub code scanning.

    ``findings`` are post-suppression.  ``rules`` supplies the tool-driver
    rule metadata; ``uri_prefix`` rebases finding paths (relative to
    the analyzed package root) onto repository-relative URIs, e.g.
    ``"src/repro"`` so code scanning annotates the right files.
    """
    rule_ids = sorted({f.rule for f in findings}
                      | {r.id for r in rules if r.id})
    descriptions = {r.id: r.description for r in rules if r.id}
    families = {r.id: r.family for r in rules if r.id}
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}

    def uri(path: str) -> str:
        return f"{uri_prefix.rstrip('/')}/{path}" if uri_prefix else path

    results = []
    for f in findings:
        results.append({
            "ruleId": f.rule,
            "ruleIndex": rule_index.get(f.rule, -1),
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": uri(f.path)},
                    "region": {
                        "startLine": max(f.line, 1),
                        # SARIF columns are 1-based; findings carry
                        # 0-based AST col offsets.
                        "startColumn": f.col + 1,
                    },
                },
            }],
        })
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "replint",
                    "rules": [{
                        "id": rule_id,
                        "shortDescription": {
                            "text": descriptions.get(rule_id, rule_id)},
                        "properties": {
                            "family": families.get(rule_id, "")},
                    } for rule_id in rule_ids],
                },
            },
            "results": results,
        }],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
