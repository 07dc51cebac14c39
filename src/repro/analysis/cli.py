"""Command line for replint (``python -m repro.analysis``).

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.core import Analyzer, default_root
from repro.analysis.registry import all_rules
from repro.analysis.report import render_json, render_sarif, render_text

__all__ = ["main"]

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replint",
        description="determinism & cache-correctness lints for the "
                    "repro package")
    parser.add_argument("paths", nargs="*",
                        help="specific files to analyze (default: the "
                             "whole package)")
    parser.add_argument("--root", default=None,
                        help="package directory to analyze "
                             "(default: the installed repro package)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rule ids and descriptions, then exit")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rules = all_rules()

    if args.list_rules:
        by_family: dict[str, list] = {}
        for rule in rules:
            by_family.setdefault(rule.family, []).append(rule)
        for family in sorted(by_family):
            print(f"{family}:")
            for rule in by_family[family]:
                print(f"  {rule.id:24s} {rule.description}")
        return 0

    root = Path(args.root).resolve() if args.root else default_root()
    analyzer = Analyzer(root=root, rules=rules)

    files = None
    if args.paths:
        files = [Path(p).resolve() for p in args.paths]
        missing = [p for p in files if not p.exists()]
        if missing:
            print(f"replint: no such file: "
                  f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
            return 2

    findings = analyzer.analyze(files)
    n_files = len(files) if files is not None else len(analyzer.iter_files())

    if args.format == "sarif":
        # Rebase finding paths (package-relative) onto repo-relative
        # URIs so code-scanning annotations land on the right files.
        try:
            uri_prefix = root.relative_to(root.parent.parent).as_posix()
        except ValueError:
            uri_prefix = ""
        sys.stdout.write(render_sarif(findings, rules, uri_prefix))
    else:
        render = render_json if args.format == "json" else render_text
        sys.stdout.write(render(findings, n_files))
    return 1 if findings else 0
