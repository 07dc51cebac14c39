"""The replint framework: findings, rules, suppressions, driver.

Two rule shapes cover everything the analyzer checks:

* :class:`AstRule` -- a per-file check over the parsed AST (plus raw
  source for suppression comments).  These are pure syntax: no imports
  of the analyzed code, so they run on any file, including the
  known-bad fixtures under ``tests/fixtures/replint/``.
* :class:`ProjectRule` -- a check that reads several files of the
  tree at once (a registry against its users); it runs on whole-tree
  scans only.

Findings are suppressed inline with ``# replint: disable=RULE`` on the
flagged line (``disable=all`` silences every rule there;
``disable-file=RULE`` anywhere in a file silences the whole file).
There is no accepted-findings list: every real finding the rules
surface is fixed or suppressed with a justification comment, and CI
fails on anything new.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["Analyzer", "AstRule", "Finding", "ProjectRule",
           "Rule", "dotted_name", "parse_suppressions"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def __str__(self) -> str:
        return f"{self.location()}: {self.rule}: {self.message}"


class Rule:
    """Base class: an identified, documented, package-scoped check."""

    #: Stable identifier used in reports and suppressions.
    id: str = ""
    #: One-line description shown by ``--list-rules``.
    description: str = ""
    #: Rule family (determinism / fingerprint / engine / rng).
    family: str = ""
    #: Package prefixes (relative to the analyzed root, ``/``-separated)
    #: this rule applies to; empty means every file.
    packages: tuple = ()

    def applies_to(self, relpath: str) -> bool:
        if not self.packages:
            return True
        rel = relpath.replace("\\", "/")
        return any(rel == p or rel.startswith(p + "/") for p in self.packages)


class AstRule(Rule):
    """A per-file check over the parsed AST."""

    def check(self, tree: ast.AST, source: str, relpath: str) -> list:
        raise NotImplementedError


class ProjectRule(Rule):
    """A check over several files at once; whole-tree scans only."""

    def check_project(self, root: Path) -> list:
        raise NotImplementedError


def dotted_name(node: ast.AST) -> str | None:
    """Best-effort dotted name of an expression (``np.random.default_rng``).

    Returns ``None`` for anything that is not a plain ``Name`` /
    ``Attribute`` chain (calls on call results, subscripts, ...).
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


# --- suppressions ------------------------------------------------------------

_DISABLE_RE = re.compile(
    r"#\s*replint:\s*disable(?P<filewide>-file)?=(?P<rules>[\w*,\-]+)")


def parse_suppressions(source: str) -> tuple[dict, set]:
    """``(per_line, file_wide)`` rule-id sets from disable comments.

    ``per_line`` maps 1-based line numbers to the rule ids disabled on
    that line; ``file_wide`` holds ids disabled for the whole file.
    ``all`` (or ``*``) matches every rule.  The scan is line-based on
    purpose -- a disable marker inside a string literal also counts,
    which is harmless and keeps the mechanism trivially predictable.
    """
    per_line: dict[int, set] = {}
    file_wide: set = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _DISABLE_RE.search(line)
        if match is None:
            continue
        ids = {r.strip() for r in match.group("rules").split(",") if r.strip()}
        if match.group("filewide"):
            file_wide |= ids
        else:
            per_line.setdefault(lineno, set()).update(ids)
    return per_line, file_wide


def _is_suppressed(finding: Finding, per_line: dict, file_wide: set) -> bool:
    ids = file_wide | per_line.get(finding.line, set())
    return bool(ids & {finding.rule, "all", "*"})


# --- driver ------------------------------------------------------------------

def default_root() -> Path:
    """The ``repro`` package directory this module was imported from."""
    return Path(__file__).resolve().parents[1]


#: Directory names never analyzed (caches and bytecode, not source).
_SKIP_DIRS = ("__pycache__", "_cache")


class Analyzer:
    """Run a rule set over a source tree and collect findings.

    ``root`` is the package directory findings are reported relative to
    (default: the live ``repro`` package).  ``analyze()`` with no file
    list scans the whole tree and runs every rule; with an explicit
    file list only the per-file rules run.
    """

    def __init__(self, root: str | Path | None = None, rules=None):
        self.root = Path(root).resolve() if root is not None else default_root()
        if rules is None:
            from repro.analysis.registry import all_rules
            rules = all_rules()
        self.rules = list(rules)

    def iter_files(self) -> list[Path]:
        return sorted(p for p in self.root.rglob("*.py")
                      if not any(part in _SKIP_DIRS for part in p.parts))

    def relpath(self, path: Path) -> str:
        path = Path(path).resolve()
        try:
            return path.relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def analyze(self, files=None) -> list[Finding]:
        """Findings over ``files`` (default: the whole tree), sorted.

        Suppression comments are honoured for every finding whose path
        resolves to a readable file -- including project-rule findings,
        whose locations point into the files they read.
        """
        explicit = files is not None
        paths = [Path(f).resolve() for f in files] if explicit else self.iter_files()
        ast_rules = [r for r in self.rules if isinstance(r, AstRule)]
        project_rules = [] if explicit else [
            r for r in self.rules if isinstance(r, ProjectRule)]

        findings: list[Finding] = []
        suppressions: dict[str, tuple[dict, set]] = {}
        for path in paths:
            relpath = self.relpath(path)
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError, ValueError) as exc:
                findings.append(Finding(relpath, getattr(exc, "lineno", 1) or 1,
                                        0, "parse-error",
                                        f"cannot analyze: {exc}"))
                continue
            per_line, file_wide = parse_suppressions(source)
            suppressions[relpath] = (per_line, file_wide)
            for rule in ast_rules:
                if not rule.applies_to(relpath):
                    continue
                for finding in rule.check(tree, source, relpath):
                    if not _is_suppressed(finding, per_line, file_wide):
                        findings.append(finding)

        for rule in project_rules:
            for finding in rule.check_project(self.root):
                per_line, file_wide = self._suppressions_for(
                    finding.path, suppressions)
                if not _is_suppressed(finding, per_line, file_wide):
                    findings.append(finding)
        return sorted(findings)

    def _suppressions_for(self, relpath: str, cache: dict) -> tuple[dict, set]:
        if relpath not in cache:
            path = self.root / relpath
            try:
                per_line, file_wide = parse_suppressions(
                    path.read_text(encoding="utf-8"))
            except OSError:
                per_line, file_wide = {}, set()
            cache[relpath] = (per_line, file_wide)
        return cache[relpath]


def finding_to_dict(finding: Finding) -> dict:
    return asdict(finding)
