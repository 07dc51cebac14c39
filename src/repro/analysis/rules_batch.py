"""Cross-cell isolation rules for batched multi-cell execution.

:mod:`repro.eval.batch` interleaves many simulation cells inside one
process, which is only sound if the cells behave exactly as if each
ran alone.  The contract (documented in that module) is: cells share
*immutable* assets only, every shared binding is declared on a
justified ``SHARED_IMMUTABLE_ALLOWLIST``, and the batch layer itself
never mints or drains an RNG stream.  Two static rules check the
declared half of the contract; the live half -- two built cells'
object graphs share no unlisted mutable object -- is a test beside the
batch runner's own (``tests/test_batch.py``):

``batch-shared-mutable``
    Static: any object created *outside* the per-cell build loop and
    handed to a cell build (``build_scenario_simulation`` /
    ``Simulation``) must flow through an allowlisted binding name --
    and every allowlist entry must correspond to such a binding
    (stale entries are findings).

``batch-rng-derivation``
    Static: the batch layer must not construct or draw from RNG
    streams.  Generators are derived per cell, from the cell's own
    scenario seed, through the :mod:`repro.netsim.rngstreams`
    registry -- the contrapositive of "generators handed to a cell
    trace to a cell-indexed stream derivation".
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.core import AstRule, Finding, ProjectRule, dotted_name

__all__ = [
    "BatchSharedMutableRule",
    "BatchRngRule",
    "check_batch_source",
]

#: The module the batch contract lives in, relative to the package root.
BATCH_RELPATH = "eval/batch.py"

ALLOWLIST_NAME = "SHARED_IMMUTABLE_ALLOWLIST"

#: Callables that construct a cell (receiving objects the cell keeps).
_CELL_BUILDERS = {"build_scenario_simulation", "Simulation"}

#: Last-segment names that mint an RNG stream or seed material.
_RNG_CONSTRUCTORS = {"default_rng", "RandomState", "SeedSequence", "Philox",
                     "PCG64", "MT19937", "stream_rng", "spawn"}

#: Generator draw methods: calling any of these in the batch layer
#: means a stream is being drained outside every cell's own derivation.
_RNG_DRAWS = {"random", "uniform", "integers", "normal", "standard_normal",
              "choice", "shuffle", "permutation", "exponential", "poisson"}


# --- static: the allowlist vs. what the build loop actually shares ----------

def _root_name(node: ast.AST) -> str | None:
    """Base ``Name`` of an expression (``a.b[0].c`` -> ``a``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _parse_allowlist(tree: ast.Module, relpath: str, rule_id: str):
    """``(names, findings, lineno)`` from the allowlist declaration.

    ``names`` is ``None`` when no declaration exists at module level.
    Entries must be literal ``(name, justification)`` string pairs with
    a non-empty justification -- the rule exists to force the *why*
    into the code.
    """
    findings: list[Finding] = []
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name) and \
                node.target.id == ALLOWLIST_NAME:
            value = node.value
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == ALLOWLIST_NAME
                for t in node.targets):
            value = node.value
        else:
            continue
        names: list[str] = []
        if not isinstance(value, ast.Tuple):
            findings.append(Finding(
                relpath, node.lineno, node.col_offset, rule_id,
                f"{ALLOWLIST_NAME} must be a literal tuple of "
                f"(name, justification) pairs"))
            return names, findings, node.lineno
        for elt in value.elts:
            if (isinstance(elt, ast.Tuple) and len(elt.elts) == 2
                    and all(isinstance(e, ast.Constant)
                            and isinstance(e.value, str)
                            for e in elt.elts)):
                name, why = (e.value for e in elt.elts)
                if not why.strip():
                    findings.append(Finding(
                        relpath, elt.lineno, elt.col_offset, rule_id,
                        f"{ALLOWLIST_NAME} entry {name!r} has an empty "
                        f"justification"))
                names.append(name)
            else:
                findings.append(Finding(
                    relpath, elt.lineno, elt.col_offset, rule_id,
                    f"{ALLOWLIST_NAME} entries must be literal "
                    f"(name, justification) string pairs"))
        return names, findings, node.lineno
    return None, findings, 1


def _loop_bound_names(loop: ast.AST) -> set:
    """Names (re)bound inside ``loop`` -- per-iteration objects."""
    bound: set = set()
    for node in ast.walk(loop):
        if isinstance(node, ast.Name) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, ast.comprehension):
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    bound.add(target.id)
    return bound


def check_batch_source(source: str, relpath: str = BATCH_RELPATH,
                       rule_id: str = "batch-shared-mutable") -> list:
    """All ``batch-shared-mutable`` findings for one batch-layer file."""
    tree = ast.parse(source)
    allow, findings, allow_line = _parse_allowlist(tree, relpath, rule_id)
    shared_uses: set = set()
    build_calls = 0

    loops = [n for n in ast.walk(tree)
             if isinstance(n, (ast.For, ast.AsyncFor, ast.While))]
    for loop in loops:
        bound = _loop_bound_names(loop)
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or \
                    name.rsplit(".", 1)[-1] not in _CELL_BUILDERS:
                continue
            build_calls += 1
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                if isinstance(arg, ast.Constant):
                    continue
                root = _root_name(arg)
                if root is None or root in bound:
                    continue  # fresh expression or per-iteration binding
                if allow is not None and root in allow:
                    shared_uses.add(root)
                    continue
                findings.append(Finding(
                    relpath, arg.lineno, arg.col_offset, rule_id,
                    f"'{root}' is created outside the per-cell loop and "
                    f"handed to a cell build; every cross-cell object "
                    f"must be immutable and listed in {ALLOWLIST_NAME} "
                    f"with a justification (or built per cell)"))

    if build_calls and allow is None:
        findings.append(Finding(
            relpath, 1, 0, rule_id,
            f"cell builds found but no module-level {ALLOWLIST_NAME}; "
            f"declare the (empty) allowlist so sharing stays auditable"))
    for name in allow or ():
        if name not in shared_uses:
            findings.append(Finding(
                relpath, allow_line, 0, rule_id,
                f"stale {ALLOWLIST_NAME} entry '{name}': no cell build "
                f"receives an outside-loop object by that name; remove "
                f"the entry"))
    return findings


class BatchSharedMutableRule(ProjectRule):
    id = "batch-shared-mutable"
    description = ("objects shared across batched cells must flow through "
                   "the justified SHARED_IMMUTABLE_ALLOWLIST")
    family = "isolation"

    def check_project(self, root: Path) -> list:
        path = Path(root) / BATCH_RELPATH
        if not path.exists():
            return []
        return check_batch_source(path.read_text(), BATCH_RELPATH, self.id)


# --- static: no RNG minting or draining in the batch layer ------------------

class BatchRngRule(AstRule):
    id = "batch-rng-derivation"
    description = ("the batch layer neither mints nor drains RNG streams; "
                   "cells derive their own cell-indexed streams")
    family = "isolation"
    packages = (BATCH_RELPATH,)

    def check(self, tree: ast.AST, source: str, relpath: str) -> list:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            last = name.rsplit(".", 1)[-1]
            if last in _RNG_CONSTRUCTORS:
                findings.append(Finding(
                    relpath, node.lineno, node.col_offset, self.id,
                    f"{name}(...) mints an RNG stream in the batch layer; "
                    f"generators must be derived per cell from the cell's "
                    f"own scenario seed via the rngstreams registry"))
            elif isinstance(node.func, ast.Attribute) and last in _RNG_DRAWS:
                findings.append(Finding(
                    relpath, node.lineno, node.col_offset, self.id,
                    f"{name}(...) draws from an RNG stream in the batch "
                    f"layer; interleaving order must never influence any "
                    f"cell's stream state"))
        return findings
