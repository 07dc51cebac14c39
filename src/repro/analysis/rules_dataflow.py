"""Dataflow rules: RNG construction and draws, and mutable global
state.

The properties batched multi-cell execution and cross-host sharding
multiply the ways of breaking:

* ``rng-sole-constructor`` -- the simulation packages construct
  generators in ``netsim/rngstreams.py`` only; what its table declares
  is checked there, by value, at import.
* ``rng-foreign-draw`` -- one stream, one consumer: drawing from
  *another object's* generator couples two components' bitstreams to
  each other's call order.  (That no generator is *stored* by two
  owners is checked on live cells: ``tests/test_batch.py`` walks every
  generator reachable from a built batch and counts its holders.  A
  draw through someone else's attribute stores nothing, so it stays a
  rule.)
* ``mutable-global-state`` -- a module-level mutable container written
  from a function body is cross-cell shared state, the exact hazard of
  running many cells in one process.

That the environment is read in ``config.py`` only, and that cache
keys are a function of the cell alone (no signing side effect, no
dependence on the process), are checked directly rather than by rule:
``tests/test_config.py::test_config_is_the_only_environment_reader``
and ``tests/test_scenarios.py::TestFingerprintCells``.

All checks are pure AST -- no imports of analyzed code, nor of numpy
-- so they run identically on the live package and on fixture trees.
"""

from __future__ import annotations

import ast

from repro.analysis.core import AstRule, Finding, dotted_name
from repro.analysis.rules_determinism import SIMULATION_PACKAGES

__all__ = ["RngSoleConstructorRule", "RngForeignDrawRule",
           "MutableGlobalStateRule"]

#: Calls (by last dotted component) that construct a generator.
RNG_CONSTRUCTORS = ("default_rng", "RandomState")

#: Generator methods that consume stream state when called.
_DRAW_METHODS = frozenset({
    "random", "uniform", "integers", "normal", "standard_normal", "choice",
    "shuffle", "permutation", "exponential", "poisson", "binomial",
    "lognormal", "gamma", "beta", "bytes", "triangular"})

#: The one file that may construct generators, relative to the root.
_STREAMS_RELPATH = "netsim/rngstreams.py"


# --- rng-sole-constructor ----------------------------------------------------

class RngSoleConstructorRule(AstRule):
    id = "rng-sole-constructor"
    family = "rng"
    description = ("simulation packages construct generators in "
                   "netsim/rngstreams.py only, so every stream is a row "
                   "of its table and passes its import-time overlap check")
    packages = SIMULATION_PACKAGES

    def applies_to(self, relpath):
        return relpath != _STREAMS_RELPATH and super().applies_to(relpath)

    def check(self, tree, source, relpath):
        findings = []
        for node in ast.walk(tree):
            name = dotted_name(node.func) if isinstance(node, ast.Call) \
                else None
            if name is not None \
                    and name.rsplit(".", 1)[-1] in RNG_CONSTRUCTORS:
                findings.append(Finding(
                    relpath, node.lineno, node.col_offset, self.id,
                    f"{name}(...) constructs a generator outside "
                    f"{_STREAMS_RELPATH}; add the stream to its STREAMS "
                    f"table and mint it via stream_rng(...)"))
        return findings


# --- rng-foreign-draw --------------------------------------------------------

class RngForeignDrawRule(AstRule):
    id = "rng-foreign-draw"
    family = "rng"
    description = ("drawing from another object's *rng couples two "
                   "components' bitstreams to each other's call order")
    packages = SIMULATION_PACKAGES

    def check(self, tree, source, relpath):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) < 3 or not parts[-2].endswith("rng") \
                    or parts[-1] not in _DRAW_METHODS:
                continue
            owner = ".".join(parts[:-2])
            if owner == "self":
                continue
            findings.append(Finding(
                relpath, node.lineno, node.col_offset, self.id,
                f"{name}() drains {owner}'s generator from outside; the "
                f"owner must do its own draws (pass values, not streams)"))
        return findings


# --- mutable-global-state ----------------------------------------------------

_MUTABLE_FACTORIES = frozenset({"dict", "list", "set", "defaultdict",
                                "OrderedDict", "Counter", "deque"})
_MUTATOR_METHODS = frozenset({"append", "add", "update", "setdefault", "pop",
                              "popitem", "clear", "extend", "insert",
                              "remove", "discard", "appendleft",
                              "extendleft", "__setitem__"})


def _mutable_globals(tree) -> dict:
    """Module-level names bound to mutable containers, with linenos."""
    names: dict = {}
    for node in tree.body:
        targets, value = [], None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set,
                                     ast.DictComp, ast.ListComp, ast.SetComp))
        if isinstance(value, ast.Call):
            name = dotted_name(value.func) or ""
            mutable = name.rsplit(".", 1)[-1] in _MUTABLE_FACTORIES
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names[target.id] = node.lineno
    return names


def _local_bindings(fn) -> set:
    """Names the function binds locally (params + plain assignments)."""
    bound = {a.arg for a in fn.args.args + fn.args.kwonlyargs
             + fn.args.posonlyargs}
    if fn.args.vararg:
        bound.add(fn.args.vararg.arg)
    if fn.args.kwarg:
        bound.add(fn.args.kwarg.arg)
    declared_global: set = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            target = node.target
            if isinstance(target, ast.Name):
                bound.add(target.id)
    return bound - declared_global


class MutableGlobalStateRule(AstRule):
    id = "mutable-global-state"
    family = "global-state"
    description = ("module-level mutable containers written from function "
                   "bodies are cross-cell shared state (the batched "
                   "multi-cell hazard)")
    packages = ("netsim", "baselines", "apps")

    def check(self, tree, source, relpath):
        globals_ = _mutable_globals(tree)
        if not globals_:
            return []
        findings = []
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            shadowed = _local_bindings(fn)
            declared_global = {n for node in ast.walk(fn)
                               if isinstance(node, ast.Global)
                               for n in node.names}
            for node in ast.walk(fn):
                hit = self._write_target(node)
                if hit is None:
                    continue
                name, verb = hit
                if name not in globals_:
                    continue
                if name in shadowed and name not in declared_global:
                    continue
                findings.append(Finding(
                    relpath, node.lineno, node.col_offset, self.id,
                    f"{fn.name}() {verb} module-level mutable {name!r} "
                    f"(declared at line {globals_[name]}); batched "
                    f"multi-cell execution would share this state"))
        return findings

    @staticmethod
    def _write_target(node):
        """``(global_name, verb)`` if this node writes through a name."""
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name):
                    return target.value.id, "assigns into"
                if isinstance(node, ast.AugAssign) \
                        and isinstance(target, ast.Name):
                    return target.id, "augments"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name):
                    return target.value.id, "deletes from"
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.attr in _MUTATOR_METHODS:
            return node.func.value.id, f"calls .{node.func.attr}() on"
        return None
