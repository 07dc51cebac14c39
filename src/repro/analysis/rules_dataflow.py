"""Dataflow rules: RNG construction and draws, environment reads,
mutable global state, and signature purity.

The properties batched multi-cell execution and cross-host sharding
multiply the ways of breaking:

* ``rng-sole-constructor`` -- the simulation packages construct
  generators in ``netsim/rngstreams.py`` only; what its table declares
  is checked there, by value, at import.
* ``rng-foreign-draw`` / ``rng-shared-drain`` -- one stream, one
  consumer: drawing from *another object's* generator, or fanning one
  local generator out to several consumers, couples their bitstreams
  to each other's call order.
* ``env-taint`` -- an environment read is an input no fingerprint
  sees; the package reads the environment in ``config.py`` only (two
  cache *locations*), and the rule rejects ``os.environ`` /
  ``os.getenv`` in every other file.
* ``mutable-global-state`` -- a module-level mutable container written
  from a function body is cross-cell shared state, the exact hazard of
  running many cells in one process.
* ``signature-purity`` -- ``sign``/``fingerprint``/``*_form``
  functions are cache-key producers; any side effect in them (or one
  level into the same-file functions they call) corrupts key
  stability.

All checks are pure AST -- no imports of analyzed code -- so they run
identically on the live package and on fixture trees.
"""

from __future__ import annotations

import ast

from repro.analysis.core import AstRule, Finding, dotted_name
from repro.analysis.rules_determinism import (_WALL_CLOCK,
                                              _WALL_CLOCK_SUFFIXES,
                                              RNG_CONSTRUCTORS,
                                              SIMULATION_PACKAGES,
                                              rng_constructions)

__all__ = ["RngSoleConstructorRule", "RngForeignDrawRule",
           "RngSharedDrainRule", "EnvTaintRule", "MutableGlobalStateRule",
           "SignaturePurityRule"]

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
        return [Finding(
            relpath, node.lineno, node.col_offset, self.id,
            f"{name}(...) constructs a generator outside "
            f"{_STREAMS_RELPATH}; add the stream to its STREAMS table "
            f"and mint it via stream_rng(...)")
            for node, name in rng_constructions(tree)]


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


# --- rng-shared-drain --------------------------------------------------------

#: Calls that merely inspect an object, never drain a generator.
_INSPECT_FUNCS = frozenset({"isinstance", "type", "id", "len", "repr",
                            "str", "print", "hash"})


def _is_rng_expr(node) -> bool:
    """Does this expression evaluate to a generator (statically)?"""
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is None:
            return False
        tail = name.rsplit(".", 1)[-1]
        return tail in RNG_CONSTRUCTORS or tail == "stream_rng"
    if isinstance(node, ast.Attribute):
        return node.attr.endswith("rng")
    return False


class RngSharedDrainRule(AstRule):
    id = "rng-shared-drain"
    family = "rng"
    description = ("a local generator handed to several consumers (or "
                   "handed off and also drawn locally) interleaves their "
                   "draw sequences nondeterministically under reordering")
    packages = SIMULATION_PACKAGES

    def check(self, tree, source, relpath):
        findings = []
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(fn, relpath))
        return findings

    def _check_function(self, fn, relpath):
        rng_locals: dict = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and _is_rng_expr(node.value):
                rng_locals[node.targets[0].id] = node
        if not rng_locals:
            return []

        passes: dict = {name: [] for name in rng_locals}
        draws: dict = {name: 0 for name in rng_locals}
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func_name = dotted_name(node.func) or ""
            func_parts = func_name.split(".")
            if func_parts[0] in rng_locals and len(func_parts) > 1:
                if func_parts[-1] in _DRAW_METHODS:
                    draws[func_parts[0]] += 1
                continue
            if func_name in _INSPECT_FUNCS:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                if isinstance(arg, ast.Name) and arg.id in rng_locals:
                    passes[arg.id].append(node)

        for name, sites in passes.items():
            decl = rng_locals[name]
            if len(sites) >= 2:
                findings = [Finding(
                    relpath, decl.lineno, decl.col_offset, self.id,
                    f"generator {name!r} is passed to {len(sites)} "
                    f"consumers in {fn.name}(); each consumer needs its "
                    f"own declared stream")]
                return findings
            if sites and draws[name]:
                return [Finding(
                    relpath, decl.lineno, decl.col_offset, self.id,
                    f"generator {name!r} is handed to a consumer and also "
                    f"drawn from locally in {fn.name}(); split it into "
                    f"two declared streams")]
        return []


# --- env-taint ---------------------------------------------------------------

#: The one file allowed to read the environment, relative to the root.
_CONFIG_RELPATH = "config.py"

_ENV_NAMES = ("environ", "getenv")


class EnvTaintRule(AstRule):
    id = "env-taint"
    family = "env-taint"
    description = ("the environment is read in config.py only; an "
                   "os.environ / os.getenv anywhere else is an input no "
                   "fingerprint sees")

    def applies_to(self, relpath):
        return relpath != _CONFIG_RELPATH

    def check(self, tree, source, relpath):
        findings = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES \
                    and dotted_name(node.value) == "os":
                name = f"os.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                    and any(a.name in _ENV_NAMES for a in node.names):
                name = "from os import " + ", ".join(
                    a.name for a in node.names if a.name in _ENV_NAMES)
            else:
                continue
            findings.append(Finding(
                relpath, node.lineno, node.col_offset, self.id,
                f"{name} outside {_CONFIG_RELPATH}: the value can reach "
                f"simulation or cached results unseen by any fingerprint; "
                f"read it in {_CONFIG_RELPATH} and pass it down"))
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


# --- signature-purity --------------------------------------------------------

_SIGNATURE_NAMES = ("fingerprint", "fingerprint_cells", "sign", "signature")
_SIGNATURE_SUFFIXES = ("_signature", "_fingerprint", "_form")

_WRITE_IO_SUFFIXES = (".write", ".write_text", ".write_bytes", ".unlink",
                      ".mkdir", ".rmdir", ".rmtree", ".touch", ".rename",
                      ".replace")


def _is_signature_function(name: str) -> bool:
    return name in _SIGNATURE_NAMES or name.endswith(_SIGNATURE_SUFFIXES)


def _purity_violations(fn_node):
    """``(node, what)`` for each side effect inside one function body."""
    local_names = {a.arg for a in fn_node.args.args + fn_node.args.kwonlyargs
                   + fn_node.args.posonlyargs}
    created: set = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    created.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.For)) \
                and isinstance(node.target, ast.Name):
            created.add(node.target.id)
        elif isinstance(node, ast.comprehension) \
                and isinstance(node.target, ast.Name):
            created.add(node.target.id)

    for node in ast.walk(fn_node):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            kind = "global" if isinstance(node, ast.Global) else "nonlocal"
            yield node, f"declares {kind} {', '.join(node.names)}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                root = target
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if root is target:
                    continue  # plain name binding: pure
                root_name = dotted_name(root)
                if root_name is None or root_name.split(".")[0] in created:
                    continue
                if root_name.split(".")[0] in local_names \
                        and root_name.split(".")[0] != "self":
                    # mutating a parameter is visible to the caller
                    yield node, f"stores into parameter {root_name!r}"
                else:
                    yield node, f"stores into {root_name!r}"
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            tail = name.rsplit(".", 1)[-1]
            parts = name.split(".")
            if tail in RNG_CONSTRUCTORS or tail == "stream_rng":
                yield node, f"constructs an RNG via {name}()"
            elif "rng" in parts[:-1] and parts[-1] in _DRAW_METHODS:
                yield node, f"draws from an RNG via {name}()"
            elif name in _WALL_CLOCK or name.endswith(_WALL_CLOCK_SUFFIXES):
                yield node, f"reads the wall clock via {name}()"
            elif name == "print" or any(name.endswith(s)
                                        for s in _WRITE_IO_SUFFIXES):
                yield node, f"performs write I/O via {name}()"
            elif name == "open" and _open_writes(node):
                yield node, "opens a file for writing"


def _open_writes(call) -> bool:
    mode = None
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        mode = call.args[1].value
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            mode = kw.value.value
    return isinstance(mode, str) and any(c in mode for c in "wax+")


def _functions(tree):
    """``(qualified name, class name or None, node)`` for every function
    at module level or directly inside a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, None, node
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{child.name}", node.name, child


class SignaturePurityRule(AstRule):
    id = "signature-purity"
    family = "signature-purity"
    description = ("sign/fingerprint/*_form functions (and the same-file "
                   "functions they call) must be side-effect-free: no "
                   "stores, write I/O, RNG use or clock reads")
    packages = ("netsim", "eval")

    def check(self, tree, source, relpath):
        functions = {qual: (cls, node) for qual, cls, node in _functions(tree)}
        findings = []
        emitted: set = set()

        def report(node, message):
            key = (node.lineno, message)
            if key not in emitted:
                emitted.add(key)
                findings.append(Finding(relpath, node.lineno,
                                        node.col_offset, self.id, message))

        for qual, (cls, fn) in sorted(functions.items()):
            if not _is_signature_function(fn.name):
                continue
            for node, what in _purity_violations(fn):
                report(node, f"{qual}() {what}; cache-key producers must "
                             f"be pure")
            # One level of call-through: a same-file helper the function
            # calls directly is part of the cache key computation.
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                parts = (dotted_name(call.func) or "").split(".")
                if parts[0] in ("self", "cls") and cls and len(parts) == 2:
                    callee = f"{cls}.{parts[1]}"
                else:
                    callee = ".".join(parts)
                if callee not in functions \
                        or _is_signature_function(functions[callee][1].name):
                    continue  # unresolved, or checked in its own right
                for node, what in _purity_violations(functions[callee][1]):
                    report(node, f"{callee}() {what}, and {qual}() calls "
                                 f"it; cache-key producers must be pure")
        return findings
