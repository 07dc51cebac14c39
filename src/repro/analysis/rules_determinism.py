"""Determinism lints: sources of run-to-run or host-to-host divergence.

The simulation contract is that every result is a pure function of the
scenario content and its seed -- that is what makes golden traces
pinnable, serial==parallel identity testable, and the fingerprint
cache safe.  These rules flag the classic ways that contract erodes
(a generator seeded from OS entropy is not among them: outside
``netsim/rngstreams.py`` any construction is an ``rng-sole-constructor``
finding, and inside it every stream's entropy is evaluated at import):

* ``global-random`` -- the process-wide ``random`` module or legacy
  ``np.random.*`` global-stream functions, whose state is shared by
  everything in the process (ordering between callers becomes part of
  the result);
* ``wall-clock`` -- ``time.time()`` / ``datetime.now()`` reads:
  results must depend on the simulation clock, never the host's
  (``time.perf_counter`` is fine -- measuring wall time is how the
  runner reports ``elapsed``, it just must not shape results);
* ``unsorted-walk`` -- ``os.listdir``/``glob`` results used without
  ``sorted()``: directory order is filesystem-dependent, so anything
  it feeds (cache pruning order, digest input order, suite discovery)
  differs across hosts;
* ``set-iteration`` -- iterating a ``set`` directly: iteration order
  depends on insertion history and per-process hash randomization, so
  any ordered consumer (scheduling, result rows, resolution order)
  becomes nondeterministic.
"""

from __future__ import annotations

import ast

from repro.analysis.core import AstRule, Finding, dotted_name

__all__ = ["GlobalRandomRule", "SetIterationRule", "UnsortedWalkRule",
           "WallClockRule", "SIMULATION_PACKAGES"]

#: The packages (and the files) whose behaviour shapes simulation
#: results (and therefore fingerprints and golden traces):
#: ``core/agent.py`` builds the MOCC and Aurora controllers every
#: learned cell runs, and ``core/library.py`` the §5 library MOCC the
#: ``datapath`` shims drive inside the simulator (Fig. 17).
#: ``rl``/``models`` and the rest of ``core`` are training internals
#: that take their generators via parameter by convention and are
#: exercised through seeded entry points.
SIMULATION_PACKAGES = ("netsim", "baselines", "eval", "datapath",
                       "core/agent.py", "core/library.py")


#: Legacy global-stream ``np.random`` attributes; the seeded-generator
#: API (``default_rng``/``Generator``/bit generators) is the allowed
#: surface.
_NUMPY_GLOBAL_ALLOWED = {"default_rng", "Generator", "BitGenerator",
                         "SeedSequence", "RandomState", "PCG64", "Philox",
                         "SFC64", "MT19937"}

#: ``random``-module functions that read or mutate the process-wide
#: stream.
_STDLIB_GLOBAL = {"random", "randint", "randrange", "choice", "choices",
                  "shuffle", "sample", "uniform", "gauss", "normalvariate",
                  "expovariate", "betavariate", "triangular", "seed",
                  "getrandbits", "getstate", "setstate"}


class GlobalRandomRule(AstRule):
    id = "global-random"
    family = "determinism"
    description = ("process-global RNG state (random.* module functions, "
                   "legacy np.random.* globals) couples callers through "
                   "shared hidden state")
    packages = SIMULATION_PACKAGES

    def check(self, tree, source, relpath):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            name = dotted_name(node)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) == 2 and parts[0] == "random" \
                    and parts[1] in _STDLIB_GLOBAL:
                findings.append(Finding(
                    relpath, node.lineno, node.col_offset, self.id,
                    f"{name} uses the process-global random stream; take "
                    f"a seeded np.random.Generator parameter instead"))
            elif len(parts) == 3 and parts[0] in ("np", "numpy") \
                    and parts[1] == "random" \
                    and parts[2] not in _NUMPY_GLOBAL_ALLOWED:
                findings.append(Finding(
                    relpath, node.lineno, node.col_offset, self.id,
                    f"{name} is the legacy numpy global stream; use a "
                    f"seeded np.random.Generator instead"))
        return findings


#: Wall-clock reads whose value leaks host time into results.
_WALL_CLOCK = {"time.time", "time.time_ns", "time.localtime", "time.gmtime",
               "time.ctime", "time.monotonic", "time.monotonic_ns"}
#: Suffix-matched so both ``datetime.now()`` (from-import) and
#: ``datetime.datetime.now()`` are caught.
_WALL_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "datetime.today",
                        "date.today")


class WallClockRule(AstRule):
    id = "wall-clock"
    family = "determinism"
    description = ("wall-clock reads (time.time, datetime.now) in "
                   "simulation/eval code; results must follow the "
                   "simulation clock")
    packages = SIMULATION_PACKAGES

    def check(self, tree, source, relpath):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in _WALL_CLOCK or name.endswith(_WALL_CLOCK_SUFFIXES):
                findings.append(Finding(
                    relpath, node.lineno, node.col_offset, self.id,
                    f"{name}() reads the host clock; simulation behaviour "
                    f"must depend only on the simulated clock "
                    f"(time.perf_counter is fine for measuring wall time)"))
        return findings


#: Callables returning filesystem entries in platform-dependent order.
_WALK_CALLS = {"os.listdir", "os.scandir", "os.walk", "glob.glob",
               "glob.iglob"}
#: Method names matched on any receiver (pathlib idiom).
_WALK_METHODS = {"glob", "rglob", "iterdir"}


class UnsortedWalkRule(AstRule):
    id = "unsorted-walk"
    family = "determinism"
    description = ("os.listdir/glob results consumed without sorted(): "
                   "directory order is filesystem-dependent")
    packages = ()  # cache maintenance and digests live outside netsim too

    def check(self, tree, source, relpath):
        findings: list[Finding] = []
        self._walk(tree, False, relpath, findings)
        return findings

    def _walk(self, node, under_sorted, relpath, findings):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            is_walk = name in _WALK_CALLS \
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _WALK_METHODS)
            if is_walk and not under_sorted:
                label = name or f"<expr>.{node.func.attr}"
                findings.append(Finding(
                    relpath, node.lineno, node.col_offset, self.id,
                    f"{label}() yields entries in filesystem order; "
                    f"wrap the walk in sorted() so every host "
                    f"visits files identically"))
            if name == "sorted":
                under_sorted = True
        for child in ast.iter_child_nodes(node):
            self._walk(child, under_sorted, relpath, findings)


class SetIterationRule(AstRule):
    id = "set-iteration"
    family = "determinism"
    description = ("iterating a set: order depends on insertion history "
                   "and hash randomization; sort before iterating")
    packages = SIMULATION_PACKAGES

    def check(self, tree, source, relpath):
        findings: list[Finding] = []
        # One scope per function (plus the module body): a name assigned
        # a set expression in a scope is treated as a set for the rest
        # of that scope.  Purely local dataflow -- cheap, and exactly the
        # "build a set, then loop over it" shape that goes wrong.
        scopes = [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))]
        for scope in scopes:
            nodes = list(self._scope_nodes(scope))
            set_names = set()
            for node in nodes:
                if isinstance(node, ast.Assign) and self._is_set_expr(
                        node.value, set_names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            set_names.add(target.id)
            for node in nodes:
                iters = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                       ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    if self._is_set_expr(it, set_names):
                        findings.append(Finding(
                            relpath, it.lineno, it.col_offset, self.id,
                            "iteration over a set visits elements in "
                            "hash order; iterate sorted(...) instead"))
        return sorted(set(findings))

    @staticmethod
    def _scope_nodes(scope):
        """All nodes of ``scope``, not descending into nested functions
        (each function is its own scope in the caller's scope list)."""
        stack = [scope]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                stack.append(child)

    def _is_set_expr(self, node, set_names) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func) in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
            return (self._is_set_expr(node.left, set_names)
                    or self._is_set_expr(node.right, set_names))
        return False
