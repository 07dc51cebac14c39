"""replint: the determinism analyzer, seven AST checks over ``repro``.

Bit-identical goldens, serial==parallel identity and the fingerprint
cache rest on invariants that break silently: a generator built
outside the RNG census, a wall-clock read in the engine, a draw from
another object's stream.  Each check is a plain function
``(tree, relpath) -> list[Finding]`` (``relpath`` relative to the
package, ``/``-separated) that applies its own package scope; its id
is its name with dashes.  Families: determinism (``global_random``,
``wall_clock``, ``unsorted_walk``, ``set_iteration``), rng
(``rng_sole_constructor``, ``rng_foreign_draw``) and global-state
(``mutable_global_state``).  What structure or a live test enforces
is no check: cache keys derive from ``dataclasses.fields()``
(:mod:`repro.netsim.signing`), ``tests/test_config.py`` holds
environment reads to ``config.py``, and the interpreter enforces the
engine's handler table, heap tuples and ``Packet`` slots.

The checks are pure syntax: this module imports nothing it analyzes,
nor numpy.  A finding that stands is an :data:`ALLOWED` entry with its
reason; there is no inline suppression.  The command prints a JSON
report (``findings`` and ``summary.{total,files}``, what the ledger's
``analysis`` probe reads) and exits 1 on findings::

    PYTHONPATH=src python -m repro.analysis [--format json]
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["ALLOWED", "CHECKS", "Finding", "analyze", "check_source"]

#: The ``repro`` package directory, the tree :func:`analyze` scans.
ROOT = Path(__file__).resolve().parent


@dataclass(frozen=True, order=True)
class Finding:
    """One check's violation at one source location (``rule`` is the
    check id, the key the JSON report has always used)."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


def dotted_name(node: ast.AST) -> str | None:
    """The dotted name of a plain ``Name``/``Attribute`` chain
    (``np.random.default_rng``), else ``None`` (calls on call results,
    subscripts, ...)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _within(relpath: str, packages: tuple) -> bool:
    return any(relpath == p or relpath.startswith(p + "/") for p in packages)


#: The packages (and the files) whose behaviour shapes simulation
#: results, and therefore fingerprints and golden traces:
#: ``core/agent.py`` builds the MOCC and Aurora controllers every
#: learned cell runs, and ``core/library.py`` is the §5 library whose
#: one policy step decides their rates.
#: ``rl``/``models`` and the rest of ``core`` are training internals
#: that take their generators via parameter and are exercised through
#: seeded entry points.
SIMULATION_PACKAGES = ("netsim", "baselines", "eval",
                       "core/agent.py", "core/library.py")


# --- determinism ----------------------------------------------------------

#: Legacy global-stream ``np.random`` attributes are flagged; the
#: seeded-generator API is the allowed surface.
_NUMPY_GLOBAL_ALLOWED = {"default_rng", "Generator", "BitGenerator",
                         "SeedSequence", "RandomState", "PCG64", "Philox",
                         "SFC64", "MT19937"}
#: ``random``-module functions that read or mutate the process stream.
_STDLIB_GLOBAL = {"random", "randint", "randrange", "choice", "choices",
                  "shuffle", "sample", "uniform", "gauss", "normalvariate",
                  "expovariate", "betavariate", "triangular", "seed",
                  "getrandbits", "getstate", "setstate"}


def global_random(tree, relpath):
    """Process-global RNG state (``random.*`` module functions, legacy
    ``np.random.*`` globals) couples callers through hidden state: the
    order between callers becomes part of the result."""
    if not _within(relpath, SIMULATION_PACKAGES):
        return []
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
            message = (f"{name} uses the process-global random stream; "
                       f"take a seeded np.random.Generator parameter instead")
        elif len(parts) == 3 and parts[0] in ("np", "numpy") \
                and parts[1] == "random" \
                and parts[2] not in _NUMPY_GLOBAL_ALLOWED:
            message = (f"{name} is the legacy numpy global stream; use a "
                       f"seeded np.random.Generator instead")
        else:
            continue
        findings.append(Finding(relpath, node.lineno, node.col_offset,
                                "global-random", message))
    return findings


#: Wall-clock reads whose value leaks host time into results.
_WALL_CLOCK = {"time.time", "time.time_ns", "time.localtime", "time.gmtime",
               "time.ctime", "time.monotonic", "time.monotonic_ns"}
#: Suffix-matched so ``datetime.now()`` (from-import) and
#: ``datetime.datetime.now()`` are both caught.
_WALL_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "datetime.today",
                        "date.today")


def wall_clock(tree, relpath):
    """Results follow the simulated clock, never the host's
    (``time.perf_counter`` is fine: it measures wall time and must not
    shape results)."""
    if not _within(relpath, SIMULATION_PACKAGES):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is not None and (name in _WALL_CLOCK
                                 or name.endswith(_WALL_CLOCK_SUFFIXES)):
            findings.append(Finding(
                relpath, node.lineno, node.col_offset, "wall-clock",
                f"{name}() reads the host clock; simulation behaviour "
                f"must depend only on the simulated clock "
                f"(time.perf_counter is fine for measuring wall time)"))
    return findings


#: Callables returning filesystem entries in platform-dependent order.
_WALK_CALLS = {"os.listdir", "os.scandir", "os.walk", "glob.glob",
               "glob.iglob"}
#: Method names matched on any receiver (the pathlib idiom).
_WALK_METHODS = {"glob", "rglob", "iterdir"}


def unsorted_walk(tree, relpath):
    """Directory order is filesystem-dependent, so a walk not wrapped
    in ``sorted()`` feeds cache pruning, digest input order or suite
    discovery differently on each host.  Every file is in scope."""
    findings = []

    def visit(node, under_sorted):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            is_walk = name in _WALK_CALLS \
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _WALK_METHODS)
            if is_walk and not under_sorted:
                label = name or f"<expr>.{node.func.attr}"
                findings.append(Finding(
                    relpath, node.lineno, node.col_offset, "unsorted-walk",
                    f"{label}() yields entries in filesystem order; wrap "
                    f"the walk in sorted() so every host visits files "
                    f"identically"))
            if name == "sorted":
                under_sorted = True
        for child in ast.iter_child_nodes(node):
            visit(child, under_sorted)

    visit(tree, False)
    return findings


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_nodes(scope):
    """Every node of ``scope`` except those of nested functions (each
    function is its own scope)."""
    stack = [scope]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, _FUNCTIONS))


def _is_set_expr(node, set_names) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def set_iteration(tree, relpath):
    """Set order depends on insertion history and per-process hash
    randomization, so iterating one makes any ordered consumer
    (scheduling, result rows, resolution order) nondeterministic.

    Purely local dataflow, one scope per function plus the module
    body: a name assigned a set expression is a set for the rest of
    its scope -- the "build a set, then loop over it" shape."""
    if not _within(relpath, SIMULATION_PACKAGES):
        return []
    findings = set()
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]
    for scope in scopes:
        nodes = list(_scope_nodes(scope))
        set_names = set()
        for node in nodes:
            if isinstance(node, ast.Assign) \
                    and _is_set_expr(node.value, set_names):
                set_names.update(t.id for t in node.targets
                                 if isinstance(t, ast.Name))
        for node in nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            else:
                continue
            findings.update(
                Finding(relpath, it.lineno, it.col_offset, "set-iteration",
                        "iteration over a set visits elements in hash "
                        "order; iterate sorted(...) instead")
                for it in iters if _is_set_expr(it, set_names))
    return sorted(findings)


# --- rng ------------------------------------------------------------------

#: The one file that may construct generators: what its table declares
#: is checked there, by value, at import.
_STREAMS_RELPATH = "netsim/rngstreams.py"
#: Calls (by last dotted component) that construct a generator.
_RNG_CONSTRUCTORS = ("default_rng", "RandomState")
#: Generator methods that consume stream state.
_DRAW_METHODS = frozenset({
    "random", "uniform", "integers", "normal", "standard_normal", "choice",
    "shuffle", "permutation", "exponential", "poisson", "binomial",
    "lognormal", "gamma", "beta", "bytes", "triangular"})


def rng_sole_constructor(tree, relpath):
    """Simulation packages construct generators in
    ``netsim/rngstreams.py`` only, so every stream is a row of its
    table and passes its import-time overlap check."""
    if relpath == _STREAMS_RELPATH \
            or not _within(relpath, SIMULATION_PACKAGES):
        return []
    findings = []
    for node in ast.walk(tree):
        name = dotted_name(node.func) if isinstance(node, ast.Call) else None
        if name is not None and name.rsplit(".", 1)[-1] in _RNG_CONSTRUCTORS:
            findings.append(Finding(
                relpath, node.lineno, node.col_offset, "rng-sole-constructor",
                f"{name}(...) constructs a generator outside "
                f"{_STREAMS_RELPATH}; add the stream to its STREAMS table "
                f"and mint it via stream_rng(...)"))
    return findings


def rng_foreign_draw(tree, relpath):
    """One stream, one consumer: drawing from another object's ``*rng``
    couples two components' bitstreams to each other's call order.
    (That no generator is *stored* by two owners is checked on live
    cells in ``tests/test_batch.py``; a draw through someone else's
    attribute stores nothing, so it is checked here.)"""
    if not _within(relpath, SIMULATION_PACKAGES):
        return []
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
        if owner != "self":
            findings.append(Finding(
                relpath, node.lineno, node.col_offset, "rng-foreign-draw",
                f"{name}() drains {owner}'s generator from outside; the "
                f"owner must do its own draws (pass values, not streams)"))
    return findings


# --- global-state ---------------------------------------------------------

_MUTABLE_FACTORIES = frozenset({"dict", "list", "set", "defaultdict",
                                "OrderedDict", "Counter", "deque"})
_MUTATOR_METHODS = frozenset({"append", "add", "update", "setdefault", "pop",
                              "popitem", "clear", "extend", "insert",
                              "remove", "discard", "appendleft",
                              "extendleft", "__setitem__"})


def _mutable_globals(tree) -> dict:
    """Module-level names bound to mutable containers, with linenos."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set,
                                     ast.DictComp, ast.ListComp, ast.SetComp))
        if isinstance(value, ast.Call):
            name = dotted_name(value.func) or ""
            mutable = name.rsplit(".", 1)[-1] in _MUTABLE_FACTORIES
        if mutable:
            names.update((t.id, node.lineno) for t in targets
                         if isinstance(t, ast.Name))
    return names


def _local_bindings(fn) -> set:
    """Names the function binds locally (parameters and plain
    assignments), less those it declares ``global``."""
    args = fn.args
    bound = {a.arg for a in args.args + args.kwonlyargs + args.posonlyargs}
    bound.update(a.arg for a in (args.vararg, args.kwarg) if a)
    declared_global = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)) \
                and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    return bound - declared_global


def _write_target(node):
    """``(name, verb)`` when ``node`` writes through a plain name."""
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


def mutable_global_state(tree, relpath):
    """A module-level mutable container written from a function body
    is state shared by every cell of a process: the hazard of running
    many cells in one process."""
    if not _within(relpath, ("netsim", "baselines", "apps")):
        return []
    globals_ = _mutable_globals(tree)
    if not globals_:
        return []
    findings = []
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        shadowed = _local_bindings(fn)
        declared_global = {n for node in ast.walk(fn)
                           if isinstance(node, ast.Global) for n in node.names}
        for node in ast.walk(fn):
            hit = _write_target(node)
            if hit is None or hit[0] not in globals_:
                continue
            name, verb = hit
            if name in shadowed and name not in declared_global:
                continue
            findings.append(Finding(
                relpath, node.lineno, node.col_offset, "mutable-global-state",
                f"{fn.name}() {verb} module-level mutable {name!r} "
                f"(declared at line {globals_[name]}); batched multi-cell "
                f"execution would share this state"))
    return findings


# --- the scan -------------------------------------------------------------

CHECKS = (global_random, wall_clock, unsorted_walk, set_iteration,
          rng_sole_constructor, rng_foreign_draw, mutable_global_state)

#: Findings that stand, keyed ``(check id, relpath, stripped source
#: line)``, each with the reason.  ``tests/test_analysis.py`` fails on
#: an entry that no longer matches a finding.
ALLOWED = {
    ("mutable-global-state", "netsim/traces.py",
     "_TRACE_REGISTRY[name] = factory"):
        "import-time registration: the registry is append-only, filled "
        "before any simulation runs and guarded against overwrites, so "
        "batched cells only ever read an entry",
}


def check_source(source: str, relpath: str) -> list[Finding]:
    """Every check's findings on one module's source, less
    :data:`ALLOWED`; a module that does not parse is one
    ``parse-error`` finding."""
    try:
        tree = ast.parse(source, filename=relpath)
    except (SyntaxError, ValueError) as exc:
        return [Finding(relpath, getattr(exc, "lineno", 1) or 1, 0,
                        "parse-error", f"cannot analyze: {exc}")]
    lines = source.splitlines()
    return [f for check in CHECKS for f in check(tree, relpath)
            if (f.rule, relpath, lines[f.line - 1].strip()) not in ALLOWED]


def analyze() -> tuple[list[Finding], int]:
    """``(findings, modules scanned)`` over the package, findings
    sorted."""
    paths = sorted(ROOT.rglob("*.py"))
    findings = []
    for path in paths:
        findings += check_source(path.read_text(encoding="utf-8"),
                                 path.relative_to(ROOT).as_posix())
    return sorted(findings), len(paths)


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="determinism checks over the repro package")
    # The report is JSON only; ``--format json`` is the ledger probe's
    # spelling and stays accepted.
    parser.add_argument("--format", choices=("json",), default="json")
    parser.parse_args()
    findings, n_files = analyze()
    print(json.dumps({"findings": [asdict(f) for f in findings],
                      "summary": {"total": len(findings), "files": n_files}},
                     indent=2, sort_keys=True))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
