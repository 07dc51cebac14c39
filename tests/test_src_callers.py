"""Every definition and module constant in ``src/repro`` has a caller
or reader outside the tests, and every defaulted parameter and dataclass field has a caller that
sets it.

ROADMAP item 21: a ``src/`` name earns its place with a use in
``src/``, ``benchmarks/``, ``examples/`` or ``scripts/``.  A test-only
oracle or reader lives in ``tests/``; a definition only tests reach
goes with those tests.  The same holds one level down: a defaulted
parameter or field that only tests set is a knob no run of the
program turns, so it becomes a constant (Table 2's PPO settings are
the constant block of ``repro.config`` for this reason).

Both censuses are by name, not by resolution.  A non-dunder ``def``
counts as called when some ``Name`` or ``Attribute`` node spells its
name outside its own body, and so does an UPPER_CASE name that a
module-level assignment binds, outside its own statement; only nodes
that read count, so rebinding a name is no use of it, and an
attribute of a module bound by ``import x [as y]`` from outside
``repro`` (``np.full``, ``os.replace``) is no use of a ``repro``
method.  Imports and ``__all__`` strings are not
nodes of either kind, so a re-export alone never counts.  A ``class``
counts as used only when it is built or subclassed: a call spelling
its name (``Cls(...)``), a call of one of its attributes
(``Cls.of(...)``), ``cls(...)`` inside its own body, or a base naming
it.  A class that is only tested for (``isinstance``), annotated or
listed in a type tuple is never made by a run of the program.  A
parameter counts as set when a call spelling its function's name (the
class name for ``__init__``) passes it by keyword or by position, or
forwards ``*args`` / ``**kwargs``; ``super().__init__(...)`` in a
subclass calls its bases, ``cls(...)`` calls the enclosing class and
``partial(f, ...)`` calls ``f``.  A defaulted field of a frozen
dataclass counts as set when a call spelling its class passes it by
keyword or by position, or forwards ``*args`` / ``**kwargs``, or when
a ``.replace(...)`` call passes it by keyword; the ``**kwargs`` a
class's own ``replace`` forwards names no field, so it sets none.  A
non-frozen dataclass holds state, not settings, and is not counted.
The few kept definitions, parameters and fields name the item that
will use them, the reference they are, or the protocol that fixes
their signature.
"""

import ast
from functools import cache
from itertools import chain
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "repro")
CALLER_DIRS = ("src", "benchmarks", "examples", "scripts")
REASONS = ("item ", "reference: ", "protocol: ")

KEPT = {
    "repro.core.weights.nearest_grid_point":
        "item 15(b): unseen objectives at a distance from the landmarks",
    "repro.eval.pareto.hypervolume": "item 3(c): the scorecard's front",
    "repro.netsim.network.SimState.peek_time":
        "item 4(e): the first-divergence locator steps by events",
    "repro.rl.rollout.discounted_returns":
        "reference: Eq. 4, the returns GAE is tested against",
    "repro.netsim.sender.Flow.note_sent":
        "reference: the send accounting Simulation._drain inlines, kept "
        "beside note_ack and note_loss",
    "repro.eval.resilience.ResultCache.clear":
        "reference: the README's one way to wipe the result cache",
    "repro.config.TESTING_RANGES":
        "reference: Table 3's testing row, beside the training row it widens",
}

#: ``qualname(parameter)`` -> why a parameter no caller sets stays.
KEPT_PARAMS = {
    "repro.netsim.traces.trace_form(_owner)":
        "protocol: a canonical form is called as form(value, owner, signer)",
    "repro.netsim.traces.trace_form(_signer)":
        "protocol: a canonical form is called as form(value, owner, signer)",
}

#: ``qualname.field`` -> why a field no caller sets stays.
KEPT_FIELDS = {
    "repro.config.TrainingConfig.minibatch_size":
        "reference: the training golden trains at minibatch_size=32",
    "repro.rl.dqn.DQNConfig.target_sync_steps":
        "reference: the training golden's DQN row syncs every 50 steps",
    "repro.rl.dqn.DQNConfig.warmup_transitions":
        "reference: the training golden's DQN row warms up on 64",
    "repro.pool.RetryPolicy.max_attempts":
        "item 2: test_sweep_kills.py's kill schedules draw it from {1, 2, 4}",
    "repro.config.NetworkParams.trace":
        "item 23(a): training on a moving-capacity link",
}

#: The scenario language, exempt from the parameter and field
#: censuses by name: its builders and its churn schedule take every
#: axis a scenario may vary, while the figure registry (item 5(a),
#: ``repro.eval.sweeps.FIGURES``) sets only the axes its figures vary.
#: ``sweep_suite`` needs no exemption: the Fig. 5 entries set all of it.
SCENARIO_LANGUAGE = {
    f"repro.netsim.topology.{name}" for name in (
        "dumbbell", "chain", "parking_lot", "dumbbell_asymmetric")
} | {
    f"repro.eval.sweeps.{name}" for name in (
        "multihop_churn_suite", "ack_congestion_suite")
} | {"repro.eval.scenarios.ChurnSchedule"}

#: The fault specs, exempt from the class and field censuses by name:
#: they are the values ``TopologySpec.with_faults`` attaches to a
#: link, and a suite may leave any of them unused.
FAULT_SPECS = {
    f"repro.netsim.faults.{name}" for name in (
        "LinkFlapSchedule", "GilbertElliottLoss", "RateBrownout",
        "BlackoutWindow")
}


def _module_name(relpath: Path) -> str:
    parts = relpath.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@cache
def _trees(root: Path) -> tuple:
    """``(path, module name or None, tree)`` per file under
    :data:`CALLER_DIRS`; the module name is set for ``src/repro``."""
    trees = []
    for folder in CALLER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            relpath = path.relative_to(root)
            module = (_module_name(relpath) if relpath.is_relative_to(PACKAGE)
                      else None)
            trees.append((path, module,
                          ast.parse(path.read_text(), filename=str(path))))
    return tuple(trees)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.AST, prefix: str):
    """``(qualname, name, first_line, last_line, is_class)`` per
    non-dunder ``def``/``class``, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualname = f"{prefix}.{node.name}"
            if not _is_dunder(node.name):
                yield (qualname, node.name, node.lineno, node.end_lineno,
                       isinstance(node, ast.ClassDef))
            yield from _definitions(node, qualname)
        else:
            yield from _definitions(node, prefix)


def _constants(tree: ast.Module, prefix: str):
    """``(qualname, name, first_line, last_line, False)`` per UPPER_CASE
    name a module-level assignment binds, the lines its statement's."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in (target.elts if isinstance(target, ast.Tuple)
                         else [target]):
                if isinstance(name, ast.Name) and name.id.isupper():
                    yield (f"{prefix}.{name.id}", name.id, node.lineno,
                           node.end_lineno, False)


def _spelled(node: ast.AST) -> str | None:
    """The name a ``Name`` or ``Attribute`` node spells."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _uses(tree: ast.AST):
    """``(name, line)`` per ``Name`` and ``Attribute`` node that reads,
    but an attribute of a module outside ``repro`` (``np.full``)."""
    foreign = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] != "repro"}
    for node in ast.walk(tree):
        name = _spelled(node)
        if name is None or not isinstance(node.ctx, ast.Load):
            continue
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if root is node or getattr(root, "id", None) not in foreign:
            yield name, node.lineno


def _constructions(tree: ast.AST, cls: str | None = None):
    """``(name, line)`` per call spelling ``name`` or an attribute of
    it, and per base naming it; ``cls(...)`` builds the enclosing
    class, with line None so its own body counts."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                yield _spelled(base), node.lineno
            yield from _constructions(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "cls" and cls:
                yield cls, None
            else:
                yield _spelled(func), node.lineno
                if isinstance(func, ast.Attribute):
                    yield _spelled(func.value), node.lineno
        yield from _constructions(node, cls)


@cache
def census(root: Path = ROOT) -> tuple[str, ...]:
    """Qualnames of the ``src/repro`` definitions under ``root`` that
    nothing outside the tests reaches: a ``def`` or a module constant
    by name, a ``class`` by construction, the fault specs left out."""
    definitions = []
    uses: dict[str, list[tuple[Path, int]]] = {}
    constructions: dict[str, list[tuple[Path, int | None]]] = {}
    for path, module, tree in _trees(root):
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
        for name, line in _constructions(tree):
            constructions.setdefault(name, []).append((path, line))
        if module is not None:
            definitions += [(path, *d) for d in chain(
                _definitions(tree, module), _constants(tree, module))]
    return tuple(sorted(
        qualname for path, qualname, name, first, last, is_class in definitions
        if qualname not in FAULT_SPECS
        and not any(p != path or line is None or not first <= line <= last
                    for p, line in (constructions if is_class
                                    else uses).get(name, ()))))


def _defaulted(tree: ast.AST, prefix: str, cls: str | None = None):
    """``(qualname, callee, parameter, position)`` per defaulted
    parameter of a non-dunder ``def`` or an ``__init__`` (whose callee
    is its class).  ``position`` counts the call's positional
    arguments, past ``self``/``cls``; it is None for keyword-only."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _defaulted(node, f"{prefix}.{node.name}", node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}.{node.name}"
            if node.name == "__init__" or not _is_dunder(node.name):
                bound = cls is not None and not any(
                    _spelled(d) == "staticmethod" for d in node.decorator_list)
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                callee = cls if node.name == "__init__" else node.name
                for i in range(first, len(positional)):
                    yield qualname, callee, positional[i].arg, i - bound
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield qualname, callee, arg.arg, None
            yield from _defaulted(node, qualname)
        else:
            yield from _defaulted(node, prefix, cls)


def _calls(tree: ast.AST, cls: ast.ClassDef | None = None):
    """``(callee, positional count, keywords)`` per call, with
    ``super().__init__`` resolved to the enclosing class's bases,
    ``cls`` to the enclosing class and ``partial(f, ...)`` to ``f``.
    A ``*args`` makes the count unbounded and a ``**kwargs`` puts None
    among the keywords."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _calls(node, node)
            continue
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            callees = [_spelled(func)]
            if callees[0] == "partial" and args:
                callees, args = [_spelled(args[0])], args[1:]
            elif (callees[0] == "__init__" and isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Call)
                  and _spelled(func.value.func) == "super"):
                callees = [_spelled(b) for b in cls.bases] if cls else []
            elif callees[0] == "cls" and cls is not None:
                callees = [cls.name]
            count = (float("inf") if any(isinstance(a, ast.Starred) for a in args)
                     else len(args))
            keywords = frozenset(k.arg for k in node.keywords)
            for callee in callees:
                yield callee, count, keywords
        yield from _calls(node, cls)


@cache
def _call_index(root: Path) -> dict[str, list[tuple[float, frozenset]]]:
    """``callee -> [(positional count, keywords)]`` over every call
    outside the tests under ``root``."""
    calls: dict[str, list[tuple[float, frozenset]]] = {}
    for _, _, tree in _trees(root):
        for callee, count, keywords in _calls(tree):
            calls.setdefault(callee, []).append((count, keywords))
    return calls


def _is_set(root: Path, callee: str, name: str, position: int | None) -> bool:
    """Whether a call of ``callee`` passes ``name`` by keyword, at
    ``position`` (None: keyword only) or through ``*`` / ``**``."""
    return any(name in keywords or None in keywords
               or (position is not None and position < count)
               for count, keywords in _call_index(root).get(callee, ()))


@cache
def parameter_census(root: Path = ROOT) -> tuple[str, ...]:
    """``qualname(parameter)`` per defaulted ``src/repro`` parameter
    under ``root`` that no call outside the tests sets, the scenario
    language left out."""
    parameters = [p for _, module, tree in _trees(root) if module is not None
                  for p in _defaulted(tree, module)]
    return tuple(sorted(
        f"{qualname}({name})"
        for qualname, callee, name, position in parameters
        if qualname not in SCENARIO_LANGUAGE
        and not _is_set(root, callee, name, position)))


def _is_frozen(node: ast.ClassDef) -> bool:
    """Whether ``node`` is decorated ``@dataclass(frozen=True)``."""
    return any(isinstance(d, ast.Call) and _spelled(d.func) == "dataclass"
               and any(k.arg == "frozen" and isinstance(k.value, ast.Constant)
                       and k.value.value is True for k in d.keywords)
               for d in node.decorator_list)


def _has_default(value: ast.expr | None) -> bool:
    """Whether a field's right-hand side gives it a default: any value
    but a ``field(...)`` without ``default=`` or ``default_factory=``."""
    if isinstance(value, ast.Call) and _spelled(value.func) == "field":
        return any(k.arg in ("default", "default_factory")
                   for k in value.keywords)
    return value is not None


def _fields(tree: ast.AST, prefix: str):
    """``(class qualname, class, field, position)`` per defaulted field
    of a frozen dataclass; ``position`` is the field's place among the
    constructor's arguments."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            qualname = f"{prefix}.{node.name}"
            if _is_frozen(node):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                for position, statement in enumerate(fields):
                    if _has_default(statement.value):
                        yield (qualname, node.name, statement.target.id,
                               position)
            yield from _fields(node, qualname)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _fields(node, prefix)


@cache
def field_census(root: Path = ROOT) -> tuple[str, ...]:
    """``qualname.field`` per defaulted field of a frozen ``src/repro``
    dataclass under ``root`` that no call outside the tests sets, the
    scenario language and the fault specs left out."""
    fields = [f for _, module, tree in _trees(root) if module is not None
              for f in _fields(tree, module)]
    replaced = set().union(*(keywords for _, keywords
                             in _call_index(root).get("replace", ())))
    return tuple(sorted(
        f"{qualname}.{name}"
        for qualname, cls, name, position in fields
        if qualname not in SCENARIO_LANGUAGE | FAULT_SPECS
        and name not in replaced and not _is_set(root, cls, name, position)))


def test_every_scenario_language_entry_still_needs_its_exemption(
        monkeypatch):
    exempt = SCENARIO_LANGUAGE
    monkeypatch.setitem(globals(), "SCENARIO_LANGUAGE", frozenset())
    flagged = {p.split("(")[0] for p in parameter_census.__wrapped__(ROOT)}
    flagged |= {f.rsplit(".", 1)[0] for f in field_census.__wrapped__(ROOT)}
    assert sorted(exempt - flagged) == [], "stale SCENARIO_LANGUAGE entries"


def stale(kept: dict, flagged: tuple) -> list[str]:
    """Kept entries the census no longer flags."""
    return sorted(set(kept) - set(flagged))


def test_every_src_definition_has_a_non_test_caller():
    uncalled = [q for q in census() if q not in KEPT]
    assert uncalled == [], (
        "only tests reach these; move them into tests/, delete them with "
        f"their tests, or name their next caller in KEPT: {uncalled}")


def test_every_kept_definition_is_still_uncalled():
    assert stale(KEPT, census()) == [], "KEPT entries now called or gone"


def test_every_kept_entry_names_an_item_or_a_reference():
    assert all(reason.startswith(REASONS[:2]) for reason in KEPT.values())


def test_every_defaulted_parameter_has_a_non_test_setter():
    unset = [p for p in parameter_census() if p not in KEPT_PARAMS]
    assert unset == [], (
        "no caller outside the tests sets these; make each a constant of "
        f"its body, or name its next setter in KEPT_PARAMS: {unset}")


def test_every_kept_parameter_is_still_unset():
    assert stale(KEPT_PARAMS, parameter_census()) == [], (
        "KEPT_PARAMS entries now set or gone")


def test_every_kept_parameter_names_an_item_a_reference_or_a_protocol():
    assert all(reason.startswith(REASONS) for reason in KEPT_PARAMS.values())
    assert len(KEPT_PARAMS) <= 10


def test_every_defaulted_field_has_a_non_test_setter():
    unset = [f for f in field_census() if f not in KEPT_FIELDS]
    assert unset == [], (
        "no caller outside the tests sets these; make each a module "
        f"constant, or name its next setter in KEPT_FIELDS: {unset}")


def test_every_kept_field_is_still_unset():
    assert stale(KEPT_FIELDS, field_census()) == [], (
        "KEPT_FIELDS entries now set or gone")


def test_every_kept_field_names_an_item_a_reference_or_a_protocol():
    assert all(reason.startswith(REASONS) for reason in KEPT_FIELDS.values())
    assert len(KEPT_FIELDS) <= 5


#: Planted trees: ``{relpath: source}`` and the census they must give.
#: ``repro/m.py`` defines; the other files use or only mention.
PLANTED = {
    "uncalled": ({"src/repro/m.py": "def f():\n    pass\n"}, ("repro.m.f",)),
    "benchmark-call": ({"src/repro/m.py": "def f():\n    pass\n",
                        "benchmarks/b.py": "from repro.m import f\nf()\n"},
                       ()),
    "import-only": ({"src/repro/m.py": "def f():\n    pass\n",
                     "scripts/s.py": "from repro.m import f\n"},
                    ("repro.m.f",)),
    "all-string": ({"src/repro/m.py": '__all__ = ["f"]\n\n\n'
                                      "def f():\n    pass\n"},
                   ("repro.m.f",)),
    "self-recursion": ({"src/repro/m.py": "def f(n):\n    return f(n - 1)\n"},
                       ("repro.m.f",)),
    "foreign-module-attribute": ({"src/repro/m.py": "class C:\n"
                                                    "    def full(self):\n"
                                                    "        pass\n\n\nC()\n",
                                  "scripts/s.py": "import numpy as np\n"
                                                  "np.full(3, 0.0)\n"},
                                 ("repro.m.C.full",)),
    "attribute-call": ({"src/repro/m.py": "class C:\n    def go(self):\n"
                                          "        pass\n",
                        "examples/e.py": "import repro.m\nrepro.m.C().go()\n"},
                       ()),
    "dunder": ({"src/repro/m.py": "class C:\n    def __len__(self):\n"
                                  "        return 0\n\n\nC()\n"},
               ()),
    "test-call": ({"src/repro/m.py": "def f():\n    pass\n",
                   "tests/test_m.py": "from repro.m import f\nf()\n"},
                  ("repro.m.f",)),
    "isinstance-only": ({"src/repro/m.py": "class C:\n    pass\n",
                         "scripts/s.py": "from repro.m import C\n"
                                         "isinstance(x, (C, int))\n"},
                        ("repro.m.C",)),
    "annotation-only": ({"src/repro/m.py": "class C:\n    pass\n",
                         "scripts/s.py": "def g(c: C) -> C:\n"
                                         "    return c\n"},
                        ("repro.m.C",)),
    "cls-in-classmethod": ({"src/repro/m.py": "class C:\n    @classmethod\n"
                                              "    def make(cls):\n"
                                              "        return cls()\n",
                            "scripts/s.py": "def g(kind):\n"
                                            "    return kind.make()\n"},
                           ()),
    "classmethod-call": ({"src/repro/m.py": "class C:\n    @classmethod\n"
                                            "    def of(cls):\n"
                                            "        return object.__new__(cls)\n",
                          "scripts/s.py": "from repro.m import C\nC.of()\n"},
                         ()),
    "base": ({"src/repro/m.py": "class B:\n    pass\n",
              "examples/e.py": "from repro.m import B\n\n\n"
                               "class D(B):\n    pass\n\n\nD()\n"},
             ()),
    "fault-spec": ({"src/repro/netsim/faults.py": "class RateBrownout:\n"
                                                  "    pass\n"},
                   ()),
    "unread-constants": ({"src/repro/m.py": "x, X, Y = 1, 2, 3\nZ: int = 4\n"
                                            "\n\ndef f():\n    return Y\n",
                          "scripts/s.py": "Z = 5\n"},
                         ("repro.m.X", "repro.m.Z", "repro.m.f")),
    "benchmark-reads-constant": ({"src/repro/m.py": "X = 1\n",
                                  "benchmarks/b.py": "from repro import m\n"
                                                     "print(m.X)\n"},
                                 ()),
}


#: Planted trees for the parameter census: ``repro/m.py`` defines
#: ``f(x=1)`` or a class around it, the other files call it.
F = "def f(x=1):\n    pass\n"
PLANTED_PARAMS = {
    "unset": ({"src/repro/m.py": F + "\n\nf()\n"}, ("repro.m.f(x)",)),
    "test-setter": ({"src/repro/m.py": F,
                     "tests/test_m.py": "from repro.m import f\nf(x=2)\n"},
                    ("repro.m.f(x)",)),
    "benchmark-keyword": ({"src/repro/m.py": F,
                           "benchmarks/b.py": "from repro.m import f\nf(x=2)\n"},
                          ()),
    "position": ({"src/repro/m.py": F, "scripts/s.py": "f(2)\n"}, ()),
    "star-args": ({"src/repro/m.py": F, "scripts/s.py": "f(*a)\n"}, ()),
    "double-star": ({"src/repro/m.py": F, "examples/e.py": "f(**kw)\n"}, ()),
    "keyword-only-by-position": (
        {"src/repro/m.py": "def f(*, x=1):\n    pass\n",
         "scripts/s.py": "f(2)\n"},
        ("repro.m.f(x)",)),
    "method-by-position": (
        {"src/repro/m.py": "class C:\n    def go(self, x=1):\n        pass\n",
         "examples/e.py": "C().go(2)\n"},
        ()),
    "init-by-class-name": (
        {"src/repro/m.py": "class C:\n    def __init__(self, x=1):\n"
                           "        pass\n",
         "examples/e.py": "C(x=2)\n"},
        ()),
    "super-init": (
        {"src/repro/m.py": "class B:\n    def __init__(self, x=1):\n"
                           "        pass\n\n\nclass D(B):\n"
                           "    def __init__(self):\n"
                           "        super().__init__(2)\n"},
        ()),
    "cls-call": (
        {"src/repro/m.py": "class C:\n    def __init__(self, x=1):\n"
                           "        pass\n\n    @classmethod\n"
                           "    def make(cls):\n        return cls(x=2)\n"},
        ()),
    "partial": ({"src/repro/m.py": F,
                 "scripts/s.py": "from functools import partial\n"
                                 "g = partial(f, 2)\n"},
                ()),
    "scenario-language": (
        {"src/repro/netsim/topology.py": "def dumbbell(delay_ms=10.0):\n"
                                         "    pass\n"},
        ()),
}


#: Planted trees for the field census: ``repro/m.py`` defines the
#: frozen ``C(a, x=1)``, the other files build or replace it.
C = ("from dataclasses import dataclass, field, replace\n\n\n"
     "@dataclass(frozen=True)\nclass C:\n    a: int\n    x: int = 1\n")
PLANTED_FIELDS = {
    "unset": ({"src/repro/m.py": C + "\n\nC(0)\n"}, ("repro.m.C.x",)),
    "test-setter": ({"src/repro/m.py": C,
                     "tests/test_m.py": "from repro.m import C\nC(0, x=2)\n"},
                    ("repro.m.C.x",)),
    "keyword": ({"src/repro/m.py": C, "scripts/s.py": "C(0, x=2)\n"}, ()),
    "position": ({"src/repro/m.py": C, "examples/e.py": "C(0, 2)\n"}, ()),
    "double-star": ({"src/repro/m.py": C, "scripts/s.py": "C(**kw)\n"}, ()),
    "replace-keyword": ({"src/repro/m.py": C,
                         "benchmarks/b.py": "replace(c, x=2)\nc.replace(x=3)\n"},
                        ()),
    "own-replace-forward": (
        {"src/repro/m.py": C + "\n    def replace(self, **kwargs):\n"
                               "        return replace(self, **kwargs)\n",
         "scripts/s.py": "C(0).replace(**changes)\n"},
        ("repro.m.C.x",)),
    "field-without-default": (
        {"src/repro/m.py": C.replace("a: int", "a: int = field(metadata={})")},
        ("repro.m.C.x",)),
    "non-frozen": ({"src/repro/m.py": C.replace("(frozen=True)", "")}, ()),
    "scenario-language": ({"src/repro/eval/scenarios.py":
                           C.replace("class C", "class ChurnSchedule")}, ()),
}


def _plant(root: Path, files: dict) -> None:
    for relpath, source in files.items():
        (root / relpath).parent.mkdir(parents=True, exist_ok=True)
        (root / relpath).write_text(source)


@pytest.mark.parametrize("case", PLANTED)
def test_census_on_a_planted_tree(tmp_path, case):
    files, uncalled = PLANTED[case]
    _plant(tmp_path, files)
    assert census(tmp_path) == uncalled


@pytest.mark.parametrize("case", PLANTED_PARAMS)
def test_parameter_census_on_a_planted_tree(tmp_path, case):
    files, unset = PLANTED_PARAMS[case]
    _plant(tmp_path, files)
    assert parameter_census(tmp_path) == unset


@pytest.mark.parametrize("case", PLANTED_FIELDS)
def test_field_census_on_a_planted_tree(tmp_path, case):
    files, unset = PLANTED_FIELDS[case]
    _plant(tmp_path, files)
    assert field_census(tmp_path) == unset


def test_a_stale_kept_field_is_reported(tmp_path):
    _plant(tmp_path, {"src/repro/m.py": C, "scripts/s.py": "C(0, x=2)\n"})
    kept = {"repro.m.C.x": "item 1: a setter will come"}
    assert stale(kept, field_census(tmp_path)) == ["repro.m.C.x"]


def test_a_stale_kept_parameter_is_reported(tmp_path):
    _plant(tmp_path, {"src/repro/m.py": F, "scripts/s.py": "f(x=2)\n"})
    kept = {"repro.m.f(x)": "item 1: a setter will come"}
    assert stale(kept, parameter_census(tmp_path)) == ["repro.m.f(x)"]
