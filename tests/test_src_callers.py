"""Every definition in ``src/repro`` has a caller outside the tests.

ROADMAP item 21: a ``src/`` name earns its place with a use in
``src/``, ``benchmarks/``, ``examples/`` or ``scripts/``.  A test-only
oracle or reader lives in ``tests/``; a definition only tests reach
goes with those tests.

The census is by name, not by resolution: a non-dunder ``def`` or
``class`` counts as called when some ``Name`` or ``Attribute`` node
spells its name outside its own body.  Imports and ``__all__`` strings
are not nodes of either kind, so a re-export alone never counts.  The
few kept definitions name the item that will call them, or the
reference they are.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "repro")
CALLER_DIRS = ("src", "benchmarks", "examples", "scripts")

KEPT = {
    "repro.core.weights.nearest_grid_point":
        "item 15(b): unseen objectives at a distance from the landmarks",
    "repro.eval.pareto.hypervolume": "item 3(c): the scorecard's front",
    "repro.netsim.network.SimState.peek_time":
        "item 4(e): the first-divergence locator steps by events",
    "repro.netsim.network.SimState.step_events":
        "item 4(e): the first-divergence locator steps by events",
    "repro.rl.rollout.discounted_returns":
        "reference: Eq. 4, the returns GAE is tested against",
    "repro.netsim.sender.Flow.note_sent":
        "reference: the send accounting Simulation._drain inlines, kept "
        "beside note_ack and note_loss",
    "repro.eval.resilience.ResultCache.clear":
        "reference: the README's one way to wipe the result cache",
}


def _module_name(relpath: Path) -> str:
    parts = relpath.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions(tree: ast.AST, prefix: str):
    """``(qualname, name, first_line, last_line)`` per non-dunder
    ``def``/``class``, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualname = f"{prefix}.{node.name}"
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qualname, node.name, node.lineno, node.end_lineno
            yield from _definitions(node, qualname)
        else:
            yield from _definitions(node, prefix)


def _uses(tree: ast.AST):
    """``(name, line)`` per ``Name`` and ``Attribute`` node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


@cache
def census(root: Path = ROOT) -> tuple[str, ...]:
    """Qualnames of the ``src/repro`` definitions under ``root`` that
    nothing outside the tests reaches."""
    definitions = []
    uses: dict[str, list[tuple[Path, int]]] = {}
    for folder in CALLER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, line in _uses(tree):
                uses.setdefault(name, []).append((path, line))
            relpath = path.relative_to(root)
            if relpath.is_relative_to(PACKAGE):
                definitions += [(path, *d) for d in
                                _definitions(tree, _module_name(relpath))]
    return tuple(sorted(
        qualname for path, qualname, name, first, last in definitions
        if not any(p != path or not first <= line <= last
                   for p, line in uses.get(name, ()))))


def test_every_src_definition_has_a_non_test_caller():
    uncalled = [q for q in census() if q not in KEPT]
    assert uncalled == [], (
        "only tests reach these; move them into tests/, delete them with "
        f"their tests, or name their next caller in KEPT: {uncalled}")


def test_every_kept_definition_is_still_uncalled():
    stale = sorted(set(KEPT) - set(census()))
    assert stale == [], f"KEPT entries now called or gone: {stale}"


def test_every_kept_entry_names_an_item_or_a_reference():
    assert all(reason.startswith(("item ", "reference: "))
               for reason in KEPT.values())


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
}


@pytest.mark.parametrize("case", PLANTED)
def test_census_on_a_planted_tree(tmp_path, case):
    files, uncalled = PLANTED[case]
    for relpath, source in files.items():
        (tmp_path / relpath).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relpath).write_text(source)
    assert census(tmp_path) == uncalled
