"""Every ``repro`` name the benchmarks, scripts and examples import
still resolves.

The perf ledger under ``benchmarks/ledger/`` is frozen, and what it
imports from ``repro`` must stay importable from where it imports it;
the figure benchmarks, scripts and examples lean on the same surface.
None of them runs in tier-1, so a removed or moved name would otherwise
surface only when one of them is next run.  This walks each file's AST
for ``from repro... import name`` and ``import repro...`` at any depth
(function bodies included) and imports every one.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("benchmarks", "scripts", "examples")
               for path in (ROOT / folder).rglob("*.py"))


def _is_repro(module: str | None) -> bool:
    return module is not None and (module == "repro"
                                   or module.startswith("repro."))


def imported_names() -> set[tuple[str, str | None]]:
    """``(module, name)`` per ``from`` import, ``(module, None)`` per
    plain import, across :data:`FILES`."""
    found = set()
    for path in FILES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and _is_repro(node.module):
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((alias.name, None) for alias in node.names
                             if _is_repro(alias.name))
    return found


def _resolves(module: str, name: str | None) -> bool:
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(imported, name):
        return True
    try:  # ``from package import submodule``
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_imported_repro_name_resolves():
    names = imported_names()
    # The walk sees the ledger's imports, nested ones included.
    assert ("repro.eval", "ResultCache") in names
    assert ("repro.netsim.sender", "MonitorIntervalStats") in names
    assert ("repro.config", None) in names
    missing = sorted((m, n or "") for m, n in names if not _resolves(m, n))
    assert not missing, f"imported but gone: {missing}"
