"""Fault-injection rules.

The fault layer (:mod:`repro.netsim.faults`) extends the determinism
contract in a way generic rules cannot see, so a dedicated check
guards it (that every fault knob reaches the cache key is structural:
specs are signed field by field, :mod:`repro.netsim.signing`):

``fault-stream-declaration``
    Static: every RNG stream the fault runtime mints
    (``stream_rng("...")`` literals in ``netsim/faults.py``) must be
    declared in the ``STREAMS`` registry with ``derive`` =
    ``"salted-indexed"`` -- entropy ``(seed, salt, index)``, disjoint
    from sibling per-link streams by salt and keyed by link position
    -- and the fault streams' salts must not collide with any other
    salted stream.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.core import Finding, ProjectRule, dotted_name

__all__ = ["FaultStreamDeclarationRule"]

FAULTS_RELPATH = "netsim/faults.py"
STREAMS_RELPATH = "netsim/rngstreams.py"


def _parse_tree(root: Path, relpath: str) -> ast.Module | None:
    path = Path(root) / relpath
    try:
        return ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError, ValueError):
        return None  # missing/broken files are the parse-error rule's job


# --- fault-stream-declaration -------------------------------------------------

def _registry_streams(tree: ast.Module) -> dict[str, dict]:
    """``{name: {field: literal}}`` for every StreamDef literal."""
    streams: dict[str, dict] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = dotted_name(node.func)
        if func is None or func.rsplit(".", 1)[-1] != "StreamDef":
            continue
        info = {kw.arg: kw.value.value for kw in node.keywords
                if kw.arg is not None and isinstance(kw.value, ast.Constant)}
        name = info.get("name")
        if isinstance(name, str):
            streams[name] = info
    return streams


class FaultStreamDeclarationRule(ProjectRule):
    id = "fault-stream-declaration"
    description = ("fault RNG streams are declared in the rngstreams "
                   "registry as salted-indexed with collision-free salts")
    family = "faults"

    def check_project(self, root: Path) -> list:
        faults_tree = _parse_tree(root, FAULTS_RELPATH)
        if faults_tree is None:
            return []
        used: list[tuple[str, int, int]] = []
        for node in ast.walk(faults_tree):
            if not isinstance(node, ast.Call):
                continue
            func = dotted_name(node.func)
            if func is None or func.rsplit(".", 1)[-1] != "stream_rng":
                continue
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                used.append((node.args[0].value, node.lineno,
                             node.col_offset))
            # Non-literal stream names are rng-stream-ownership's job.
        if not used:
            return []
        streams_tree = _parse_tree(root, STREAMS_RELPATH)
        streams = (_registry_streams(streams_tree)
                   if streams_tree is not None else {})
        findings: list[Finding] = []
        fault_names = {name for name, _, _ in used}
        for name, line, col in used:
            info = streams.get(name)
            if info is None:
                findings.append(Finding(
                    FAULTS_RELPATH, line, col, self.id,
                    f"fault stream {name!r} is minted here but not "
                    f"declared in the STREAMS registry"))
                continue
            if info.get("derive") != "salted-indexed":
                findings.append(Finding(
                    STREAMS_RELPATH, 1, 0, self.id,
                    f"fault stream {name!r} must derive "
                    f"'salted-indexed' (seed, salt, link index), got "
                    f"{info.get('derive')!r}: fault draws must be "
                    f"disjoint from sibling per-link streams by salt "
                    f"and keyed by link position"))
            elif "salt" not in info:
                findings.append(Finding(
                    STREAMS_RELPATH, 1, 0, self.id,
                    f"fault stream {name!r} declares no salt; its "
                    f"entropy would collide with the unsalted sibling "
                    f"stream of the same link index"))
        # Salt collisions: a fault stream sharing a salt with any other
        # salted stream folds two logically distinct streams into one.
        for name in sorted(fault_names):
            info = streams.get(name)
            if info is None or "salt" not in info:
                continue
            for other, other_info in sorted(streams.items()):
                if other != name and other_info.get("salt") == info["salt"]:
                    findings.append(Finding(
                        STREAMS_RELPATH, 1, 0, self.id,
                        f"fault stream {name!r} shares salt "
                        f"{info['salt']:#x} with stream {other!r}; salted "
                        f"streams must have pairwise distinct salts"))
        return findings
