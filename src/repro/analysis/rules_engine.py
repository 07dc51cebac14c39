"""Engine invariants: the event loop's structural contracts.

The hot loop of :class:`repro.netsim.network.Simulation` is built on
conventions the interpreter does not check until (at best) a crash
deep into a run, or (at worst) a silently wrong trace:

* ``event-handler-table`` -- the ``EV_*`` integer event kinds index a
  per-simulation handler tuple; adding a kind without growing the
  table (or never pushing it) dispatches the wrong handler, and a
  ``None`` slot (a kind the loop handles inline) with no
  ``kind == EV_*`` branch dispatches ``None``;
* ``heap-push-arity`` -- every heap entry must share one tuple shape
  (``(time, seq, kind, flow, packet)``): a short tuple breaks the
  tie-breaking contract that keeps event order bit-exact, and a
  literal in the kind slot bypasses the EV table;
* ``slots-attrs`` -- ``__slots__`` classes (e.g. ``Packet``) reject
  undeclared attributes only at assignment time, mid-run; statically
  checking every ``self.x = ...`` (and, heuristically, every
  ``packet.x = ...``) moves that crash to lint time;
* ``transmit-unpack`` -- ``Link.transmit()`` returns the 4-tuple
  ``(delivered, drop_kind, depart_time, queue_delay)``; an unpack of
  any other arity is a latent ``ValueError`` on a path golden traces
  may not cover.

The per-file checks are plain :class:`~repro.analysis.core.AstRule`
syntax; the handler-table check is a
:class:`~repro.analysis.core.ProjectRule` over ``netsim/network.py``
whose worker, :func:`check_engine_source`, also runs on fixture files
in the self-tests.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from repro.analysis.core import AstRule, Finding, ProjectRule, dotted_name

__all__ = ["EventTableRule", "HeapPushRule", "SlotsAttrsRule",
           "TransmitUnpackRule", "check_engine_source"]


# --- event-handler table ------------------------------------------------------

def check_engine_source(source: str, relpath: str,
                        rule_id: str = "event-handler-table") -> list:
    """Handler-table findings for one engine-shaped module.

    Expects the module to declare its event kinds as one module-level
    ``EV_A, EV_B, ... = range(N)`` unpack and to register handlers as a
    ``self._handlers = (...)`` tuple; both are matched structurally so
    the same check runs on the real engine and on the known-bad
    fixtures.  A ``None`` slot marks a kind the event loop handles
    inline, which is legal only if some ``== EV_<kind>`` comparison in
    the module can route it there.
    """
    tree = ast.parse(source)
    findings: list[Finding] = []

    ev_names: list[str] = []
    ev_assign = None
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Tuple) and target.elts
                and all(isinstance(e, ast.Name) and e.id.startswith("EV_")
                        for e in target.elts)):
            continue
        ev_names = [e.id for e in target.elts]
        ev_assign = node
        break
    if ev_assign is None:
        return findings  # not an engine module; nothing to check

    if isinstance(ev_assign.value, ast.Call) \
            and dotted_name(ev_assign.value.func) == "range" \
            and len(ev_assign.value.args) == 1 \
            and isinstance(ev_assign.value.args[0], ast.Constant):
        n = ev_assign.value.args[0].value
        if n != len(ev_names):
            findings.append(Finding(
                relpath, ev_assign.lineno, ev_assign.col_offset, rule_id,
                f"{len(ev_names)} EV_* kinds unpacked from range({n})"))

    handlers = None
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Attribute) \
                    and target.attr == "_handlers" \
                    and isinstance(node.value, (ast.Tuple, ast.List)):
                handlers = node
                break
    if handlers is None:
        findings.append(Finding(
            relpath, ev_assign.lineno, ev_assign.col_offset, rule_id,
            f"module declares {len(ev_names)} EV_* kinds but no "
            f"_handlers table registers them"))
    elif len(handlers.value.elts) != len(ev_names):
        findings.append(Finding(
            relpath, handlers.lineno, handlers.col_offset, rule_id,
            f"_handlers registers {len(handlers.value.elts)} handlers "
            f"for {len(ev_names)} EV_* kinds; every kind must be "
            f"registered exactly once at its index"))
    else:
        inline = {operand.id for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and all(isinstance(op, ast.Eq) for op in node.ops)
                  for operand in (node.left, *node.comparators)
                  if isinstance(operand, ast.Name)}
        for name, slot in zip(ev_names, handlers.value.elts):
            if isinstance(slot, ast.Constant) and slot.value is None \
                    and name not in inline:
                findings.append(Finding(
                    relpath, slot.lineno, slot.col_offset, rule_id,
                    f"_handlers slot for {name} is None but no "
                    f"`kind == {name}` branch handles it inline"))

    loads = Counter(node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id.startswith("EV_"))
    for name in ev_names:
        if loads[name] == 0:
            findings.append(Finding(
                relpath, ev_assign.lineno, ev_assign.col_offset, rule_id,
                f"{name} is declared but never referenced -- no push "
                f"site schedules it (dead kind, or a push uses a raw "
                f"literal)"))
    return findings


class EventTableRule(ProjectRule):
    id = "event-handler-table"
    family = "engine"
    description = ("every EV_* event kind is registered exactly once in "
                   "Simulation._handlers (None only with an inline "
                   "`kind == EV_*` branch) and scheduled by some push site")

    def check_project(self, root: Path):
        path = root / "netsim" / "network.py"
        if not path.exists():
            return []
        return check_engine_source(path.read_text(encoding="utf-8"),
                                   "netsim/network.py", self.id)


# --- heap pushes --------------------------------------------------------------

class HeapPushRule(AstRule):
    id = "heap-push-arity"
    family = "engine"
    description = ("heap entries must share one tuple arity, with an "
                   "EV_* kind (never a literal) in the kind slot")
    packages = ("netsim",)

    #: Index of the event-kind element in a heap tuple
    #: (``(time, seq, kind, flow, packet)``).
    KIND_INDEX = 2

    def check(self, tree, source, relpath):
        findings: list[Finding] = []
        pushes = []  # (call node, tuple node)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is not None and name.rsplit(".", 1)[-1] == "heappush" \
                    and len(node.args) == 2 \
                    and isinstance(node.args[1], ast.Tuple):
                pushes.append((node, node.args[1]))
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "_push" and len(node.args) >= 2:
                kind = node.args[1]
                if isinstance(kind, ast.Constant):
                    findings.append(Finding(
                        relpath, kind.lineno, kind.col_offset, self.id,
                        f"event kind pushed as literal {kind.value!r}; "
                        f"use an EV_* constant so the handler table and "
                        f"the event-table rule can see it"))
        if not pushes:
            return findings

        arities = Counter(len(t.elts) for _, t in pushes)
        majority = arities.most_common(1)[0][0]
        for call, tup in pushes:
            if len(tup.elts) != majority:
                findings.append(Finding(
                    relpath, call.lineno, call.col_offset, self.id,
                    f"heap push with {len(tup.elts)}-tuple; every other "
                    f"push site in this module uses {majority} -- mixed "
                    f"arities break heap tie-breaking and dispatch"))
            elif len(tup.elts) > self.KIND_INDEX:
                kind = tup.elts[self.KIND_INDEX]
                if isinstance(kind, ast.Constant):
                    findings.append(Finding(
                        relpath, kind.lineno, kind.col_offset, self.id,
                        f"event kind pushed as literal {kind.value!r}; "
                        f"use an EV_* constant"))
        return findings


# --- __slots__ discipline -----------------------------------------------------

def _packet_slots() -> frozenset | None:
    """Runtime ``Packet.__slots__`` (``None`` if netsim is unimportable)."""
    try:
        from repro.netsim.packet import Packet
    except Exception:  # pragma: no cover - analysis must not hard-require netsim
        return None
    return frozenset(Packet.__slots__)


#: Variable names heuristically assumed to hold a Packet instance.
_PACKET_NAMES = ("packet", "pkt")


class SlotsAttrsRule(AstRule):
    id = "slots-attrs"
    family = "engine"
    description = ("__slots__ classes must only assign declared "
                   "attributes (incl. the packet.* heuristic against "
                   "Packet.__slots__)")
    packages = ()

    def check(self, tree, source, relpath):
        findings: list[Finding] = []
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            slots = self._class_slots(cls)
            if slots is None:
                continue
            # A base class may contribute __dict__ or further slots we
            # cannot resolve statically; only strict (base-less) classes
            # are checked, which covers the engine's Packet.
            if any(not (isinstance(b, ast.Name) and b.id == "object")
                   for b in cls.bases):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for attr, node in self._self_stores(fn):
                    if attr not in slots:
                        findings.append(Finding(
                            relpath, node.lineno, node.col_offset, self.id,
                            f"{cls.name}.{attr} assigned but not declared "
                            f"in __slots__ -- AttributeError at runtime"))
        packet_slots = _packet_slots()
        if packet_slots:
            for attr, node, varname in self._named_stores(tree, _PACKET_NAMES):
                if attr not in packet_slots:
                    findings.append(Finding(
                        relpath, node.lineno, node.col_offset, self.id,
                        f"{varname}.{attr} is not a Packet slot; Packet "
                        f"declares {sorted(packet_slots)}"))
        return findings

    @staticmethod
    def _class_slots(cls: ast.ClassDef) -> frozenset | None:
        for node in cls.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id == "__slots__" \
                    and isinstance(node.value, (ast.Tuple, ast.List)):
                elts = node.value.elts
                if all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                       for e in elts):
                    return frozenset(e.value for e in elts)
        return None

    @staticmethod
    def _store_targets(node):
        if isinstance(node, ast.Assign):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return []

    def _self_stores(self, fn):
        for node in ast.walk(fn):
            for target in self._store_targets(node):
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    yield target.attr, target

    def _named_stores(self, tree, names):
        for node in ast.walk(tree):
            for target in self._store_targets(node):
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in names:
                    yield target.attr, target, target.value.id


# --- Link.transmit() contract -------------------------------------------------

class TransmitUnpackRule(AstRule):
    id = "transmit-unpack"
    family = "engine"
    description = ("Link.transmit() returns (delivered, drop_kind, "
                   "depart_time, queue_delay); unpacks must take 4")
    packages = ()

    ARITY = 4

    def check(self, tree, source, relpath):
        findings = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "transmit"):
                continue
            for target in node.targets:
                if isinstance(target, (ast.Tuple, ast.List)) \
                        and len(target.elts) != self.ARITY:
                    findings.append(Finding(
                        relpath, node.lineno, node.col_offset, self.id,
                        f"transmit() result unpacked into "
                        f"{len(target.elts)} names; the contract is the "
                        f"{self.ARITY}-tuple (delivered, drop_kind, "
                        f"depart_time, queue_delay)"))
        return findings
