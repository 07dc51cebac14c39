"""Field-driven content signatures: the cache key's one signing helper.

The result cache is keyed by a hash over every declarative spec a
scenario is made of -- ``Scenario``, ``EvalNetwork``, ``FlowDef``,
``LinkDef``, ``PathDef``, ``TopologySpec`` and the four fault specs --
all frozen dataclasses.  A key that forgets a field serves one cell's
result for another, so no signature here is written by hand:
:meth:`Signer.sign` walks ``dataclasses.fields()``, and what a field
contributes is decided where the field is declared.

* By default a field is signed as it stands: a new field -- on the
  class or on a subclass -- reaches the key with no signing code
  touched.
* ``field(metadata=UNSIGNED)`` opts a display-only field out (the
  adjacent comment says why it cannot shape results).
* ``field(metadata=canonical(form))`` signs ``form(value, owner,
  signer)`` in place of the raw value, for the few fields whose
  content is not their value: a scheme name is case-folded, a named
  trace stands for the content its factory produces, a live agent for
  its parameters.

A value that is neither JSON-plain, a sequence, nor a dataclass has no
default form: signing it raises instead of guessing one.
"""

from __future__ import annotations

import numbers
from dataclasses import fields, is_dataclass
from functools import cache
from types import MappingProxyType

__all__ = ["UNSIGNED", "Signer", "canonical"]

_FORM = "repro.netsim.signing.form"

#: ``field(metadata=UNSIGNED)``: the field never reaches a signature.
UNSIGNED = MappingProxyType({_FORM: None})


def canonical(form) -> dict:
    """``field(metadata=canonical(form))``: the field is signed as
    ``form(value, owner, signer)`` -- ``owner`` the instance holding
    the field, ``signer`` the running :class:`Signer` pass."""
    return {_FORM: form}


#: Value types signed as they stand (the fast path of :meth:`Signer.value`).
_PLAIN = frozenset({str, float, int, bool, type(None)})


@cache
def _plan(cls: type, omit: tuple) -> tuple:
    """``(shape, ((field name, form or None), ...))`` for one class.

    Built once per class, not per cell: a warm sweep is little more
    than signing.  ``shape`` names the class and its signed fields, so
    two specs of different classes -- or of one class before and after
    a field was added -- never share a signature.  A ``None`` form is
    the default one, :meth:`Signer.value`.
    """
    declared = fields(cls)
    stale = sorted(set(omit) - {f.name for f in declared})
    if stale:
        raise ValueError(f"{cls.__name__} has no field(s) {stale} to omit")
    plan = []
    for f in declared:
        unsigned = _FORM in f.metadata and f.metadata[_FORM] is None
        if not unsigned and f.name not in omit:
            plan.append((f.name, f.metadata.get(_FORM)))
    shape = f"{cls.__name__}({','.join(name for name, _ in plan)})"
    return shape, tuple(plan)


class Signer:
    """One signing pass over any number of specs.

    The cells of a sweep share most of what they are made of, so every
    answer is kept for the pass: a spec object is signed once however
    many cells hold it, and forms keep their own shared answers (the
    content of a named trace, the parameter digest of a live agent)
    through :meth:`once`.  Nothing outlives the pass -- a trace
    re-registered or an agent adapted in place between two sweeps
    changes the keys of the second.
    """

    def __init__(self):
        self._memo: dict = {}

    def sign(self, spec, omit: tuple = ()) -> list:
        """Signature of one dataclass instance, from its fields.

        ``omit`` names fields this one use leaves out (an axis another
        spec supersedes); naming a field the class does not have is an
        error, so the list cannot go stale.
        """
        key = (id(spec), omit)
        hit = self._memo.get(key)
        if hit is None:
            shape, plan = _plan(type(spec), omit)
            signature = [shape]
            for name, form in plan:
                value = getattr(spec, name)
                if form is not None:
                    value = form(value, spec, self)
                elif value.__class__ not in _PLAIN:
                    value = self.value(value)
                signature.append(value)
            # The memo dies with the pass: no key outlives its signer.
            hit = self._memo[key] = (spec, signature)
        return hit[1]

    def once(self, key, pin, build):
        """``build()``, the first time ``key`` is asked for in this pass
        (how a form shares an answer between cells).

        Objects are keyed by identity, never equality: equal specs may
        still serialise differently (``10 == 10.0``).  ``pin`` is held
        beside the answer -- as :meth:`sign` holds ``spec`` -- so an
        ``id()`` inside ``key`` stays unique for the pass.
        """
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = (pin, build())
        return hit[1]

    def value(self, value):
        """The default form: JSON-plain values as they stand, sequences
        element-wise, nested dataclasses through :meth:`sign`."""
        if value.__class__ in _PLAIN:
            return value
        if isinstance(value, (tuple, list)):
            return [self.value(item) for item in value]
        if is_dataclass(value) and not isinstance(value, type):
            return self.sign(value)
        if isinstance(value, (str, float, int)):
            return value  # a subclass, e.g. ``np.float64``
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real):
            return float(value)
        raise TypeError(
            f"no default signature for {type(value).__name__} value "
            f"{value!r}: give its field a canonical(form)")
