"""Known-bad: a ``None`` handler slot nothing handles inline (rule
``event-handler-table``).

``EV_A`` is inlined properly (``None`` slot, ``kind == EV_A`` branch);
``EV_B`` has a ``None`` slot but falls through to the table dispatch,
which would call ``None``.
"""

EV_A, EV_B, EV_C = range(3)


class Engine:
    def __init__(self):
        self._handlers = (None, None, self._c)  # BAD: EV_B slot is None

    def drain(self, kind, ev):
        if kind == EV_A:
            self.push(EV_B)
        else:
            self._handlers[kind](ev)

    def _c(self, ev):
        self.push(EV_C)
