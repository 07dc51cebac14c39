"""Deterministic per-link fault schedules: flaps, bursty loss, brownouts.

MOCC's pitch is robustness across conditions competitors weren't tuned
for, yet the base scenario grid is fair-weather: links never flap and
loss is never bursty.  This module adds a declarative fault layer a
:class:`~repro.netsim.topology.LinkDef` can carry (and a suite can
sweep via the ``faults=`` axis):

* :class:`LinkFlapSchedule` -- periodic up/down intervals, optionally
  jittered per cycle; while down the link either queues arrivals for
  replay on recovery or drops them (``policy``);
* :class:`GilbertElliottLoss` -- the classic two-state bursty wire-loss
  chain (generalizing the link's independent Bernoulli ``loss_rate``);
* :class:`RateBrownout` -- a temporary capacity collapse (service rate
  scaled by ``factor`` inside the window);
* :class:`BlackoutWindow` -- a single leo-handover-style total outage.

Specs are frozen, validated, and fingerprinted: a ``LinkDef`` signs its
``faults`` field by field (:mod:`repro.netsim.signing`), so any changed
knob -- type, timing, probabilities, policy -- is a cache miss.
The runtime state machine is :class:`FaultProcess`, one per faulted
link, built by :meth:`TopologySpec.build` with the scenario seed and
the link's position -- the same ``(seed, index)`` keying as the
``link.loss`` stream, but on two dedicated registry streams
(``link.fault-flap`` and ``link.fault-loss``) so fault draws can never
shift the existing wire-loss sequence.

Determinism contract
--------------------
All randomness is confined to two named streams minted in
:meth:`FaultProcess.reset`:

* flap-window jitter comes from ``link.fault-flap``.  Windows extend
  lazily but *in lockstep across specs and cycles*, so the jitter of
  cycle ``k`` of spec ``s`` is a fixed position in the stream -- a pure
  function of ``(s, k)`` no matter in what order queries arrive;
* Gilbert-Elliott chains draw from ``link.fault-loss`` once per
  offered packet (plus one loss draw when the current state's loss
  probability is positive), in transmit order.  Serial, pooled and
  batched runs offer packets to a faulted link in the identical event
  order, so the chains -- and hence digests -- match bit for bit.

A fault never zeroes the service rate (downtime is modelled as a busy
floor or an admission drop, and brownout factors are validated
positive), so every downstream ``1/bandwidth_at(t)`` stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.rngstreams import stream_rng

__all__ = ["BlackoutWindow", "FAULT_SPEC_TYPES", "FaultProcess",
           "GilbertElliottLoss", "LinkFlapSchedule", "RateBrownout",
           "coerce_faults"]

#: Down-window admission policies: ``queue`` parks arrivals behind the
#: recovery time (drop-tail still applies to the parked backlog, dead
#: time excluded), ``drop`` discards them outright as ``"fault"`` drops.
POLICIES = ("queue", "drop")


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")


@dataclass(frozen=True)
class LinkFlapSchedule:
    """Periodic link up/down schedule (WiFi roam, cable modem resync).

    Cycle ``k`` goes down at ``start + k*period`` (plus a uniform draw
    in ``[0, jitter]`` when ``jitter > 0``) and recovers ``down_time``
    seconds later.  ``jitter == 0`` consumes no randomness at all.
    """

    period: float
    down_time: float
    start: float = 0.0
    jitter: float = 0.0
    policy: str = "queue"

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        if self.down_time < 0.0:
            raise ValueError("down_time must be non-negative")
        if self.jitter < 0.0:
            raise ValueError("jitter must be non-negative")
        if self.start < 0.0:
            raise ValueError("start must be non-negative")
        # Windows must stay inside their own cycle so at most one can
        # cover any instant (keeps the outage query O(1) per spec).
        if self.down_time + self.jitter >= self.period:
            raise ValueError("down_time + jitter must be < period")
        _check_policy(self.policy)


@dataclass(frozen=True)
class GilbertElliottLoss:
    """Two-state bursty wire loss (good/bad Markov chain per packet).

    Each offered packet first steps the chain (one uniform draw), then
    is lost with the new state's loss probability.  The defaults give
    rare, heavy bursts; ``loss_good=0`` keeps the good state draw-free.
    """

    p_enter_bad: float
    p_exit_bad: float
    loss_good: float = 0.0
    loss_bad: float = 0.5

    def __post_init__(self):
        for name in ("p_enter_bad", "p_exit_bad", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class RateBrownout:
    """Temporary capacity collapse: rate scaled by ``factor`` in-window."""

    start: float
    duration: float
    factor: float

    def __post_init__(self):
        if self.start < 0.0:
            raise ValueError("start must be non-negative")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        # A zero factor would divide service time by zero; total outage
        # is BlackoutWindow's job.
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")


@dataclass(frozen=True)
class BlackoutWindow:
    """One total outage window (leo-handover-style)."""

    start: float
    duration: float
    policy: str = "queue"

    def __post_init__(self):
        if self.start < 0.0:
            raise ValueError("start must be non-negative")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        _check_policy(self.policy)


FAULT_SPEC_TYPES = (LinkFlapSchedule, GilbertElliottLoss, RateBrownout,
                    BlackoutWindow)


def coerce_faults(value) -> tuple:
    """Normalize ``None`` / a single spec / an iterable to a tuple."""
    if value is None:
        return ()
    if isinstance(value, FAULT_SPEC_TYPES):
        return (value,)
    specs = tuple(value)
    for spec in specs:
        if not isinstance(spec, FAULT_SPEC_TYPES):
            raise TypeError(
                f"fault specs must be instances of "
                f"{tuple(t.__name__ for t in FAULT_SPEC_TYPES)}, "
                f"got {spec!r}")
    return specs


class FaultProcess:
    """Runtime fault state for one link: outages, rate scale, GE loss.

    Built per link by :meth:`TopologySpec.build`; the link consults it
    from ``Link._transmit_faulted`` (admission + wire loss) and
    ``Link.bandwidth_at`` (brownout scaling).  ``reset()`` re-mints
    both streams and clears all chain/window state, restoring the
    exact post-construction bitstreams.
    """

    def __init__(self, specs, seed: int, index: int):
        self.specs = coerce_faults(specs)
        self.seed = int(seed)
        self.index = int(index)
        self._flaps = tuple(s for s in self.specs
                            if isinstance(s, LinkFlapSchedule))
        self._ge = tuple(s for s in self.specs
                         if isinstance(s, GilbertElliottLoss))
        self._blackouts = tuple(
            (s.start, s.start + s.duration, s.policy)
            for s in self.specs if isinstance(s, BlackoutWindow))
        self._brownouts = tuple(
            (s.start, s.start + s.duration, s.factor)
            for s in self.specs if isinstance(s, RateBrownout))
        self.reset()

    def reset(self) -> None:
        """Restore post-construction state (fresh streams, good GE state)."""
        self._flap_rng = stream_rng("link.fault-flap", self.seed,
                                    self.index)
        self._loss_rng = stream_rng("link.fault-loss", self.seed,
                                    self.index)
        #: Per flap spec, materialized ``(down_start, down_end)`` windows
        #: for cycles ``0..self._flap_cycle`` inclusive.
        self._windows: list[list] = [[] for _ in self._flaps]
        self._flap_cycle = -1
        self._ge_bad = [False] * len(self._ge)

    # --- flap windows -------------------------------------------------------

    def _ensure_cycles(self, cycle: int) -> None:
        """Materialize flap windows up to ``cycle`` (lockstep, in order).

        Every extension step appends cycle ``c`` for *all* flap specs
        in declaration order, so the jitter draw feeding spec ``s``'s
        cycle ``c`` sits at a fixed stream position regardless of which
        query triggered the extension.
        """
        while self._flap_cycle < cycle:
            c = self._flap_cycle + 1
            for i, spec in enumerate(self._flaps):
                down = spec.start + c * spec.period
                if spec.jitter > 0.0:
                    down += spec.jitter * self._flap_rng.random()
                self._windows[i].append((down, down + spec.down_time))
            self._flap_cycle = c

    # --- queries ------------------------------------------------------------

    def outage_at(self, t: float):
        """``(recovery_time, policy)`` if the link is down at ``t``.

        Overlapping windows merge conservatively: the latest recovery
        wins, and ``drop`` beats ``queue``.
        """
        recovery = None
        policy = "queue"
        for start, end, window_policy in self._blackouts:
            if start <= t < end:
                if recovery is None or end > recovery:
                    recovery = end
                if window_policy == "drop":
                    policy = "drop"
        for i, spec in enumerate(self._flaps):
            if spec.down_time <= 0.0 or t < spec.start:
                continue
            cycle = int((t - spec.start) // spec.period)
            self._ensure_cycles(cycle)
            down, up = self._windows[i][cycle]
            if down <= t < up:
                if recovery is None or up > recovery:
                    recovery = up
                if spec.policy == "drop":
                    policy = "drop"
        if recovery is None:
            return None
        return (recovery, policy)

    def capacity_scale(self, t: float) -> float:
        """Service-rate multiplier at ``t`` (brownouts compound)."""
        scale = 1.0
        for start, end, factor in self._brownouts:
            if start <= t < end:
                scale *= factor
        return scale

    def wire_loss(self, t: float) -> bool:
        """Step every GE chain one packet; ``True`` if any lost it."""
        lost = False
        rng = self._loss_rng
        bad = self._ge_bad
        for i, spec in enumerate(self._ge):
            u = rng.random()
            if bad[i]:
                if u < spec.p_exit_bad:
                    bad[i] = False
            else:
                if u < spec.p_enter_bad:
                    bad[i] = True
            p = spec.loss_bad if bad[i] else spec.loss_good
            if p > 0.0 and rng.random() < p:
                lost = True
        return lost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(type(s).__name__ for s in self.specs)
        return (f"FaultProcess([{names}], seed={self.seed}, "
                f"index={self.index})")
