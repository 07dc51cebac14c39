"""PCC Allegro (Dong et al. 2015) -- micro-experiment rate control.

Allegro treats the network as a black box and runs randomised
controlled trials: each decision round sends at ``rate*(1+eps)`` for
two monitor intervals and ``rate*(1-eps)`` for two (interleaved), then
moves the base rate in whichever direction yielded higher empirical
utility.  Repeated moves in the same direction grow the step; a
reversal resets it.

Two fidelity points matter (both are how the real PCC sender works):

* results are attributed to trials by *send time* (see
  :mod:`repro.baselines._pcc_common`) -- loss notices arrive ~1 RTT
  late, and observation-time accounting would charge an up-trial's
  losses to the following down-trial, inverting the measured gradient;
* decisions are *sequential*: after the four trial intervals the sender
  stays at the base rate until the round's results are in, then decides
  and starts the next round.  Pipelining rounds lets several decisions
  fire on stale loss data and produces rate-crash cascades.

Utility is the original paper's sigmoid-gated form; the MOCC paper's
Table-1 summary (``T - delta*RTT``) is exposed separately as
:func:`repro.baselines.base.allegro_utility`.
"""

from __future__ import annotations

from repro.baselines._pcc_common import PCCController, Trial
from repro.baselines.base import allegro_sigmoid_utility

__all__ = ["PCCAllegro"]


class PCCAllegro(PCCController):
    """PCC Allegro rate control via sequential 4-MI micro-experiments."""

    name = "PCC Allegro"

    def __init__(self, initial_rate: float = 20.0):
        super().__init__(initial_rate)
        self.step_fraction = 0.05
        self.max_step_multiplier = 4
        self._consecutive = 0
        self._last_direction = 0

    def _decide(self, trials: list[Trial]) -> None:
        up = [allegro_sigmoid_utility(t.rate, t.loss_rate) for t in trials if t.sign > 0]
        down = [allegro_sigmoid_utility(t.rate, t.loss_rate) for t in trials if t.sign < 0]
        if not up or not down:
            return
        up_mean = sum(up) / len(up)
        down_mean = sum(down) / len(down)
        if up_mean > down_mean:
            direction = +1
        elif down_mean > up_mean:
            direction = -1
        else:
            direction = 0

        if direction == 0:
            self._consecutive = 0
            self._last_direction = 0
            return
        if direction == self._last_direction:
            self._consecutive = min(self._consecutive + 1, self.max_step_multiplier)
        else:
            self._consecutive = 1
        self._last_direction = direction
        step = self.step_fraction * self._consecutive
        self.base_rate = max(self.base_rate * (1.0 + direction * step), self.min_rate)
