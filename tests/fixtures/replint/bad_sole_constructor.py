"""rng-sole-constructor: generators built outside netsim/rngstreams.py."""

import numpy as np
from numpy.random import RandomState


class Controller:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)     # not a row of STREAMS

    def on_ack(self, pkt):
        return np.random.default_rng(42).random()  # a stream per ack


def legacy(seed):
    return RandomState(seed)


def fine(seed):
    return stream_rng("sim.pacing", seed)          # the one way in
