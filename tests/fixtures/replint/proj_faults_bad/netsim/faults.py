"""Known-bad fault layer: undeclared and mis-derived streams."""

from .rngstreams import stream_rng


class FaultProcess:
    def __init__(self, seed, index):
        self._flap_rng = stream_rng("link.fault-flap", seed, index=index)
        self._loss_rng = stream_rng("link.fault-undeclared", seed,
                                    index=index)
