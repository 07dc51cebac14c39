"""rng-shared-drain: one local generator fanned out to consumers."""

import numpy as np


def build_pair(seed):
    rng = np.random.default_rng(seed)
    first = Link(rng=rng)     # consumer 1
    second = Link(rng=rng)    # consumer 2: the streams interleave
    return first, second


def build_and_draw(seed):
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(0.0, 1.0)   # local draw shifts the consumer's view
    return Link(rng=rng), jitter


def share_fault_chain(fault):
    rng = fault._loss_rng              # any *rng attribute is a generator
    return Link(rng=rng), Link(rng=rng)


def fine_single_consumer(seed):
    rng = np.random.default_rng(seed)
    return Link(rng=rng)             # one owner: no finding
