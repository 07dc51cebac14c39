"""Known-bad: process-global RNG state (check ``global-random``)."""
import random

import numpy as np


def jitter(rng: np.random.Generator):  # ok: the seeded generator API
    random.seed(0)              # BAD: mutates the process-wide stream
    a = random.random()         # BAD: reads the process-wide stream
    b = np.random.rand()        # BAD: legacy numpy global stream
    return a, b, rng.random()   # ok: a seeded generator passed in
