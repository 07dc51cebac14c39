"""Self-test: an inline suppression silences a real finding."""
import numpy as np


def backoff_jitter(seed):
    # Deliberately outside the RNG census -- this fixture documents the
    # suppression syntax; real code must justify every disable comment
    # like this.
    return np.random.default_rng(seed)  # replint: disable=rng-sole-constructor
