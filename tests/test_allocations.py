"""The training hot paths allocate nothing model-sized.

A PPO minibatch ends in ``Adam.step`` and a rollout runs one step per
monitor interval; a temporary as large as the parameter arena in either
costs a training run thousands of arena-sized allocations.  Each check
runs its call once to warm up, then again under ``tracemalloc``, and
bounds the rise of the traced peak over the memory held before the
call: any one block at least ``arena.value.nbytes`` long, live or freed
by the time the call returns, would raise the peak by that much.
"""

import tracemalloc

import numpy as np
import pytest

from repro.rl.optim import Adam
from repro.rl.parallel import SerialCollector, VectorCollector

from test_collectors import SPEC, WEIGHTS, _conditioned


def peak_rise(call) -> int:
    """Bytes the traced peak rises above the held memory during the
    second of two ``call()``s."""
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_adam_step_allocates_nothing_arena_sized():
    arena = _conditioned().parameters()
    arena.grad[:] = np.linspace(-1.0, 1.0, arena.grad.size)
    assert peak_rise(Adam(arena).step) < arena.value.nbytes


@pytest.mark.parametrize("make, steps", [
    (lambda: SerialCollector(SPEC), 1),
    (lambda: VectorCollector(SPEC, n_envs=2), 2)], ids=["serial", "vector-2"])
def test_a_rollout_step_allocates_nothing_arena_sized(make, steps):
    """A one-step rollout (per env), the episode resets included."""
    model = _conditioned()
    collector = make()
    rng = np.random.default_rng(0)
    rise = peak_rise(lambda: collector.collect(model, WEIGHTS, steps, rng))
    assert rise < model.parameters().value.nbytes
