"""The RNG census: every simulation generator is one row of one table.

Bit-reproducible simulation rests on a fixed set of random streams
whose entropies cannot coincide by accident (identical loss patterns
on two links, a fault chain that shifts the wire-loss sequence).
:data:`STREAMS` maps each stream name to the seed space its material
comes from and the function that turns that material into the exact
entropy ``default_rng`` receives; :func:`stream_rng` is the only place
``netsim``, ``baselines``, ``eval``, ``datapath``, ``core/agent.py`` and
``core/library.py`` construct a generator (the ``rng-sole-constructor``
replint check).  Deployed policies act on the actor's mean and hold no
generator at all.  The entropies are frozen to the inline expressions
the call sites once carried, so every golden digest holds
(``tests/test_rngstreams.py`` pins each one).

Disjointness is checked on values, at import: :func:`check_streams`
evaluates every function over a small sample of its material, reduces
each entropy to the words ``SeedSequence`` mixes, and refuses to import
when two streams of one seed space can meet.  Streams are compared
within a space only.  ``scenario`` is the cell seed ``s``; ``link`` is
the seed ``TopologySpec.build`` -- the one network builder, a
single-bottleneck cell or training episode being its one-link
dumbbell -- receives, which the eval pipeline forms with
:func:`link_seed` as ``31 * s + 17`` (``131 * s + 7`` in ``apps.bulk``,
``7919 * e + 1`` for episode seed ``e`` in ``MoccEnv.reset``) and which is
therefore never the cell or episode seed itself; ``env`` is the seed
a gym env draws its episodes' parameters from; ``agent`` is the seed
a model's weights are initialised from, and ``objectives`` the seed a
figure samples its weight vectors from, both before any cell runs.  A
caller handing *one* seed to both ``TopologySpec.build`` and
``Simulation`` gets link 0's loss stream equal to the pacing stream: ``SeedSequence`` zero-pads entropy to four
words, so ``default_rng(s)`` and ``default_rng((s, 0))`` are one
stream.
"""

from __future__ import annotations

import zlib
from itertools import combinations, product

import numpy as np

__all__ = ["RNG_BLOCK", "STREAMS", "check_streams", "link_seed", "stream_rng"]

#: How many uniform draws are prefetched per block from the pacing,
#: hop-dither and wire-loss generators.  Block draws are element-wise
#: identical to repeated scalar draws on the same ``numpy`` bitstream,
#: and ``tolist()`` makes them Python floats exactly, so batching
#: changes no result -- it only amortizes the per-call generator
#: overhead.
RNG_BLOCK = 512

#: ``{name: (seed space, entropy function)}``.  Parameter names say
#: what the material is (``seed``, ``index``, ``key``) and pick the
#: sample :func:`check_streams` evaluates the function over.
STREAMS = {
    # Simulation.rng: send-pacing jitter, the root per-cell stream.
    "sim.pacing": ("scenario", lambda seed: seed),
    # Simulation._hop_rng: per-hop forwarding dither, kept off
    # sim.pacing so hop events cannot shift the send-jitter sequence.
    "sim.hop-dither": ("scenario", lambda seed: (seed, 0x517CC1B7)),
    # MoccAgent: model initialisation, from the agent's own seed.
    "agent.init": ("agent", lambda seed: seed),
    # TopologySpec.build -> Link.rng: wire loss per link, keyed by the
    # link's position in the spec.
    "link.loss": ("link", lambda seed, index: (seed, index)),
    # FaultProcess._flap_rng / _loss_rng: flap-window jitter and the
    # Gilbert-Elliott chain, one stream each per link so a fault
    # schedule can never shift the wire-loss sequence.
    "link.fault-flap": ("link",
                        lambda seed, index: (seed, 0x464C4150, index)),  # "FLAP"
    "link.fault-loss": ("link",
                        lambda seed, index: (seed, 0x47454C4F, index)),  # "GELO"
    # Link.rng when none is passed: keyed by the link's name, so two
    # anonymous links do not share one bitstream.
    "link.default": ("link-name", lambda key: (
        0x6C696E6B, zlib.crc32(key.encode("utf-8")), 0)),  # "link"
    # MoccEnv.rng: Table-3 episode parameter sampling and the initial
    # rate; a fixed network draws only the latter.
    "env.params": ("env", lambda seed: seed),
    # Synthetic bandwidth processes (random walk, LEO handover); their
    # content is fingerprinted, so a pure function of the trace seed.
    "trace.synth": ("trace", lambda seed: seed),
    # The objectives a figure samples (repro.eval.sweeps), drawn while
    # its cells are declared; each flow carries its weights.
    "eval.objectives": ("objectives", lambda seed: seed),
}

_SAMPLE = {"seed": range(16), "index": range(8),
           "key": ("", "bottleneck", "uplink")}


def _words(entropy) -> tuple:
    """The uint32 words ``SeedSequence`` mixes for ``entropy``: each
    int little-endian, concatenated, zero-padded to four."""
    words = []
    for n in entropy if isinstance(entropy, tuple) else (entropy,):
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return tuple(words) + (0,) * (4 - len(words))


def check_streams() -> None:
    """Raise, naming each pair, when two streams of one seed space can
    be fed one entropy."""
    images = {}
    for name, (space, entropy) in STREAMS.items():
        code = entropy.__code__
        samples = (_SAMPLE[p] for p in code.co_varnames[:code.co_argcount])
        images[name] = space, {_words(entropy(*m)) for m in product(*samples)}
    overlapping = [(a, b) for a, b in combinations(sorted(images), 2)
                   if images[a][0] == images[b][0]
                   and not images[a][1].isdisjoint(images[b][1])]
    if overlapping:
        raise ValueError(f"RNG streams that can be fed one entropy: "
                         f"{overlapping}")


check_streams()


def stream_rng(name: str, *material, **named) -> np.random.Generator:
    """Mint the declared stream ``name`` from its seed material, passed
    by position (or by the parameter names of the row's function)."""
    return np.random.default_rng(STREAMS[name][1](*material, **named))


def link_seed(seed: int) -> int:
    """The ``link`` seed an eval cell of seed ``seed`` builds its
    topology with: never the cell seed itself, so link 0's loss stream
    is not the pacing stream."""
    return seed * 31 + 17
