"""The RNG census: every simulation generator is one row of one table.

Bit-reproducible simulation rests on a fixed set of random streams
whose entropies cannot coincide by accident (identical loss patterns
on two links, a fault chain that shifts the wire-loss sequence).
:data:`STREAMS` maps each stream name to the seed space its material
comes from and the function that turns that material into the exact
entropy ``default_rng`` receives; :func:`stream_rng` is the only place
``netsim``, ``baselines`` and ``eval`` construct a generator (the
``rng-sole-constructor`` replint rule).  The entropies are frozen to
the inline expressions the call sites once carried, so every golden
digest holds (``tests/test_rngstreams.py`` pins each one).

Disjointness is checked on values, at import: :func:`check_streams`
evaluates every function over a small sample of its material, reduces
each entropy to the words ``SeedSequence`` mixes, and refuses to import
when two streams of one seed space can meet and the pair is not in
:data:`ACCEPTED_OVERLAPS` -- or when a listed pair no longer meets.
Streams are compared within a space only.  ``scenario`` is the cell
seed ``s``; ``link`` is the seed ``EvalNetwork.build_link`` and
``TopologySpec.build`` receive, which the eval pipeline forms as
``31 * s + 17`` (``131 * s + 7`` in ``apps.bulk``) and which is
therefore never ``s`` itself.  A caller handing *one* seed to both a
link builder and ``Simulation`` gets link 0's loss stream equal to the
pacing stream: ``SeedSequence`` zero-pads entropy to four words, so
``default_rng(s)`` and ``default_rng((s, 0))`` are one stream.
"""

from __future__ import annotations

import zlib
from itertools import combinations, product

import numpy as np

__all__ = ["STREAMS", "ACCEPTED_OVERLAPS", "check_streams", "stream_rng"]

#: ``{name: (seed space, entropy function)}``.  Parameter names say
#: what the material is (``seed``, ``index``, ``key``) and pick the
#: sample :func:`check_streams` evaluates the function over.
STREAMS = {
    # Simulation.rng: send-pacing jitter, the root per-cell stream.
    "sim.pacing": ("scenario", lambda seed: seed),
    # Simulation._hop_rng: per-hop forwarding dither, kept off
    # sim.pacing so hop events cannot shift the send-jitter sequence.
    "sim.hop-dither": ("scenario", lambda seed: (seed, 0x517CC1B7)),
    # Orca.rng: policy sampling, drawn only at deterministic=False.
    "orca.policy": ("scenario", lambda seed: seed),
    # EvalNetwork.build_link -> Link.rng: Bernoulli wire loss on the
    # one link of a single-bottleneck cell.
    "eval.link-loss": ("link", lambda seed: seed),
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
    # CongestionControlEnv.rng: Table-3 episode parameter sampling.
    "env.params": ("env", lambda seed: seed),
    # CongestionControlEnv.reset -> Link.rng: per-episode wire loss.
    "env.episode-link": ("env", lambda seed: seed * 7919 + 1),
    # Synthetic bandwidth processes (random walk, LEO handover); their
    # content is fingerprinted, so a pure function of the trace seed.
    "trace.synth": ("trace", lambda seed: seed),
}

#: Pairs whose entropies meet, and why each is left as it is: moving
#: either stream would move every digest that runs it.
ACCEPTED_OVERLAPS = {
    frozenset({"env.params", "env.episode-link"}):
        "7919 * s + 1 is some other env's raw seed, never its own; the "
        "two feed disjoint mechanisms (episode draws, link wire loss)",
    frozenset({"sim.pacing", "orca.policy"}):
        "both default_rng(s) within one cell; Orca draws only at "
        "deterministic=False, which no cell sets",
    frozenset({"eval.link-loss", "link.loss"}):
        "default_rng(s) is default_rng((s, 0)), link 0 of a topology; a "
        "cell builds either one EvalNetwork link or a topology",
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
    """Raise unless the overlapping pairs are exactly the accepted ones."""
    images = {}
    for name, (space, entropy) in STREAMS.items():
        code = entropy.__code__
        samples = (_SAMPLE[p] for p in code.co_varnames[:code.co_argcount])
        images[name] = space, {_words(entropy(*m)) for m in product(*samples)}
    overlapping = [(a, b) for a, b in combinations(sorted(images), 2)
                   if images[a][0] == images[b][0]
                   and not images[a][1].isdisjoint(images[b][1])]
    accepted = sorted(tuple(sorted(pair)) for pair in ACCEPTED_OVERLAPS)
    unlisted = [pair for pair in overlapping if pair not in accepted]
    stale = [pair for pair in accepted if pair not in overlapping]
    if unlisted or stale:
        raise ValueError(
            f"RNG streams that can be fed one entropy without an accepted "
            f"reason: {unlisted}; accepted overlaps that do not overlap: "
            f"{stale}")


check_streams()


def stream_rng(name: str, *material, **named) -> np.random.Generator:
    """Mint the declared stream ``name`` from its seed material, passed
    by position (or by the parameter names of the row's function)."""
    return np.random.default_rng(STREAMS[name][1](*material, **named))
