"""The RNG census: bit-identity with the pre-table call sites, the
import-time overlap check on planted defects, and the Link fallback.

Every stream in :mod:`repro.netsim.rngstreams` replaced an inline
``np.random.default_rng(...)`` expression; these tests pin that the
table feeds ``default_rng`` exactly the same entropy, so the migration
cannot have moved a single bit (golden traces check the end-to-end
consequence, this checks the mechanism).
"""

import re
import timeit
from pathlib import Path

import numpy as np
import pytest

from repro.config import NetworkParams
from repro.netsim import rngstreams
from repro.netsim.env import EnvSpec, MoccEnv
from repro.netsim.link import Link
from repro.netsim.rngstreams import STREAMS, check_streams, stream_rng

SRC = Path(__file__).parent.parent / "src"


def _same_stream(a, b, n=16):
    return np.array_equal(a.random(n), b.random(n))


class TestBitIdentity:
    """Each stream reproduces its pre-registry inline expression."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_sim_pacing_is_raw_seed(self, seed):
        # network.py formerly: np.random.default_rng(seed)
        assert _same_stream(stream_rng("sim.pacing", seed),
                            np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_sim_hop_dither_is_salted(self, seed):
        # network.py formerly: np.random.default_rng((seed, 0x517CC1B7))
        assert _same_stream(stream_rng("sim.hop-dither", seed),
                            np.random.default_rng((seed, 0x517CC1B7)))

    @pytest.mark.parametrize("seed,i", [(0, 0), (0, 3), (42, 1)])
    def test_link_loss_is_indexed(self, seed, i):
        # topology.py formerly: np.random.default_rng((seed, i))
        assert _same_stream(stream_rng("link.loss", seed, index=i),
                            np.random.default_rng((seed, i)))

    @pytest.mark.parametrize("seed", [0, 5, 1000])
    def test_env_params_is_raw_seed(self, seed):
        # env.py formerly: np.random.default_rng(seed)
        assert _same_stream(stream_rng("env.params", seed),
                            np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", [1, 6, 77])
    def test_env_episode_link_is_affine(self, seed):
        env_episode_link_is_affine(MoccEnv, seed)

    @pytest.mark.parametrize("seed", [0, 23])
    def test_trace_synth_is_raw_seed(self, seed):
        # traces.py formerly: np.random.default_rng(seed)
        assert _same_stream(stream_rng("trace.synth", seed),
                            np.random.default_rng(seed))


class TestBitIdentityNewRows:
    """The streams declared where they were bare ``default_rng``."""

    @pytest.mark.parametrize("seed", [0, 17, 48])
    def test_eval_link_loss_is_raw_seed(self, seed):
        # runner.py formerly: np.random.default_rng(seed).  A
        # single-link cell's one link is now link 0 of its dumbbell.
        assert _same_stream(stream_rng("link.loss", seed, 0),
                            np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", [0, 17, 48])
    def test_agent_init_is_raw_seed(self, seed):
        # core/agent.py formerly: np.random.default_rng(seed)
        assert _same_stream(stream_rng("agent.init", seed),
                            np.random.default_rng(seed))

    @pytest.mark.parametrize("seed,i", [(0, 0), (9, 2)])
    def test_fault_streams_are_seed_salt_index(self, seed, i):
        # faults.py formerly: default_rng((seed, 0x464C4150, i)) etc.
        assert _same_stream(stream_rng("link.fault-flap", seed, i),
                            np.random.default_rng((seed, 0x464C4150, i)))
        assert _same_stream(stream_rng("link.fault-loss", seed, i),
                            np.random.default_rng((seed, 0x47454C4F, i)))


def env_episode_link_is_affine(env_cls, seed) -> None:
    """The link of episode ``seed`` draws wire loss like
    ``default_rng(seed * 7919 + 1)``, the generator env.py once built
    by hand: ``link.loss`` of that link seed, index 0."""
    env = env_cls(EnvSpec(ranges=NetworkParams(bandwidth_mbps=4.0, latency_ms=30.0,
                                               queue_packets=500, loss_rate=0.0),
                          max_steps=1), seed - 1)
    env.reset((1 / 3, 1 / 3, 1 / 3))  # episode seed ``seed``; a lossless warm-up draws nothing
    state = env._sim.links[0].rng.bit_generator.state
    for reference in (np.random.default_rng(seed * 7919 + 1),
                      stream_rng("link.loss", seed * 7919 + 1, 0)):
        assert state == reference.bit_generator.state


def _raw(seed):
    return seed


class TestOverlapCheck:
    def test_live_table_passes_within_its_import_budget(self):
        check_streams()
        assert min(timeit.repeat(check_streams, number=1, repeat=5)) < 5e-3

    @pytest.mark.parametrize("streams,named", [
        # two equal raw streams in one space
        ({"a.raw": ("sim", _raw), "b.raw": ("sim", _raw)},
         "fed one entropy: [('a.raw', 'b.raw')]"),
        # an affine image meeting raw seeds
        ({"c.affine": ("env", lambda seed: seed * 3 + 1),
          "d.raw": ("env", _raw)},
         "fed one entropy: [('c.affine', 'd.raw')]"),
        # salt 7 is a plausible link index
        ({"e.salted": ("sim", lambda seed: (seed, 7)),
          "f.indexed": ("sim", lambda seed, index: (seed, index))},
         "fed one entropy: [('e.salted', 'f.indexed')]"),
        # zero-padding: (s, 0) is s, whatever the arity says
        ({"g.raw": ("sim", _raw),
          "h.indexed": ("sim", lambda seed, index: (seed, index))},
         "fed one entropy: [('g.raw', 'h.indexed')]"),
    ])
    def test_planted_defect_fails_by_name(self, monkeypatch, streams, named):
        monkeypatch.setattr(rngstreams, "STREAMS", streams)
        with pytest.raises(ValueError) as err:
            check_streams()
        assert named in str(err.value)

    def test_same_entropy_in_two_spaces_is_not_an_overlap(self, monkeypatch):
        monkeypatch.setattr(rngstreams, "STREAMS",
                            {"a.raw": ("sim", _raw), "d.raw": ("env", _raw)})
        check_streams()

    def test_unknown_or_underfed_stream_fails_at_the_call(self):
        with pytest.raises(KeyError, match="no.such.stream"):
            stream_rng("no.such.stream", 0)
        with pytest.raises(TypeError):
            stream_rng("link.loss", 0)        # needs an index too

    @pytest.mark.parametrize("a,b", [
        (5, (5, 0)), (5, (5, 0, 0, 0)), (5, (5, 0, 0, 0, 0)), (5, (5, 1)),
        ((1 << 32) + 5, (5, 1)), ((5, 7), (5, 7, 0)), (0, (0, 0)), (5, 6),
    ])
    def test_words_agree_with_seedsequence(self, a, b):
        # The check compares what SeedSequence mixes, not Python values.
        same = _same_stream(np.random.default_rng(a),
                            np.random.default_rng(b))
        assert (rngstreams._words(a) == rngstreams._words(b)) == same

    def test_every_declared_stream_is_minted_under_src(self):
        # what the lint's "declared but never minted" finding was
        minted = set()
        for path in sorted(SRC.rglob("*.py")):
            minted.update(re.findall(r'stream_rng\(\s*"([^"]+)"',
                                     path.read_text()))
        assert minted == set(STREAMS)


def fallback_disjoint_from_legacy_shared_stream(link_cls) -> None:
    # The hazard being removed: every anonymous link used to drain
    # one default_rng(0).
    link = link_cls(trace=100.0, delay=0.01, queue_size=10, loss_rate=0.5)
    assert not _same_stream(link.rng, np.random.default_rng(0))


class TestLinkDefaultFallback:
    """Satellite: Link() without rng gets a name-derived stream, not a
    process-wide shared ``default_rng(0)``."""

    def test_same_name_same_stream(self):
        a = Link(trace=100.0, delay=0.01, queue_size=10, loss_rate=0.5,
                 name="bottleneck")
        b = Link(trace=100.0, delay=0.01, queue_size=10, loss_rate=0.5,
                 name="bottleneck")
        assert _same_stream(a.rng, b.rng)

    def test_different_names_different_streams(self):
        a = Link(trace=100.0, delay=0.01, queue_size=10, loss_rate=0.5,
                 name="uplink")
        b = Link(trace=100.0, delay=0.01, queue_size=10, loss_rate=0.5,
                 name="downlink")
        assert not _same_stream(a.rng, b.rng)

    def test_fallback_disjoint_from_legacy_shared_stream(self):
        fallback_disjoint_from_legacy_shared_stream(Link)

    def test_explicit_rng_still_wins(self):
        rng = np.random.default_rng(77)
        link = Link(trace=100.0, delay=0.01, queue_size=10, rng=rng)
        assert link.rng is rng
