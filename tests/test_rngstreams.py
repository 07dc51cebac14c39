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

from repro.netsim import rngstreams
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
        # env.py formerly: np.random.default_rng(seed * 7919 + 1)
        assert _same_stream(stream_rng("env.episode-link", seed),
                            np.random.default_rng(seed * 7919 + 1))

    @pytest.mark.parametrize("seed", [0, 23])
    def test_trace_synth_is_raw_seed(self, seed):
        # traces.py formerly: np.random.default_rng(seed)
        assert _same_stream(stream_rng("trace.synth", seed),
                            np.random.default_rng(seed))


class TestBitIdentityNewRows:
    """The two streams declared where they were bare ``default_rng``."""

    @pytest.mark.parametrize("seed", [0, 17, 48])
    def test_eval_link_loss_and_orca_policy_are_raw_seed(self, seed):
        # runner.py / orca.py formerly: np.random.default_rng(seed)
        for name in ("eval.link-loss", "orca.policy"):
            assert _same_stream(stream_rng(name, seed),
                                np.random.default_rng(seed))

    @pytest.mark.parametrize("seed,i", [(0, 0), (9, 2)])
    def test_fault_streams_are_seed_salt_index(self, seed, i):
        # faults.py formerly: default_rng((seed, 0x464C4150, i)) etc.
        assert _same_stream(stream_rng("link.fault-flap", seed, i),
                            np.random.default_rng((seed, 0x464C4150, i)))
        assert _same_stream(stream_rng("link.fault-loss", seed, i),
                            np.random.default_rng((seed, 0x47454C4F, i)))


def _raw(seed):
    return seed


class TestOverlapCheck:
    def test_live_table_passes_within_its_import_budget(self):
        check_streams()
        assert min(timeit.repeat(check_streams, number=1, repeat=5)) < 5e-3

    @pytest.mark.parametrize("streams,accepted,named", [
        # two equal raw streams in one space
        ({"a.raw": ("sim", _raw), "b.raw": ("sim", _raw)}, {},
         "without an accepted reason: [('a.raw', 'b.raw')]"),
        # an affine image meeting raw seeds, not listed
        ({"c.affine": ("env", lambda seed: seed * 3 + 1),
          "d.raw": ("env", _raw)}, {},
         "without an accepted reason: [('c.affine', 'd.raw')]"),
        # salt 7 is a plausible link index
        ({"e.salted": ("sim", lambda seed: (seed, 7)),
          "f.indexed": ("sim", lambda seed, index: (seed, index))}, {},
         "without an accepted reason: [('e.salted', 'f.indexed')]"),
        # zero-padding: (s, 0) is s, whatever the arity says
        ({"g.raw": ("sim", _raw),
          "h.indexed": ("sim", lambda seed, index: (seed, index))}, {},
         "without an accepted reason: [('g.raw', 'h.indexed')]"),
        # an accepted pair that cannot meet: different spaces
        ({"a.raw": ("sim", _raw), "d.raw": ("env", _raw)},
         {frozenset({"a.raw", "d.raw"}): "justifies nothing"},
         "do not overlap: [('a.raw', 'd.raw')]"),
    ])
    def test_planted_defect_fails_by_name(self, monkeypatch, streams,
                                          accepted, named):
        monkeypatch.setattr(rngstreams, "STREAMS", streams)
        monkeypatch.setattr(rngstreams, "ACCEPTED_OVERLAPS", accepted)
        with pytest.raises(ValueError) as err:
            check_streams()
        assert named in str(err.value)

    def test_same_entropy_in_two_spaces_is_not_an_overlap(self, monkeypatch):
        monkeypatch.setattr(rngstreams, "STREAMS",
                            {"a.raw": ("sim", _raw), "d.raw": ("env", _raw)})
        monkeypatch.setattr(rngstreams, "ACCEPTED_OVERLAPS", {})
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
        # The hazard being removed: every anonymous link used to drain
        # one default_rng(0).
        link = Link(trace=100.0, delay=0.01, queue_size=10, loss_rate=0.5)
        assert not _same_stream(link.rng, np.random.default_rng(0))

    def test_explicit_rng_still_wins(self):
        rng = np.random.default_rng(77)
        link = Link(trace=100.0, delay=0.01, queue_size=10, rng=rng)
        assert link.rng is rng
