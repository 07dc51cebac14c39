"""Tests for the MOCC core: objectives, agent, library API, online parts."""

import numpy as np
import pytest

from repro.config import DEFAULT_TRAINING
from repro.core.agent import MoccAgent, MoccController, PolicyRateController
from repro.core.library import MOCC, NetworkStatus
from repro.core.objectives import (
    OnlineEstimator,
    components_from_measurements,
    dynamic_reward,
)
from repro.core.online import AdaptationTrace, RequirementReplay
from repro.netsim.env import RewardComponents, apply_action
from repro.netsim.packet import Packet
from repro.netsim.sender import ExternalRateController, Flow


class TestObjectives:
    def test_components_basic(self):
        comps = components_from_measurements(
            throughput=50.0, latency=0.08, loss_rate=0.1,
            capacity=100.0, base_latency=0.04)
        assert comps.o_thr == pytest.approx(0.5)
        assert comps.o_lat == pytest.approx(0.5)
        assert comps.o_loss == pytest.approx(0.9)

    def test_components_clipped(self):
        comps = components_from_measurements(200.0, 0.01, 0.0, 100.0, 0.04)
        assert comps.o_thr == 1.0
        assert comps.o_lat == 1.0

    def test_dynamic_reward_eq2(self):
        comps = RewardComponents(1.0, 0.5, 0.8)
        r = dynamic_reward(comps, [0.6, 0.3, 0.1])
        assert r == pytest.approx(0.6 + 0.15 + 0.08)

    def test_estimator_tracks_max_and_min(self):
        est = OnlineEstimator()
        est.update(50.0, 0.08)
        est.update(80.0, 0.05)
        est.update(60.0, 0.09)
        assert est.capacity == pytest.approx(80.0)
        assert est.base_latency == pytest.approx(0.05)

    def test_estimator_components(self):
        est = OnlineEstimator()
        est.update(100.0, 0.04)
        comps = est.components(throughput=50.0, latency=0.08, loss_rate=0.0)
        assert comps.o_thr == pytest.approx(0.5)
        assert comps.o_lat == pytest.approx(0.5)

    def test_estimator_decay_relaxes(self):
        est = OnlineEstimator(decay=0.1)
        est.update(100.0, 0.04)
        for _ in range(10):
            est.update(50.0, 0.08)
        assert est.capacity < 100.0
        assert est.base_latency > 0.04

    def test_estimator_handles_missing_latency(self):
        est = OnlineEstimator()
        comps = est.components(throughput=10.0, latency=None, loss_rate=0.2)
        assert comps.o_lat == 0.0
        assert comps.o_loss == pytest.approx(0.8)


class TestMoccAgent:
    def test_obs_dim_from_config(self):
        agent = MoccAgent(DEFAULT_TRAINING)
        assert agent.obs_dim == 4 * DEFAULT_TRAINING.history_length

    def test_act_deterministic(self):
        agent = MoccAgent(DEFAULT_TRAINING)
        obs = np.zeros(agent.obs_dim)
        rng = np.random.default_rng(0)
        a1 = agent.act(obs, [0.8, 0.1, 0.1], rng, deterministic=True)
        a2 = agent.act(obs, [0.8, 0.1, 0.1], rng, deterministic=True)
        assert a1 == a2

    def test_next_rate_applies_eq1(self):
        agent = MoccAgent(DEFAULT_TRAINING)
        obs = np.zeros(agent.obs_dim)
        rng = np.random.default_rng(0)
        rate = agent.next_rate(100.0, obs, [0.8, 0.1, 0.1], rng)
        assert rate > 0

    def test_save_load_roundtrip(self, tmp_path):
        agent = MoccAgent(DEFAULT_TRAINING)
        path = tmp_path / "agent.npz"
        agent.save(path)
        loaded = MoccAgent.load(path)
        obs = np.ones(agent.obs_dim)
        w = np.array([0.5, 0.3, 0.2])
        rng = np.random.default_rng(1)
        assert (agent.act(obs, w, rng, deterministic=True)
                == loaded.act(obs, w, rng, deterministic=True))

    def test_clone_independent(self):
        agent = MoccAgent(DEFAULT_TRAINING)
        twin = agent.clone()
        twin.model.log_std.value[...] = 9.0
        assert agent.model.log_std.value[0] != 9.0

    def test_single_objective_agent(self):
        agent = MoccAgent(DEFAULT_TRAINING, weight_dim=0)
        obs = np.zeros(agent.obs_dim)
        action = agent.act(obs, None, np.random.default_rng(0))
        assert np.isfinite(action)


class TestPolicyRateController:
    def test_requires_weights_for_conditioned_model(self):
        agent = MoccAgent(DEFAULT_TRAINING)
        with pytest.raises(ValueError):
            PolicyRateController(agent.model, weights=None)

    def test_inference_counting(self):
        from repro.eval.runner import EvalNetwork, run_scheme
        agent = MoccAgent(DEFAULT_TRAINING)
        ctrl = MoccController(agent, [0.8, 0.1, 0.1], initial_rate=50.0)
        net = EvalNetwork(bandwidth_mbps=2.0, one_way_ms=20.0, buffer_bdp=2.0)
        run_scheme(ctrl, net, duration=2.0, seed=1)
        # One inference per monitor interval (2 s / 40 ms = ~50).
        assert 40 <= ctrl.inference_count <= 55


class ActPathController(PolicyRateController):
    """``on_mi`` as it was before the actor-only plan: the full
    ``model.act`` (critic, log-prob, caches) every interval."""

    def on_mi(self, flow, stats, now):
        self.history.push(flow, stats)
        w = self.weights if self.model.weight_dim > 0 else None
        action, _, _ = self.model.act(self.history.vector(), w, self.rng,
                                      deterministic=self.deterministic)
        self.inference_count += 1
        self.rate = apply_action(self.rate, float(action[0]), self.action_scale)


def one_interval():
    """A ``(flow, stats)`` pair with non-neutral statistics."""
    flow = Flow(flow_id=0, controller=ExternalRateController(100.0))
    for i in range(10):
        p = Packet(flow_id=0, seq=i, send_time=i * 0.05)
        flow.note_sent(p)
        flow.note_ack(p, now=i * 0.05 + 0.04 + 0.001 * i)
    return flow, flow.finish_mi(0.5, 100.0, 0.04, 100.0)


W = [0.5, 0.3, 0.2]


class TestInferencePath:
    """The per-MI actor-only plan against the ``model.act`` path it
    replaced, and the frozen-for-a-flow contract around it."""

    @pytest.mark.parametrize("weight_dim", [3, 0])
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_rates_equal_act_path_over_a_flow(self, weight_dim, deterministic):
        from repro.eval.runner import EvalNetwork, run_scheme
        net = EvalNetwork(bandwidth_mbps=2.0, one_way_ms=20.0, buffer_bdp=2.0)
        model = MoccAgent(DEFAULT_TRAINING, weight_dim=weight_dim, seed=3).model
        trajectories = []
        for cls in (PolicyRateController, ActPathController):
            ctrl = cls(model, weights=W if weight_dim else None,
                       initial_rate=120.0, deterministic=deterministic, seed=5)
            rates, on_mi = [], ctrl.on_mi

            def spy(flow, stats, now, on_mi=on_mi, ctrl=ctrl, rates=rates):
                on_mi(flow, stats, now)
                rates.append(ctrl.rate)

            ctrl.on_mi = spy
            run_scheme(ctrl, net, duration=10.0, seed=1)
            assert ctrl.inference_count == len(rates) > 200
            trajectories.append(rates)
        assert trajectories[0] == trajectories[1]

    def test_flow_start_picks_up_reloaded_model(self):
        agent, other = (MoccAgent(DEFAULT_TRAINING, seed=s) for s in (1, 2))
        flow, stats = one_interval()
        restarted, stale = (MoccController(agent, W) for _ in range(2))
        stale.on_flow_start(flow, 0.0)
        agent.model.load_state_dict(other.model.state_dict())
        restarted.on_flow_start(flow, 0.0)
        fresh = MoccController(other, W)
        fresh.on_flow_start(flow, 0.0)
        for ctrl in (restarted, stale, fresh):
            ctrl.on_mi(flow, stats, 0.5)
        assert restarted.rate == fresh.rate
        # The contract's other half: mid-flow, the embedding is frozen.
        assert stale.rate != fresh.rate

    def test_inplace_actor_update_seen_mid_flow(self):
        agent = MoccAgent(DEFAULT_TRAINING, seed=1)
        flow, stats = one_interval()
        running = MoccController(agent, W)
        running.on_flow_start(flow, 0.0)
        agent.model.actor.layers[-1].b.value += 0.3
        fresh = MoccController(agent.clone(), W)
        fresh.on_flow_start(flow, 0.0)
        for ctrl in (running, fresh):
            ctrl.on_mi(flow, stats, 0.5)
        assert running.rate == fresh.rate != 100.0

    def test_library_register_picks_up_reloaded_model(self):
        agent, other = (MoccAgent(DEFAULT_TRAINING, seed=s) for s in (1, 2))
        status = NetworkStatus(sent=20, acked=19, lost=1, mean_rtt=0.05,
                               duration=0.05)
        lib, fresh = MOCC(agent), MOCC(other)
        lib.register(W)
        agent.model.load_state_dict(other.model.state_dict())
        lib.register(W)
        fresh.register(W)
        for library in (lib, fresh):
            library.report_status(status)
        assert lib.get_sending_rate() == fresh.get_sending_rate()
        # In-place actor updates need no re-register.
        for a in (agent, other):
            a.model.actor.layers[-1].b.value += 0.3
        assert lib.get_sending_rate() == fresh.get_sending_rate()

    def test_library_matches_agent_act(self):
        agent = MoccAgent(DEFAULT_TRAINING, seed=4)
        lib = MOCC(agent, initial_rate=100.0)
        lib.register(W)
        lib.report_status(NetworkStatus(sent=20, acked=19, lost=1,
                                        mean_rtt=0.05, duration=0.05))
        action = agent.act(lib.history.vector(), lib.weights, lib.rng)
        want = apply_action(100.0, action, agent.config.action_scale)
        assert lib.get_sending_rate() == want


class TestLibraryAPI:
    def _lib(self):
        return MOCC(MoccAgent(DEFAULT_TRAINING), initial_rate=100.0)

    def test_register_validates(self):
        lib = self._lib()
        with pytest.raises(ValueError):
            lib.register([1.0, 0.0, 0.0])
        lib.register([0.5, 0.3, 0.2])

    def test_calls_require_registration(self):
        lib = self._lib()
        with pytest.raises(RuntimeError):
            lib.get_sending_rate()
        with pytest.raises(RuntimeError):
            lib.report_status(NetworkStatus(1, 1, 0, 0.05, 0.1))

    def test_rate_changes_after_status(self):
        lib = self._lib()
        lib.register([0.8, 0.1, 0.1])
        for _ in range(3):
            lib.report_status(NetworkStatus(sent=20, acked=19, lost=1,
                                            mean_rtt=0.05, duration=0.05))
            rate = lib.get_sending_rate()
        assert rate > 0
        assert lib.inference_count == 3

    def test_invalid_duration(self):
        lib = self._lib()
        lib.register([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            lib.report_status(NetworkStatus(1, 1, 0, 0.05, 0.0))

    def test_handles_silent_interval(self):
        lib = self._lib()
        lib.register([0.5, 0.3, 0.2])
        lib.report_status(NetworkStatus(sent=0, acked=0, lost=0,
                                        mean_rtt=None, duration=0.1))
        assert lib.get_sending_rate() > 0


class TestRequirementReplay:
    def test_add_and_sample(self):
        pool = RequirementReplay()
        assert pool.add([0.8, 0.1, 0.1])
        assert len(pool) == 1
        w = pool.sample(np.random.default_rng(0))
        np.testing.assert_allclose(w, [0.8, 0.1, 0.1])

    def test_deduplication(self):
        pool = RequirementReplay()
        pool.add([0.8, 0.1, 0.1])
        assert not pool.add([0.8, 0.1, 0.1])
        assert len(pool) == 1

    def test_sample_excludes(self):
        pool = RequirementReplay()
        pool.add([0.8, 0.1, 0.1])
        assert pool.sample(np.random.default_rng(0),
                           exclude=[0.8, 0.1, 0.1]) is None

    def test_empty_sample(self):
        assert RequirementReplay().sample(np.random.default_rng(0)) is None

    def test_uniform_coverage(self):
        pool = RequirementReplay()
        pool.add([0.8, 0.1, 0.1])
        pool.add([0.1, 0.8, 0.1])
        rng = np.random.default_rng(0)
        seen = {tuple(pool.sample(rng)) for _ in range(50)}
        assert len(seen) == 2


class TestAdaptationTrace:
    def test_convergence_iteration(self):
        trace = AdaptationTrace(rewards=[10, 50, 90, 99, 100, 100, 100])
        assert trace.convergence_iteration(smooth=1) == 4

    def test_convergence_with_smoothing(self):
        trace = AdaptationTrace(rewards=[100, 0, 100, 0, 100, 100, 100, 100])
        it = trace.convergence_iteration(smooth=3)
        assert it >= 3

    def test_convergence_smoothing_recentered_on_window_end(self):
        # The reward jumps at iteration 11 (1-based); a smooth-5 window
        # first fully covers the new level over iterations 11-15, so the
        # reported convergence must be 15 -- not 11 shifted left by the
        # convolution's index offset.
        trace = AdaptationTrace(rewards=[0.0] * 10 + [100.0] * 20)
        assert trace.convergence_iteration(smooth=1) == 11
        assert trace.convergence_iteration(smooth=5) == 15

    def test_convergence_never_before_smoothing_window_fills(self):
        trace = AdaptationTrace(rewards=[50.0, 50.0, 50.0, 50.0])
        assert trace.convergence_iteration(smooth=3) == 3

    def test_convergence_smooth_longer_than_trace(self):
        trace = AdaptationTrace(rewards=[1.0, 2.0, 4.0])
        assert trace.convergence_iteration(smooth=10) == 3

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            AdaptationTrace().convergence_iteration()

    def test_retention(self):
        trace = AdaptationTrace(old_marks=[(0, 100.0), (8, 95.0), (16, 97.0)])
        assert trace.old_objective_retention() == pytest.approx(0.95)

    def test_retention_empty(self):
        assert np.isnan(AdaptationTrace().old_objective_retention())
