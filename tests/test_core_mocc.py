"""Tests for the MOCC core: agent, library API, online parts."""

import inspect
from unittest import mock

import numpy as np
import pytest

import repro.core.agent
from repro.baselines import Orca
from repro.baselines.aurora import AuroraController
from repro.config import DEFAULT_TRAINING
from repro.core.agent import MoccAgent, MoccController, PolicyRateController
from repro.core.library import MOCC, NetworkStatus
from repro.core.online import AdaptationTrace, RequirementReplay
from repro.eval.runner import EvalNetwork, build_competition
from repro.netsim.env import apply_action
from repro.netsim.packet import Packet
from repro.netsim.sender import ExternalRateController, Flow

from test_policy import action_on


class TestMoccAgent:
    def test_obs_dim_from_config(self):
        agent = MoccAgent(DEFAULT_TRAINING)
        assert agent.obs_dim == 4 * DEFAULT_TRAINING.history_length

    def test_save_load_roundtrip(self, tmp_path):
        agent = MoccAgent(DEFAULT_TRAINING)
        path = tmp_path / "agent.npz"
        agent.save(path)
        loaded = MoccAgent.load(path)
        obs = np.ones(agent.obs_dim)
        w = np.array([0.5, 0.3, 0.2])
        assert (action_on(agent.model.plan(w), obs)
                == action_on(loaded.model.plan(w), obs))

    def test_clone_independent(self):
        agent = MoccAgent(DEFAULT_TRAINING)
        twin = agent.clone()
        twin.model.log_std.value[...] = 9.0
        assert agent.model.log_std.value[0] != 9.0

    def test_single_objective_agent(self):
        agent = MoccAgent(DEFAULT_TRAINING, weight_dim=0)
        assert agent.model.pref_net is None
        assert np.isfinite(action_on(agent.model.plan(), np.zeros(agent.obs_dim)))


class TestPolicyRateController:
    def test_requires_weights_for_conditioned_model(self):
        agent = MoccAgent(DEFAULT_TRAINING)
        with pytest.raises(ValueError):
            PolicyRateController(agent, None, 100.0)

    def test_inference_counting(self):
        agent = MoccAgent(DEFAULT_TRAINING)
        ctrl = MoccController(agent, [0.8, 0.1, 0.1], initial_rate=50.0)
        net = EvalNetwork(bandwidth_mbps=2.0, one_way_ms=20.0, buffer_bdp=2.0)
        build_competition([ctrl], net, duration=2.0, seed=1).run_all()
        # One inference per monitor interval (2 s / 40 ms = ~50).
        assert 40 <= ctrl.inference_count <= 55


def act_path_action(model, obs, weights) -> float:
    """The deployed action through ``model.act``'s mean branch (critic,
    log-prob, a one-shot plan), which draws nothing."""
    action, _, _ = model.act(obs, weights, None, deterministic=True)
    return float(action[0])


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
    """The library's actor-only plan against ``model.act``'s mean
    branch, and the frozen-for-a-flow contract around it."""

    @pytest.mark.parametrize("weight_dim", [3, 0])
    def test_rates_equal_act_path_over_a_flow(self, weight_dim):
        rates_equal_act_path_over_a_flow(weight_dim)

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

    def test_library_matches_act_path(self):
        library_matches_act_path()

    def test_history_is_the_plan_row(self):
        history_is_the_plan_row(MOCC)


def rates_equal_act_path_over_a_flow(weight_dim) -> None:
    """Every rate a controller paces at over a 10 s flow is Eq. 1
    applied to ``model.act``'s mean on the library's history."""
    net = EvalNetwork(bandwidth_mbps=2.0, one_way_ms=20.0, buffer_bdp=2.0)
    agent = MoccAgent(DEFAULT_TRAINING, weight_dim=weight_dim, seed=3)
    ctrl = PolicyRateController(agent, W if weight_dim else None, 120.0)
    rates, want, on_mi = [], [], ctrl.on_mi

    def spy(flow, stats, now):
        before = ctrl.rate
        on_mi(flow, stats, now)
        library = ctrl.library
        action = act_path_action(agent.model, library.history.vector(),
                                 library.weights)
        want.append(apply_action(before, action, agent.config.action_scale))
        rates.append(ctrl.rate)

    ctrl.on_mi = spy
    build_competition([ctrl], net, duration=10.0, seed=1).run_all()
    assert ctrl.inference_count == len(rates) > 200
    assert rates == want


def library_matches_act_path() -> None:
    agent = MoccAgent(DEFAULT_TRAINING, seed=4)
    lib = MOCC(agent, initial_rate=100.0)
    lib.register(W)
    lib.report_status(NetworkStatus(sent=20, acked=19, lost=1,
                                    mean_rtt=0.05, latency_gradient=0.0,
                                    duration=0.05))
    action = act_path_action(agent.model, lib.history.vector(), lib.weights)
    want = apply_action(100.0, action, agent.config.action_scale)
    assert lib.get_sending_rate() == want


def history_is_the_plan_row(library_cls) -> None:
    """One buffer per deployed flow: after the controller's
    construction-time ``register``, after an ``on_flow_start`` on a
    model reloaded in between, and after each interval, the library's
    history is its plan's observation row (no state is copied per MI),
    and each paced rate is Eq. 1 on the reloaded model's mean over that
    history."""
    agent, other = (MoccAgent(DEFAULT_TRAINING, seed=s) for s in (1, 2))
    flow, stats = one_interval()
    with mock.patch.object(repro.core.agent, "MOCC", library_cls):
        ctrl = MoccController(agent, W)
    library = ctrl.library
    assert np.shares_memory(library.history.buffer, library._plan.obs)
    agent.model.load_state_dict(other.model.state_dict())
    ctrl.on_flow_start(flow, 0.0)
    for now in (0.5, 1.0):
        assert np.shares_memory(library.history.buffer, library._plan.obs)
        before = ctrl.rate
        ctrl.on_mi(flow, stats, now)
        action = act_path_action(agent.model, library.history.vector(),
                                 library.weights)
        assert ctrl.rate == apply_action(before, action, agent.config.action_scale)


#: Every way a trained policy is deployed: ``(class, weight_dim, build)``.
DEPLOYED_POLICIES = {
    "PolicyRateController": (PolicyRateController, 3, lambda agent:
                             PolicyRateController(agent, W, 100.0, batch=4)),
    "MoccController": (MoccController, 3, lambda agent: MoccController(agent, W)),
    "AuroraController": (AuroraController, 0, AuroraController),
    "Orca": (Orca, 0, Orca),
    "MOCC": (MOCC, 3, MOCC),
}


@pytest.mark.parametrize("name", DEPLOYED_POLICIES)
def test_deployed_policy_takes_no_seed_and_holds_no_generator(name):
    """A deployed policy acts on the actor's mean: there is no knob to
    sample instead, and nothing to sample with, in it or its library."""
    cls, weight_dim, build = DEPLOYED_POLICIES[name]
    assert not {"seed", "deterministic"} & set(inspect.signature(cls).parameters)
    policy = build(MoccAgent(DEFAULT_TRAINING, weight_dim=weight_dim, seed=1))
    for holder in (policy, getattr(policy, "library", policy)):
        assert not any(isinstance(value, np.random.Generator)
                       for value in vars(holder).values())


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
            lib.report_status(NetworkStatus(1, 1, 0, 0.05, 0.0, 0.1))

    def test_rate_changes_after_status(self):
        lib = self._lib()
        lib.register([0.8, 0.1, 0.1])
        for _ in range(3):
            lib.report_status(NetworkStatus(sent=20, acked=19, lost=1,
                                            mean_rtt=0.05, latency_gradient=0.0,
                                            duration=0.05))
            rate = lib.get_sending_rate()
        assert rate > 0
        assert lib.inference_count == 3

    def test_invalid_duration(self):
        lib = self._lib()
        lib.register([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            lib.report_status(NetworkStatus(1, 1, 0, 0.05, 0.0, 0.0))

    def test_handles_silent_interval(self):
        lib = self._lib()
        lib.register([0.5, 0.3, 0.2])
        lib.report_status(NetworkStatus(sent=0, acked=0, lost=0,
                                        mean_rtt=None, latency_gradient=0.0,
                                        duration=0.1))
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


def convergence_of_a_curve_that_starts_high(trace_cls) -> None:
    # 99 % of the 2.0 gain is 20.98; 99 % of the maximum, 20.79,
    # would already be passed at iteration 5.
    trace = trace_cls(rewards=[19, 19.5, 20, 20.5, 20.8, 21, 21])
    assert trace.convergence_iteration(smooth=1) == 6


def convergence_recentered_on_window_end(trace_cls) -> None:
    # The reward jumps at iteration 11 (1-based); a smooth-5 window
    # first fully covers the new level over iterations 11-15, so the
    # reported convergence must be 15 -- not 11 shifted left by the
    # convolution's index offset.
    trace = trace_cls(rewards=[0.0] * 10 + [100.0] * 20)
    assert trace.convergence_iteration(smooth=1) == 11
    assert trace.convergence_iteration(smooth=5) == 15


class TestAdaptationTrace:
    def test_convergence_iteration(self):
        # The gain is measured from the first reward: 10 + 0.99 * 90 = 99.1.
        trace = AdaptationTrace(rewards=[10, 50, 90, 99, 100, 100, 100])
        assert trace.convergence_iteration(smooth=1) == 5

    def test_convergence_of_a_curve_that_starts_high(self):
        convergence_of_a_curve_that_starts_high(AdaptationTrace)

    def test_convergence_of_negative_rewards(self):
        # -10 + 0.99 * 9 = -1.09; 0.99 * max = -0.99 is never reached.
        trace = AdaptationTrace(rewards=[-10, -5, -2, -1, -1])
        assert trace.convergence_iteration(smooth=1) == 4

    def test_convergence_with_smoothing(self):
        trace = AdaptationTrace(rewards=[100, 0, 100, 0, 100, 100, 100, 100])
        it = trace.convergence_iteration(smooth=3)
        assert it >= 3

    def test_convergence_smoothing_recentered_on_window_end(self):
        convergence_recentered_on_window_end(AdaptationTrace)

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
