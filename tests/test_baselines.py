"""Tests for the baseline congestion-control schemes."""

import numpy as np
import pytest

from repro.baselines import BBR, Copa, Cubic, Orca, PCCAllegro, PCCVivace, Vegas
from repro.baselines._pcc_common import TrialTracker
from repro.baselines.aurora import AuroraController
from repro.baselines.orca import ACTION_SCALE as ORCA_ACTION_SCALE
from repro.config import DEFAULT_TRAINING
from repro.core.agent import MoccAgent
from repro.eval.runner import EvalNetwork, build_competition
from repro.netsim.env import apply_action
from repro.netsim.packet import Packet
from repro.netsim.sender import ExternalRateController, Flow

from test_core_mocc import act_path_action

NET = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=15.0, buffer_bdp=1.5)


def run_one(controller, network, duration, seed):
    """One flow of ``controller`` over ``network``: its record."""
    return build_competition([controller], network, duration=duration,
                             seed=seed).run_all()[0]


def _flow_with_srtt(srtt=0.05):
    flow = Flow(flow_id=0, controller=ExternalRateController(100.0))
    flow.srtt = srtt
    flow.min_rtt_seen = srtt * 0.8
    return flow


def _packet(send_time=0.0):
    return Packet(flow_id=0, seq=0, send_time=send_time)


def _at_cwnd(controller, cwnd):
    controller._cwnd = cwnd
    return controller


class TestCubicUnit:
    def test_slow_start_doubles_per_rtt(self):
        cubic = Cubic()
        flow = _flow_with_srtt()
        for _ in range(10):  # one ack per cwnd packet
            cubic.on_ack(flow, _packet(), 0.05)
        assert cubic.cwnd(0.05) == pytest.approx(20.0)

    def test_loss_multiplies_by_beta(self):
        cubic = _at_cwnd(Cubic(), 100.0)
        flow = _flow_with_srtt()
        cubic.on_loss(flow, _packet(), 1.0)
        assert cubic.cwnd(1.0) == pytest.approx(70.0)
        assert cubic.ssthresh == pytest.approx(70.0)

    def test_single_reduction_per_rtt(self):
        cubic = _at_cwnd(Cubic(), 100.0)
        flow = _flow_with_srtt(srtt=0.1)
        cubic.on_loss(flow, _packet(), 1.0)
        cubic.on_loss(flow, _packet(), 1.01)  # within the same RTT
        assert cubic.cwnd(1.01) == pytest.approx(70.0)

    def test_cwnd_floor(self):
        cubic = _at_cwnd(Cubic(), 2.0)
        flow = _flow_with_srtt()
        for i in range(5):
            cubic.on_loss(flow, _packet(), float(i))
        assert cubic.cwnd(5.0) >= cubic.min_cwnd

    def test_concave_growth_after_loss(self):
        cubic = _at_cwnd(Cubic(), 100.0)
        flow = _flow_with_srtt()
        cubic.on_loss(flow, _packet(), 1.0)
        start = cubic.cwnd(1.0)
        for k in range(200):
            cubic.on_ack(flow, _packet(), 1.1 + 0.001 * k)
        assert start < cubic.cwnd(2.0) < 130.0


class TestVegasUnit:
    def test_increases_when_backlog_small(self):
        vegas = Vegas()
        vegas.slow_start = False
        flow = _flow_with_srtt(srtt=0.05)
        flow.min_rtt_seen = 0.05  # rtt == base: zero backlog
        stats = flow.finish_mi(0.5, 100.0, 0.05, 100.0)
        stats_fixed = stats.__class__(**{**stats.__dict__, "mean_rtt": 0.05})
        vegas.on_mi(flow, stats_fixed, 0.5)
        assert vegas.cwnd(0.5) == pytest.approx(11.0)

    def test_decreases_when_backlog_large(self):
        vegas = _at_cwnd(Vegas(), 50.0)
        vegas.slow_start = False
        flow = _flow_with_srtt()
        flow.min_rtt_seen = 0.05
        stats = flow.finish_mi(0.5, 100.0, 0.05, 100.0)
        congested = stats.__class__(**{**stats.__dict__, "mean_rtt": 0.10})
        vegas.on_mi(flow, congested, 0.5)  # backlog = 50*(0.05/0.10) = 25 > beta
        assert vegas.cwnd(0.5) == pytest.approx(49.0)

    def test_loss_halves(self):
        vegas = _at_cwnd(Vegas(), 40.0)
        vegas.on_loss(_flow_with_srtt(), _packet(), 1.0)
        assert vegas.cwnd(1.0) == pytest.approx(20.0)


class TestBBRUnit:
    def test_startup_exits_when_bw_flat(self):
        bbr = BBR(initial_rate=10.0)
        flow = _flow_with_srtt()
        stats = flow.finish_mi(0.1, 100.0, 0.03, 10.0)
        sample = stats.__class__(**{**stats.__dict__, "acked": 10,
                                    "mean_rtt": 0.03, "min_rtt": 0.03})
        for i in range(6):
            bbr.on_mi(flow, sample, 0.1 * (i + 1))
        assert bbr.state in ("DRAIN", "PROBE_BW")

    def test_inflight_cap_is_2bdp(self):
        bbr = BBR(initial_rate=10.0)
        flow = _flow_with_srtt()
        stats = flow.finish_mi(0.1, 100.0, 0.03, 10.0)
        # 10 acks over the 0.1 s interval: a 100 pps bandwidth sample.
        sample = stats.__class__(**{**stats.__dict__, "acked": 10, "min_rtt": 0.05})
        bbr.on_mi(flow, sample, 0.0)
        assert bbr.inflight_cap(0.1) == pytest.approx(2 * 100.0 * 0.05)

    def test_btl_bw_is_the_windowed_max(self):
        """The max kept at ``on_mi`` is the max over the window, also
        when the window's largest sample ages out."""
        bbr = BBR(initial_rate=10.0)
        flow = _flow_with_srtt()
        stats = flow.finish_mi(1.0, 100.0, 0.03, 10.0)
        # Ten-sample window: the 90 ages out at the eleventh sample.
        for i, acked in enumerate((50, 90, 20, 30, 10, 0, 25, 15, 35, 12,
                                   18, 11, 40)):
            bbr.on_mi(flow, stats.__class__(**{**stats.__dict__, "acked": acked}),
                      float(i))
            assert bbr.btl_bw == max(bbr._bw_samples)
        assert bbr.btl_bw == 40.0

    def test_pacing_floor(self):
        assert BBR(initial_rate=0.001).pacing_rate(0.0) >= 1.0


class TestCopaUnit:
    def test_slow_start_exits_on_queue(self):
        copa = Copa()
        flow = _flow_with_srtt(srtt=0.05)
        flow.min_rtt_seen = 0.04
        # Ack with a big queueing delay -> slow start should end.
        p = _packet(send_time=0.0)
        copa.on_ack(flow, p.__class__(flow_id=0, seq=0, send_time=0.0), 0.08)
        assert not copa.slow_start or copa._cwnd >= 10.0

    def test_loss_brake(self):
        copa = _at_cwnd(Copa(), 100.0)
        copa.on_loss(_flow_with_srtt(), _packet(), 1.0)
        assert copa._cwnd == pytest.approx(90.0)
        assert not copa.slow_start

    def test_step_capped_at_one_packet(self):
        copa = _at_cwnd(Copa(), 2.0)
        copa.slow_start = False
        copa._velocity = 16.0
        copa._direction = 1
        flow = _flow_with_srtt(srtt=0.05)
        flow.min_rtt_seen = 0.05
        before = copa._cwnd
        copa.on_ack(flow, _packet(), 0.05)
        assert abs(copa._cwnd - before) <= 1.0 + 1e-9


class TestTrialTracker:
    def test_send_time_attribution(self):
        tracker = TrialTracker()
        t1 = tracker.begin(+1, 100.0, now=0.0, round_id=0)
        t2 = tracker.begin(-1, 90.0, now=1.0, round_id=0)
        early = Packet(flow_id=0, seq=0, send_time=0.5)   # sent during t1
        late = Packet(flow_id=0, seq=1, send_time=1.5)    # sent during t2
        tracker.on_ack(early, now=1.6)   # ack arrives during t2's window
        tracker.on_loss(late)
        assert t1.acked == 1 and t1.lost == 0
        assert t2.acked == 0 and t2.lost == 1

    def test_resolution_grace(self):
        tracker = TrialTracker()
        tracker.begin(+1, 100.0, now=0.0, round_id=0)
        tracker.begin(-1, 90.0, now=1.0, round_id=0)  # closes the first
        assert tracker.pop_resolved(now=1.5, grace=1.0) == []
        resolved = tracker.pop_resolved(now=2.5, grace=1.0)
        assert len(resolved) == 1
        assert resolved[0].sign == +1

    def test_goodput_discounts_loss(self):
        tracker = TrialTracker()
        trial = tracker.begin(+1, 100.0, now=0.0, round_id=0)
        trial.acked, trial.lost = 3, 1
        assert trial.loss_rate == pytest.approx(0.25)
        assert trial.goodput() == pytest.approx(75.0)


class TestPCCBehaviour:
    def test_allegro_climbs_on_clean_link(self):
        record = run_one(PCCAllegro(initial_rate=NET.bottleneck_pps / 10),
                         NET, duration=25.0, seed=3)
        assert record.mean_utilization > 0.5

    def test_vivace_climbs_on_clean_link(self):
        record = run_one(PCCVivace(initial_rate=NET.bottleneck_pps / 10),
                         NET, duration=25.0, seed=3)
        assert record.mean_utilization > 0.5

    def test_allegro_collapses_beyond_sigmoid_cliff(self):
        """Allegro's utility cuts throughput credit beyond ~5 % loss."""
        lossy = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=15.0,
                            buffer_bdp=1.5, loss_rate=0.10)
        record = run_one(PCCAllegro(initial_rate=NET.bottleneck_pps / 4),
                         lossy, duration=20.0, seed=4)
        clean = run_one(PCCAllegro(initial_rate=NET.bottleneck_pps / 4),
                        NET, duration=20.0, seed=4)
        assert record.mean_utilization < clean.mean_utilization


class TestRLBaselines:
    def test_aurora_requires_single_objective_model(self):
        with pytest.raises(ValueError):
            AuroraController(MoccAgent(DEFAULT_TRAINING, weight_dim=3))

    def test_orca_without_model_acts_like_cubic(self):
        orca = Orca(agent=None)
        cubic_record = run_one(Cubic(), NET, duration=10.0, seed=5)
        orca_record = run_one(orca, NET, duration=10.0, seed=5)
        assert orca_record.mean_utilization == pytest.approx(
            cubic_record.mean_utilization, abs=0.1)
        assert orca.scale == 1.0

    def test_orca_scale_bounded(self):
        agent = MoccAgent(DEFAULT_TRAINING, weight_dim=0)
        orca = Orca(agent=agent, rl_interval=1)
        run_one(orca, NET, duration=5.0, seed=6)
        assert Orca.MIN_SCALE <= orca.scale <= Orca.MAX_SCALE
        assert orca.inference_count > 0

    def test_orca_scale_equals_act_path(self):
        orca_scale_equals_act_path()

    def test_orca_rejects_conditioned_model(self):
        with pytest.raises(ValueError):
            Orca(agent=MoccAgent(DEFAULT_TRAINING, weight_dim=3))


class ActPathOrca(Orca):
    """Orca's ``on_mi`` as it was before the actor-only plan: the full
    ``model.act`` (critic, log-prob, caches) at every decision."""

    def on_mi(self, flow, stats, now):
        self.history.push(stats, stats.rate_pps)
        self._mi_count += 1
        if self._mi_count % self.rl_interval != 0:
            return
        action = act_path_action(self.agent.model, self.history.vector(), None)
        self.inference_count += 1
        self.scale = float(np.clip(
            apply_action(self.scale, action, ORCA_ACTION_SCALE),
            self.MIN_SCALE, self.MAX_SCALE))


def orca_scale_equals_act_path() -> None:
    """Orca's actor-only plan against the ``model.act`` call it
    replaced: same supervision decisions, bit for bit."""
    agent = MoccAgent(DEFAULT_TRAINING, weight_dim=0, seed=2)
    new, old = (cls(agent=agent, rl_interval=2) for cls in (Orca, ActPathOrca))
    records = [run_one(c, NET, duration=5.0, seed=6) for c in (new, old)]
    assert new.scale == old.scale != 1.0
    assert new.inference_count == old.inference_count > 0
    assert records[0].mean_throughput_pps == records[1].mean_throughput_pps


class TestBehaviourMatrix:
    """Cross-scheme sanity: the qualitative Fig. 5 orderings."""

    def test_cubic_fills_buffer_vegas_does_not(self):
        cubic = run_one(Cubic(), NET, duration=15.0, seed=7)
        vegas = run_one(Vegas(), NET, duration=15.0, seed=7)
        assert cubic.latency_ratio > vegas.latency_ratio

    def test_bbr_robust_to_random_loss_cubic_not(self):
        lossy = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=15.0,
                            buffer_bdp=1.5, loss_rate=0.03)
        bbr = run_one(BBR(initial_rate=lossy.bottleneck_pps / 3),
                      lossy, duration=15.0, seed=8)
        cubic = run_one(Cubic(), lossy, duration=15.0, seed=8)
        assert bbr.mean_utilization > 2 * cubic.mean_utilization

    def test_all_schemes_loss_free_on_clean_underbuffered_link(self):
        clean = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=15.0, buffer_bdp=4.0)
        for ctrl in (Vegas(), Copa()):
            record = run_one(ctrl, clean, duration=10.0, seed=9)
            assert record.loss_rate < 0.05, ctrl.name
