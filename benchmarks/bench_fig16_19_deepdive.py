"""Figs. 16-19: the deep-dive studies (§6.5).

* Fig. 16: the landmark count omega trades base-model quality against
  training time (omega = 36 matches 171 at far lower cost; tiny omega
  underperforms).
* Fig. 17: CPU overhead -- user-space (UDT-style, per-interval model
  inference) vs kernel-space (CCP-style, batched) deployments.
* Fig. 18: PPO vs DQN (MOCC-DQN): continuous-action PPO wins.
* Fig. 19: training speedup from neighbourhood transfer (two-phase
  against individual training, asserted) and the rollout collectors
  (serial and vectorized, printed: on a 2-core host the vectorized
  collector has read 0.57x-1.09x of serial across runs).
"""

import time

import numpy as np
from conftest import print_table, run_once

from repro.baselines import Cubic, Vegas
from repro.baselines.aurora import AuroraController
from repro.baselines.orca import Orca
from repro.config import DEFAULT_TRAINING, TRAINING_RANGES
from repro.core.agent import MoccAgent
from repro.core.library import MOCC
from repro.core.offline import OfflineTrainer
from repro.core.weights import BALANCE_WEIGHTS, sample_weight
from repro.datapath import CcpShim, UdtShim
from repro.eval.overhead import measure_overhead
from repro.eval.runner import EvalNetwork
from repro.eval.metrics import reward_of_record
from repro.eval.sweeps import fig16_cells
from repro.rl.collect import evaluate_policy
from repro.rl.dqn import DQNTrainer
from repro.rl.parallel import EnvSpec, SerialCollector, VectorCollector

SPEC = EnvSpec(ranges=TRAINING_RANGES, max_steps=96, seed=21)


def bench_fig16_omega(benchmark, runner):
    """Fig. 16: base-model quality and training time vs omega."""

    def experiment():
        out = {}
        for omega, bootstrap in [(3, 40), (10, 40), (36, 40)]:
            trainer = OfflineTrainer(spec=SPEC, config=DEFAULT_TRAINING, seed=16)
            start = time.perf_counter()
            trainer.train(omega=omega, bootstrap_iters=bootstrap,
                          traverse_iters=1, cycles=1)
            elapsed = time.perf_counter() - start
            # Mean Eq. 2 reward over six objectives on a test network.
            rewards = [reward_of_record(r.records[0], r.scenario.flows[0].weights)
                       for r in runner.run(fig16_cells(trainer.agent))]
            out[omega] = (float(np.mean(rewards)), elapsed)
        return out

    results = run_once(benchmark, experiment)
    print_table("Fig 16: omega tradeoff (reward quality vs training time)",
                ["omega", "mean reward", "train s"],
                [[omega, r, t] for omega, (r, t) in results.items()])
    # Larger omega costs more training time; quality does not degrade.
    assert results[36][1] > results[3][1]
    assert results[36][0] > results[3][0] - 0.1


def bench_fig17_cpu_overhead(benchmark, mocc_agent, aurora_throughput):
    """Fig. 17: control-loop cost, user-space vs kernel-space."""
    net = EvalNetwork(bandwidth_mbps=10.0, one_way_ms=20.0, buffer_bdp=1.0)

    def experiment():
        start = net.bottleneck_pps / 3
        controllers = {
            "MOCC-UDT": UdtShim(MOCC(mocc_agent, initial_rate=start), BALANCE_WEIGHTS),
            "Aurora (user)": AuroraController(aurora_throughput, initial_rate=start),
            "MOCC-Kernel": CcpShim(MOCC(mocc_agent, initial_rate=start),
                                   BALANCE_WEIGHTS, batch=4),
            "Orca (kernel)": Orca(agent=aurora_throughput, rl_interval=4),
            "CUBIC": Cubic(),
            "Vegas": Vegas(),
        }
        return {name: measure_overhead(ctrl, net, duration=15.0, seed=17)
                for name, ctrl in controllers.items()}

    reports = run_once(benchmark, experiment)
    rows = [[name, r.control_us_per_sim_second, r.inference_count]
            for name, r in reports.items()]
    print_table("Fig 17: control cost (us per simulated second) and inferences",
                ["scheme", "us/s", "inferences"], rows)

    # The CCP-style deployment consults the model 'batch' times less
    # often, so its per-interval control cost sits near the kernel
    # heuristics while UDT-style matches Aurora.
    assert (reports["MOCC-UDT"].inference_count
            >= 3 * reports["MOCC-Kernel"].inference_count)
    assert (reports["MOCC-Kernel"].control_us_per_sim_second
            < reports["MOCC-UDT"].control_us_per_sim_second)


def bench_fig18_ppo_vs_dqn(benchmark, zoo):
    """Fig. 18: MOCC-PPO vs MOCC-DQN at a matched training budget."""

    def experiment():
        ppo_agent = zoo.mocc_offline(quality="fast")
        # DQN with the same environment budget as the fast PPO bootstrap.
        dqn = DQNTrainer(obs_dim=ppo_agent.obs_dim, weight_dim=3, seed=18)
        env = SPEC.build(seed_offset=42)
        anchors = [np.array([0.6, 0.3, 0.1]), np.array([0.1, 0.6, 0.3]),
                   np.array([0.3, 0.1, 0.6])]
        for _ in range(34):
            for w in anchors:
                dqn.train_objective(env, w, steps=256)

        rng = np.random.default_rng(19)
        objectives = [sample_weight(rng) for _ in range(5)]
        eval_env = SPEC.build(seed_offset=777)
        ppo_rewards, dqn_rewards = [], []
        for w in objectives:
            ppo_rewards.append(evaluate_policy(eval_env, ppo_agent.model, w))
            obs, w_obs = eval_env.reset(w)
            total, done = 0.0, False
            while not done:
                action = dqn.act_value(obs, w_obs, greedy=True)
                obs, w_obs, r, _, done, _ = eval_env.step(action)
                total += r
            dqn_rewards.append(total)
        return np.asarray(ppo_rewards), np.asarray(dqn_rewards)

    ppo_r, dqn_r = run_once(benchmark, experiment)
    print_table("Fig 18: PPO vs DQN episodic rewards",
                ["algorithm", "mean", "min", "max"],
                [["MOCC-PPO", ppo_r.mean(), ppo_r.min(), ppo_r.max()],
                 ["MOCC-DQN", dqn_r.mean(), dqn_r.min(), dqn_r.max()]])
    # PPO's continuous actions outperform the discretised Q-learner.
    assert ppo_r.mean() > dqn_r.mean()


def bench_fig19_training_speedup(benchmark):
    """Fig. 19: two-phase transfer cuts training time."""

    def experiment():
        # Individual training: every omega=10 landmark from scratch.
        t0 = time.perf_counter()
        trainer = OfflineTrainer(spec=SPEC, config=DEFAULT_TRAINING, seed=19)
        trainer.train_individual_style(omega=10, iters_per_objective=12)
        individual_s = time.perf_counter() - t0

        # Two-phase transfer (bootstrap + fast traversal).
        t0 = time.perf_counter()
        trainer = OfflineTrainer(spec=SPEC, config=DEFAULT_TRAINING, seed=19)
        trainer.train(omega=10, bootstrap_iters=12, traverse_iters=1, cycles=1)
        transfer_s = time.perf_counter() - t0

        # Rollout-collection strategies at fixed sample count.
        agent = MoccAgent(DEFAULT_TRAINING)
        rng = np.random.default_rng(20)
        timings = {}
        for name, collector in [
                ("serial", SerialCollector(SPEC)),
                ("vectorized", VectorCollector(SPEC, n_envs=4))]:
            t0 = time.perf_counter()
            for _ in range(3):
                collector.collect(agent.model, BALANCE_WEIGHTS, 512, rng)
            timings[name] = time.perf_counter() - t0
            collector.close()
        return individual_s, transfer_s, timings

    individual_s, transfer_s, timings = run_once(benchmark, experiment)
    rows = [["individual", individual_s, 1.0],
            ["two-phase transfer", transfer_s, individual_s / transfer_s]]
    for name, t in timings.items():
        rows.append([f"rollouts: {name}", t, timings["serial"] / t])
    print_table("Fig 19: training-time reduction", ["method", "seconds", "speedup"],
                rows)
    # Transfer training is cheaper than per-objective training.  The
    # collector rows are printed, not judged: their ratio swings with
    # the host's load from run to run.
    assert transfer_s < individual_s
