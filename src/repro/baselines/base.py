"""Shared helpers for the baseline schemes.

Includes the published utility/reward functions of Table 1 -- the
objectives each learning-based scheme optimises:

========  =====================================================
Scheme    Objective (Table 1)
========  =====================================================
Allegro   ``T - delta * RTT``  (the PCC micro-experiment utility;
          the original sigmoid-gated form is also provided)
Vivace    ``T^t - b * d(RTT)/dt - c * L`` (rate-weighted)
Aurora    ``alpha*T - beta*RTT - gamma*L``
Orca      ``(T - eps*L) / RTT``, normalised by ``T_max/RTT_min``
========  =====================================================
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "aurora_utility",
    "vivace_utility",
    "allegro_utility",
    "allegro_sigmoid_utility",
    "orca_utility",
]


def aurora_utility(throughput_pps: float, latency_s: float, loss_rate: float,
                   alpha: float = 10.0, beta: float = 1000.0,
                   gamma: float = 2000.0) -> float:
    """Aurora's linear reward (Table 1): ``alpha*T - beta*RTT - gamma*L``.

    Units follow the Aurora paper: throughput in packets/second,
    latency in seconds, loss as a fraction.
    """
    return alpha * throughput_pps - beta * latency_s - gamma * loss_rate


def vivace_utility(rate_pps: float, rtt_gradient: float, loss_rate: float,
                   exponent: float = 0.9, b: float = 900.0,
                   c: float = 11.35) -> float:
    """PCC Vivace's utility (Table 1): ``x^t - b*x*(dRTT/dt)+ - c*x*L``.

    The latency-gradient term only penalises *increasing* RTT, as in
    the Vivace paper.
    """
    rate = max(rate_pps, 0.0)
    gradient_penalty = max(rtt_gradient, 0.0)
    return rate ** exponent - b * rate * gradient_penalty - c * rate * loss_rate


def allegro_utility(throughput_pps: float, rtt_s: float,
                    delta: float = 100.0) -> float:
    """The MOCC paper's Table-1 form for Allegro: ``T - delta*RTT``."""
    return throughput_pps - delta * rtt_s


def allegro_sigmoid_utility(rate_pps: float, loss_rate: float,
                            alpha: float = 100.0,
                            threshold: float = 0.05) -> float:
    """PCC Allegro's original sigmoid-gated utility.

    ``u = T * S(L - threshold) - x * L`` where ``T = x * (1 - L)`` and
    ``S`` is a steep sigmoid cutting throughput credit beyond ~5 % loss.
    """
    x = max(rate_pps, 0.0)
    goodput = x * (1.0 - loss_rate)
    sigmoid = 1.0 / (1.0 + np.exp(np.clip(alpha * (loss_rate - threshold), -500, 500)))
    return goodput * sigmoid - x * loss_rate


def orca_utility(throughput_pps: float, rtt_s: float, loss_rate: float,
                 max_throughput_pps: float, min_rtt_s: float,
                 eps: float = 0.05) -> float:
    """Orca's normalised reward (Table 1).

    ``((T - eps*L*T) / RTT) / (T_max / RTT_min)`` -- a power-style
    metric normalised by the best observed operating point.
    """
    if rtt_s <= 0 or max_throughput_pps <= 0 or min_rtt_s <= 0:
        return 0.0
    power = (throughput_pps - eps * loss_rate * throughput_pps) / rtt_s
    return power / (max_throughput_pps / min_rtt_s)
