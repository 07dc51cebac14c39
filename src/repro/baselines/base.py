"""Shared helpers for the baseline schemes.

Includes the published utility/reward functions of Table 1 -- the
objectives each learning-based scheme optimises, at their published
coefficients:

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


def aurora_utility(throughput_pps: float, latency_s: float,
                   loss_rate: float) -> float:
    """Aurora's linear reward (Table 1): ``alpha*T - beta*RTT - gamma*L``
    with alpha = 10, beta = 1000 and gamma = 2000.

    Units follow the Aurora paper: throughput in packets/second,
    latency in seconds, loss as a fraction.
    """
    return 10.0 * throughput_pps - 1000.0 * latency_s - 2000.0 * loss_rate


def vivace_utility(rate_pps: float, rtt_gradient: float,
                   loss_rate: float) -> float:
    """PCC Vivace's utility (Table 1): ``x^t - b*x*(dRTT/dt)+ - c*x*L``
    with t = 0.9, b = 900 and c = 11.35.

    The latency-gradient term only penalises *increasing* RTT, as in
    the Vivace paper.
    """
    rate = max(rate_pps, 0.0)
    gradient_penalty = max(rtt_gradient, 0.0)
    return rate ** 0.9 - 900.0 * rate * gradient_penalty - 11.35 * rate * loss_rate


def allegro_utility(throughput_pps: float, rtt_s: float) -> float:
    """The MOCC paper's Table-1 form for Allegro: ``T - delta*RTT``
    with delta = 100."""
    return throughput_pps - 100.0 * rtt_s


def allegro_sigmoid_utility(rate_pps: float, loss_rate: float) -> float:
    """PCC Allegro's original sigmoid-gated utility.

    ``u = T * S(L - 0.05) - x * L`` where ``T = x * (1 - L)`` and ``S``
    is a steep sigmoid (slope 100) cutting throughput credit beyond
    5 % loss.
    """
    x = max(rate_pps, 0.0)
    goodput = x * (1.0 - loss_rate)
    sigmoid = 1.0 / (1.0 + np.exp(np.clip(100.0 * (loss_rate - 0.05), -500, 500)))
    return goodput * sigmoid - x * loss_rate


def orca_utility(throughput_pps: float, rtt_s: float, loss_rate: float,
                 max_throughput_pps: float, min_rtt_s: float) -> float:
    """Orca's normalised reward (Table 1).

    ``((T - eps*L*T) / RTT) / (T_max / RTT_min)`` with eps = 0.05 -- a
    power-style metric normalised by the best observed operating point.
    """
    if rtt_s <= 0 or max_throughput_pps <= 0 or min_rtt_s <= 0:
        return 0.0
    power = (throughput_pps - 0.05 * loss_rate * throughput_pps) / rtt_s
    return power / (max_throughput_pps / min_rtt_s)
