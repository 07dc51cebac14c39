"""Evaluation metrics: fairness, friendliness, rewards.

* **Jain's fairness index** (Fig. 12): ``(sum x)^2 / (n * sum x^2)``,
  1.0 = perfectly fair.
* **Friendliness ratio** (Figs. 14/15): delivery rate of the probed
  scheme over the delivery rate of the competing CUBIC flow.
* **Reward of a run** (Figs. 6/16/18): the Eq. 2 scalarisation of a
  flow's mean performance components.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.env import components_from_stats
from repro.netsim.network import FlowRecord

__all__ = ["jain_index", "jain_index_series", "friendliness_ratio",
           "reward_of_record", "mean_components_of_record"]


def jain_index(throughputs) -> float:
    """Jain, Durresi & Babic's fairness index over flow throughputs."""
    x = np.asarray(throughputs, dtype=np.float64)
    x = x[x >= 0]
    if len(x) == 0 or np.all(x == 0):
        return 1.0
    return float(x.sum() ** 2 / (len(x) * np.sum(x ** 2)))


def jain_index_series(records: list[FlowRecord],
                      interval: float = 1.0) -> np.ndarray:
    """Per-``interval`` Jain index over the flows' throughput timelines,
    up to the last monitor interval's end.

    The paper computes the index "for each second" while flows come and
    go (Fig. 12); intervals where fewer than two flows are active are
    skipped.
    """
    duration = max((r.records[-1].end for r in records if r.records), default=0.0)
    edges = np.arange(0.0, duration + interval, interval)
    series = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        rates = []
        for record in records:
            acked = sum(s.acked for s in record.records if lo <= s.start < hi)
            active = any(lo <= s.start < hi and s.sent > 0 for s in record.records)
            if active:
                rates.append(acked / interval)
        if len(rates) >= 2:
            series.append(jain_index(rates))
    return np.asarray(series)


def friendliness_ratio(scheme_record: FlowRecord, cubic_record: FlowRecord) -> float:
    """Delivery rate of the scheme over the competing CUBIC flow's."""
    if cubic_record.mean_throughput_pps <= 0:
        return float("inf")
    return scheme_record.mean_throughput_pps / cubic_record.mean_throughput_pps


def mean_components_of_record(record: FlowRecord) -> np.ndarray:
    """Per-MI average of (O_thr, O_lat, O_loss) over a run."""
    if not record.records:
        return np.zeros(3)
    comps = [components_from_stats(s).as_array() for s in record.records]
    return np.mean(comps, axis=0)


def reward_of_record(record: FlowRecord, weights) -> float:
    """Eq. 2 reward of a run: the weighted mean performance components."""
    w = np.asarray(weights, dtype=np.float64)
    return float(np.dot(mean_components_of_record(record), w))
