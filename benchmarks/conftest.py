"""Shared fixtures for the figure/table benchmarks.

Each benchmark regenerates one of the paper's evaluation artifacts: it
runs the experiment once (timed via pytest-benchmark), prints the rows
or series the paper's figure plots, and asserts the headline *shape*
(who wins, roughly by how much).  Absolute numbers differ from the
paper -- the substrate is a simulator, not the authors' testbed -- so
each benchmark states the paper's number beside its own assert.

Trained models come from the seeded zoo cache; the first run trains
them (a few minutes total), later runs load from disk.
"""

import numpy as np
import pytest

from repro.eval.parallel import ParallelRunner
from repro.models import default_zoo


def pytest_configure(config):
    config.addinivalue_line("markers", "figure(name): paper figure/table id")


@pytest.fixture(scope="session")
def zoo():
    return default_zoo()


@pytest.fixture(scope="session")
def runner():
    """Shared scenario runner: sharded across cores (one worker per
    core, capped at 8), results memoized.

    ``REPRO_RESULT_CACHE`` relocates the on-disk result cache.  A
    benchmark re-run with an unchanged suite is served from the cache.
    """
    return ParallelRunner()


@pytest.fixture(scope="session")
def mocc_agent(zoo):
    """The full-quality offline-trained multi-objective model."""
    return zoo.mocc_offline(quality="full")


@pytest.fixture(scope="session")
def aurora_throughput(zoo):
    return zoo.aurora("throughput", quality="full")


@pytest.fixture(scope="session")
def aurora_latency(zoo):
    return zoo.aurora("latency", quality="full")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


def run_once(benchmark, fn):
    """Time a single execution of the experiment body."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def print_table(title: str, header: list, rows: list) -> None:
    """Uniform table printer for the paper-style output."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), 10) for h in header]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = []
        for value, w in zip(row, widths):
            if isinstance(value, float):
                cells.append(f"{value:.3f}".ljust(w))
            else:
                cells.append(str(value).ljust(w))
        print("  ".join(cells))
