"""Regenerate the engine golden traces (tests/goldens/engine_golden.json).

The goldens pin the simulator's exact floats: ``tests/test_golden_traces.py``
re-runs the same seeded grid and asserts digest-identity, which is how
hot-path optimizations prove they did not move a single result bit.

Only regenerate when a PR *intentionally* changes simulation results
(new physics, fixed accounting) -- never to paper over an optimization
that failed bit-identity.  The grid definition lives next to the test
(``golden_suites``/``compute_goldens``) so generator and checker can
never drift apart.  The ``pre_refactor_single_hop`` block is frozen
history (the scheme that produced it is deleted) and is carried over
verbatim, never recomputed.  The ``learned_controllers`` block pins
policy inference in the loop (seeded untrained MOCC/Aurora agents); the
same "never to paper over" rule applies to it.

Usage::

    PYTHONPATH=src python scripts/make_engine_goldens.py
"""

import json
import sys
from datetime import date
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

from test_golden_traces import (  # noqa: E402
    GOLDEN_PATH, compute_goldens, learned_suites)


def main() -> None:
    scenarios = compute_goldens()
    learned = compute_goldens(learned_suites())
    frozen = json.loads(GOLDEN_PATH.read_text())["pre_refactor_single_hop"]
    payload = {
        "generated": date.today().isoformat(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "pre_refactor_single_hop": frozen,
        "scenarios": scenarios,
        "learned_controllers": learned,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(scenarios)} scenarios, "
          f"{len(learned)} learned-controller cells)")


if __name__ == "__main__":
    main()
