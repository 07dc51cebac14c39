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
``trace_driven`` block pins time-varying links across their capacity
changes (digest and event count); the same "never to paper over" rule
applies to both.

Usage::

    PYTHONPATH=src python scripts/make_engine_goldens.py [BLOCK ...]

With block names (``scenarios``, ``learned_controllers``,
``trace_driven``) only those are recomputed and everything else in the
file, header included, is carried over as it is -- how a PR pins new
cells at its parent commit (``PYTHONPATH=<parent>/src``) before it
touches the engine.
"""

import json
import sys
from datetime import date
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

from test_golden_traces import (  # noqa: E402
    GOLDEN_PATH, compute_goldens, compute_trace_driven, learned_suites)

BLOCKS = {
    "scenarios": compute_goldens,
    "learned_controllers": lambda: compute_goldens(learned_suites()),
    "trace_driven": compute_trace_driven,
}


def main(blocks: list[str]) -> None:
    unknown = sorted(set(blocks) - set(BLOCKS))
    if unknown:
        sys.exit(f"unknown block(s) {unknown}; known: {sorted(BLOCKS)}")
    payload = json.loads(GOLDEN_PATH.read_text())
    if not blocks:
        payload.update(generated=date.today().isoformat(),
                       numpy=np.__version__,
                       python=sys.version.split()[0])
    for name in blocks or BLOCKS:
        payload[name] = BLOCKS[name]()
        print(f"{name}: {len(payload[name])} cells")
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main(sys.argv[1:])
