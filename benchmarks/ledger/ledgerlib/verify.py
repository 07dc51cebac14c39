"""Output checks and run hygiene: digests, the pinned expectations,
environment scrubbing and the "no stray cache writes" assertion."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro.config
from repro.eval.resilience import records_digest

__all__ = ["EXPECTED_PATH", "PINNED_SEEDS", "Expected", "cell_digest",
           "package_cache_state", "run_tmpdir", "runtime_versions",
           "scrub_environment", "state_digest"]

LEDGER_DIR = Path(__file__).resolve().parent.parent
EXPECTED_PATH = LEDGER_DIR / "expected.json"
#: Seed 0 is the default, seed 1 the pinned hold-out.
PINNED_SEEDS = (0, 1)
#: Hex digits of a digest kept in expected.json (64 bits: ample to
#: tell "same records" from "different records").
DIGEST_HEX = 16


def cell_digest(records) -> str:
    """sha256 of the canonical ``record_to_json`` payload of a cell."""
    return records_digest(records)[:DIGEST_HEX]


def state_digest(model) -> str:
    """sha256 over a model's parameters, by name."""
    digest = hashlib.sha256()
    state = model.state_dict()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state[name]).tobytes())
    return digest.hexdigest()[:DIGEST_HEX]


def runtime_versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


class Expected:
    """``expected.json``: per cell set and pinned seed, what a correct
    run produces (digest + event count per cell; final reward + model
    state sha for training), with the versions it was made under."""

    def __init__(self, path: Path = EXPECTED_PATH):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def lookup(self, cell_set: str, seed: int):
        return self.data.get("sets", {}).get(cell_set, {}).get(str(seed))

    def version_note(self) -> str:
        """Why pinned digests may legitimately differ, or ''."""
        pinned = self.data.get("versions")
        now = runtime_versions()
        if pinned and pinned != now:
            return (f"expected.json was pinned under {pinned}, this run "
                    f"is {now}: a version mismatch, not the code, may be "
                    f"the reason (check, then --repin)")
        return ""

    def write(self, sets: dict) -> None:
        self.data = {"versions": runtime_versions(), "sets": sets}
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True)
                             + "\n")


def scrub_environment() -> list[str]:
    """Drop every ``REPRO_*`` / ``ENGINE_BENCH_*`` variable.

    ``ParallelRunner`` otherwise picks up ``REPRO_SWEEP_CHECKPOINT``,
    and the caches ``REPRO_RESULT_CACHE`` / ``REPRO_MODEL_CACHE``; the
    ledger passes every location explicitly instead.
    """
    dropped = sorted(k for k in os.environ
                     if k.startswith(("REPRO_", "ENGINE_BENCH_")))
    for key in dropped:
        del os.environ[key]
    return dropped


def package_cache_state() -> dict:
    """Listing of the in-package cache dirs (must not change in a run)."""
    root = Path(repro.config.__file__).resolve().parent
    state = {}
    for sub in ("eval/_cache", "models/_cache"):
        path = root / sub
        state[sub] = (sorted((p.name, p.stat().st_mtime_ns)
                             for p in path.iterdir())
                      if path.is_dir() else None)
    return state


@contextmanager
def run_tmpdir():
    """Per-run scratch directory *inside the checkout* (the driver
    forbids writes elsewhere); removed on exit."""
    base = LEDGER_DIR / ".run"
    base.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="run-", dir=base) as path:
            yield Path(path)
    finally:
        try:
            base.rmdir()  # only succeeds once no run is using it
        except OSError:
            pass
