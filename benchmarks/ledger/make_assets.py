"""Regenerate the pinned learned-controller checkpoints.

    python3 benchmarks/ledger/make_assets.py [--check]

Trains the ``fast``-budget MOCC and Aurora-throughput models with
``ModelZoo`` (seed 0) into a temporary model cache, so neither the
in-package cache nor ``REPRO_MODEL_CACHE`` is read or written, and
copies the two ``.npz`` files into ``assets/`` with their sha256 in
``MANIFEST.json``.  Training is seeded, so on the python/numpy the
assets were made under this reproduces them byte for byte; ``--check``
trains and compares without writing.  New assets change every
``mocc-*`` digest: follow with ``run.py --repin``, as its own PR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from ledgerlib.verify import scrub_environment  # noqa: E402
from ledgerlib.workloads import ASSET_DIR, asset_manifest  # noqa: E402
from repro.models import ModelZoo  # noqa: E402

QUALITY = "fast"
SEED = 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="train and compare with the manifest; write "
                             "nothing")
    args = parser.parse_args(argv)
    scrub_environment()
    manifest = asset_manifest()
    drifted = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        zoo = ModelZoo(cache_dir=tmp)
        zoo.mocc_offline(QUALITY, seed=SEED)
        zoo.aurora("throughput", QUALITY, seed=SEED)
        trained = {"mocc": next(Path(tmp).glob("mocc_*.npz")),
                   "aurora": next(Path(tmp).glob("aurora_*.npz"))}
        for key, path in trained.items():
            entry = manifest["checkpoints"][key]
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            same = sha == entry["sha256"]
            print(f"{key:7s} {entry['file']:34s} {sha} "
                  f"{'unchanged' if same else 'CHANGED'}")
            if not same:
                drifted.append(key)
                if not args.check:
                    shutil.copyfile(path, ASSET_DIR / entry["file"])
                    entry["sha256"] = sha
    if drifted and not args.check:
        (ASSET_DIR / "MANIFEST.json").write_text(json.dumps(manifest) + "\n")
        print("assets rewritten: now run.py --repin")
    return 1 if drifted and args.check else 0


if __name__ == "__main__":
    sys.exit(main())
