#!/usr/bin/env python
"""Convenience entry point for replint (works without installing repro).

Same CLI as ``python -m repro.analysis``; the pre-commit hook runs it
with no arguments (a full scan).
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
