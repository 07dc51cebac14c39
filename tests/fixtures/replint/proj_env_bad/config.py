"""Fixture: the one place an environment read is allowed."""

import os


def cache_dir():
    return os.environ.get("PROJ_CACHE_DIR")
