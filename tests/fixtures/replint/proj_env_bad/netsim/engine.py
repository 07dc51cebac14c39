"""Fixture: env reads outside config.py."""

import os
from os import getenv


def speed_hack():
    return os.environ.get("SIM_SPEED_HACK")


def lookup(key):
    return getenv(key)
