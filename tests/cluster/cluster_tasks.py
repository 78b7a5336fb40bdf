"""Module-level task functions shipped to cluster workers by the tests.

Worker daemons unpickle task functions by module path, so anything the
tests dispatch must live in a module the *worker subprocess* can import —
``tests/conftest.py`` adds this directory to ``PYTHONPATH`` before any
worker spawns.
"""

from __future__ import annotations

import os
import sys
import time

from repro.spec import env

#: The CI stress job's geometry knobs, parsed once for the whole suite
#: (conftest.py and the test modules import these instead of re-reading
#: the environment with potentially divergent defaults).
CLUSTER_WORKERS = env("REPRO_CLUSTER_WORKERS") or 2
CLUSTER_PAGE_SIZE = env("REPRO_CLUSTER_PAGE_SIZE") or 3


def echo(value):
    return value


def square(value):
    return value * value


def add(left, right):
    return left + right


def slow_echo(value, delay=0.05):
    time.sleep(delay)
    return value


def boom(value):
    raise ValueError(f"boom on {value!r}")


def explode(value):
    if value == 13:
        raise ValueError("unlucky")
    return value


class Unpicklable(Exception):
    """An exception whose payload cannot cross the wire."""

    def __init__(self):
        super().__init__("unpicklable")
        self.payload = lambda: None  # lambdas do not pickle


def boom_unpicklable(value):
    raise Unpicklable()


def worker_pid(_value=None):
    return os.getpid()


def module_loaded(name):
    return name in sys.modules


#: Evidence that a crafted pickle payload executed during decode (it must not).
TRIPWIRE = []


def trip_wire(marker):
    TRIPWIRE.append(marker)
    return marker


def loaded_modules(delay=0.0):
    """``(pid, sorted(sys.modules))`` of the worker that runs this.

    ``delay`` holds the worker busy, so a map of one item per worker reaches
    every worker of an idle cluster (one task in flight per worker)."""
    time.sleep(delay)
    return os.getpid(), sorted(sys.modules)
