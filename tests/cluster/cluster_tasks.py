"""Module-level task functions shipped to cluster workers by the tests.

Worker daemons unpickle task functions by module path, so anything the
tests dispatch must live in a module the *worker subprocess* can import —
``tests/cluster/conftest.py`` prepends this directory to ``PYTHONPATH``
before any worker spawns.
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


def stuck_once(marker_path, value):
    """Hang (only) the first worker that runs this; re-executions return fast.

    The marker file is the cross-process memory that makes a task-timeout
    reassignment observable: attempt one parks forever, attempt two — on
    another worker, after the reaper retires the stuck one — completes.
    """
    if not os.path.exists(marker_path):
        with open(marker_path, "w"):
            pass
        time.sleep(600)
    return value


#: Evidence that a crafted pickle payload executed during decode (it must not).
TRIPWIRE = []


def trip_wire(marker):
    TRIPWIRE.append(marker)
    return marker
