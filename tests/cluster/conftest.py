"""Shared fixtures and env knobs for the cluster test suite.

The CI stress job randomizes ``REPRO_CLUSTER_WORKERS`` (how many loopback
worker subprocesses the shared cluster spawns) and
``REPRO_CLUSTER_PAGE_SIZE`` (the ledger cursor page size the tally tests
read with), mirroring the pipeline stress pattern — schedule-dependent
bugs in dispatch and reassignment rarely show on one lucky geometry.
"""

from __future__ import annotations

import os

import pytest

from repro.runtime.executor import executor_from_spec

# Worker subprocesses unpickle test task functions by module path; make the
# cluster_tasks helper importable from every spawned worker's PYTHONPATH.
_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        part for part in (os.environ.get("PYTHONPATH"), _HERE) if part
    )

from cluster_tasks import CLUSTER_WORKERS  # noqa: E402 - needs the path above


@pytest.fixture(scope="module")
def cluster_executor():
    """One warmed loopback cluster shared by a test module (spawn is ~1s)."""
    executor = executor_from_spec(f"cluster:{CLUSTER_WORKERS}")
    executor.warm()
    yield executor
    executor.close()
