"""Shared fixtures for the test suite.

All protocol tests run over the small (insecure, clearly-labelled) testing
group so the full suite stays fast; a handful of tests exercise the Ed25519
and 2048-bit backends directly to validate the real parameter sets.

Every schedule test runs on the two executors, ``serial`` and a loopback
``cluster``; the CI stress job randomizes ``REPRO_CLUSTER_WORKERS`` (how many
worker subprocesses the shared cluster spawns).
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

# Worker subprocesses unpickle test task functions by module path; make the
# cluster_tasks helper importable here and from every spawned worker.
_CLUSTER_TASKS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cluster")
if _CLUSTER_TASKS_DIR not in sys.path:
    sys.path.insert(0, _CLUSTER_TASKS_DIR)
if _CLUSTER_TASKS_DIR not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        part for part in (os.environ.get("PYTHONPATH"), _CLUSTER_TASKS_DIR) if part
    )

from cluster_tasks import CLUSTER_WORKERS  # noqa: E402 - needs the path above

from repro.audit.api import AuditPlan, verifier_from_spec
from repro.audit.checks import cascade_checks
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.ed25519 import Ed25519Element
from repro.crypto.elgamal import ElGamal
from repro.crypto.group import Group
from repro.crypto.modp_group import ModPElement, testing_group
from repro.ledger.bulletin_board import BulletinBoard
from repro.registration.setup import ElectionSetup
from repro.runtime.executor import executor_from_spec
from repro.runtime.precompute import FixedBaseTable


@pytest.fixture(scope="session")
def group():
    """The fast testing group shared by the whole suite."""
    return testing_group()


@pytest.fixture(scope="session")
def elgamal(group):
    return ElGamal(group)


@pytest.fixture(scope="session")
def cascade_report():
    """``report(elgamal, public_key, inputs, cascade, ...)``: one cascade, judged.

    The audit layer is the only judge of a mix proof, so a test that wants a
    verdict on a cascade runs its checks and reads the report.
    """

    def report(elgamal, public_key, inputs, cascade, executor=None, audit_spec="batched", **pinned):
        checks = cascade_checks(elgamal, public_key, inputs, cascade, **pinned)
        return verifier_from_spec(audit_spec, executor).run(AuditPlan(checks))

    return report


@pytest.fixture(scope="module")
def cluster_executor():
    """One warmed loopback cluster shared by a test module (spawn is ~0.3 s)."""
    executor = executor_from_spec(f"cluster:{CLUSTER_WORKERS}")
    executor.warm()
    yield executor
    executor.close()


@pytest.fixture()
def dkg(group):
    """A fresh 3-member authority DKG."""
    return DistributedKeyGeneration.run(group, 3)


@pytest.fixture()
def board():
    return BulletinBoard()


@pytest.fixture()
def small_setup(group):
    """An election setup with three eligible voters."""
    return ElectionSetup.run(
        group,
        ["alice", "bob", "carol"],
        num_authority_members=3,
        envelopes_per_voter=4,
    )


@pytest.fixture
def powers(monkeypatch):
    """Every power taken, by route: ``plain`` exponentiations, ``table`` powers, ``multiexp`` calls."""
    counts: Counter = Counter()

    def counted(holder, attr, key):
        original = getattr(holder, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(holder, attr, wrapper)

    for element_type in (ModPElement, Ed25519Element):
        counted(element_type, "exponentiate", "plain")
    counted(FixedBaseTable, "power", "table")
    counted(Group, "multi_exponentiate", "multiexp")
    return counts
