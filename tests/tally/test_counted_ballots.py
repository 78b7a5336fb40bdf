"""Last-write-wins, checked on the ballots that decide it.

``TallyPipeline._valid_ballots`` verifies each credential's oldest and newest
ballot in one call, and the ballots between them only for a credential where
one of those two is forged (``repro.tally.pipeline._counted_ballots``).  These
tests hold it to the rule it replaces — :func:`deduplicate_ballots` over every
record whose signature :func:`schnorr_verify` accepts, one at a time — on
random interleaved ledgers with forgeries at any position, on ``serial`` and
on the shared ``cluster`` executor, and count the signatures it verifies.
"""

from __future__ import annotations

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.tally.pipeline as tally_pipeline
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamal
from repro.crypto.modp_group import testing_group
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign, schnorr_verify
from repro.ledger.backends.memory import MemoryBackend
from repro.runtime.executor import SerialExecutor
from repro.runtime.pipeline import PipelineSpec
from repro.tally.filter import deduplicate_ballots
from repro.tally.pipeline import TallyPipeline
from repro.voting.ballot import Ballot

GROUP = testing_group()
AUTHORITY = DistributedKeyGeneration.run(GROUP, 2)
ELECTION_ID = "default"
NUM_CREDENTIALS = 5
MAX_BALLOTS = 5
EXAMPLES = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _ballot(keypair, option: int) -> Ballot:
    ciphertext = ElGamal(GROUP).encrypt_int(AUTHORITY.public_key, option)
    unsigned = Ballot(ciphertext, keypair.public, signature=None, wellformedness=None, key_proof=None)
    return dataclasses.replace(unsigned, signature=schnorr_sign(keypair, unsigned.signed_message()))


def _forged(ballot: Ballot) -> Ballot:
    signature = dataclasses.replace(ballot.signature, response=(ballot.signature.response + 1) % GROUP.order)
    return dataclasses.replace(ballot, signature=signature)


def _pool(num_credentials: int, ballots_each: int):
    """``pool[credential][position]`` is a (genuine, forged) pair of distinct ballots."""
    pool = []
    for _ in range(num_credentials):
        keypair = schnorr_keygen(GROUP)
        ballots = [_ballot(keypair, option % 3) for option in range(ballots_each)]
        pool.append([(ballot, _forged(ballot)) for ballot in ballots])
    return pool


#: The last credential of the pool is always cast with forged signatures only.
POOL = _pool(NUM_CREDENTIALS + 1, MAX_BALLOTS)


def _reference(ledger):
    """The rule: last-write-wins over the ballots that verify one at a time."""
    return deduplicate_ballots([
        ballot.to_record() for ballot in ledger
        if schnorr_verify(ballot.credential_public_key, ballot.signed_message(), ballot.signature)
    ])


def _interleaved(sequences, order):
    """Merge per-credential ballot sequences, taking the next one of ``order[i]`` each step."""
    taken = [0] * len(sequences)
    ledger = []
    for credential in order:
        ledger.append(sequences[credential][taken[credential]])
        taken[credential] += 1
    return ledger


@st.composite
def ledgers(draw):
    """Several credentials, 1–5 ballots each, any of them forged, interleaved;
    plus one credential all of whose ballots are forged."""
    sequences = []
    for credential in range(draw(st.integers(1, NUM_CREDENTIALS))):
        forged = draw(st.lists(st.booleans(), min_size=1, max_size=MAX_BALLOTS))
        sequences.append([POOL[credential][position][bad] for position, bad in enumerate(forged)])
    sequences.append([forged for _, forged in POOL[-1][: draw(st.integers(1, MAX_BALLOTS))]])
    labels = [credential for credential, sequence in enumerate(sequences) for _ in sequence]
    return _interleaved(sequences, draw(st.permutations(labels)))


def _valid_ballots(ledger, executor=None, page_size=1024, pipeline=None):
    board = MemoryBackend()
    board.append_many([ballot.to_record() for ballot in ledger])
    return TallyPipeline(
        GROUP, AUTHORITY, pipeline=pipeline, read_page_size=page_size
    )._valid_ballots(board, ELECTION_ID, executor=executor)


class _Counted:
    """``repro.tally.pipeline.verify_signatures``, recording each call's item count."""

    def __init__(self):
        self.calls = []
        self._verify = tally_pipeline.verify_signatures

    def __call__(self, items, executor=None):
        self.calls.append(len(items))
        return self._verify(items, executor=executor)


def _counted(ledger, **options):
    counter = _Counted()
    with mock.patch.object(tally_pipeline, "verify_signatures", counter):
        valid = _valid_ballots(ledger, **options)
    return valid, counter.calls


@pytest.fixture(scope="module")
def backends(cluster_executor):
    return {"serial": SerialExecutor(), "cluster": cluster_executor}


# ------------------------------------------------------------------ equivalence


@pytest.mark.parametrize("backend", ["serial", "cluster"])
@EXAMPLES
@given(
    ledger=ledgers(),
    page_size=st.sampled_from([1, 3, 1024]),
    pipeline=st.sampled_from([None, PipelineSpec(streaming=True, queue_depth=2)]),
)
def test_counted_ballots_equal_last_write_wins_over_the_valid_ones(backends, backend, ledger, page_size, pipeline):
    valid, calls = _counted(ledger, executor=backends[backend], page_size=page_size, pipeline=pipeline)
    assert valid == _reference(ledger)
    assert len(calls) <= 2 and sum(calls) <= len(ledger)


#: Which of a credential's four ballots carry a forged signature.
FORGERY_PATTERNS = {
    "none": (),
    "oldest": (0,),
    "middle": (1,),
    "newest": (3,),
    "oldest-and-newest": (0, 3),
    "all-but-one-middle": (0, 2, 3),
    "all": (0, 1, 2, 3),
}


@pytest.mark.parametrize("pattern", sorted(FORGERY_PATTERNS))
def test_a_forgery_at_any_position_gives_the_reference_list(pattern):
    """A forged oldest ballot moves the credential to its oldest *valid*
    ballot's place: checking only newest ballots would reorder the list."""
    victim = [pair[index in FORGERY_PATTERNS[pattern]] for index, pair in enumerate(POOL[0][:4])]
    honest = [genuine for genuine, _ in POOL[1][:2]]
    # victim, honest, victim, victim, honest, victim: the honest credential
    # sits between the victim's oldest and every later ballot.
    ledger = _interleaved([victim, honest], [0, 1, 0, 0, 1, 0])
    valid, calls = _counted(ledger)
    assert valid == _reference(ledger)
    assert calls[0] == 4  # round 1: both ends of both credentials
    checks_the_middle = bool({0, 3} & set(FORGERY_PATTERNS[pattern]))
    assert calls[1:] == ([2] if checks_the_middle else [])


# ------------------------------------------------------------------ counts


@pytest.mark.parametrize("revotes", [2, 3, 5])
def test_revoting_credentials_verify_two_signatures_each(revotes):
    sequences = [[genuine for genuine, _ in POOL[c][:revotes]] for c in range(NUM_CREDENTIALS)]
    order = [c for _ in range(revotes) for c in range(NUM_CREDENTIALS)]
    random.Random(revotes).shuffle(order)
    ledger = _interleaved(sequences, order)
    valid, calls = _counted(ledger, page_size=4)
    assert calls == [2 * NUM_CREDENTIALS]
    assert valid == _reference(ledger)
    assert {record.signature for record in valid} == {sequence[-1].signature for sequence in sequences}


def test_one_ballot_per_credential_is_one_call_over_every_ballot():
    ledger = [POOL[c][0][0] for c in range(NUM_CREDENTIALS)]
    valid, calls = _counted(ledger, page_size=2)
    assert calls == [NUM_CREDENTIALS]
    assert valid == [ballot.to_record() for ballot in ledger]


def test_an_empty_ledger_verifies_nothing():
    assert _counted([]) == ([], [])
