"""Seeded input generators owned by the benchmark.

Every choice and coin comes from the ``random.Random`` the caller seeded, so
one seed gives one set of inputs.  Crypto nonces stay on ``secrets`` inside
``repro``: they change ciphertext bytes, never a call count.

The synthetic election has the ``repro.bench.workloads.tally_workload``
shape, taken apart so that each part can be timed on its own: building the
election is set-up, registering the voters and casting their ballots are the
first two timed phases.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamal
from repro.crypto.group import Group
from repro.crypto.hashing import sha256
from repro.crypto.schnorr import SigningKeyPair, schnorr_keygen, schnorr_sign
from repro.ledger.api import board_from_spec
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import RegistrationRecord
from repro.runtime.precompute import warm_fixed_base
from repro.voting.ballot import make_ballot


@dataclasses.dataclass
class SyntheticElection:
    """An election with a roll and no voter yet, ready for the timed phases."""

    group: Group
    authority: DistributedKeyGeneration
    board: BulletinBoard
    voter_ids: List[str]
    kiosk: SigningKeyPair
    official: SigningKeyPair
    #: Seconds spent building the generator's and the authority key's tables.
    warm_seconds: float


def synthetic_election(
    group: Group, num_voters: int, num_authority_members: int, board_spec: str
) -> SyntheticElection:
    """Key generation, warmed fixed-base tables, an empty board with its roll."""
    authority = DistributedKeyGeneration.run(group, num_authority_members)
    warm_start = time.perf_counter()
    warm_fixed_base(group.generator)
    warm_fixed_base(authority.public_key)
    warm_seconds = time.perf_counter() - warm_start
    board = BulletinBoard(board_from_spec(board_spec, group=group))
    voter_ids = [f"voter-{index:06d}" for index in range(num_voters)]
    board.publish_electoral_roll(voter_ids)
    return SyntheticElection(
        group, authority, board, voter_ids, schnorr_keygen(group), schnorr_keygen(group), warm_seconds
    )


def register_voters(election: SyntheticElection) -> List[SigningKeyPair]:
    """One credential per voter, its encrypted tag signed and posted, then flushed.

    Registrations are synthesised directly: the kiosk hardware model cannot
    carry 2048-bit credentials, so only ``election_ed25519`` and the gateway
    workloads run the TRIP ceremony.
    """
    group, board = election.group, election.board
    elgamal = ElGamal(group)
    credentials = []
    for voter_id in election.voter_ids:
        credential = schnorr_keygen(group)
        tag = elgamal.encrypt(election.authority.public_key, credential.public)
        board.post_registration(
            RegistrationRecord(
                voter_id=voter_id,
                public_credential_c1=tag.c1,
                public_credential_c2=tag.c2,
                kiosk_public_key=election.kiosk.public,
                kiosk_signature=schnorr_sign(
                    election.kiosk, sha256(b"bench-checkout", voter_id.encode())
                ),
                official_public_key=election.official.public,
                official_signature=schnorr_sign(
                    election.official, sha256(b"bench-approval", voter_id.encode())
                ),
            )
        )
        credentials.append(credential)
    board.flush()
    return credentials


def cast_votes(
    election: SyntheticElection,
    credentials: Sequence[SigningKeyPair],
    num_options: int,
    rng: random.Random,
    forge_first_ballot: bool = False,
) -> Dict[int, int]:
    """One ballot per voter, posted and flushed; returns the counts they intend.

    ``forge_first_ballot`` signs voter 0's ballot over the wrong message: the
    tally must drop it, and the benchmark's own checks must then fail.
    """
    intended = {option: 0 for option in range(num_options)}
    for index, credential in enumerate(credentials):
        choice = rng.randrange(num_options)
        intended[choice] += 1
        record = make_ballot(
            election.group, election.authority.public_key, credential, choice, num_options
        ).to_record()
        if forge_first_ballot and index == 0:
            record = dataclasses.replace(record, signature=schnorr_sign(credential, b"forged"))
        election.board.post_ballot(record)
    election.board.flush()
    return intended


def ballot_wires(
    session, credentials: Sequence, count: int, rng: random.Random
) -> Tuple[List, Dict[int, int], float]:
    """``count`` distinct signed ballots in wire form, voters taking turns.

    Returns the wires, the counts the election must publish if they are cast
    in order (a voter's last ballot is the one that counts) and the seconds
    the wires took to build.
    """
    num_options = session.info.num_options
    last_choice: Dict[int, int] = {}
    wires = []
    start = time.perf_counter()
    for index in range(count):
        voter = index % len(credentials)
        choice = rng.randrange(num_options)
        last_choice[voter] = choice
        wires.append(session.make_ballot_wire(credentials[voter], choice))
    seconds = time.perf_counter() - start
    intended = {option: 0 for option in range(num_options)}
    for choice in last_choice.values():
        intended[choice] += 1
    return wires, intended, seconds
