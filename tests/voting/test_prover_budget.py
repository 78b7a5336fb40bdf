"""A prover that knows the witness pays no variable-base power.

The voter encrypted the ballot, so every simulated OR-branch is a statement
about a ciphertext whose randomness the prover holds: its two commitments come
off the generator and the election key alone.  Two things pin that down, in
the style of ``tests/tally/test_one_pass_evidence.py``:

* the **budget** — with both tables warm, one ballot over ``n`` options takes
  exactly ``8 + 3·(n − 1)`` table powers and no plain one; with no table at
  all it takes the same ``8 + 3·(n − 1)`` powers (the parent took
  ``8 + 5·(n − 1)``) and still verifies;
* **the bytes** — with the draws seeded, the proof is what the simulator
  written with ``**`` on ``c1`` and ``c2 / g^option`` computes, draw for draw.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.ed25519 import ed25519_group
from repro.crypto.elgamal import ElGamal
from repro.crypto.group import Group
from repro.crypto.modp_group import modp_group_256, testing_group
from repro.crypto.schnorr import schnorr_keygen
from repro.runtime import precompute
from repro.voting.ballot import (
    BallotProof,
    _or_proof_challenge,
    audit_ballot,
    make_ballot,
    prove_wellformedness,
    wellformedness_ok,
)

GROUPS = [testing_group, modp_group_256, ed25519_group]
GROUP_IDS = ["toy", "modp256", "ed25519"]


@pytest.fixture
def ed25519_keys():
    """The curve, an election key and a credential; the table cache starts (and ends) empty."""
    precompute.clear_tables()
    group = ed25519_group()
    yield group, group.power(0x5EED), schnorr_keygen(group)
    precompute.clear_tables()


@pytest.mark.parametrize("num_options", [2, 3, 4])
def test_a_ballot_is_table_powers_only(ed25519_keys, powers, num_options):
    """Encrypt 3, honest branch 2, key proof 2, signature 1 — and 3 per simulated branch."""
    group, election_key, credential = ed25519_keys
    precompute.warm_fixed_base(group.generator)
    precompute.warm_fixed_base(election_key)
    powers.clear()

    ballot = make_ballot(group, election_key, credential, num_options - 1, num_options)

    assert powers["plain"] == 0 and powers["multiexp"] == 0
    assert powers["table"] == 8 + 3 * (num_options - 1)  # 11 / 14 / 17
    assert audit_ballot(group, election_key, ballot, num_options).ok


@pytest.mark.parametrize("num_options", [2, 3, 4])
def test_without_tables_a_ballot_takes_the_same_powers_plainly(ed25519_keys, powers, num_options):
    """Cold: nothing was warmed, nothing is built for A_pk, and no branch costs five powers again."""
    group, election_key, credential = ed25519_keys

    ballot = make_ballot(group, election_key, credential, 0, num_options)

    assert powers["plain"] + powers["table"] == 8 + 3 * (num_options - 1)
    assert not precompute.has_table(election_key)
    powers.clear()
    assert audit_ballot(group, election_key, ballot, num_options).ok


def _seeded_randomness(monkeypatch, seed: int) -> None:
    rng = random.Random(seed)
    monkeypatch.setattr(Group, "random_scalar", lambda self: rng.randrange(1, self.order))


def _reference_proof(group, public_key, ciphertext, choice, randomness, num_options) -> BallotProof:
    """The OR-proof as published before: every simulated branch raises ``c1`` and ``c2 / g^option``."""
    g, order = group.generator, group.order
    commitments_g, commitments_h = [None] * num_options, [None] * num_options
    challenges, responses = [None] * num_options, [None] * num_options
    for option in range(num_options):
        if option == choice:
            continue
        challenges[option], responses[option] = group.random_scalar(), group.random_scalar()
        target = ciphertext.c2 * (g ** option).inverse()
        commitments_g[option] = (g ** responses[option]) * (ciphertext.c1 ** challenges[option])
        commitments_h[option] = (public_key ** responses[option]) * (target ** challenges[option])
    nonce = group.random_scalar()
    commitments_g[choice], commitments_h[choice] = g ** nonce, public_key ** nonce
    total = _or_proof_challenge(group, ciphertext, public_key, commitments_g, commitments_h)
    challenges[choice] = (total - sum(c for o, c in enumerate(challenges) if o != choice)) % order
    responses[choice] = (nonce - challenges[choice] * randomness) % order
    return BallotProof(commitments_g, commitments_h, challenges, responses)


@pytest.mark.parametrize("group_factory", GROUPS, ids=GROUP_IDS)
@pytest.mark.parametrize("num_options", [2, 3, 4])
def test_seeded_proof_is_the_simulator_written_with_plain_powers(monkeypatch, group_factory, num_options):
    """Same draws in, same bytes out, for every choice."""
    group = group_factory()
    public_key = group.power(0xA117)
    for choice in range(num_options):
        randomness = 1 + 7919 * (choice + 1)
        ciphertext = ElGamal(group).encrypt_int(public_key, choice, randomness)
        _seeded_randomness(monkeypatch, 41 + choice)
        got = prove_wellformedness(group, public_key, ciphertext, choice, randomness, num_options)
        _seeded_randomness(monkeypatch, 41 + choice)
        expected = _reference_proof(group, public_key, ciphertext, choice, randomness, num_options)
        assert got == expected and got.to_bytes() == expected.to_bytes()
        assert wellformedness_ok(group, public_key, ciphertext, got, num_options)
