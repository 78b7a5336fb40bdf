"""A board file written before the record kinds declared their rules still reopens.

``data/parent_board.sql`` is the SQL dump of a small seeded toy-group board
that the per-kind store wrote: a roll (one entry added after a
registration), a superseding registration, commitments and usages
interleaved on ``L_E``, and ballots under two election ids.  Reopening it
must rebuild the same three chain heads and the same reads; a file holding a
repeated commitment must be refused, naming the row.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest

from repro.crypto.modp_group import testing_group
from repro.errors import LedgerError
from repro.ledger.api import board_from_spec
from repro.ledger.records import BallotRecord, RegistrationRecord

DUMP = Path(__file__).parent / "data" / "parent_board.sql"

#: The chain heads the per-kind store computed for the dumped board.
HEADS = [
    ("registration", "301459a8846d142a62357add0a586651834acb1cb8084eb78ae7840fe579c7e0"),
    ("envelope", "1de3e61ceea6aa7d341e6862a2d68efd7abc2793f29255158c745df018b90581"),
    ("ballot", "54b255231cf2010cb9c59d8be2d2d7d6958e928ff3999f263a2b51255f429890"),
]

#: Payload hashes of what it read back: active registrations, alice's
#: history, and the ballots of elections A and B.
ACTIVE = ["f51d17144b575b67dacbfbde340011906975d45929e1e3fc4129d91ecce9a441",
          "689487c37741d3267a1009afcdd515809eddc89e2a8b39d6767ee293e9cb4feb"]
ALICE = ["879bbd86576c3a03943b37bd25a6fea5f5483268fc694a8f80ff783e91d0cb9d",
         "f51d17144b575b67dacbfbde340011906975d45929e1e3fc4129d91ecce9a441"]
BALLOTS = {
    "A": ["6b5d479971a75a091ce9d74914f1fad0149d686983106eaddb184e609a8e754a",
          "a5b88a6e420f30262b6331b9ea39225a439b554734173d7b97478fc334d6b7df",
          "e18b0bbc9d03bc906a3738dd46819819948c923abbbe68f3df947b6be472444d"],
    "B": ["862da594038e88a9909d3720a5a19e05b7b7f36f0c9445d7d5d200f80a5cf691",
          "f4d03c805d5874b38afb6d93cbca9200e6771a953179f24e67ec0778b2c24fde",
          "136d4dc10157e43667887b102918975d97360e5131a61182c07ea221c8d71a0a"],
}


def _load(path: Path, *statements: str) -> None:
    conn = sqlite3.connect(str(path))
    try:
        conn.executescript(DUMP.read_text())
        for statement in statements:
            conn.execute(statement)
        conn.commit()
    finally:
        conn.close()


def _payloads(records):
    return [record.payload().hex() for record in records]


def test_the_parent_board_reopens_with_its_heads_and_reads(tmp_path):
    path = tmp_path / "board.db"
    _load(path)
    store = board_from_spec(f"sqlite:{path}", group=testing_group())
    try:
        assert [(name, log.head().head_hash.hex()) for name, log in store.chain_logs()] == HEADS
        assert _payloads(store.current(RegistrationRecord)) == ACTIVE
        assert _payloads(store.history(RegistrationRecord, "alice")) == ALICE
        for election_id, expected in BALLOTS.items():
            assert _payloads(store.read(BallotRecord, key=election_id).records) == expected
        assert store.verify_all_chains()
    finally:
        store.close()


def test_a_repeated_commitment_row_is_refused_at_reopen_naming_its_row(tmp_path):
    path = tmp_path / "board.db"
    _load(
        path,
        "INSERT INTO envelope_commitments SELECT 19, 4, printer_public_key, challenge_hash, printer_signature"
        " FROM envelope_commitments WHERE seq = 0",
    )
    with pytest.raises(LedgerError, match="table envelope_commitments, commit_seq 19: "):
        board_from_spec(f"sqlite:{path}", group=testing_group())
