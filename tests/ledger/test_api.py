"""The ledger API: sequence numbers, cursors, views, spec parsing."""

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.modp_group import testing_group
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.errors import LedgerError
from repro.ledger.api import BoardView, DEFAULT_BATCH_SIZE, as_board_view, board_from_spec
from repro.ledger.backends.memory import MemoryBackend
from repro.ledger.backends.sqlite import SQLiteBackend
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import BallotRecord, RegistrationRecord


@pytest.fixture(scope="module")
def group():
    return testing_group()


@pytest.fixture(scope="module")
def keypair(group):
    return schnorr_keygen(group)


def make_ballot(group, keypair, index, election_id="default"):
    return BallotRecord(
        credential_public_key=group.power(index + 1),
        ciphertext_c1=group.power(index + 2),
        ciphertext_c2=group.power(index + 3),
        signature=schnorr_sign(keypair, sha256(b"ballot", index.to_bytes(4, "big"))),
        election_id=election_id,
    )


def make_registration(group, keypair, voter_id):
    signature = schnorr_sign(keypair, sha256(b"reg", voter_id.encode()))
    return RegistrationRecord(
        voter_id=voter_id,
        public_credential_c1=group.power(2),
        public_credential_c2=group.power(3),
        kiosk_public_key=keypair.public,
        kiosk_signature=signature,
        official_public_key=keypair.public,
        official_signature=signature,
    )


class TestSequenceNumbers:
    def test_appends_return_monotonic_sequence(self, group, keypair):
        board = BulletinBoard()
        seqs = [board.append(make_ballot(group, keypair, i)) for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_registration_sequence_independent_of_ballots(self, group, keypair):
        board = BulletinBoard()
        board.publish_electoral_roll(["alice", "bob"])
        board.append(make_ballot(group, keypair, 0))
        assert board.append(make_registration(group, keypair, "alice")) == 0
        assert board.append(make_registration(group, keypair, "bob")) == 1


class TestCursorReads:
    @pytest.fixture()
    def board(self, group, keypair):
        board = BulletinBoard()
        for index in range(10):
            election = "odd" if index % 2 else "even"
            board.append(make_ballot(group, keypair, index, election_id=election))
        return board

    def test_unfiltered_pagination_covers_stream(self, board):
        collected = []
        cursor = 0
        pages = 0
        while True:
            page = board.read(BallotRecord, since=cursor, limit=3)
            collected.extend(page.records)
            cursor = page.next_cursor
            pages += 1
            if not page.has_more:
                break
        assert len(collected) == 10
        assert pages == 4
        assert collected == board.read(BallotRecord).records

    def test_filtered_pagination_matches_filtered_list(self, board):
        collected = []
        cursor = 0
        while True:
            page = board.read(BallotRecord, since=cursor, limit=2, key="odd")
            collected.extend(page.records)
            cursor = page.next_cursor
            if not page.has_more:
                break
        assert collected == board.read(BallotRecord, key="odd").records
        assert len(collected) == 5

    def test_exhausted_cursor_is_terminal(self, board):
        page = board.read(BallotRecord, since=0, limit=None)
        assert not page.has_more
        tail = board.read(BallotRecord, since=page.next_cursor)
        assert tail.records == [] and not tail.has_more

    def test_cursor_resumes_after_new_appends(self, board, group, keypair):
        page = board.read(BallotRecord)
        board.append(make_ballot(group, keypair, 99))
        fresh = board.read(BallotRecord, since=page.next_cursor)
        assert len(fresh.records) == 1
        assert fresh.records[0].credential_public_key == group.power(100)

    def test_negative_cursor_rejected(self, board):
        with pytest.raises(LedgerError):
            board.read(BallotRecord, since=-1)

    def test_zero_limit_makes_no_progress_and_skips_nothing(self, board):
        page = board.read(BallotRecord, since=0, limit=0, key="odd")
        assert page.records == [] and page.has_more
        assert page.next_cursor == 0  # resuming from here still sees everything
        resumed = board.read(BallotRecord, since=page.next_cursor, key="odd")
        assert resumed.records == board.read(BallotRecord, key="odd").records

    def test_unknown_election_reads_empty(self, board):
        page = board.read(BallotRecord, key="no-such-election")
        assert page.records == [] and not page.has_more


class TestBoardView:
    def test_view_is_read_only_surface(self, group, keypair):
        view = as_board_view(BulletinBoard())
        assert isinstance(view, BoardView)
        assert not hasattr(view, "post_ballot")
        assert not hasattr(view, "append_ballot")
        assert not hasattr(view, "append")

    def test_as_board_view_idempotent_and_polymorphic(self):
        backend = MemoryBackend()
        board = BulletinBoard(backend)
        view = as_board_view(board)
        assert as_board_view(view) is view
        assert isinstance(as_board_view(backend), BoardView)
        with pytest.raises(LedgerError):
            as_board_view(object())

    def test_view_reads_match_board(self, group, keypair):
        board = BulletinBoard()
        board.publish_electoral_roll(["alice"])
        board.append(make_registration(group, keypair, "alice"))
        board.append(make_ballot(group, keypair, 4))
        view = as_board_view(board)
        assert len(view.current(RegistrationRecord)) == 1
        assert view.count(BallotRecord) == 1
        assert view.current(RegistrationRecord) == board.current(RegistrationRecord)
        assert view.get(RegistrationRecord, "alice") is not None
        assert view.verify_all_chains()


class TestBoardFromSpec:
    def test_memory_spec(self):
        assert isinstance(board_from_spec("memory"), MemoryBackend)

    def test_sqlite_spec(self, group, tmp_path):
        backend = board_from_spec("sqlite", group=group)
        assert isinstance(backend, SQLiteBackend)
        path = tmp_path / "board.db"
        persistent = board_from_spec(f"sqlite:{path}", group=group)
        assert isinstance(persistent, SQLiteBackend)
        persistent.close()

    def test_batched_spec_with_size_and_inner(self, group):
        backend = board_from_spec("batched")
        assert type(backend) is MemoryBackend
        assert backend.batch_size == DEFAULT_BATCH_SIZE
        sized = board_from_spec("batched:32")
        assert sized.batch_size == 32
        layered = board_from_spec("batched:16:sqlite", group=group)
        assert isinstance(layered, SQLiteBackend)
        assert layered.batch_size == 16

    @pytest.mark.parametrize("spec", ["", "bogus", "memory:8", "batched:zero", "batched:8:batched:4"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(LedgerError):
            board_from_spec(spec)
