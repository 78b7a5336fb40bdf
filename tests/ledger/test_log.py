"""The hash-chained append-only log."""

import pytest

from repro.errors import LedgerError
from repro.ledger.log import AppendOnlyLog, LogEntry


class TestAppend:
    def test_entries_are_sequenced(self):
        log = AppendOnlyLog()
        first = log.append(b"a")
        second = log.append(b"b")
        assert (first.index, second.index) == (0, 1)
        assert len(log) == 2

    def test_chain_links_previous_hash(self):
        log = AppendOnlyLog()
        first = log.append(b"a")
        second = log.append(b"b")
        assert second.previous_hash == first.entry_hash

    def test_entry_lookup(self):
        log = AppendOnlyLog()
        entry = log.append(b"payload")
        assert log.entry(0) == entry
        with pytest.raises(LedgerError):
            log.entry(5)

    def test_iteration_order(self):
        log = AppendOnlyLog()
        payloads = [b"a", b"b", b"c"]
        for payload in payloads:
            log.append(payload)
        assert [entry.payload for entry in log] == payloads


class TestChainVerification:
    def test_honest_chain_verifies(self):
        log = AppendOnlyLog()
        for index in range(10):
            log.append(bytes([index]))
        assert log.verify_chain()

    def test_tampered_payload_detected(self):
        log = AppendOnlyLog()
        log.append(b"a")
        log.append(b"b")
        original = log.entry(0)
        log._entries[0] = LogEntry(0, b"tampered", original.previous_hash, original.entry_hash)
        assert not log.verify_chain()

    def test_reordered_entries_detected(self):
        log = AppendOnlyLog()
        log.append(b"a")
        log.append(b"b")
        log._entries.reverse()
        assert not log.verify_chain()

    def test_empty_log_verifies(self):
        assert AppendOnlyLog().verify_chain()


class TestHeadsAndProofs:
    def test_head_tracks_size_and_hash(self):
        log = AppendOnlyLog()
        empty_head = log.head()
        assert empty_head.size == 0
        entry = log.append(b"a")
        head = log.head()
        assert head.size == 1
        assert head.head_hash == entry.entry_hash

    def test_inclusion_proof_verifies(self):
        log = AppendOnlyLog()
        for index in range(6):
            log.append(bytes([index]))
        proof = log.inclusion_proof(2)
        assert AppendOnlyLog.verify_inclusion(proof)

    def test_inclusion_proof_under_old_head(self):
        log = AppendOnlyLog()
        for index in range(3):
            log.append(bytes([index]))
        old_head = log.head()
        log.append(b"later")
        proof = log.inclusion_proof(1, head=old_head)
        assert AppendOnlyLog.verify_inclusion(proof)

    def test_inclusion_of_entry_newer_than_head_rejected(self):
        log = AppendOnlyLog()
        log.append(b"a")
        old_head = log.head()
        log.append(b"b")
        with pytest.raises(LedgerError):
            log.inclusion_proof(1, head=old_head)

    def test_forged_inclusion_proof_rejected(self):
        log = AppendOnlyLog()
        for index in range(4):
            log.append(bytes([index]))
        proof = log.inclusion_proof(1)
        forged_entry = LogEntry(1, b"forged", proof.entry.previous_hash, proof.entry.entry_hash)
        from dataclasses import replace

        assert not AppendOnlyLog.verify_inclusion(replace(proof, entry=forged_entry))

    def test_consistency_between_heads(self):
        log = AppendOnlyLog()
        log.append(b"a")
        older = log.head()
        log.append(b"b")
        log.append(b"c")
        newer = log.head()
        intermediate = log.entries()[1:]
        assert AppendOnlyLog.verify_consistency(older, newer, intermediate)

    def test_inconsistent_heads_detected(self):
        log = AppendOnlyLog()
        log.append(b"a")
        older = log.head()
        other = AppendOnlyLog()
        other.append(b"x")
        other.append(b"y")
        newer = other.head()
        assert not AppendOnlyLog.verify_consistency(older, newer, other.entries()[1:])
