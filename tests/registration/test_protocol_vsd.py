"""End-to-end registration sessions, activation checks and the VSD."""

import pytest

from repro.crypto.hashing import sha256
from repro.election import ElectionConfig, VotegralElection
from repro.errors import VerificationError
from repro.ledger.log import AppendOnlyLog
from repro.registration.materials import CredentialState, EnvelopeSymbol
from repro.registration.protocol import RegistrationSession, run_registration
from repro.registration.voter import Voter
from repro.registration.vsd import VoterSupportingDevice
from repro.ledger.records import RegistrationRecord, RollEntry


class TestRegistrationWorkflow:
    def test_single_voter_full_workflow(self, small_setup):
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=2))
        assert outcome.all_activated
        assert outcome.real_activated
        assert len(outcome.voter.credentials) == 3
        assert small_setup.board.get(RegistrationRecord, "alice") is not None

    def test_voter_observes_sound_order_only_for_real(self, small_setup):
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=2))
        assert outcome.voter.real_credential().observed_sound_order is True
        assert all(c.observed_sound_order is False for c in outcome.voter.fake_credentials())

    def test_zero_fake_credentials(self, small_setup):
        outcome = run_registration(small_setup, Voter("bob", num_fake_credentials=0))
        assert outcome.real_activated
        assert outcome.voter.fake_credentials() == []

    def test_session_reuse_across_voters(self, small_setup, traced_spans):
        session = RegistrationSession(setup=small_setup)
        first = session.register(Voter("alice", num_fake_credentials=1))
        after_first = len(traced_spans())
        second = session.register(Voter("bob", num_fake_credentials=1))
        assert first.real_activated and second.real_activated
        # A reused session traces each voter alike: nothing accumulates across voters.
        assert len(traced_spans()) == 2 * after_first

    def test_a_booth_without_the_printed_symbol_is_restocked_with_it(self, small_setup, monkeypatch):
        """The kiosk prints a star; the booth holds circles only.  One star
        envelope is brought in, so the voter's pick cannot miss."""
        printer = small_setup.envelope_printers[0]
        circles = printer.print_envelopes(25, symbols=[EnvelopeSymbol.CIRCLE] * 25)
        session = RegistrationSession(setup=small_setup, booth_envelopes=list(circles))
        monkeypatch.setattr(EnvelopeSymbol, "random", classmethod(lambda cls: EnvelopeSymbol.STAR))
        outcome = session.register(Voter("alice", num_fake_credentials=1))
        assert outcome.real_activated
        assert outcome.voter.real_credential().envelope.symbol is EnvelopeSymbol.STAR
        # 25 circles + the one star, less the real and the fake credential's envelopes.
        assert len(session.booth_envelopes) == 24
        assert all(envelope.symbol is EnvelopeSymbol.CIRCLE for envelope in session.booth_envelopes)

    def test_outcome_carries_the_ledgers_sequence_number(self, small_setup):
        session = RegistrationSession(setup=small_setup)
        seqs = [session.register(Voter(voter_id)).ledger_seq for voter_id in ("carol", "alice")]
        assert seqs == [0, 1]

    def test_the_trace_covers_all_phases(self, small_setup, traced_spans):
        run_registration(small_setup, Voter("carol", num_fake_credentials=1))
        phases = [span["attrs"]["phase"] for span in traced_spans() if span["name"] == "registration.phase"]
        assert phases == [
            "CheckIn", "Authorization", "RealToken", "RealToken", "FakeToken", "CheckOut", "Activation", "Activation",
        ]

    def test_every_scan_and_print_sits_in_a_phase(self, small_setup, traced_spans):
        """Ten codes are scanned (ticket, two envelopes, check-out, three per activation) and
        four jobs printed (ticket, commit, check-out + response, the fake receipt)."""
        run_registration(small_setup, Voter("alice", num_fake_credentials=1))
        spans = traced_spans()
        phases = {span["span_id"] for span in spans if span["name"] == "registration.phase"}
        scans = [span for span in spans if span["name"] == "registration.scan"]
        prints = [span for span in spans if span["name"] == "registration.print"]
        assert len(scans) == 10 and len(prints) == 4
        assert all(span["parent_id"] in phases for span in scans + prints)
        assert all(span["attrs"]["wire_bytes"] > 0 for span in scans)
        assert [span["attrs"]["qr_codes"] for span in prints] == [0, 1, 2, 3]

    def test_credentials_in_transport_state_after_booth(self, small_setup):
        session = RegistrationSession(setup=small_setup)
        voter = Voter("alice", num_fake_credentials=1)
        session.register(voter, activate=False)
        assert all(c.state is CredentialState.TRANSPORT for c in voter.credentials)

    def test_registration_notification_sent(self, small_setup):
        outcome = run_registration(small_setup, Voter("alice"))
        assert outcome.vsd.registration_notifications


class TestRegistrationAlarm:
    """Appendix J's impersonation defence: a device that watches the ledger
    learns of every registration event in its voter's name."""

    BOARDS = ("memory", "sqlite::memory:", "batched:2:memory")

    @staticmethod
    def _election(board_spec):
        election = VotegralElection(
            ElectionConfig(num_voters=2, num_mixers=1, proof_rounds=1, board_spec=board_spec)
        )
        election.run_setup()
        return election

    @pytest.mark.parametrize("board_spec", BOARDS)
    def test_a_second_registration_in_the_voters_name_rings(self, board_spec):
        with self._election(board_spec) as election:
            device = election.register_voter("voter-0000").vsd
            assert len(device.registration_notifications) == 1
            assert not device.has_unexpected_registration

            election.register_voter("voter-0001")  # a stranger registers: silence
            assert len(device.registration_notifications) == 1
            assert not device.has_unexpected_registration

            impostor = election.register_voter("voter-0000").vsd
            election.setup.board.flush()
            assert len(device.registration_notifications) == 2
            assert device.has_unexpected_registration
            # The impostor's own device took part in the one event it has seen.
            assert not impostor.has_unexpected_registration

    @pytest.mark.parametrize("board_spec", BOARDS)
    def test_the_registration_chain_is_the_roll_then_each_record_in_order(self, board_spec):
        """Observers run after the record is visible; the chain is unmoved."""
        with self._election(board_spec) as election:
            for voter_id in ("voter-0000", "voter-0001", "voter-0000"):
                election.register_voter(voter_id)
            board = election.setup.board
            board.flush()
            records = board.history(RegistrationRecord, "voter-0000")
            records.insert(1, board.get(RegistrationRecord, "voter-0001"))
            expected = AppendOnlyLog("L_R")
            for voter_id in [entry.voter_id for entry in board.read(RollEntry).records]:
                expected.append(sha256(b"eligible-voter", voter_id.encode()))
            for record in records:
                expected.append(record.payload())
            assert board.registration_log.head() == expected.head()
            assert board.verify_all_chains()


class TestActivationChecks:
    def _fresh_vsd(self, setup, voter_id):
        return VoterSupportingDevice(
            group=setup.group,
            board=setup.board,
            voter_id=voter_id,
            kiosk_public_keys=setup.registrar.kiosk_public_keys,
            authority_public_key=setup.authority_public_key,
        )

    def test_fake_credential_activates_like_real(self, small_setup):
        """By design: a fake credential passes every activation check."""
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=1))
        reports = outcome.activation_reports
        assert all(report.success for report in reports)
        kinds = {report.credential.is_real for report in reports}
        assert kinds == {True, False}

    def test_activation_against_missing_ledger_record_fails(self, small_setup):
        session = RegistrationSession(setup=small_setup)
        voter = Voter("alice", num_fake_credentials=0)
        # Skip check-out: register manually without posting the record.
        ticket = session.official.check_in(voter.voter_id)
        kiosk_session = session.kiosk.authorize(ticket)
        session.kiosk.begin_real_credential(kiosk_session)
        envelope = session.pick_envelope_with(kiosk_session.pending_symbol)
        receipt = session.kiosk.complete_real_credential(kiosk_session, envelope)
        credential = voter.assemble_credential(receipt, envelope, is_real=True, observed_sound_order=True)
        vsd = self._fresh_vsd(small_setup, "alice")
        report = vsd.activate(credential)
        assert not report.success
        assert "registration record" in report.failed_check

    def test_duplicate_challenge_detected_at_activation(self, small_setup):
        """Envelope stuffing: two voters' credentials built on the same challenge —
        the second activation trips the duplicate check (Appendix F.3.5)."""
        from repro.registration.materials import EnvelopeSymbol

        printer = small_setup.envelope_printers[0]
        stuffed = printer.print_duplicate_envelopes(
            len(list(EnvelopeSymbol)), symbols=list(EnvelopeSymbol)
        )

        session = RegistrationSession(setup=small_setup)
        reports = []
        for voter_id in ("alice", "bob"):
            voter = Voter(voter_id, num_fake_credentials=0)
            ticket = session.official.check_in(voter_id)
            kiosk_session = session.kiosk.authorize(ticket)
            session.kiosk.begin_real_credential(kiosk_session)
            envelope = next(e for e in stuffed if e.symbol == kiosk_session.pending_symbol)
            receipt = session.kiosk.complete_real_credential(kiosk_session, envelope)
            credential = voter.assemble_credential(receipt, envelope, is_real=True, observed_sound_order=True)
            session.official.check_out_ticket(kiosk_session.check_out_ticket)
            reports.append(self._fresh_vsd(small_setup, voter_id).activate(credential))

        assert reports[0].success
        assert not reports[1].success
        assert "already used" in reports[1].failed_check

    def test_activation_with_wrong_voter_identity_fails(self, small_setup):
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=0), activate=True)
        # Bob's device must refuse Alice's credential.
        vsd = self._fresh_vsd(small_setup, "bob")
        credential = outcome.voter.real_credential()
        credential.state = CredentialState.TRANSPORT
        report = vsd.activate(credential)
        assert not report.success

    def test_activate_or_raise(self, small_setup):
        session = RegistrationSession(setup=small_setup)
        voter = Voter("alice", num_fake_credentials=0)
        session.register(voter, activate=False)
        vsd = self._fresh_vsd(small_setup, "alice")
        activated = vsd.activate_or_raise(voter.real_credential())
        assert activated.is_real
        # Re-activating the same credential reuses the challenge and must fail.
        voter.real_credential().state = CredentialState.TRANSPORT
        with pytest.raises(VerificationError):
            vsd.activate_or_raise(voter.real_credential())

    def test_real_credentials_listed(self, small_setup):
        session = RegistrationSession(setup=small_setup)
        voter = Voter("alice", num_fake_credentials=1)
        outcome = session.register(voter)
        assert len(outcome.vsd.real_credentials()) == 1


class TestVoterBehavior:
    def test_pick_envelope_respects_symbol(self, small_setup):
        from repro.registration.materials import EnvelopeSymbol

        symbol = small_setup.envelope_supply[0].symbol
        envelope = Voter.pick_envelope(small_setup.envelope_supply, symbol=symbol)
        assert envelope.symbol == symbol

    def test_surrender_keeps_real_credential_secret(self, small_setup):
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=2))
        voter = outcome.voter
        surrendered = voter.surrender_credentials_to_coercer()
        assert len(surrendered) == 2
        assert all(view.is_real for view in surrendered)  # all *claimed* real
        real_fingerprint = voter.real_credential().receipt.response_code.credential_secret
        assert all(
            view.receipt.response_code.credential_secret != real_fingerprint for view in surrendered
        )

    def test_check_out_credential_choice_is_any(self, small_setup):
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=3))
        chosen = outcome.voter.credential_for_check_out()
        assert chosen in outcome.voter.credentials
