"""Property-based tests on the ledger, the printed codes and tally invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.chaum_pedersen import ChaumPedersenCommit
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group import ElementEncoding
from repro.crypto.modp_group import testing_group
from repro.crypto.schnorr import SchnorrSignature, schnorr_keygen, schnorr_sign
from repro.ledger.log import AppendOnlyLog
from repro.registration.materials import (
    CheckInTicket,
    CheckOutTicket,
    CommitCode,
    Envelope,
    EnvelopeSymbol,
    MalformedCode,
    ResponseCode,
)
from repro.security.analysis import iv_adversary_success_bound
from repro.tally.decrypt import aggregate
from repro.tally.filter import deduplicate_ballots
from repro.tally.decrypt import DecryptedVote

GROUP = testing_group()
FAST = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestLedgerProperties:
    @FAST
    @given(payloads=st.lists(st.binary(min_size=0, max_size=64), min_size=0, max_size=30))
    def test_any_append_sequence_verifies(self, payloads):
        log = AppendOnlyLog()
        for payload in payloads:
            log.append(payload)
        assert log.verify_chain()
        assert len(log) == len(payloads)

    @FAST
    @given(
        payloads=st.lists(st.binary(min_size=0, max_size=32), min_size=1, max_size=20),
        data=st.data(),
    )
    def test_every_entry_has_valid_inclusion_proof(self, payloads, data):
        log = AppendOnlyLog()
        for payload in payloads:
            log.append(payload)
        index = data.draw(st.integers(min_value=0, max_value=len(payloads) - 1))
        assert AppendOnlyLog.verify_inclusion(log.inclusion_proof(index))


_SCALARS = st.integers(min_value=0, max_value=GROUP.order - 1)
_ELEMENTS = _SCALARS.map(GROUP.power)
_ENCODINGS = st.binary(max_size=20).map(lambda data: ElementEncoding(GROUP, data))
_SIGNATURES = st.builds(SchnorrSignature, _ENCODINGS, _SCALARS)
_CIPHERTEXTS = st.builds(ElGamalCiphertext, _ELEMENTS, _ELEMENTS)
_COMMITS = st.builds(ChaumPedersenCommit, _ENCODINGS, _ENCODINGS)
_CODES = st.one_of(
    st.builds(CheckInTicket, st.text(max_size=40), st.binary(max_size=40)),
    st.builds(Envelope, st.sampled_from(EnvelopeSymbol), _SCALARS, _ELEMENTS, _SIGNATURES),
    st.builds(CommitCode, st.text(max_size=40), _CIPHERTEXTS, _COMMITS, _SIGNATURES),
    st.builds(CheckOutTicket, st.text(max_size=40), _CIPHERTEXTS, _ELEMENTS, _SIGNATURES),
    st.builds(ResponseCode, _SCALARS, _SCALARS, _ELEMENTS, _SIGNATURES),
)


_CLASSES = [CheckInTicket, Envelope, CommitCode, CheckOutTicket, ResponseCode]


def _framed(fields) -> bytes:
    return b"".join(len(field).to_bytes(2, "big") + field for field in fields)


@st.composite
def _hostile_payloads(draw):
    """A printed code's payload with each field kept, re-drawn at its width, zero-padded or
    arbitrary, and sometimes a trailing byte or an extra empty field."""
    code = draw(_CODES)
    payload, fields = code.payload(GROUP), []
    while payload:
        length = int.from_bytes(payload[:2], "big")
        field, payload = payload[2 : 2 + length], payload[2 + length :]
        rewrite = draw(st.sampled_from(["keep", "keep", "keep", "redraw", "pad", "arbitrary"]))
        if rewrite == "redraw":
            field = draw(st.binary(min_size=len(field), max_size=len(field)))
        elif rewrite == "pad":
            field = b"\x00" + field
        elif rewrite == "arbitrary":
            field = draw(st.binary(max_size=24))
        fields.append(field)
    tail = draw(st.sampled_from([b"", b"", b"", b"\x00", b"\x00\x00"]))
    return type(code), _framed(fields) + tail


class TestPrintedCodeProperties:
    @FAST
    @given(code=_CODES)
    def test_reading_what_was_printed_gives_the_code_back(self, code):
        assert type(code).read(code.payload(GROUP), GROUP) == code

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hostile=st.one_of(_hostile_payloads(), st.tuples(st.sampled_from(_CLASSES), st.binary(max_size=80))))
    def test_every_scan_is_total_and_canonical(self, hostile):
        cls, payload = hostile
        try:
            code = cls.read(payload, GROUP)
        except MalformedCode:
            return
        assert code.payload(GROUP) == payload


class TestTallyInvariants:
    @FAST
    @given(choices=st.lists(st.integers(min_value=0, max_value=4), max_size=50))
    def test_aggregate_conserves_ballots(self, choices):
        votes = [DecryptedVote(choice) for choice in choices]
        counts = aggregate(votes, num_options=5)
        assert sum(counts.values()) == len(choices)
        assert set(counts) == set(range(5))

    @FAST
    @given(num_casts=st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=10))
    def test_deduplication_keeps_one_ballot_per_credential(self, num_casts):
        from repro.crypto.elgamal import ElGamal
        from repro.ledger.records import BallotRecord

        elgamal = ElGamal(GROUP)
        records = []
        for casts in num_casts:
            keypair = schnorr_keygen(GROUP)
            for _ in range(casts):
                ciphertext = elgamal.encrypt(GROUP.power(3), GROUP.power(1))
                records.append(
                    BallotRecord(
                        credential_public_key=keypair.public,
                        ciphertext_c1=ciphertext.c1,
                        ciphertext_c2=ciphertext.c2,
                        signature=schnorr_sign(keypair, b"b"),
                    )
                )
        assert len(deduplicate_ballots(records)) == len(num_casts)


class TestTheoremIVProperties:
    @FAST
    @given(
        num_envelopes=st.integers(min_value=2, max_value=60),
        max_credentials=st.integers(min_value=1, max_value=5),
    )
    def test_bound_is_a_probability(self, num_envelopes, max_credentials):
        from repro.security.analysis import uniform_credential_distribution

        bound = iv_adversary_success_bound(num_envelopes, uniform_credential_distribution(max_credentials))
        assert 0.0 <= bound <= 1.0

    @FAST
    @given(num_envelopes=st.integers(min_value=4, max_value=50))
    def test_more_fakes_never_helps_the_adversary(self, num_envelopes):
        lazy = iv_adversary_success_bound(num_envelopes, {1: 1.0})
        diligent = iv_adversary_success_bound(num_envelopes, {3: 1.0})
        assert diligent <= lazy + 1e-12
