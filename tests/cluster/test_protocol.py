"""Wire-protocol unit tests: framing, negotiation, the signed hello."""

from __future__ import annotations

import os
import socket
import struct

import pytest

from repro.cluster.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    ConnectionClosed,
    Frame,
    FrameKind,
    decode_secret,
    expect_frame,
    format_address,
    hello_mac,
    parse_address,
    recv_frame,
    send_frame,
    verify_hello,
    verify_welcome,
    welcome_mac,
)
from repro.crypto.mac import mac_sign
from repro.errors import ClusterError


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    @pytest.mark.parametrize("kind", list(FrameKind))
    def test_every_kind_round_trips(self, pair, kind):
        left, right = pair
        payload = {"kind": kind.name, "data": [1, 2, 3], "blob": b"\x00\xff" * 7}
        send_frame(left, Frame(kind, payload))
        frame = recv_frame(right)
        assert frame.kind is kind
        assert frame.payload == payload

    def test_frames_preserve_order(self, pair):
        left, right = pair
        for index in range(5):
            send_frame(left, Frame(FrameKind.TASK, (index, "map", None, [])))
        for index in range(5):
            assert recv_frame(right).payload[0] == index

    def test_bad_magic_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("!4sBBI", b"HTTP", PROTOCOL_VERSION, 1, 0))
        with pytest.raises(ClusterError, match="magic"):
            recv_frame(right)

    def test_version_mismatch_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("!4sBBI", MAGIC, PROTOCOL_VERSION + 1, 1, 0))
        with pytest.raises(ClusterError, match="protocol v"):
            recv_frame(right)

    def test_unknown_kind_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("!4sBBI", MAGIC, PROTOCOL_VERSION, 200, 0))
        with pytest.raises(ClusterError, match="unknown frame kind"):
            recv_frame(right)

    def test_eof_mid_header_is_connection_closed(self, pair):
        left, right = pair
        left.sendall(MAGIC[:2])
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)

    def test_eof_mid_payload_is_connection_closed(self, pair):
        left, right = pair
        left.sendall(struct.pack("!4sBBI", MAGIC, PROTOCOL_VERSION, 1, 100) + b"partial")
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)

    def test_unencodable_payload_is_a_cluster_error(self, pair):
        left, _ = pair
        with pytest.raises(ClusterError, match="encode"):
            send_frame(left, Frame(FrameKind.TASK, lambda x: x))


class TestExpectFrame:
    def test_wrong_kind_rejected(self, pair):
        left, right = pair
        send_frame(left, Frame(FrameKind.HEARTBEAT))
        with pytest.raises(ClusterError, match="expected a TASK"):
            expect_frame(right, FrameKind.TASK)

    def test_error_frame_surfaces_peer_reason(self, pair):
        left, right = pair
        send_frame(left, Frame(FrameKind.ERROR, (None, "enrollment MAC verification failed")))
        with pytest.raises(ClusterError, match="MAC verification failed"):
            expect_frame(right, FrameKind.WELCOME)


class TestCodecSeam:
    def test_codec_mismatch_is_a_decode_error(self, pair):
        """A body that is not a pickle raises ClusterError, before and after authentication."""
        left, right = pair
        body = b'{"worker_id": "w1"}'
        frame = struct.pack("!4sBBI", MAGIC, PROTOCOL_VERSION, int(FrameKind.HELLO), len(body)) + body
        for pre_auth in (False, True):
            left.sendall(frame)
            with pytest.raises(ClusterError, match="decode"):
                recv_frame(right, pre_auth=pre_auth)


class TestSignedHello:
    SECRET = b"s" * 32
    NONCE = b"n" * 16

    def test_accepts_honest_tag(self):
        tag = hello_mac(self.SECRET, self.NONCE, "worker-1")
        assert verify_hello(self.SECRET, self.NONCE, "worker-1", tag)

    @pytest.mark.parametrize(
        "secret,nonce,worker",
        [
            (b"x" * 32, NONCE, "worker-1"),   # wrong secret
            (SECRET, b"m" * 16, "worker-1"),  # replayed against a new nonce
            (SECRET, NONCE, "worker-2"),      # renamed identity
        ],
    )
    def test_rejects_any_tampered_field(self, secret, nonce, worker):
        tag = hello_mac(self.SECRET, self.NONCE, "worker-1")
        assert not verify_hello(secret, nonce, worker, tag)

    def test_rejects_garbage_tag(self):
        assert not verify_hello(self.SECRET, self.NONCE, "worker-1", b"")
        assert not verify_hello(self.SECRET, self.NONCE, "worker-1", b"\x00" * 32)

    def test_rejects_a_v1_tag_over_a_slot_count(self):
        v1_message = b"|".join([b"repro-cluster-hello", b"1", self.NONCE, b"worker-1", b"1"])
        assert PROTOCOL_VERSION == 3
        assert not verify_hello(self.SECRET, self.NONCE, "worker-1", mac_sign(self.SECRET, v1_message))


class TestHandshakeCodec:
    """Pre-authentication frames must never execute code on decode."""

    def test_primitive_payloads_round_trip(self, pair):
        left, right = pair
        payload = {"nonce": b"n" * 16, "protocol_version": 1, "authenticated": True}
        send_frame(left, Frame(FrameKind.CHALLENGE, payload))  # honest pickle encode
        assert recv_frame(right, pre_auth=True).payload == payload

    def test_global_bearing_pickle_rejected(self, pair):
        left, right = pair
        # os.system would resolve via find_class on an unrestricted decode.
        send_frame(left, Frame(FrameKind.HELLO, os.system))
        with pytest.raises(ClusterError, match="decode"):
            recv_frame(right, pre_auth=True)

    def test_reduce_payload_rejected_before_execution(self, pair):
        left, right = pair
        import cluster_tasks

        class Evil:
            def __reduce__(self):
                return (cluster_tasks.trip_wire, ("pwned",))

        cluster_tasks.TRIPWIRE.clear()
        send_frame(left, Frame(FrameKind.HELLO, {"mac": Evil()}))
        with pytest.raises(ClusterError, match="decode"):
            recv_frame(right, pre_auth=True)
        assert cluster_tasks.TRIPWIRE == []  # the payload never executed

    def test_handshake_reject_surfaces_through_the_restricted_decode(self, pair):
        """A coordinator's reject is primitives, so a pre-auth reader still names its reason."""
        left, right = pair
        send_frame(left, Frame(FrameKind.ERROR, (None, "protocol version mismatch")))
        with pytest.raises(ClusterError, match="protocol version mismatch"):
            expect_frame(right, FrameKind.CHALLENGE, pre_auth=True)

    def test_expect_frame_decodes_pre_auth_frames_restricted(self, pair):
        left, right = pair
        send_frame(left, Frame(FrameKind.HELLO, os.system))
        with pytest.raises(ClusterError, match="decode"):
            expect_frame(right, FrameKind.HELLO, pre_auth=True)


class TestMutualWelcome:
    SECRET = b"s" * 32
    NONCE = b"w" * 16

    def test_accepts_honest_tag(self):
        tag = welcome_mac(self.SECRET, self.NONCE, "worker-1")
        assert verify_welcome(self.SECRET, self.NONCE, "worker-1", tag)

    @pytest.mark.parametrize(
        "secret,nonce,worker",
        [
            (b"x" * 32, NONCE, "worker-1"),  # impostor without the secret
            (SECRET, b"v" * 16, "worker-1"),  # replay against a fresh nonce
            (SECRET, NONCE, "worker-2"),      # reassigned identity
        ],
    )
    def test_rejects_tampered_fields(self, secret, nonce, worker):
        tag = welcome_mac(self.SECRET, self.NONCE, "worker-1")
        assert not verify_welcome(secret, nonce, worker, tag)


class TestAddressAndSecretParsing:
    def test_address_round_trip(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert format_address(("10.0.0.5", 51000)) == "10.0.0.5:51000"

    @pytest.mark.parametrize("text", ["localhost", ":80", "host:", "host:notaport", "host:99999"])
    def test_bad_addresses_rejected(self, text):
        with pytest.raises(ClusterError):
            parse_address(text)

    def test_secret_decoding(self):
        assert decode_secret(None) is None
        assert decode_secret("") is None
        assert decode_secret("00ff") == b"\x00\xff"
        # Hex only: one secret has one spelling.
        with pytest.raises(ClusterError, match="REPRO_CLUSTER_SECRET is not hex"):
            decode_secret("hunter2!")
