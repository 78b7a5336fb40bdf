"""The cluster wire protocol: length-prefixed, versioned, typed frames.

Everything that crosses a machine boundary in :mod:`repro.cluster` is one
:class:`Frame` — a typed header plus a codec-encoded payload — sent over a
plain TCP socket.  The format is deliberately tiny:

    ``!4sBBI`` header: magic ``b"RPCL"``, protocol version, frame kind,
    payload length — followed by exactly that many payload bytes.

* **Typed frames.**  :class:`FrameKind` enumerates the whole vocabulary:
  ``CHALLENGE``/``HELLO``/``WELCOME`` for enrollment, ``TASK``/``RESULT``/
  ``ERROR`` for work, ``HEARTBEAT`` for liveness, ``SHUTDOWN`` for orderly
  exit.  An unknown kind byte is a protocol error, not a dispatch miss.
* **Version negotiation.**  Every header carries :data:`PROTOCOL_VERSION`;
  :func:`recv_frame` rejects mismatched frames immediately, and the
  enrollment handshake additionally exchanges versions in the payload so
  the *reject message* can name both sides' versions instead of dying on a
  framing error mid-stream.
* **Codec seam.**  Payload encoding is pluggable through :class:`Codec`;
  the default :class:`PickleCodec` is what lets arbitrary picklable work
  functions, group elements and ledger records travel.  Pickle over a
  socket is remote code execution by design — see :func:`hello_mac` and
  the README's security caveats: the enrollment MAC authenticates *who may
  speak*, it does not make the payloads themselves safe against a
  malicious peer.  Deployments that need a constrained vocabulary can
  install a different codec on both sides.
* **Signed hello.**  In the spirit of attested-runtime enrollment (WaTZ),
  a worker proves knowledge of the shared cluster secret by MACing the
  coordinator's challenge nonce together with its announced identity and
  protocol version (:func:`hello_mac`, HMAC-SHA256 via
  :mod:`repro.crypto.mac`).  No TEE, no key exchange — just enough that a
  stray process cannot enroll into a secret-bearing cluster by accident.
"""

from __future__ import annotations

import enum
import pickle
import socket
import struct
from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.mac import mac_sign, mac_verify
from repro.errors import ClusterError
from repro.spec import parse_host_port

#: Bump on any incompatible change to the frame format or handshake.
PROTOCOL_VERSION = 1

#: Frame magic: rejects cross-talk from non-cluster peers at the first read.
MAGIC = b"RPCL"

_HEADER = struct.Struct("!4sBBI")

#: Refuse to allocate unbounded buffers for a corrupt/hostile length field.
MAX_FRAME_BYTES = 512 * 1024 * 1024


class FrameKind(enum.IntEnum):
    """The complete frame vocabulary of protocol version 1."""

    CHALLENGE = 1  # coordinator → worker: enrollment nonce + version
    HELLO = 2      # worker → coordinator: identity, slots, nonce, MACed challenge
    WELCOME = 3    # coordinator → worker: enrollment accepted (+ MACed worker nonce)
    TASK = 4       # coordinator → worker: one work item (see TASK_TRACE_INDEX)
    RESULT = 5     # worker → coordinator: a task's return value
    ERROR = 6      # either direction: a task failure or a handshake reject
    HEARTBEAT = 7  # worker → coordinator: liveness (also the ready signal)
    SHUTDOWN = 8   # coordinator → worker: drain and exit
    WARM = 9       # coordinator → worker: post-auth precompute warm work


#: A ``TASK`` payload is ``(key, mode, fn, data)`` with one optional trailing
#: element at this index: the dispatching call's W3C-style traceparent string
#: (:func:`repro.telemetry.format_traceparent`).  Workers must accept both
#: lengths — the field is additive within protocol version 1, and a tracing
#: coordinator interoperates with workers that ignore it.
TASK_TRACE_INDEX = 4


@dataclass(frozen=True)
class Frame:
    """One protocol message: a typed kind plus its codec-decoded payload."""

    kind: FrameKind
    payload: Any = None


class ConnectionClosed(ClusterError):
    """The peer closed the connection (EOF mid-header or mid-payload)."""


class Codec:
    """The payload (de)serialization seam.

    Subclasses override :meth:`encode`/:meth:`decode`; both sides of a
    connection must agree on the codec (the protocol does not negotiate it —
    a codec mismatch surfaces as a decode error, caught and reported as a
    :class:`~repro.errors.ClusterError`).
    """

    name = "abstract"

    def encode(self, payload: Any) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes) -> Any:
        raise NotImplementedError


class PickleCodec(Codec):
    """The default codec: pickle at the highest shared protocol.

    Pickle is what makes arbitrary (module-level) work functions and crypto
    objects transportable; it is also why the enrollment handshake exists.
    Never point a coordinator at an untrusted network without the shared
    secret, and never run a worker against an untrusted coordinator.
    """

    name = "pickle"

    def encode(self, payload: Any) -> bytes:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, data: bytes) -> Any:
        return pickle.loads(data)


#: The codec used when callers do not supply one.
PICKLE_CODEC = PickleCodec()


class _RestrictedUnpickler(pickle.Unpickler):
    """Refuses every global: only primitive containers can decode."""

    def find_class(self, module: str, name: str) -> Any:  # noqa: ARG002 - signature fixed by pickle
        raise pickle.UnpicklingError(
            f"handshake frames may not reference globals ({module}.{name})"
        )


class HandshakeCodec(PickleCodec):
    """Pickle limited to primitives, for *pre-authentication* frames.

    CHALLENGE and HELLO payloads are plain dicts of bytes/str/int/bool, so
    they decode without ``find_class`` — but a hostile peer could send a
    pickle whose deserialization itself executes code, *before* the MAC is
    ever checked.  Decoding the handshake with a globals-free unpickler
    closes that hole: the signed hello then genuinely gates everything the
    full codec is willing to execute.  (Encoding is unchanged — honest
    handshake payloads are primitives either way.)
    """

    name = "handshake"

    def decode(self, data: bytes) -> Any:
        import io

        return _RestrictedUnpickler(io.BytesIO(data)).load()


#: The pre-authentication codec both handshake sides decode with.
HANDSHAKE_CODEC = HandshakeCodec()


def handshake_codec(codec: Codec) -> Codec:
    """The codec to *decode* pre-auth frames with, given the session codec.

    Pickle sessions harden to :data:`HANDSHAKE_CODEC`; a custom codec is
    trusted to define its own safety story and is used as-is.
    """
    return HANDSHAKE_CODEC if isinstance(codec, PickleCodec) else codec


def send_frame(sock: socket.socket, frame: Frame, codec: Codec = PICKLE_CODEC) -> None:
    """Serialize and send one frame; raises :class:`ClusterError` on failure."""
    try:
        body = codec.encode(frame.payload)
    except Exception as exc:
        raise ClusterError(f"cannot encode {frame.kind.name} payload: {exc!r}") from exc
    if len(body) > MAX_FRAME_BYTES:
        raise ClusterError(
            f"{frame.kind.name} payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(frame.kind), len(body))
    sock.sendall(header + body)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, codec: Codec = PICKLE_CODEC) -> Frame:
    """Read exactly one frame; validates magic, version, kind and length."""
    header = _recv_exact(sock, _HEADER.size)
    magic, version, kind_byte, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ClusterError(f"bad frame magic {magic!r} (not a repro.cluster peer?)")
    if version != PROTOCOL_VERSION:
        raise ClusterError(
            f"peer speaks cluster protocol v{version}, this build speaks v{PROTOCOL_VERSION}"
        )
    if length > MAX_FRAME_BYTES:
        raise ClusterError(f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound")
    try:
        kind = FrameKind(kind_byte)
    except ValueError:
        raise ClusterError(f"unknown frame kind {kind_byte}") from None
    body = _recv_exact(sock, length)
    try:
        payload = codec.decode(body)
    except ConnectionClosed:
        raise
    except Exception as exc:
        raise ClusterError(f"cannot decode {kind.name} payload: {exc!r}") from exc
    return Frame(kind=kind, payload=payload)


def expect_frame(sock: socket.socket, kind: FrameKind, codec: Codec = PICKLE_CODEC) -> Frame:
    """Receive one frame and require it to be of ``kind``.

    An incoming ``ERROR`` frame is translated into a raised
    :class:`ClusterError` carrying the peer's message, so handshake rejects
    surface with their real reason instead of as an unexpected-kind error.
    """
    frame = recv_frame(sock, codec)
    if frame.kind is FrameKind.ERROR and kind is not FrameKind.ERROR:
        detail = frame.payload[1] if isinstance(frame.payload, tuple) else frame.payload
        raise ClusterError(f"peer reported an error during {kind.name.lower()}: {detail}")
    if frame.kind is not kind:
        raise ClusterError(f"expected a {kind.name} frame, received {frame.kind.name}")
    return frame


# ---------------------------------------------------------------------------
# The signed hello
# ---------------------------------------------------------------------------


def _hello_message(nonce: bytes, worker_id: str, slots: int) -> bytes:
    """The canonical byte string both sides MAC — one construction, no drift."""
    return b"|".join(
        [
            b"repro-cluster-hello",
            str(PROTOCOL_VERSION).encode(),
            nonce,
            worker_id.encode(),
            str(slots).encode(),
        ]
    )


def hello_mac(secret: bytes, nonce: bytes, worker_id: str, slots: int) -> bytes:
    """The worker's enrollment tag: HMAC over the challenge and its identity.

    Binding the announced ``worker_id``/``slots`` (not just the nonce) means
    a coordinator admitting the worker also authenticated what it claimed to
    be, and the fresh nonce makes every tag single-use — replaying a captured
    hello against a new connection fails its new challenge.
    """
    return mac_sign(secret, _hello_message(nonce, worker_id, slots))


def verify_hello(secret: bytes, nonce: bytes, worker_id: str, slots: int, tag: bytes) -> bool:
    """Constant-time check of a worker's enrollment tag."""
    return mac_verify(secret, _hello_message(nonce, worker_id, slots), tag)


def _welcome_message(worker_nonce: bytes, worker_id: str) -> bytes:
    return b"|".join(
        [
            b"repro-cluster-welcome",
            str(PROTOCOL_VERSION).encode(),
            worker_nonce,
            worker_id.encode(),
        ]
    )


def welcome_mac(secret: bytes, worker_nonce: bytes, worker_id: str) -> bytes:
    """The coordinator's half of mutual authentication.

    MACing the *worker's* fresh nonce (and the identity the coordinator is
    assigning) proves the coordinator knows the shared secret too, so a
    worker never accepts executable payloads — warm work, tasks — from a
    peer that merely squats on the right address.
    """
    return mac_sign(secret, _welcome_message(worker_nonce, worker_id))


def verify_welcome(secret: bytes, worker_nonce: bytes, worker_id: str, tag: bytes) -> bool:
    """Constant-time check of the coordinator's welcome tag."""
    return mac_verify(secret, _welcome_message(worker_nonce, worker_id), tag)


def parse_address(text: str) -> "tuple[str, int]":
    """Parse the worker CLI's ``host:port`` (the spec grammar's address form)."""
    try:
        return parse_host_port(text)
    except ValueError as exc:
        raise ClusterError(f"invalid cluster address: {exc}") from None


def format_address(address: "tuple[str, int]") -> str:
    return f"{address[0]}:{address[1]}"


def decode_secret(text: Optional[str]) -> Optional[bytes]:
    """Decode the ``REPRO_CLUSTER_SECRET`` environment form (hex) to key bytes.

    Returns ``None`` for unset/empty values — the unauthenticated mode used
    by loopback test clusters that generate and pass their own secret.
    """
    if not text:
        return None
    try:
        return bytes.fromhex(text)
    except ValueError:
        # Tolerate raw (non-hex) secrets so hand-run deployments can use any string.
        return text.encode()
