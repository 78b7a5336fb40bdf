"""The cluster wire protocol: length-prefixed, versioned, typed frames.

Everything that crosses a machine boundary in :mod:`repro.cluster` is one
:class:`Frame` — a typed header plus a pickled payload — sent over a plain
TCP socket.  The format is deliberately tiny:

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
* **One codec.**  Payloads are pickled (:func:`encode_payload`), which is
  what lets arbitrary picklable work functions, group elements and ledger
  records travel.  Pickle over a socket is remote code execution by
  design — see :func:`hello_mac` and the README's security caveats: the
  enrollment MAC authenticates *who may speak*, it does not make the
  payloads themselves safe against a malicious peer.  Frames read before
  mutual authentication (``pre_auth=True``) decode through an unpickler
  that refuses every global, so nothing an unauthenticated peer sends can
  execute code.
* **Signed hello.**  In the spirit of attested-runtime enrollment (WaTZ),
  a worker proves knowledge of the shared cluster secret by MACing the
  coordinator's challenge nonce together with its announced identity and
  protocol version (:func:`hello_mac`, HMAC-SHA256 via
  :mod:`repro.crypto.mac`).  No TEE, no key exchange — but every cluster
  holds a secret, so no peer that proves nothing is ever enrolled.
* **Fixed timings.**  The heartbeat interval and every timeout are the
  constants below, the same on both sides; nothing announces or tunes them.
"""

from __future__ import annotations

import enum
import io
import pickle
import socket
import struct
from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.mac import mac_sign, mac_verify
from repro.errors import ClusterError
from repro.spec import env, parse_host_port

#: Bump on any incompatible change to the frame format or handshake (2: the
#: HELLO names and MACs the worker's identity, no slot count; 3: every
#: enrollment is MACed and no frame announces a timing).
PROTOCOL_VERSION = 3

#: How often an enrolled worker heartbeats.
HEARTBEAT_INTERVAL = 2.0

#: How stale a worker's last frame may be before it is declared dead.
HEARTBEAT_TIMEOUT = 30.0

#: How long the enrollment handshake may take before the connection is dropped.
HANDSHAKE_TIMEOUT = 30.0

#: How long a worker waits to reach its coordinator.
CONNECT_TIMEOUT = 30.0

#: How long the first barrier waits for the worker floor to enroll.
ENROLL_TIMEOUT = 120.0

#: How long a cluster that lost every worker waits for one to re-enroll.
REJOIN_TIMEOUT = 10.0

#: Frame magic: rejects cross-talk from non-cluster peers at the first read.
MAGIC = b"RPCL"

_HEADER = struct.Struct("!4sBBI")

#: Refuse to allocate unbounded buffers for a corrupt/hostile length field.
MAX_FRAME_BYTES = 512 * 1024 * 1024


class FrameKind(enum.IntEnum):
    """The complete frame vocabulary of the protocol."""

    CHALLENGE = 1  # coordinator → worker: enrollment nonce + version
    HELLO = 2      # worker → coordinator: identity, nonce, MACed challenge
    WELCOME = 3    # coordinator → worker: enrollment accepted (+ MACed worker nonce)
    TASK = 4       # coordinator → worker: (key, mode, fn, data, traceparent or "")
    RESULT = 5     # worker → coordinator: a task's return value
    ERROR = 6      # either direction: a task failure or a handshake reject
    HEARTBEAT = 7  # worker → coordinator: liveness (also the ready signal)
    SHUTDOWN = 8   # coordinator → worker: drain and exit
    WARM = 9       # coordinator → worker: post-auth precompute warm work


@dataclass(frozen=True)
class Frame:
    """One protocol message: a typed kind plus its decoded payload."""

    kind: FrameKind
    payload: Any = None


class ConnectionClosed(ClusterError):
    """The peer closed the connection (EOF mid-header or mid-payload)."""


def encode_payload(payload: Any) -> bytes:
    """A frame body: pickle at the highest shared protocol.

    The enrollment MAC keeps out peers without the shared secret, not an
    attacker on the wire: run clusters on trusted networks only.
    """
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


class _RestrictedUnpickler(pickle.Unpickler):
    """Refuses every global: only primitive containers can decode."""

    def find_class(self, module: str, name: str) -> Any:  # noqa: ARG002 - signature fixed by pickle
        raise pickle.UnpicklingError(
            f"handshake frames may not reference globals ({module}.{name})"
        )


def decode_payload(data: bytes, pre_auth: bool = False) -> Any:
    """The payload a frame body encodes.

    CHALLENGE, HELLO and WELCOME payloads are plain dicts of
    bytes/str/int/bool, but a hostile peer could send a pickle whose
    deserialization itself executes code, *before* the MAC is ever checked.
    With ``pre_auth`` the body decodes without ``find_class``, so the signed
    hello genuinely gates everything the full unpickler is willing to
    execute.
    """
    if pre_auth:
        return _RestrictedUnpickler(io.BytesIO(data)).load()
    return pickle.loads(data)


def send_frame(sock: socket.socket, frame: Frame) -> None:
    """Serialize and send one frame; raises :class:`ClusterError` on failure."""
    try:
        body = encode_payload(frame.payload)
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


def recv_frame(sock: socket.socket, pre_auth: bool = False) -> Frame:
    """Read exactly one frame; validates magic, version, kind and length.

    ``pre_auth`` decodes the payload as :func:`decode_payload` does a frame
    read before mutual authentication.
    """
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
        payload = decode_payload(body, pre_auth)
    except ConnectionClosed:
        raise
    except Exception as exc:
        raise ClusterError(f"cannot decode {kind.name} payload: {exc!r}") from exc
    return Frame(kind=kind, payload=payload)


def expect_frame(sock: socket.socket, kind: FrameKind, pre_auth: bool = False) -> Frame:
    """Receive one frame and require it to be of ``kind``.

    An incoming ``ERROR`` frame is translated into a raised
    :class:`ClusterError` carrying the peer's message, so handshake rejects
    surface with their real reason instead of as an unexpected-kind error.
    """
    frame = recv_frame(sock, pre_auth)
    if frame.kind is FrameKind.ERROR and kind is not FrameKind.ERROR:
        detail = frame.payload[1] if isinstance(frame.payload, tuple) else frame.payload
        raise ClusterError(f"peer reported an error during {kind.name.lower()}: {detail}")
    if frame.kind is not kind:
        raise ClusterError(f"expected a {kind.name} frame, received {frame.kind.name}")
    return frame


# ---------------------------------------------------------------------------
# The signed hello
# ---------------------------------------------------------------------------


def _hello_message(nonce: bytes, worker_id: str) -> bytes:
    """The canonical byte string both sides MAC — one construction, no drift."""
    return b"|".join(
        [
            b"repro-cluster-hello",
            str(PROTOCOL_VERSION).encode(),
            nonce,
            worker_id.encode(),
        ]
    )


def hello_mac(secret: bytes, nonce: bytes, worker_id: str) -> bytes:
    """The worker's enrollment tag: HMAC over the challenge and its identity.

    Binding the announced ``worker_id`` (not just the nonce) means a
    coordinator admitting the worker also authenticated what it claimed to
    be, and the fresh nonce makes every tag single-use — replaying a captured
    hello against a new connection fails its new challenge.
    """
    return mac_sign(secret, _hello_message(nonce, worker_id))


def verify_hello(secret: bytes, nonce: bytes, worker_id: str, tag: bytes) -> bool:
    """Constant-time check of a worker's enrollment tag."""
    return mac_verify(secret, _hello_message(nonce, worker_id), tag)


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

    Returns ``None`` for an unset or empty value; anything else must be hex,
    so one secret has one spelling.
    """
    if not text:
        return None
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ClusterError("REPRO_CLUSTER_SECRET is not hex") from None


def secret_from_env() -> bytes:
    """The enrollment secret from ``REPRO_CLUSTER_SECRET``; :class:`ClusterError` when unset.

    A coordinator or worker without a secret would enroll a peer that
    proves nothing, so neither starts without one.
    """
    secret = decode_secret(env("REPRO_CLUSTER_SECRET"))
    if secret is None:
        raise ClusterError(
            "REPRO_CLUSTER_SECRET is unset: export the cluster's shared enrollment "
            "secret (hex) on the coordinator and on every worker"
        )
    return secret
