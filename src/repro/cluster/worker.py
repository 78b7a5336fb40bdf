"""The remote worker daemon: ``python -m repro.cluster.worker --connect host:port``.

A worker dials the coordinator, proves knowledge of the shared cluster
secret (the signed hello, see :mod:`repro.cluster.protocol`), **warms
before it works**, and then executes ``TASK`` frames one at a time:

* **Warm-before-TASK.**  Enrollment is only complete once the worker has
  built the fixed-base tables the coordinator advertised in ``WARM`` (the
  group generators).  The first ``HEARTBEAT`` it sends is the ready signal
  the coordinator gates dispatch on; a freshly spawned subprocess therefore
  never serves its first shard cold.
* **One serial slot.**  ``"map"``/``"star"`` tasks run inline as
  ``[fn(x) …]`` / ``[fn(*a) …]``; a host contributes its cores by running
  one daemon per core.
* **Error transparency.**  A task exception is pickled back in an
  ``ERROR`` frame (falling back to a :class:`~repro.errors.ClusterError`
  carrying the repr when the exception itself will not pickle), so the
  coordinator re-raises what the work function actually raised.
* **Liveness.**  A background thread heartbeats every
  :data:`~repro.cluster.protocol.HEARTBEAT_INTERVAL`; the daemon exits on
  ``SHUTDOWN``, on EOF (the coordinator went away), or on SIGTERM.
"""

from __future__ import annotations

import argparse
import importlib
import os
import secrets
import socket
import sys
import threading
from typing import Any, List, Optional, Tuple

from repro import telemetry
from repro.runtime import precompute
from repro.cluster.protocol import (
    CONNECT_TIMEOUT,
    HEARTBEAT_INTERVAL,
    PROTOCOL_VERSION,
    ConnectionClosed,
    Frame,
    FrameKind,
    decode_payload,
    encode_payload,
    expect_frame,
    hello_mac,
    parse_address,
    recv_frame,
    secret_from_env,
    send_frame,
    verify_welcome,
)
from repro.errors import ClusterError

#: Shard functions arrive pickled by module path, with their payloads.  These
#: are the modules that define the seven functions executors ship and the
#: types those payloads carry; each is imported while the daemon starts, so
#: the cost lands ahead of the ready heartbeat instead of inside the first
#: TASK, and serving a tally or an audit imports nothing more.
PRELOAD = (
    "repro.runtime.batch",  # _verify_signature_chunk
    "repro.tally.mixnet",  # _reencrypt_tuple; shuffles and openings
    "repro.tally.filter",  # _blinded_tag_bytes; FilterResult
    "repro.audit.evidence",  # decryption_material, tag_chain_material; transcripts
    "repro.audit.kinds",  # verdict_one, _chunk_verdicts_named; the predicates
    "repro.audit.api",  # Check, the evidence of verdict_one
    "repro.crypto.modp_group",  # the groups
    "repro.crypto.ed25519",
    "repro.crypto.elgamal",  # ElGamal, ciphertexts, decryption shares
    "repro.crypto.tagging",  # TaggingAuthority, CiphertextTaggingStep
    "repro.crypto.dlog_proof",  # dlog proofs
    "repro.ledger.records",  # the record model
    "repro.ledger.log",  # ledger-chain entries
    "repro.voting.ballot",  # ballot proofs (the wellformedness kind)
)
for _module in PRELOAD:
    importlib.import_module(_module)


class WorkerDaemon:
    """One coordinator connection, served one task at a time."""

    def __init__(
        self,
        address: Tuple[str, int],
        secret: bytes,
        worker_id: Optional[str] = None,
    ) -> None:
        self.address = address
        self.secret = secret
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._telemetry = False
        self.tasks_served = 0

    # ------------------------------------------------------------------ plumbing

    def _send(self, frame: Frame) -> None:
        # Leaf lock: serializes frame writes from the serve and heartbeat
        # threads; nothing blocks under it but the socket write itself.
        with self._send_lock:  # repro: noqa[REP004]
            sock = self._sock
            if sock is None:
                # close() ran concurrently (e.g. the heartbeat thread lost
                # the race with shutdown); report it as a transport error.
                raise ClusterError("worker connection is closed")
            send_frame(sock, frame)  # repro: noqa[REP004]

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(HEARTBEAT_INTERVAL):
            try:
                self._send(Frame(FrameKind.HEARTBEAT))
            except (ClusterError, OSError):
                return

    # ------------------------------------------------------------------ enrollment

    def _enroll(self) -> None:
        """Dial, handshake, warm."""
        sock = socket.create_connection(self.address, timeout=CONNECT_TIMEOUT)
        sock.settimeout(CONNECT_TIMEOUT)
        self._sock = sock
        # Everything before mutual authentication completes is decoded with
        # the restricted unpickler: an impostor squatting on the
        # coordinator's address must not get code execution via a payload.
        challenge = expect_frame(sock, FrameKind.CHALLENGE, pre_auth=True).payload or {}
        version = challenge.get("protocol_version")
        if version != PROTOCOL_VERSION:
            raise ClusterError(
                f"coordinator speaks cluster protocol v{version}, "
                f"this worker speaks v{PROTOCOL_VERSION}"
            )
        nonce = challenge.get("nonce") or b""
        # Handshake nonces are key material: draw from the CSPRNG seam the
        # determinism rule (REP002) sanctions, not ambient os.urandom.
        my_nonce = secrets.token_bytes(16)
        self._send(Frame(FrameKind.HELLO, {
            "protocol_version": PROTOCOL_VERSION,
            "worker_id": self.worker_id,
            "nonce": my_nonce,
            "mac": hello_mac(self.secret, nonce, self.worker_id),
        }))
        welcome = expect_frame(sock, FrameKind.WELCOME, pre_auth=True).payload or {}
        assigned_id = str(welcome.get("worker_id", self.worker_id))
        tag = welcome.get("mac")
        if not isinstance(tag, bytes) or not verify_welcome(self.secret, my_nonce, assigned_id, tag):
            raise ClusterError("coordinator failed mutual authentication (bad WELCOME tag)")
        self.worker_id = assigned_id
        # A telemetry-collecting coordinator asks workers to buffer spans in
        # memory and piggyback them on RESULT frames (one merged fleet
        # snapshot); propagate=False keeps the buffering local — a worker's
        # own subprocesses must not inherit the mem spec through the env.
        self._telemetry = bool(welcome.get("telemetry"))
        if self._telemetry:
            telemetry.configure("mem", propagate=False)

        # Only now — with the coordinator authenticated — accept the
        # arbitrary-picklable warm payload, and warm the precompute tables
        # before any TASK.
        warm = expect_frame(sock, FrameKind.WARM).payload or {}
        for factory in warm.get("groups", ()):
            try:
                precompute.warm_fixed_base(factory().generator)
            except Exception:  # noqa: BLE001 - warm work is best-effort
                continue

        # The ready signal: dispatch is gated on this first heartbeat.
        self._send(Frame(FrameKind.HEARTBEAT))
        sock.settimeout(None)

    # ------------------------------------------------------------------ serving

    def _execute(self, mode: str, fn: Any, data: Any) -> Any:
        if mode == "map":
            return [fn(item) for item in data]
        if mode == "star":
            return [fn(*args) for args in data]
        raise ClusterError(f"unknown task mode {mode!r}")

    def _serve(self) -> None:
        sock = self._sock  # stable across a concurrent close()
        if sock is None:
            raise ClusterError("worker connection is closed")
        while not self._stop.is_set():
            frame = recv_frame(sock)
            if frame.kind is FrameKind.TASK:
                key, mode, fn, data, carrier = frame.payload
                # The carrier is the dispatching call's encoded traceparent
                # ("" when untraced).  Attaching it parents this task's spans
                # under the coordinator-side dispatch span, so the events we
                # piggyback on RESULT frames land in the originating trace.
                context = telemetry.parse_traceparent(carrier) if carrier else None
                token = telemetry.attach(context) if context is not None else None
                try:
                    with telemetry.span("cluster.task", worker=self.worker_id, mode=mode, key=key):
                        value = self._execute(mode, fn, data)
                except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
                    # Prove the exception survives a *round trip* before
                    # shipping it: an exception that encodes but fails to
                    # decode (e.g. a required multi-arg __init__) would look
                    # like a transport error coordinator-side and get the
                    # worker retired instead of the error propagated.
                    try:
                        decode_payload(encode_payload((key, exc)))
                        payload = (key, exc)
                    except Exception:  # noqa: BLE001 - fall back to the repr
                        payload = (key, ClusterError(repr(exc)))
                    self._send(Frame(FrameKind.ERROR, payload))
                else:
                    if self._telemetry:
                        # Piggyback the spans and metric deltas this task
                        # produced as an optional third payload element; the
                        # coordinator ingests them under this worker's label.
                        self._send(Frame(FrameKind.RESULT, (key, value, telemetry.drain())))
                    else:
                        self._send(Frame(FrameKind.RESULT, (key, value)))
                    self.tasks_served += 1
                finally:
                    if token is not None:
                        telemetry.detach(token)
            elif frame.kind is FrameKind.HEARTBEAT:
                continue
            elif frame.kind is FrameKind.SHUTDOWN:
                return
            else:
                raise ClusterError(f"unexpected {frame.kind.name} frame from coordinator")

    def run(self) -> int:
        """Enroll and serve until shutdown; returns a process exit status."""
        try:
            self._enroll()
        except (ClusterError, OSError) as exc:
            print(f"repro.cluster.worker: enrollment failed: {exc}", file=sys.stderr)
            self.close()
            return 1
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="cluster-worker-heartbeat", daemon=True
        )
        heartbeat.start()
        try:
            self._serve()
        except ConnectionClosed:
            pass  # coordinator went away: a clean end of service
        except (ClusterError, OSError) as exc:
            print(f"repro.cluster.worker: connection error: {exc}", file=sys.stderr)
            return 1
        finally:
            self.close()
        return 0

    def close(self) -> None:
        self._stop.set()
        with self._send_lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="Enroll one repro.cluster tally/audit worker: one serial slot, so run one per core. "
                    "The hex enrollment secret is read from REPRO_CLUSTER_SECRET.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address to enroll with",
    )
    parser.add_argument(
        "--id", default=None, help="worker identity (default hostname-pid)",
    )
    args = parser.parse_args(argv)
    try:
        address = parse_address(args.connect)
    except ClusterError as exc:
        parser.error(str(exc))
    # The secret comes from the environment, never argv; without it the
    # worker refuses to start rather than dial.
    try:
        secret = secret_from_env()
    except ClusterError as exc:
        print(f"repro.cluster.worker: {exc}", file=sys.stderr)
        return 1
    return WorkerDaemon(address=address, secret=secret, worker_id=args.id).run()


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    raise SystemExit(main())
