"""The remote worker daemon: ``python -m repro.cluster.worker --connect host:port``.

A worker dials the coordinator, proves knowledge of the shared cluster
secret (the signed hello, see :mod:`repro.cluster.protocol`), **warms
before it works**, and then executes ``TASK`` frames one at a time on a
local :class:`~repro.runtime.executor.Executor`:

* **Warm-before-TASK.**  Enrollment is only complete once the worker has
  built the fixed-base tables the coordinator advertised in ``WELCOME``
  (group generators and hot bases like the election public key) and
  pre-spawned its local executor pool
  (:meth:`~repro.runtime.executor.Executor.warm` — so a process-backed
  worker forks while still single-threaded).  The first ``HEARTBEAT`` it
  sends is the ready signal the coordinator gates dispatch on; a freshly
  spawned subprocess therefore never serves its first shard cold.
* **Local execution.**  ``"map"``/``"star"`` tasks run through the local
  executor (``--executor serial|thread[:N]|process[:N]``), so one daemon
  can fan a shard across a whole host's cores; ``"call"`` tasks invoke a
  single function once.
* **Error transparency.**  A task exception is pickled back in an
  ``ERROR`` frame (falling back to a :class:`~repro.errors.ClusterError`
  carrying the repr when the exception itself will not pickle), so the
  coordinator re-raises what the work function actually raised.
* **Liveness.**  A background thread heartbeats on the interval the
  coordinator announced; the daemon exits on ``SHUTDOWN``, on EOF (the
  coordinator went away), or on SIGTERM.
"""

from __future__ import annotations

import argparse
import os
import secrets
import socket
import sys
import threading
from typing import Any, List, Optional, Tuple

from repro import telemetry
from repro.runtime import precompute
from repro.runtime.executor import Executor, executor_from_spec
from repro.cluster.protocol import (
    PICKLE_CODEC,
    PROTOCOL_VERSION,
    Codec,
    ConnectionClosed,
    Frame,
    FrameKind,
    decode_secret,
    expect_frame,
    handshake_codec,
    hello_mac,
    parse_address,
    recv_frame,
    send_frame,
    verify_welcome,
)
from repro.errors import ClusterError
from repro.spec import EXECUTOR, env

# Shard functions arrive pickled by module path.  The record model and the
# RLC batch verifier sit under nearly every tally and audit shard; importing
# them while the daemon starts keeps that cost ahead of the ready heartbeat
# instead of inside the first TASK.
import repro.ledger.records  # noqa: F401
import repro.runtime.batch  # noqa: F401

CONNECT_TIMEOUT_SECONDS = 30.0


class WorkerDaemon:
    """One coordinator connection plus the local executor that serves it."""

    def __init__(
        self,
        address: Tuple[str, int],
        secret: Optional[bytes] = None,
        executor: Optional[Executor] = None,
        worker_id: Optional[str] = None,
        codec: Codec = PICKLE_CODEC,
    ) -> None:
        self.address = address
        self.secret = secret
        self.executor = executor if executor is not None else executor_from_spec("serial")
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.codec = codec
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
            send_frame(sock, frame, self.codec)  # repro: noqa[REP004]

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                self._send(Frame(FrameKind.HEARTBEAT))
            except (ClusterError, OSError):
                return

    # ------------------------------------------------------------------ enrollment

    def _enroll(self) -> float:
        """Dial, handshake, warm; returns the announced heartbeat interval."""
        sock = socket.create_connection(self.address, timeout=CONNECT_TIMEOUT_SECONDS)
        sock.settimeout(CONNECT_TIMEOUT_SECONDS)
        self._sock = sock
        # Everything before mutual authentication completes is decoded with
        # the restricted handshake codec: an impostor squatting on the
        # coordinator's address must not get code execution via a payload.
        pre_auth = handshake_codec(self.codec)
        challenge = expect_frame(sock, FrameKind.CHALLENGE, pre_auth).payload or {}
        version = challenge.get("protocol_version")
        if version != PROTOCOL_VERSION:
            raise ClusterError(
                f"coordinator speaks cluster protocol v{version}, "
                f"this worker speaks v{PROTOCOL_VERSION}"
            )
        if challenge.get("authenticated") and self.secret is None:
            raise ClusterError(
                "coordinator requires an enrollment secret "
                "(set REPRO_CLUSTER_SECRET for this worker)"
            )
        if self.secret is not None and not challenge.get("authenticated"):
            raise ClusterError(
                "this worker holds an enrollment secret but the coordinator "
                "does not authenticate — refusing to enroll"
            )
        nonce = challenge.get("nonce") or b""
        # Handshake nonces are key material: draw from the CSPRNG seam the
        # determinism rule (REP002) sanctions, not ambient os.urandom.
        my_nonce = secrets.token_bytes(16)
        slots = self.executor.num_workers
        hello = {
            "protocol_version": PROTOCOL_VERSION,
            "worker_id": self.worker_id,
            "slots": slots,
            "nonce": my_nonce,
        }
        if self.secret is not None:
            hello["mac"] = hello_mac(self.secret, nonce, self.worker_id, slots)
        self._send(Frame(FrameKind.HELLO, hello))
        welcome = expect_frame(sock, FrameKind.WELCOME, pre_auth).payload or {}
        assigned_id = str(welcome.get("worker_id", self.worker_id))
        if self.secret is not None:
            tag = welcome.get("mac")
            if not isinstance(tag, bytes) or not verify_welcome(
                self.secret, my_nonce, assigned_id, tag
            ):
                raise ClusterError(
                    "coordinator failed mutual authentication (bad WELCOME tag)"
                )
        self.worker_id = assigned_id
        # A telemetry-collecting coordinator asks workers to buffer spans in
        # memory and piggyback them on RESULT frames (one merged fleet
        # snapshot); propagate=False keeps the buffering local — a worker's
        # own subprocesses must not inherit the mem spec through the env.
        self._telemetry = bool(welcome.get("telemetry"))
        if self._telemetry:
            telemetry.configure("mem", propagate=False)

        # Only now — with the coordinator authenticated — accept the
        # arbitrary-picklable warm payload, and warm before any TASK:
        # precompute tables and the local pool.
        warm = expect_frame(sock, FrameKind.WARM, self.codec).payload or {}
        for factory in warm.get("groups", ()):
            try:
                precompute.warm_fixed_base(factory().generator)
            except Exception:  # noqa: BLE001 - warm work is best-effort
                continue
        for base in warm.get("bases", ()):
            try:
                precompute.warm_fixed_base(base)
            except Exception:  # noqa: BLE001 - warm work is best-effort
                continue
        self.executor.warm()

        # The ready signal: dispatch is gated on this first heartbeat.
        self._send(Frame(FrameKind.HEARTBEAT))
        sock.settimeout(None)
        return float(welcome.get("heartbeat_interval", 2.0))

    # ------------------------------------------------------------------ serving

    def _execute(self, mode: str, fn: Any, data: Any) -> Any:
        if mode == "map":
            return self.executor.map(fn, data)
        if mode == "star":
            return self.executor.starmap(fn, data)
        if mode == "call":
            return fn(*data)
        raise ClusterError(f"unknown task mode {mode!r}")

    def _serve(self) -> None:
        sock = self._sock  # stable across a concurrent close()
        if sock is None:
            raise ClusterError("worker connection is closed")
        while not self._stop.is_set():
            frame = recv_frame(sock, self.codec)
            if frame.kind is FrameKind.TASK:
                key, mode, fn, data = frame.payload[:4]
                # Optional trailing element: the dispatching call's encoded
                # traceparent.  Attaching it parents this task's spans under
                # the coordinator-side dispatch span, so the events we
                # piggyback on RESULT frames land in the originating trace.
                carrier = frame.payload[4] if len(frame.payload) > 4 else ""
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
                        self.codec.decode(self.codec.encode((key, exc)))
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
            interval = self._enroll()
        except (ClusterError, OSError) as exc:
            print(f"repro.cluster.worker: enrollment failed: {exc}", file=sys.stderr)
            self.close()
            return 1
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, args=(interval,),
            name="cluster-worker-heartbeat", daemon=True,
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
        self.executor.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="Enroll this host as a repro.cluster tally/audit worker.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address to enroll with",
    )
    parser.add_argument(
        "--executor", default="serial",
        help="local executor spec for this worker's shards "
             "(serial, thread[:N] or process[:N]; default serial)",
    )
    parser.add_argument(
        "--id", default=None, help="worker identity (default hostname-pid)",
    )
    parser.add_argument(
        "--secret-env", default="REPRO_CLUSTER_SECRET", metavar="VAR",
        help="environment variable holding the hex enrollment secret "
             "(default REPRO_CLUSTER_SECRET; secrets never appear in argv)",
    )
    args = parser.parse_args(argv)
    if EXECUTOR.parse(args.executor)[0] in ("remote", "cluster"):
        parser.error("worker-local executors must be serial, thread[:N] or process[:N]")
    daemon = WorkerDaemon(
        address=parse_address(args.connect),
        secret=decode_secret(env("REPRO_CLUSTER_SECRET", var=args.secret_env)),
        executor=executor_from_spec(args.executor),
        worker_id=args.id,
    )
    return daemon.run()


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    raise SystemExit(main())
