"""The cluster coordinator: enrollment, dispatch, reassembly, reassignment.

:class:`ClusterCoordinator` owns the server side of the wire protocol.  It
listens on one or more addresses, runs the challenge/hello/welcome handshake
with every connecting worker daemon, and then schedules *tasks* — pickled
``(mode, fn, payload)`` triples — across the enrolled workers:

* **Contiguous, order-preserving dispatch.**  :meth:`run_tasks` accepts an
  ordered list of task payloads and returns their results in exactly that
  order, whatever the completion interleaving across workers — the same
  contract :class:`~repro.runtime.executor.Executor` backends honour, so
  distributed output stays bit-identical to the serial reference.
* **At-least-once with idempotent task keys.**  Every task gets a unique
  key; a worker death requeues its in-flight task onto the
  remaining workers.  Tasks may therefore execute more than once, but the
  first ``RESULT`` per key wins and duplicates are dropped — safe because
  every shard the tally and audit layers dispatch is a deterministic
  function of its payload (all output-shaping randomness is drawn
  coordinator-side, per the :mod:`repro.tally.mixnet` tape discipline).
* **Failure semantics.**  A *task* exception on a worker (an ``ERROR``
  frame) is an application error: it fails that :meth:`run_tasks` call and
  propagates to the caller unchanged, matching the serial executor.
  A *transport* failure (socket death, missed heartbeats) is a scheduling
  event: the worker is retired and its task reassigned.
  When the last live worker is lost with tasks outstanding, every waiting
  call fails with a :class:`~repro.errors.ClusterError` naming the cause.
* **Liveness.**  Workers heartbeat every
  :data:`~repro.cluster.protocol.HEARTBEAT_INTERVAL`; a reaper thread
  retires workers whose last frame is older than
  :data:`~repro.cluster.protocol.HEARTBEAT_TIMEOUT`.
* **Teardown.**  :meth:`~ClusterCoordinator.shutdown` returns once every
  thread the coordinator started has ended and its ports are released: a
  long-lived tallier process that opens and closes clusters keeps no
  thread, socket or port per cluster.

The coordinator never initiates work functions itself — it is transport and
scheduling only.  :class:`~repro.cluster.executor.RemoteExecutor` adapts it
to the executor contract.
"""

from __future__ import annotations

import itertools
import logging
import secrets
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.cluster.protocol import (
    ENROLL_TIMEOUT,
    HANDSHAKE_TIMEOUT,
    HEARTBEAT_INTERVAL,
    HEARTBEAT_TIMEOUT,
    PROTOCOL_VERSION,
    Frame,
    FrameKind,
    encode_payload,
    expect_frame,
    recv_frame,
    send_frame,
    verify_hello,
    welcome_mac,
)
from repro.errors import ClusterError

#: Module logger policy: per-task scheduling chatter (dispatch, result
#: delivery) stays at DEBUG; worker lifecycle that an operator must see —
#: reassignment, worker loss, rejected enrollments — logs at WARNING with
#: the worker identity and affected task keys.  Handshake fields adjacent to
#: the enrollment secret (nonce, MAC, the secret itself) are NEVER logged at
#: any level: a DEBUG log shipped off-box must not become an offline oracle
#: against the enrollment MAC.
logger = logging.getLogger(__name__)

#: How many times one task may be reassigned before its group fails — a
#: backstop against a poison shard that crashes every worker serving it,
#: which under supervised (auto-restarting) fleets would otherwise cycle
#: forever.  Generous: legitimate fault recovery uses one or two attempts.
MAX_TASK_ATTEMPTS = 16


class _Task:
    """One dispatchable unit: an idempotent key plus its payload and position."""

    __slots__ = ("key", "payload", "group", "index", "done", "result",
                 "assigned_to", "attempts", "trace")

    def __init__(
        self, key: int, payload: Any, group: "_TaskGroup", index: int, trace: str = ""
    ) -> None:
        self.key = key
        self.payload = payload
        self.group = group
        self.index = index
        self.done = False
        self.result: Any = None
        self.assigned_to: Optional["_Worker"] = None
        self.attempts = 0
        #: The dispatching call's encoded traceparent (``""`` when tracing is
        #: off); rides every TASK frame so worker-side spans — piggybacked
        #: back on RESULT frames — parent into the originating trace.
        self.trace = trace


class _TaskGroup:
    """One :meth:`ClusterCoordinator.run_tasks` call's tasks and outcome."""

    __slots__ = ("tasks", "remaining", "error")

    def __init__(self, size: int) -> None:
        self.tasks: List[_Task] = []
        self.remaining = size
        self.error: Optional[BaseException] = None


class _Worker:
    """Coordinator-side state for one enrolled worker connection.

    A worker is one serial slot: ``task`` is the one in flight on it, if any.
    """

    __slots__ = ("worker_id", "conn", "address", "alive", "last_seen", "send_lock", "task")

    def __init__(self, worker_id: str, conn: socket.socket, address: Tuple[str, int]) -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.address = address
        self.alive = True
        self.last_seen = time.monotonic()
        self.send_lock = threading.Lock()
        self.task: Optional[_Task] = None


class ClusterCoordinator:
    """Enrolls remote workers and schedules ordered task groups across them."""

    def __init__(
        self, listen: Sequence[Tuple[str, int]] = (("127.0.0.1", 0),), *, secret: bytes
    ) -> None:
        self._secret = secret
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._workers: Dict[str, _Worker] = {}
        self._enrolling_ids: Set[str] = set()
        self._pending: "deque[_Task]" = deque()
        self._tasks: Dict[int, _Task] = {}
        self._task_keys = itertools.count()
        self._worker_ids = itertools.count()
        self._closed = False
        #: Set by :meth:`shutdown`; the reaper waits on it between sweeps.
        #: Not ``_cond``, whose ``notify_all`` fires on every result.
        self._stop = threading.Event()
        #: One thread per accepted connection — the handshake, then the
        #: worker's read loop — mapped to its socket.  Each thread removes
        #: itself when it ends, so only live connections are held.
        self._connections: Dict[threading.Thread, socket.socket] = {}
        #: Warm work sent to workers in the WARM frame (group factories whose
        #: generator tables a worker builds before it accepts TASK frames).
        self._warm_groups: List[Any] = []

        # Pre-register the fleet counters at zero so a merged snapshot shows
        # "reassign 0" for a healthy run instead of omitting the series.
        # Unrolled to literal names: REP005 pins every telemetry name to
        # repro.telemetry.names so schedules keep identical series.
        if telemetry.enabled():
            telemetry.counter("cluster.enroll", 0)
            telemetry.counter("cluster.dispatch", 0)
            telemetry.counter("cluster.reassign", 0)
            telemetry.counter("cluster.worker.lost", 0)
            telemetry.counter("cluster.heartbeat.miss", 0)

        self._listeners: List[socket.socket] = []
        self._accepters: List[threading.Thread] = []
        #: The bound listen addresses (ports resolved, for ``:0`` binds),
        #: recorded at bind time so they outlive :meth:`shutdown`.
        self.addresses: List[Tuple[str, int]] = []
        try:
            for host, port in listen:
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                self._listeners.append(sock)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((host, port))
                sock.listen(64)
                self.addresses.append(sock.getsockname()[:2])
                thread = threading.Thread(
                    target=self._accept_loop, args=(sock,), name="cluster-accept", daemon=True
                )
                thread.start()
                self._accepters.append(thread)
        except BaseException:
            # A later bind failed (address in use): release what is bound.
            self._stop_accepting()
            raise
        self._reaper = threading.Thread(target=self._reap_loop, name="cluster-reaper", daemon=True)
        self._reaper.start()

    # ------------------------------------------------------------------ surface

    @property
    def address(self) -> Tuple[str, int]:
        return self.addresses[0]

    @property
    def num_workers(self) -> int:
        with self._lock:
            return len(self._workers)

    def worker_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._workers)

    def set_warm(self, groups: Sequence[Any]) -> None:
        """Advertise precompute warm work to *future* enrollments.

        ``groups`` are zero-argument group factories (workers warm each
        group's generator table).  Factories that do not pickle are dropped
        rather than poisoning every subsequent WARM frame.
        """
        kept = []
        for factory in groups:
            try:
                encode_payload(factory)
            except Exception:
                continue
            kept.append(factory)
        with self._lock:
            self._warm_groups = kept

    def wait_for_workers(
        self,
        count: int = 1,
        timeout: float = ENROLL_TIMEOUT,
        give_up: Optional[Callable[[], Optional[str]]] = None,
    ) -> None:
        """Block until ``count`` workers are enrolled; :class:`ClusterError` on timeout.

        ``give_up`` is polled at every wake-up (at least every 0.25 s): a
        message from it ends the wait at once with that message, e.g. when
        every worker the caller spawned has already exited.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._workers) < count:
                if self._closed:
                    raise ClusterError("coordinator is shut down")
                reason = give_up() if give_up is not None else None
                if reason is not None:
                    raise ClusterError(reason)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterError(
                        f"timed out waiting for {count} worker(s); "
                        f"{len(self._workers)} enrolled after {timeout:.0f}s"
                    )
                self._cond.wait(timeout=min(remaining, 0.25))

    # ------------------------------------------------------------------ enrollment

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, address = listener.accept()
            except OSError:
                return  # listener shut down
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                thread = threading.Thread(
                    target=self._serve, args=(conn, address),
                    name="cluster-enroll", daemon=True,
                )
                self._connections[thread] = conn
                thread.start()

    def _serve(self, conn: socket.socket, address: Tuple[str, int]) -> None:
        """One connection's thread: the handshake, then the admitted worker's reads."""
        try:
            worker = self._enroll(conn, address)
            if worker is not None:
                threading.current_thread().name = f"cluster-read-{worker.worker_id}"
                self._read_loop(worker)
        finally:
            with self._lock:
                self._connections.pop(threading.current_thread(), None)
            conn.close()

    def _enroll(self, conn: socket.socket, address: Tuple[str, int]) -> Optional[_Worker]:
        """Run the challenge/hello/welcome handshake; the admitted worker, or ``None``."""
        worker_id = ""
        try:
            conn.settimeout(HANDSHAKE_TIMEOUT)
            nonce = secrets.token_bytes(16)
            send_frame(conn, Frame(FrameKind.CHALLENGE, {
                "nonce": nonce,
                "protocol_version": PROTOCOL_VERSION,
            }))
            # Decode the (pre-authentication) hello with the restricted
            # unpickler: nothing an unauthenticated peer sends may execute
            # during deserialization — the MAC check below is what admits a
            # peer to the full unpickler.
            hello = expect_frame(conn, FrameKind.HELLO, pre_auth=True)
            payload = hello.payload if isinstance(hello.payload, dict) else {}
            version = payload.get("protocol_version")
            worker_id = str(payload.get("worker_id") or f"worker-{next(self._worker_ids)}")
            if version != PROTOCOL_VERSION:
                self._reject(conn, f"protocol version mismatch: worker v{version}, coordinator v{PROTOCOL_VERSION}")
                return None
            tag = payload.get("mac")
            if not isinstance(tag, bytes) or not verify_hello(self._secret, nonce, worker_id, tag):
                self._reject(conn, "enrollment MAC verification failed")
                return None
            # Reserve the identity before WELCOME goes out: two concurrent
            # enrollments under the same name must not overwrite each other
            # in the registry (the loser gets a uniquified alias).
            with self._lock:
                while worker_id in self._workers or worker_id in self._enrolling_ids:
                    worker_id = f"{worker_id}#{next(self._worker_ids)}"
                self._enrolling_ids.add(worker_id)
            # WELCOME is primitives-only (the worker decodes it with the
            # restricted unpickler) and carries the coordinator's half
            # of mutual authentication: a MAC over the worker's fresh nonce.
            worker_nonce = payload.get("nonce")
            if not isinstance(worker_nonce, bytes):
                worker_nonce = b""
            send_frame(conn, Frame(FrameKind.WELCOME, {
                "worker_id": worker_id,
                # When the coordinator is collecting telemetry, workers
                # buffer spans in memory and piggyback them on RESULT frames
                # for one merged fleet snapshot.
                "telemetry": telemetry.enabled(),
                "mac": welcome_mac(self._secret, worker_nonce, worker_id),
            }))
            # Warm work (group factories — arbitrary picklables) only ships
            # after both sides are authenticated.
            with self._lock:
                warm = {"groups": list(self._warm_groups)}
            send_frame(conn, Frame(FrameKind.WARM, warm))
            # The worker warms its precompute tables now; its first
            # HEARTBEAT is the ready signal that gates dispatch.
            expect_frame(conn, FrameKind.HEARTBEAT)
            conn.settimeout(None)
        except Exception:  # noqa: BLE001 - any malformed pre-auth input
            # Enrollment failures are per-connection events, not cluster
            # failures; whatever a (pre-authentication!) peer sent, the only
            # response is to drop the connection (``_serve`` closes it) —
            # never to kill the thread with an unhandled traceback.
            with self._lock:
                self._enrolling_ids.discard(worker_id)
            return None

        # Identity and address only — never the nonce, MAC, or secret the
        # handshake frames carried (see the module logger policy above).
        logger.info("worker %s enrolled from %s:%s", worker_id, address[0], address[1])
        telemetry.counter("cluster.enroll", worker=worker_id)
        worker = _Worker(worker_id, conn, address)
        with self._cond:
            self._enrolling_ids.discard(worker_id)
            if self._closed:
                return None
            self._workers[worker_id] = worker
            self._cond.notify_all()
        self._pump()
        return worker

    def _reject(self, conn: socket.socket, reason: str) -> None:
        # The reason strings name the failed check, not its inputs — no
        # nonce, MAC, or secret material ever reaches the log stream.
        logger.warning("rejecting enrollment: %s", reason)
        try:
            send_frame(conn, Frame(FrameKind.ERROR, (None, reason)))
        except (ClusterError, OSError):
            pass

    # ------------------------------------------------------------------ reading

    def _read_loop(self, worker: _Worker) -> None:
        try:
            while worker.alive:
                frame = recv_frame(worker.conn)
                worker.last_seen = time.monotonic()
                if frame.kind is FrameKind.RESULT:
                    # Telemetry-enabled workers piggyback their drained span
                    # and metric events as an optional third payload element.
                    payload = frame.payload
                    key, value = payload[0], payload[1]
                    if len(payload) > 2 and payload[2]:
                        telemetry.ingest(payload[2], worker=worker.worker_id)
                    logger.debug("result for task %s from worker %s", key, worker.worker_id)
                    self._complete(key, value)
                elif frame.kind is FrameKind.ERROR:
                    key, error = frame.payload
                    self._fail(key, error)
                elif frame.kind is FrameKind.HEARTBEAT:
                    continue
                elif frame.kind is FrameKind.SHUTDOWN:
                    break  # worker is draining out voluntarily
                else:
                    raise ClusterError(f"unexpected {frame.kind.name} frame from worker")
        except (ClusterError, OSError):
            pass
        finally:
            self._retire(worker, "connection lost")

    @staticmethod
    def _release(task: _Task) -> None:
        """Free the slot ``task`` holds, if it is in flight (under the lock)."""
        if task.assigned_to is not None:
            task.assigned_to.task = None
            task.assigned_to = None

    def _complete(self, key: int, value: Any) -> None:
        with self._cond:
            task = self._tasks.pop(key, None)
            if task is None or task.done:
                return  # duplicate delivery after a reassignment: first wins
            task.done = True
            task.result = value
            self._release(task)
            task.group.remaining -= 1
            self._cond.notify_all()
        self._pump()

    def _cancel_group(self, group: "_TaskGroup", exc: BaseException) -> None:
        """Fail a whole group: first error wins, siblings are abandoned."""
        with self._cond:
            if group.error is None:
                group.error = exc
            for sibling in group.tasks:
                if not sibling.done:
                    sibling.done = True
                    self._tasks.pop(sibling.key, None)
                    self._release(sibling)
            self._pending = deque(t for t in self._pending if t.group is not group)
            group.remaining = 0
            self._cond.notify_all()

    def _fail(self, key: Optional[int], error: Any) -> None:
        """An application-level task failure: propagate to the waiting caller."""
        exc = error if isinstance(error, BaseException) else ClusterError(str(error))
        with self._cond:
            task = self._tasks.pop(key, None) if key is not None else None
            if task is None or task.done:
                return
            task.done = True
            self._release(task)
            group = task.group
        # Cancel the group's other tasks: drop pending ones, forget
        # in-flight ones (late results for them are ignored idempotently).
        self._cancel_group(group, exc)
        self._pump()

    def _retire(self, worker: _Worker, reason: str) -> None:
        """Drop a dead worker and requeue its in-flight task (at-least-once)."""
        poisoned: Optional[_Task] = None
        requeued: Optional[int] = None
        with self._cond:
            if not worker.alive:
                return
            worker.alive = False
            closing = self._closed
            self._workers.pop(worker.worker_id, None)
            orphan, worker.task = worker.task, None
            if orphan is not None and not orphan.done:
                orphan.assigned_to = None
                orphan.attempts += 1
                if orphan.attempts >= MAX_TASK_ATTEMPTS:
                    poisoned = orphan
                else:
                    # Requeued ahead of fresh work, so a reassigned early
                    # shard does not wait behind the whole backlog.
                    self._pending.appendleft(orphan)
                    requeued = orphan.key
            if not self._workers and self._tasks:
                lost = ClusterError(
                    f"all cluster workers lost ({reason}); "
                    f"{len(self._tasks)} shard(s) outstanding"
                )
                for task in list(self._tasks.values()):
                    if task.group.error is None:
                        task.group.error = lost
                    task.group.remaining = 0
                    task.done = True
                self._tasks.clear()
                self._pending.clear()
            self._cond.notify_all()
        # Orderly teardown retires every worker, and a worker that closes its
        # socket on SHUTDOWN can get its reader thread here first ("connection
        # lost"): once the coordinator is closed either is routine (DEBUG).
        # Losing a worker mid-run is an operator-visible event (WARNING),
        # logged with the identity and exactly which task keys moved.
        if closing:
            logger.debug("worker %s retired (%s)", worker.worker_id, reason)
        else:
            logger.warning(
                "worker %s lost (%s); requeued task key %s",
                worker.worker_id, reason, "none" if requeued is None else requeued,
            )
            telemetry.counter("cluster.worker.lost", worker=worker.worker_id, reason=reason)
            if reason == "heartbeat timeout":
                telemetry.counter("cluster.heartbeat.miss", worker=worker.worker_id)
            if requeued is not None:
                telemetry.counter("cluster.reassign", 1, worker=worker.worker_id)
        if poisoned is not None:
            self._cancel_group(
                poisoned.group,
                ClusterError(
                    f"shard {poisoned.index} was reassigned {poisoned.attempts} times "
                    f"(last worker loss: {reason}); giving it up as poisoned"
                ),
            )
        # Wake the worker's read loop (its thread closes the socket); on
        # Linux a close() from this thread would leave its recv() blocked.
        try:
            worker.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._pump()

    # ------------------------------------------------------------------ dispatch

    def _assign(self) -> List[Tuple[_Worker, _Task]]:
        """Pair pending tasks with idle workers (called under the lock).

        A worker takes a task only when its slot is free; idle workers are
        taken in enrollment order (dict order).
        """
        assignments: List[Tuple[_Worker, _Task]] = []
        idle = deque(w for w in self._workers.values() if w.alive and w.task is None)
        while self._pending and idle:
            task = self._pending.popleft()
            if task.done:
                continue
            target = idle.popleft()
            task.assigned_to = target
            target.task = task
            assignments.append((target, task))
        return assignments

    def _pump(self) -> None:
        """Move pending tasks onto free workers; retire workers whose send fails."""
        while True:
            with self._lock:
                assignments = self._assign()
            if not assignments:
                return
            dead: List[_Worker] = []
            for worker, task in assignments:
                frame = Frame(FrameKind.TASK, (task.key, *task.payload, task.trace))
                try:
                    # Leaf lock: held only for this one frame write, taken
                    # after every coordinator lock is released, and nothing
                    # blocks under it but the socket itself.
                    with worker.send_lock:
                        send_frame(worker.conn, frame)  # repro: noqa[REP004]
                except (ClusterError, OSError):
                    if worker not in dead:
                        dead.append(worker)
                else:
                    logger.debug("dispatched task %s to worker %s", task.key, worker.worker_id)
                    telemetry.counter("cluster.dispatch", worker=worker.worker_id)
            for worker in dead:
                self._retire(worker, "send failed")
            if not dead:
                return

    def run_tasks(self, payloads: Sequence[Tuple[Any, ...]]) -> List[Any]:
        """Execute ``payloads`` across the cluster; results in payload order.

        Each payload is a ``(mode, fn, data)`` triple as understood by the
        worker daemon: ``"map"`` returns ``[fn(x) for x in data]``,
        ``"star"`` returns ``[fn(*a) for a in data]``.

        Raises the first task exception unchanged (matching the serial
        executor) or :class:`ClusterError` when the cluster cannot
        finish the group (all workers lost, or shutdown mid-run).
        """
        payloads = list(payloads)
        if not payloads:
            return []
        # Capture the calling thread's trace context once per group: every
        # shard of this call belongs to the dispatch span active here (e.g.
        # RemoteExecutor's executor.map), so worker spans parent under it.
        context = telemetry.current_context() if telemetry.enabled() else None
        trace = context.to_traceparent() if context is not None else ""
        group = _TaskGroup(len(payloads))
        with self._cond:
            if self._closed:
                raise ClusterError("coordinator is shut down")
            for index, payload in enumerate(payloads):
                task = _Task(next(self._task_keys), tuple(payload), group, index, trace)
                group.tasks.append(task)
                self._tasks[task.key] = task
                self._pending.append(task)
        self._pump()
        with self._cond:
            while group.remaining > 0:
                self._cond.wait(timeout=0.25)
                if self._closed and group.remaining > 0 and group.error is None:
                    group.error = ClusterError("coordinator shut down with shards outstanding")
                    break
        if group.error is not None:
            raise group.error
        return [task.result for task in group.tasks]

    # ------------------------------------------------------------------ liveness

    def _reap_loop(self) -> None:
        while not self._stop.wait(min(HEARTBEAT_INTERVAL, 1.0) / 2):
            now = time.monotonic()
            with self._lock:
                stale = [w for w in self._workers.values() if now - w.last_seen > HEARTBEAT_TIMEOUT]
            for worker in stale:
                self._retire(worker, "heartbeat timeout")

    # ------------------------------------------------------------------ lifecycle

    def _stop_accepting(self) -> None:
        """Wake and join the accept threads, then release their ports.

        On Linux ``close()`` does not wake a thread blocked in ``accept()``
        on the same socket; ``shutdown()`` does.
        """
        for listener in self._listeners:
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # never listening: its bind failed
        for thread in self._accepters:
            thread.join()
        for listener in self._listeners:
            listener.close()

    def shutdown(self) -> None:
        """Stop accepting, tell workers to exit, fail anything outstanding.

        Returns once every thread the coordinator started has ended and its
        ports are released.  A second call does nothing.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._cond.notify_all()
        self._stop.set()
        self._stop_accepting()
        for worker in workers:
            try:
                # Same leaf send-lock as _pump: serializes one frame write.
                with worker.send_lock:
                    send_frame(worker.conn, Frame(FrameKind.SHUTDOWN))  # repro: noqa[REP004]
            except (ClusterError, OSError):
                pass
            self._retire(worker, "coordinator shutdown")
        # No accept thread is left to add a connection.  Wake any handshake
        # still waiting on its peer, then wait for every connection thread.
        with self._lock:
            connections = list(self._connections.items())
        for thread, conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            thread.join()
        self._reaper.join()
        with self._cond:
            self._cond.notify_all()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterCoordinator(addresses={self.addresses}, workers={self.num_workers})"
        )
