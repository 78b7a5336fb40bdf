"""The cluster coordinator: enrollment, dispatch, reassembly, reassignment.

:class:`ClusterCoordinator` owns the server side of the wire protocol.  It
listens on one or more addresses, runs the challenge/hello/welcome handshake
with every connecting worker daemon, and then schedules *tasks* — codec-
encoded ``(mode, fn, payload)`` triples — across the enrolled workers:

* **Contiguous, order-preserving dispatch.**  :meth:`run_tasks` accepts an
  ordered list of task payloads and returns their results in exactly that
  order, whatever the completion interleaving across workers — the same
  contract :class:`~repro.runtime.executor.Executor` backends honour, so
  distributed output stays bit-identical to the serial reference.
* **At-least-once with idempotent task keys.**  Every task gets a unique
  key; a worker death or timeout requeues its in-flight tasks onto the
  remaining workers.  Tasks may therefore execute more than once, but the
  first ``RESULT`` per key wins and duplicates are dropped — safe because
  every shard the tally and audit layers dispatch is a deterministic
  function of its payload (all output-shaping randomness is drawn
  coordinator-side, per the :mod:`repro.tally.mixnet` tape discipline).
* **Failure semantics.**  A *task* exception on a worker (an ``ERROR``
  frame) is an application error: it fails that :meth:`run_tasks` call and
  propagates to the caller unchanged, matching the in-process executors.
  A *transport* failure (socket death, missed heartbeats, task timeout) is
  a scheduling event: the worker is retired and its tasks reassigned.
  When the last live worker is lost with tasks outstanding, every waiting
  call fails with a :class:`~repro.errors.ClusterError` naming the cause.
* **Liveness.**  Workers heartbeat on an interval the coordinator announces
  in ``WELCOME``; a reaper thread retires workers whose last frame is older
  than ``heartbeat_timeout`` and (optionally) re-dispatches tasks stuck
  in flight longer than ``task_timeout``.

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
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.cluster.protocol import (
    PICKLE_CODEC,
    PROTOCOL_VERSION,
    Codec,
    Frame,
    FrameKind,
    expect_frame,
    handshake_codec,
    recv_frame,
    send_frame,
    verify_hello,
    welcome_mac,
)
from repro.errors import ClusterError
from repro.spec import env

#: Module logger policy: per-task scheduling chatter (dispatch, result
#: delivery) stays at DEBUG; worker lifecycle that an operator must see —
#: reassignment, worker loss, rejected enrollments — logs at WARNING with
#: the worker identity and affected task keys.  Handshake fields adjacent to
#: the enrollment secret (nonce, MAC, the secret itself) are NEVER logged at
#: any level: a DEBUG log shipped off-box must not become an offline oracle
#: against the enrollment MAC.
logger = logging.getLogger(__name__)

#: How long the enrollment handshake may take before the connection is dropped.
HANDSHAKE_TIMEOUT_SECONDS = 30.0

#: How often enrolled workers are told to heartbeat.
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: How stale a worker's last frame may be before it is declared dead.
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

#: Default bound on waiting for worker enrollment (overridable per call and,
#: fleet-wide, via the environment).  The single source of truth —
#: :mod:`repro.cluster.executor` imports this rather than re-reading the env.
DEFAULT_ENROLL_TIMEOUT: float = env("REPRO_CLUSTER_ENROLL_TIMEOUT")

#: Default bound on one in-flight task before its worker is presumed stuck
#: and the shard is reassigned (``None`` disables): a deadlocked work function
#: keeps heartbeating, so only this timeout can unstick it.
DEFAULT_TASK_TIMEOUT: Optional[float] = env("REPRO_CLUSTER_TASK_TIMEOUT")

#: How many times one task may be reassigned before its group fails — a
#: backstop against a poison shard that crashes every worker serving it,
#: which under supervised (auto-restarting) fleets would otherwise cycle
#: forever.  Generous: legitimate fault recovery uses one or two attempts.
MAX_TASK_ATTEMPTS = 16


class _Task:
    """One dispatchable unit: an idempotent key plus its payload and slot."""

    __slots__ = ("key", "payload", "group", "index", "done", "result",
                 "assigned_to", "dispatched_at", "attempts", "trace")

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
        self.dispatched_at: float = 0.0
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
    """Coordinator-side state for one enrolled worker connection."""

    __slots__ = ("worker_id", "conn", "address", "slots", "alive",
                 "last_seen", "last_result_at", "send_lock", "in_flight")

    def __init__(
        self, worker_id: str, conn: socket.socket, address: Tuple[str, int], slots: int
    ) -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.address = address
        self.slots = max(1, slots)
        self.alive = True
        self.last_seen = time.monotonic()
        #: When this worker last returned a RESULT/ERROR frame — the clock
        #: the task timeout runs against (workers serve their in-flight
        #: queue sequentially, so dispatch age alone would count queue wait).
        self.last_result_at = time.monotonic()
        self.send_lock = threading.Lock()
        self.in_flight: Dict[int, _Task] = {}


class ClusterCoordinator:
    """Enrolls remote workers and schedules ordered task groups across them."""

    def __init__(
        self,
        listen: Sequence[Tuple[str, int]] = (("127.0.0.1", 0),),
        secret: Optional[bytes] = None,
        codec: Codec = PICKLE_CODEC,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        task_timeout: Optional[float] = DEFAULT_TASK_TIMEOUT,
        name: str = "cluster",
    ) -> None:
        self._secret = secret
        self._codec = codec
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._task_timeout = task_timeout
        self.name = name

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._workers: Dict[str, _Worker] = {}
        self._enrolling_ids: Set[str] = set()
        self._ever_enrolled = 0
        self._pending: "deque[_Task]" = deque()
        self._tasks: Dict[int, _Task] = {}
        self._task_keys = itertools.count()
        self._worker_ids = itertools.count()
        self._closed = False
        #: Warm work advertised to workers in WELCOME (group factories and
        #: fixed bases to precompute before the worker accepts TASK frames).
        self._warm_groups: List[Any] = []
        self._warm_bases: List[Any] = []

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
        self._threads: List[threading.Thread] = []
        for host, port in listen:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(64)
            self._listeners.append(sock)
            thread = threading.Thread(
                target=self._accept_loop, args=(sock,), name=f"{name}-accept", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        reaper = threading.Thread(target=self._reap_loop, name=f"{name}-reaper", daemon=True)
        reaper.start()
        self._threads.append(reaper)

    # ------------------------------------------------------------------ surface

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        """The bound listen addresses (ports resolved, for ``:0`` binds)."""
        return [sock.getsockname()[:2] for sock in self._listeners]

    @property
    def address(self) -> Tuple[str, int]:
        return self.addresses[0]

    @property
    def num_workers(self) -> int:
        with self._lock:
            return len(self._workers)

    @property
    def total_slots(self) -> int:
        with self._lock:
            return sum(worker.slots for worker in self._workers.values())

    def worker_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._workers)

    def set_warm(self, groups: Optional[Sequence[Any]] = None, bases: Optional[Sequence[Any]] = None) -> None:
        """Advertise precompute warm work to *future* enrollments.

        ``groups`` are zero-argument group factories (workers warm each
        group's generator table); ``bases`` are group elements to warm
        directly (e.g. the election authority's public key).  Entries the
        codec cannot encode are dropped rather than poisoning every
        subsequent WELCOME frame.
        """
        def _encodable(items: Optional[Sequence[Any]]) -> List[Any]:
            kept = []
            for item in items or ():
                try:
                    self._codec.encode(item)
                except Exception:
                    continue
                kept.append(item)
            return kept

        with self._lock:
            if groups is not None:
                self._warm_groups = _encodable(groups)
            if bases is not None:
                self._warm_bases = _encodable(bases)

    def wait_for_workers(self, count: int = 1, timeout: float = DEFAULT_ENROLL_TIMEOUT) -> None:
        """Block until ``count`` workers are enrolled; :class:`ClusterError` on timeout."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._workers) < count:
                if self._closed:
                    raise ClusterError("coordinator is shut down")
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
                return  # listener closed during shutdown
            if self._closed:
                conn.close()
                return
            threading.Thread(
                target=self._enroll, args=(conn, address),
                name=f"{self.name}-enroll", daemon=True,
            ).start()

    def _enroll(self, conn: socket.socket, address: Tuple[str, int]) -> None:
        """Run the challenge/hello/welcome handshake; admit or drop the peer."""
        worker_id = ""
        try:
            conn.settimeout(HANDSHAKE_TIMEOUT_SECONDS)
            nonce = secrets.token_bytes(16)
            send_frame(conn, Frame(FrameKind.CHALLENGE, {
                "nonce": nonce,
                "protocol_version": PROTOCOL_VERSION,
                "coordinator": self.name,
                "heartbeat_interval": self._heartbeat_interval,
                "authenticated": self._secret is not None,
            }), self._codec)
            # Decode the (pre-authentication) hello with the restricted
            # handshake codec: nothing an unauthenticated peer sends may
            # execute during deserialization — the MAC check below is what
            # admits a peer to the full task codec.
            hello = expect_frame(conn, FrameKind.HELLO, handshake_codec(self._codec))
            payload = hello.payload if isinstance(hello.payload, dict) else {}
            version = payload.get("protocol_version")
            worker_id = str(payload.get("worker_id") or f"worker-{next(self._worker_ids)}")
            try:
                slots = int(payload.get("slots") or 1)
            except (TypeError, ValueError):
                slots = 1
            if version != PROTOCOL_VERSION:
                self._reject(conn, f"protocol version mismatch: worker v{version}, coordinator v{PROTOCOL_VERSION}")
                return
            if self._secret is not None:
                tag = payload.get("mac")
                if not isinstance(tag, bytes):
                    tag = b""
                if not verify_hello(self._secret, nonce, worker_id, slots, tag):
                    self._reject(conn, "enrollment MAC verification failed")
                    return
            # Reserve the identity before WELCOME goes out: two concurrent
            # enrollments under the same name must not overwrite each other
            # in the registry (the loser gets a uniquified alias).
            with self._lock:
                while worker_id in self._workers or worker_id in self._enrolling_ids:
                    worker_id = f"{worker_id}#{next(self._worker_ids)}"
                self._enrolling_ids.add(worker_id)
            # WELCOME is primitives-only (the worker decodes it with the
            # restricted handshake codec) and carries the coordinator's half
            # of mutual authentication: a MAC over the worker's fresh nonce.
            welcome: Dict[str, Any] = {
                "worker_id": worker_id,
                "heartbeat_interval": self._heartbeat_interval,
                # Primitives-only flag (the worker decodes WELCOME with the
                # restricted codec): when the coordinator is collecting
                # telemetry, workers buffer spans in memory and piggyback
                # them on RESULT frames for one merged fleet snapshot.
                "telemetry": telemetry.enabled(),
            }
            if self._secret is not None:
                worker_nonce = payload.get("nonce")
                if not isinstance(worker_nonce, bytes):
                    worker_nonce = b""
                welcome["mac"] = welcome_mac(self._secret, worker_nonce, worker_id)
            send_frame(conn, Frame(FrameKind.WELCOME, welcome), self._codec)
            # Warm work (group factories, hot bases — arbitrary picklables)
            # only ships after both sides are authenticated.
            with self._lock:
                warm = {"groups": list(self._warm_groups), "bases": list(self._warm_bases)}
            send_frame(conn, Frame(FrameKind.WARM, warm), self._codec)
            # The worker warms its precompute tables and executor pool now;
            # its first HEARTBEAT is the ready signal that gates dispatch.
            expect_frame(conn, FrameKind.HEARTBEAT, self._codec)
            conn.settimeout(None)
        except Exception:  # noqa: BLE001 - any malformed pre-auth input
            # Enrollment failures are per-connection events, not cluster
            # failures; whatever a (pre-authentication!) peer sent, the only
            # response is to drop the connection — never to leak the fd or
            # kill the enroll thread with an unhandled traceback.
            with self._lock:
                self._enrolling_ids.discard(worker_id)
            try:
                conn.close()
            except OSError:
                pass
            return

        # Identity and address only — never the nonce, MAC, or secret the
        # handshake frames carried (see the module logger policy above).
        logger.info("worker %s enrolled from %s:%s (%d slot(s))",
                    worker_id, address[0], address[1], slots)
        telemetry.counter("cluster.enroll", worker=worker_id)
        worker = _Worker(worker_id, conn, address, slots)
        with self._cond:
            self._enrolling_ids.discard(worker_id)
            if self._closed:
                conn.close()
                return
            self._workers[worker_id] = worker
            self._ever_enrolled += 1
            self._cond.notify_all()
        # Reader threads are daemonic and exit with their connection; like
        # the enroll threads they are fire-and-forget (retaining one per
        # ever-enrolled worker would leak under churn).
        threading.Thread(
            target=self._read_loop, args=(worker,), name=f"{self.name}-read-{worker_id}", daemon=True
        ).start()
        self._pump()

    def _reject(self, conn: socket.socket, reason: str) -> None:
        # The reason strings name the failed check, not its inputs — no
        # nonce, MAC, or secret material ever reaches the log stream.
        logger.warning("rejecting enrollment: %s", reason)
        try:
            send_frame(conn, Frame(FrameKind.ERROR, (None, reason)), self._codec)
        except (ClusterError, OSError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------ reading

    def _read_loop(self, worker: _Worker) -> None:
        try:
            while worker.alive:
                frame = recv_frame(worker.conn, self._codec)
                worker.last_seen = time.monotonic()
                if frame.kind is FrameKind.RESULT:
                    worker.last_result_at = worker.last_seen
                    # Telemetry-enabled workers piggyback their drained span
                    # and metric events as an optional third payload element.
                    payload = frame.payload
                    key, value = payload[0], payload[1]
                    if len(payload) > 2 and payload[2]:
                        telemetry.ingest(payload[2], worker=worker.worker_id)
                    logger.debug("result for task %s from worker %s", key, worker.worker_id)
                    self._complete(key, value)
                elif frame.kind is FrameKind.ERROR:
                    worker.last_result_at = worker.last_seen
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

    def _complete(self, key: int, value: Any) -> None:
        with self._cond:
            task = self._tasks.pop(key, None)
            if task is None or task.done:
                return  # duplicate delivery after a reassignment: first wins
            task.done = True
            task.result = value
            if task.assigned_to is not None:
                task.assigned_to.in_flight.pop(key, None)
                task.assigned_to = None
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
                    if sibling.assigned_to is not None:
                        sibling.assigned_to.in_flight.pop(sibling.key, None)
                        sibling.assigned_to = None
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
            if task.assigned_to is not None:
                task.assigned_to.in_flight.pop(task.key, None)
                task.assigned_to = None
            group = task.group
        # Cancel the group's other tasks: drop pending ones, forget
        # in-flight ones (late results for them are ignored idempotently).
        self._cancel_group(group, exc)
        self._pump()

    def _retire(self, worker: _Worker, reason: str) -> None:
        """Drop a dead worker and requeue its in-flight tasks (at-least-once)."""
        poisoned: List[_Task] = []
        requeued: List[int] = []
        with self._cond:
            if not worker.alive:
                return
            worker.alive = False
            closing = self._closed
            self._workers.pop(worker.worker_id, None)
            orphans = sorted(worker.in_flight.values(), key=lambda task: task.index)
            worker.in_flight.clear()
            # Requeued ahead of fresh work, in index order (appendleft of the
            # reversed list keeps the lowest index at the queue front), so a
            # reassigned early shard does not wait behind the whole backlog.
            for task in reversed(orphans):
                if task.done:
                    continue
                task.assigned_to = None
                task.attempts += 1
                if task.attempts >= MAX_TASK_ATTEMPTS:
                    poisoned.append(task)
                else:
                    self._pending.appendleft(task)
                    requeued.append(task.key)
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
                "worker %s lost (%s); requeued task key(s) %s",
                worker.worker_id, reason, sorted(requeued) or "none",
            )
            telemetry.counter("cluster.worker.lost", worker=worker.worker_id, reason=reason)
            if reason == "heartbeat timeout":
                telemetry.counter("cluster.heartbeat.miss", worker=worker.worker_id)
            if requeued:
                telemetry.counter("cluster.reassign", len(requeued), worker=worker.worker_id)
        for task in poisoned:
            self._cancel_group(
                task.group,
                ClusterError(
                    f"shard {task.index} was reassigned {task.attempts} times "
                    f"(last worker loss: {reason}); giving it up as poisoned"
                ),
            )
        try:
            worker.conn.close()
        except OSError:
            pass
        self._pump()

    # ------------------------------------------------------------------ dispatch

    def _assign(self) -> List[Tuple[_Worker, _Task]]:
        """Pair pending tasks with free worker slots (called under the lock)."""
        assignments: List[Tuple[_Worker, _Task]] = []
        if not self._pending:
            return assignments
        workers = [w for w in self._workers.values() if w.alive]
        if not workers:
            return assignments
        # Least-loaded first keeps shard latency flat across heterogeneous
        # workers; ties break on enrollment order (dict order).
        while self._pending:
            workers.sort(key=lambda w: len(w.in_flight) / w.slots)
            target = workers[0]
            if len(target.in_flight) >= target.slots:
                break
            task = self._pending.popleft()
            if task.done:
                continue
            task.assigned_to = target
            task.dispatched_at = time.monotonic()
            target.in_flight[task.key] = task
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
                # The optional trailing traceparent keeps the frame layout
                # backward compatible: workers accept 4- or 5-element tasks.
                if task.trace:
                    frame = Frame(FrameKind.TASK, (task.key, *task.payload, task.trace))
                else:
                    frame = Frame(FrameKind.TASK, (task.key, *task.payload))
                try:
                    # Leaf lock: held only for this one frame write, taken
                    # after every coordinator lock is released, and nothing
                    # blocks under it but the socket itself.
                    with worker.send_lock:
                        send_frame(worker.conn, frame, self._codec)  # repro: noqa[REP004]
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
        worker daemon (``"map"``/``"star"`` run ``data`` through the
        worker's local executor; ``"call"`` invokes ``fn(*data)`` once).

        Raises the first task exception unchanged (matching the in-process
        executor contract) or :class:`ClusterError` when the cluster cannot
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
        interval = max(0.05, min(self._heartbeat_interval, 1.0) / 2)
        while not self._closed:
            time.sleep(interval)
            now = time.monotonic()
            stale: List[Tuple[_Worker, str]] = []
            with self._lock:
                for worker in self._workers.values():
                    if now - worker.last_seen > self._heartbeat_timeout:
                        stale.append((worker, "heartbeat timeout"))
                    elif self._task_timeout is not None and worker.in_flight:
                        # Workers serve in-flight tasks sequentially, so the
                        # currently-executing task started at its dispatch or
                        # at the worker's previous result — whichever is
                        # later.  Timing from dispatch alone would charge
                        # queued tasks their predecessors' runtimes and
                        # retire perfectly healthy workers.
                        oldest = min(task.dispatched_at for task in worker.in_flight.values())
                        if now - max(oldest, worker.last_result_at) > self._task_timeout:
                            stale.append((worker, "task timeout"))
            for worker, reason in stale:
                self._retire(worker, reason)

    # ------------------------------------------------------------------ lifecycle

    def shutdown(self) -> None:
        """Stop accepting, tell workers to exit, fail anything outstanding."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._cond.notify_all()
        for listener in self._listeners:
            try:
                listener.close()
            except OSError:
                pass
        for worker in workers:
            try:
                # Same leaf send-lock as _pump: serializes one frame write.
                with worker.send_lock:
                    send_frame(  # repro: noqa[REP004]
                        worker.conn, Frame(FrameKind.SHUTDOWN), self._codec
                    )
            except (ClusterError, OSError):
                pass
            self._retire(worker, "coordinator shutdown")
        with self._cond:
            self._cond.notify_all()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterCoordinator(addresses={self.addresses}, "
            f"workers={self.num_workers}, slots={self.total_slots})"
        )
