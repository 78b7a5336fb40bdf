"""Multi-node tally and audit: remote-worker executors behind ``executor_spec``.

The last ROADMAP scaling item made concrete: :mod:`repro.runtime`'s
executor boundary is location-transparent, the ledger exposes cursor-paged
reads, and audit plans are picklable — this package adds the missing
piece, workers in other processes and on other machines:

* :mod:`repro.cluster.protocol` — the length-prefixed, versioned wire
  format (typed frames, pluggable codec, signed-hello enrollment);
* :mod:`repro.cluster.coordinator` — enrollment, ordered dispatch with
  idempotent at-least-once reassignment, liveness reaping;
* :mod:`repro.cluster.executor` — :class:`RemoteExecutor` behind the
  ``executor_spec`` strings ``"remote:host:port[,…]"`` and ``"cluster:N"``;
* :mod:`repro.cluster.worker` — the daemon
  (``python -m repro.cluster.worker --connect host:port``, one per core)
  that warms precompute tables before serving shards one at a time.

Security model in one line: the signed hello keeps strangers out, but the
pickle codec trusts everyone inside — run clusters on trusted networks
only (see the README's multi-node section).
"""

from typing import Any

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.executor import RemoteExecutor, remote_executor_from_spec, spawn_local_worker
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    Codec,
    Frame,
    FrameKind,
    PickleCodec,
    recv_frame,
    send_frame,
)

def __getattr__(name: str) -> Any:
    # WorkerDaemon is resolved lazily: eagerly importing repro.cluster.worker
    # here would race ``python -m repro.cluster.worker`` (runpy warns when the
    # module to run is already in sys.modules via its package import).
    if name == "WorkerDaemon":
        from repro.cluster.worker import WorkerDaemon

        return WorkerDaemon
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClusterCoordinator",
    "Codec",
    "Frame",
    "FrameKind",
    "PROTOCOL_VERSION",
    "PickleCodec",
    "RemoteExecutor",
    "WorkerDaemon",
    "recv_frame",
    "remote_executor_from_spec",
    "send_frame",
    "spawn_local_worker",
]
