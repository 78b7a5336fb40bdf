"""Multi-node tally and audit: remote-worker executors behind ``executor_spec``.

The last ROADMAP scaling item made concrete: :mod:`repro.runtime`'s
executor boundary is location-transparent, the ledger exposes cursor-paged
reads, and audit plans are picklable — this package adds the missing
piece, workers in other processes and on other machines:

* :mod:`repro.cluster.protocol` — the length-prefixed, versioned wire
  format (typed frames, one pickle codec, signed-hello enrollment);
* :mod:`repro.cluster.coordinator` — enrollment, ordered dispatch with
  idempotent at-least-once reassignment, liveness reaping;
* :mod:`repro.cluster.executor` — :class:`~repro.cluster.executor.RemoteExecutor` behind the
  ``executor_spec`` strings ``"remote:host:port[,…]"`` and ``"cluster:N"``;
* :mod:`repro.cluster.worker` — the daemon
  (``python -m repro.cluster.worker --connect host:port``, one per core)
  that warms precompute tables before serving shards one at a time.

Security model in one line: the signed hello keeps strangers out, but the
pickle codec trusts everyone inside — run clusters on trusted networks
only (see the README's multi-node section).
"""
