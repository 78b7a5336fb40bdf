"""The execution boundary of the embarrassingly parallel hot paths.

Every heavy stage of the reproduction — mix-cascade re-encryption, shuffle
verification, tag blinding, threshold decryption, ballot signature checks —
is a pure function mapped over per-ballot (or per-round) work items.  This
module gives those stages a single, swappable execution boundary with two
backends:

* :class:`SerialExecutor` — a plain loop in this process; the default, zero
  overhead, and the reference semantics the other backend must reproduce
  bit-for-bit;
* :class:`~repro.cluster.executor.RemoteExecutor` — the same contract over
  worker processes behind the cluster wire protocol, selected by
  ``cluster:N`` (loopback workers) or ``remote:host:port`` (a real cluster).

Backends preserve input order and surface worker exceptions unchanged, so a
caller cannot observe which backend ran its work (other than the wall clock).
Work functions shipped to cluster workers must be module-level (picklable);
all runtime-internal helpers obey this rule.  A call site that is handed no
executor runs serially (:func:`resolve_executor`).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.spec import EXECUTOR


def chunk_evenly(items: Sequence[Any], num_chunks: int) -> List[List[Any]]:
    """Split ``items`` into at most ``num_chunks`` contiguous, near-equal chunks.

    Order is preserved: concatenating the chunks yields ``list(items)``.
    """
    n = len(items)
    num_chunks = max(1, min(num_chunks, n))
    base, extra = divmod(n, num_chunks)
    chunks: List[List[Any]] = []
    start = 0
    for index in range(num_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


class Executor(abc.ABC):
    """An order-preserving ``map``/``starmap`` engine."""

    name: str = "abstract"

    @property
    @abc.abstractmethod
    def num_workers(self) -> int:
        """How many workers this executor fans out across (1 for serial)."""

    @abc.abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any], chunksize: Optional[int] = None) -> List[Any]:
        """``[fn(x) for x in items]`` with backend-defined parallelism."""

    @abc.abstractmethod
    def starmap(self, fn: Callable[..., Any], items: Iterable[Tuple], chunksize: Optional[int] = None) -> List[Any]:
        """``[fn(*args) for args in items]`` with backend-defined parallelism."""

    def close(self) -> None:
        """Release worker resources.  Safe to call more than once."""

    def warm(self) -> None:
        """Make the workers ready before the first dispatch.

        A no-op in process; on a cluster, the enrollment barrier.
        """

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_workers={self.num_workers})"


class SerialExecutor(Executor):
    """The reference backend: a plain in-process loop."""

    name = "serial"

    @property
    def num_workers(self) -> int:
        return 1

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any], chunksize: Optional[int] = None) -> List[Any]:
        return [fn(item) for item in items]

    def starmap(self, fn: Callable[..., Any], items: Iterable[Tuple], chunksize: Optional[int] = None) -> List[Any]:
        return [fn(*args) for args in items]


_SERIAL = SerialExecutor()


def resolve_executor(executor: Optional[Executor]) -> Executor:
    """``executor``, or the in-process reference when a call site was given none."""
    return executor if executor is not None else _SERIAL


def executor_from_spec(spec: str) -> Executor:
    """Build an executor from an ``executor_spec`` (forms: :data:`repro.spec.EXECUTOR`).

    The multi-node heads live in :mod:`repro.cluster`, imported lazily so the
    runtime layer never pays for — or cyclically depends on — it unless a
    cluster is requested.
    """
    head, _ = EXECUTOR.parse(spec)
    if head == "serial":
        return SerialExecutor()
    from repro.cluster.executor import remote_executor_from_spec

    return remote_executor_from_spec(spec)
