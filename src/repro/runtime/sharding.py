"""Sharding helpers: fan per-ballot / per-registration work out across workers.

The tally stages are data-parallel over ballots, registrations, shuffle
rounds, or cascade stages.  This module centralizes how that work is split
so every stage shards the same way:

* contiguous, order-preserving shards (:func:`~repro.runtime.executor.
  chunk_evenly`) — results concatenate back into ledger order, which keeps
  parallel output bit-identical to the serial reference; signature checking
  shards this way so each worker batch-verifies one shard;
* :func:`parallel_map` / :func:`parallel_starmap` — the one-line fan-out used
  by ``filter_ballots``, ``decrypt_votes``, the mix cascade (prove and
  verify sides) and :func:`repro.runtime.batch.verify_signatures`; they
  resolve the module-default executor so call sites only pass an executor
  when they want to override it.

Work functions must be module-level (picklable) for the process backend;
heavy shared objects (the DKG, the tagging authority, the ElGamal context)
travel inside each task tuple and are deduplicated per chunk by pickling.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.runtime.executor import Executor, resolve_executor


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    executor: Optional[Executor] = None,
    chunksize: Optional[int] = None,
) -> List[Any]:
    """Order-preserving parallel ``map`` against the resolved executor."""
    return resolve_executor(executor).map(fn, items, chunksize=chunksize)


def parallel_starmap(
    fn: Callable[..., Any],
    items: Iterable[Tuple],
    executor: Optional[Executor] = None,
    chunksize: Optional[int] = None,
) -> List[Any]:
    """Order-preserving parallel ``starmap`` against the resolved executor."""
    return resolve_executor(executor).starmap(fn, items, chunksize=chunksize)
