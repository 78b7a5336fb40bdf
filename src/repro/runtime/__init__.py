"""repro.runtime — the parallel execution engine for the reproduction.

The hot paths of the Votegral pipeline (mix cascades, shuffle verification,
tag filtering, threshold decryption, ballot signature checks) are
embarrassingly parallel per ballot and per proof round.  This subsystem
gives them a single execution boundary plus the two classic algorithmic
accelerations that compose with any backend:

* :mod:`repro.runtime.executor` — pluggable ``Serial``/``Thread``/``Process``
  executors with order-preserving ``map``/``starmap`` and a module-level
  default (configure per election via
  :attr:`repro.election.config.ElectionConfig.executor_spec`);
* :mod:`repro.runtime.precompute` — windowed fixed-base exponentiation
  tables, transparently accelerating ``group.power`` and ElGamal operations
  on hot bases (generator, election public key);
* :mod:`repro.runtime.batch` — random-linear-combination batch verification
  for Schnorr signatures, Chaum–Pedersen transcripts, and the re-encryption
  openings of shuffle proofs;
* :mod:`repro.runtime.sharding` — how per-ballot work is split across
  workers so parallel output stays bit-identical to the serial reference;
* :mod:`repro.runtime.pipeline` — a streaming shard pipeline (bounded
  per-stage queues, backpressure, error propagation/cancellation): the
  tally's ledger read runs a page ahead of its signature check through it
  (:attr:`repro.election.config.ElectionConfig.pipeline_spec`), and the
  ``stream`` audit strategy verifies shard by shard.

Importing this package installs the fixed-base accelerator hook; everything
else is opt-in per call (``executor=...``) or per election (config).
"""

from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_workers,
    executor_from_spec,
    get_default_executor,
    resolve_executor,
    set_default_executor,
)
from repro.runtime.pipeline import (
    PipelineSpec,
    Shard,
    Stage,
    StopPipeline,
    StreamPipeline,
    iter_shards,
    pipeline_from_spec,
    shard_boundaries,
)
from repro.runtime.precompute import (
    FixedBaseTable,
    clear_tables,
    element_power,
    multi_element_power,
    set_precompute_enabled,
    warm_fixed_base,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "available_workers",
    "executor_from_spec",
    "get_default_executor",
    "set_default_executor",
    "resolve_executor",
    "FixedBaseTable",
    "element_power",
    "multi_element_power",
    "warm_fixed_base",
    "set_precompute_enabled",
    "clear_tables",
    "Shard",
    "Stage",
    "StreamPipeline",
    "StopPipeline",
    "PipelineSpec",
    "pipeline_from_spec",
    "iter_shards",
    "shard_boundaries",
]
