"""repro.runtime — the parallel execution engine for the reproduction.

The hot paths of the Votegral pipeline (mix cascades, shuffle verification,
tag filtering, threshold decryption, ballot signature checks) are
embarrassingly parallel per ballot and per proof round.  This subsystem
gives them a single execution boundary plus the two classic algorithmic
accelerations that compose with any backend:

* :mod:`repro.runtime.executor` — the order-preserving ``map``/``starmap``
  boundary: in process (``serial``) or across cluster workers
  (``cluster:N`` / ``remote:…``), configured per election via
  :attr:`repro.election.config.ElectionConfig.executor_spec`;
* :mod:`repro.runtime.precompute` — fixed-base comb tables (Lim–Lee),
  transparently accelerating ``group.power`` and ElGamal operations on hot
  bases (generator, election public key);
* :mod:`repro.runtime.batch` — random-linear-combination batch verification
  for Schnorr signatures, Chaum–Pedersen transcripts, and the re-encryption
  openings of shuffle proofs;
* :mod:`repro.runtime.pipeline` — the tally's ledger read-ahead (one
  reader thread, one bounded queue): under
  :attr:`repro.election.config.ElectionConfig.pipeline_spec` ``stream`` the
  paged ledger read runs ahead of the tally collecting the records.

Importing this package installs the fixed-base accelerator hook; everything
else is opt-in per call (``executor=...``) or per election (config).
"""

from repro.runtime.executor import (
    Executor,
    SerialExecutor,
    executor_from_spec,
    resolve_executor,
)
from repro.runtime.pipeline import PipelineSpec, StreamPipeline, pipeline_from_spec
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
    "executor_from_spec",
    "resolve_executor",
    "FixedBaseTable",
    "element_power",
    "multi_element_power",
    "warm_fixed_base",
    "set_precompute_enabled",
    "clear_tables",
    "StreamPipeline",
    "PipelineSpec",
    "pipeline_from_spec",
]
