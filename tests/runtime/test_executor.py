"""Executor backends: ordering, equivalence, error propagation, specs."""

from __future__ import annotations

import pytest

import cluster_tasks
from cluster_tasks import CLUSTER_WORKERS

from repro.cluster.executor import RemoteExecutor
from repro.runtime.executor import (
    SerialExecutor,
    chunk_evenly,
    executor_from_spec,
    resolve_executor,
)


@pytest.fixture(params=["serial", "cluster"])
def executor(request):
    if request.param == "serial":
        return SerialExecutor()
    return request.getfixturevalue("cluster_executor")


class TestBackends:
    def test_map_matches_serial_reference(self, executor):
        items = list(range(37))
        assert executor.map(cluster_tasks.square, items) == [x * x for x in items]

    def test_starmap_matches_serial_reference(self, executor):
        items = [(a, a + 1) for a in range(23)]
        assert executor.starmap(cluster_tasks.add, items) == [a + b for a, b in items]

    def test_empty_input(self, executor):
        assert executor.map(cluster_tasks.square, []) == []
        assert executor.starmap(cluster_tasks.add, []) == []

    def test_single_item(self, executor):
        assert executor.map(cluster_tasks.square, [7]) == [49]

    def test_explicit_chunksize(self, executor):
        items = list(range(10))
        assert executor.map(cluster_tasks.square, items, chunksize=3) == [x * x for x in items]

    def test_worker_exception_propagates(self, executor):
        with pytest.raises(ValueError, match="unlucky"):
            executor.map(cluster_tasks.explode, list(range(20)))

    @pytest.mark.parametrize("spec", ["serial", "remote:127.0.0.1:0", "cluster:1"])
    def test_close_is_idempotent(self, spec, monkeypatch):
        # Each case closes an executor of its own: closing the shared cluster
        # would strand the rest of the module.
        monkeypatch.setenv("REPRO_CLUSTER_SECRET", "00ff")
        executor = executor_from_spec(spec)
        workers = []
        if spec.startswith("cluster"):
            executor.warm()
            workers = list(executor.worker_processes)
            assert workers
        executor.close()
        executor.close()
        assert all(process.poll() is not None for process in workers)

    def test_shared_cluster_enrols_the_configured_workers(self, cluster_executor):
        # REPRO_CLUSTER_WORKERS sets the geometry under the stress leg.
        assert cluster_executor.coordinator.num_workers == CLUSTER_WORKERS

    def test_serial_map_and_starmap_are_separate_entry_points(self, monkeypatch):
        # The benchmark counts every call into either as one executor.map, so
        # neither may route through the other.
        def refuse(*args, **kwargs):
            raise AssertionError("routed through the other entry point")

        executor = SerialExecutor()
        monkeypatch.setattr(SerialExecutor, "starmap", refuse)
        assert executor.map(cluster_tasks.square, [2, 3]) == [4, 9]
        monkeypatch.undo()
        monkeypatch.setattr(SerialExecutor, "map", refuse)
        assert executor.starmap(cluster_tasks.add, [(1, 2)]) == [3]


class TestChunking:
    def test_concatenation_restores_order(self):
        items = list(range(101))
        for num_chunks in (1, 2, 3, 7, 50, 101, 500):
            chunks = chunk_evenly(items, num_chunks)
            assert [x for chunk in chunks for x in chunk] == items

    def test_chunks_are_balanced(self):
        chunks = chunk_evenly(list(range(10)), 3)
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert all(chunk for chunk in chunks)

    def test_never_more_chunks_than_items(self):
        assert len(chunk_evenly([1, 2], 8)) == 2


class TestSpecs:
    def test_serial_spec(self):
        assert isinstance(executor_from_spec("serial"), SerialExecutor)

    def test_spec_is_case_insensitive(self):
        assert isinstance(executor_from_spec("  Serial "), SerialExecutor)

    @pytest.mark.parametrize("spec", ["thread:2", "process", "process:2"])
    def test_pool_heads_are_gone(self, spec):
        with pytest.raises(ValueError, match=r"serial \| cluster:num_workers \| remote:listen"):
            executor_from_spec(spec)

    @pytest.mark.parametrize(
        "spec", ["gpu", "thread:zero", "process:0", "cluster:zero", "cluster:0", "serial:2"]
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ValueError):
            executor_from_spec(spec)

    def test_cluster_spec_with_count(self):
        executor = executor_from_spec("cluster:3")
        try:
            assert isinstance(executor, RemoteExecutor)
            assert executor.num_workers == 3
            assert executor.worker_processes == []  # spawned at the first warm, not here
        finally:
            executor.close()


class TestDefaultExecutor:
    def test_default_is_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert resolve_executor(None) is resolve_executor(None)

    def test_resolve_prefers_explicit(self):
        explicit = SerialExecutor()
        assert resolve_executor(explicit) is explicit
