"""Unit tests for the streaming shard pipeline scheduler.

The CI stress job reruns this module with randomized
``REPRO_PIPELINE_SHARD_SIZE`` / ``REPRO_PIPELINE_QUEUE_DEPTH`` to shake out
schedule-dependent bugs (in the stateless-model-checking spirit: explore many
interleavings systematically rather than by luck of one scheduler).
"""

from __future__ import annotations

import random
import threading
import time

import pytest

import cluster_tasks

from repro.runtime.executor import SerialExecutor
from repro.runtime.pipeline import (
    DEFAULT_QUEUE_DEPTH,
    PipelineSpec,
    Shard,
    Stage,
    StopPipeline,
    StreamPipeline,
    iter_shards,
    pipeline_from_spec,
    shard_boundaries,
)
from repro.spec import env

#: Randomized by the CI stress job; the defaults keep local runs deterministic.
SHARD_SIZE = env("REPRO_PIPELINE_SHARD_SIZE") or 3
QUEUE_DEPTH = env("REPRO_PIPELINE_QUEUE_DEPTH") or 2


def _double(x):
    return 2 * x


def _add_one(x):
    return x + 1


def _collect(shards):
    return [item for shard in shards for item in shard.items]


class MapStage(Stage):
    """A stateless 1:1 stage: apply ``fn`` to every item of every shard."""

    def __init__(self, fn, executor=None):
        self.fn = fn
        self.executor = executor or SerialExecutor()
        self.name = fn.__name__

    def process(self, shard):
        yield Shard(shard.index, self.executor.map(self.fn, shard.items))


# ----------------------------------------------------------------- sharding


def test_shard_boundaries_cover_stream():
    assert shard_boundaries(10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert shard_boundaries(0, 4) == []
    assert shard_boundaries(3, 10) == [(0, 3)]
    with pytest.raises(ValueError):
        shard_boundaries(5, 0)


def test_iter_shards_roundtrip():
    items = list(range(23))
    shards = list(iter_shards(items, SHARD_SIZE))
    assert [shard.index for shard in shards] == list(range(len(shards)))
    assert _collect(shards) == items
    assert all(len(shard) <= SHARD_SIZE for shard in shards)


# ----------------------------------------------------------------- pipelines


def test_map_stages_preserve_order():
    items = list(range(100))
    stages = [MapStage(_double), MapStage(_add_one), MapStage(_double)]
    shards = StreamPipeline(stages, queue_depth=QUEUE_DEPTH).run(iter_shards(items, SHARD_SIZE))
    assert _collect(shards) == [(2 * x + 1) * 2 for x in items]
    assert [shard.index for shard in shards] == list(range(len(shards)))


def test_map_stage_with_cluster_executor(cluster_executor):
    items = list(range(60))
    shards = StreamPipeline(
        [MapStage(cluster_tasks.square, executor=cluster_executor)], queue_depth=QUEUE_DEPTH
    ).run(iter_shards(items, SHARD_SIZE))
    assert _collect(shards) == [x * x for x in items]


def test_pipeline_is_single_use():
    pipeline = StreamPipeline([MapStage(_double)])
    pipeline.run(iter_shards([1, 2, 3], 2))
    with pytest.raises(RuntimeError):
        pipeline.run(iter_shards([1], 1))


def test_backpressure_bounds_buffering():
    """A slow sink stage must throttle the source via the bounded queues."""
    produced = []

    def source():
        for index, shard in enumerate(iter_shards(list(range(40)), 2)):
            produced.append(index)
            yield shard

    class SlowStage(Stage):
        name = "slow"

        def __init__(self):
            self.consumed = 0
            self.max_lead = 0

        def process(self, shard):
            self.consumed += 1
            self.max_lead = max(self.max_lead, len(produced) - self.consumed)
            time.sleep(0.002)
            yield shard

    stage = SlowStage()
    StreamPipeline([stage], queue_depth=2).run(source())
    assert stage.consumed == 20
    # The source can run ahead by at most the queue bound plus the shards
    # in-hand (one in the source thread, one in the stage thread).
    assert stage.max_lead <= 2 + 2


class _FailingStage(Stage):
    name = "failing"

    def __init__(self, fail_at_index):
        self.fail_at_index = fail_at_index

    def process(self, shard):
        if shard.index == self.fail_at_index:
            raise ValueError(f"injected failure at shard {shard.index}")
        yield shard


def test_stage_error_propagates_unchanged():
    with pytest.raises(ValueError, match="injected failure at shard 2"):
        StreamPipeline([MapStage(_double), _FailingStage(2)], queue_depth=QUEUE_DEPTH).run(
            iter_shards(list(range(30)), 3)
        )


def test_stage_error_joins_all_threads():
    before = threading.active_count()
    with pytest.raises(ValueError):
        StreamPipeline([_FailingStage(0), MapStage(_double)], queue_depth=1).run(
            iter_shards(list(range(50)), 1)
        )
    deadline = time.time() + 5
    while threading.active_count() > before and time.time() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before


def test_source_error_propagates():
    def broken_source():
        yield Shard(0, [1, 2])
        raise OSError("ledger read failed")

    with pytest.raises(OSError, match="ledger read failed"):
        StreamPipeline([MapStage(_double)], queue_depth=QUEUE_DEPTH).run(broken_source())


def test_consumer_error_propagates():
    def consume(shard):
        raise KeyError("sink exploded")

    with pytest.raises(KeyError):
        StreamPipeline([MapStage(_double)], queue_depth=QUEUE_DEPTH).run(
            iter_shards(list(range(10)), 2), consume=consume
        )


def test_stop_pipeline_cancels_remaining_work():
    seen = []

    def consume(shard):
        seen.append(shard.index)
        raise StopPipeline()

    collected = StreamPipeline([MapStage(_double)], queue_depth=1).run(
        iter_shards(list(range(100)), 1), consume=consume
    )
    assert seen == [0]
    assert len(collected) == 1
    # Bounded queues mean cancellation leaves most of the stream unprocessed.
    assert len(collected) < 100


def test_stateful_stage_with_tail_emission():
    class Batcher(Stage):
        """Re-batches items into pairs, emitting the remainder at finish()."""

        name = "batcher"

        def __init__(self):
            self._buffer = []
            self._emitted = 0

        def _drain(self):
            while len(self._buffer) >= 2:
                pair, self._buffer = self._buffer[:2], self._buffer[2:]
                yield Shard(self._emitted, pair)
                self._emitted += 1

        def process(self, shard):
            self._buffer.extend(shard.items)
            yield from self._drain()

        def finish(self):
            if self._buffer:
                yield Shard(self._emitted, list(self._buffer))

    shards = StreamPipeline([Batcher()], queue_depth=QUEUE_DEPTH).run(iter_shards(list(range(11)), 3))
    assert _collect(shards) == list(range(11))
    assert [len(shard) for shard in shards] == [2, 2, 2, 2, 2, 1]


def test_randomized_schedules_stay_deterministic():
    """Many random shard/queue geometries must all produce the serial answer."""
    rng = random.Random((env("REPRO_STRESS_ITERATION") or 0) + 1234)
    items = list(range(200))
    expected = [(2 * x + 1) for x in items]
    for _ in range(5):
        shard_size = rng.randrange(1, 9)
        queue_depth = rng.randrange(1, 5)
        shards = StreamPipeline(
            [MapStage(_double), MapStage(_add_one)], queue_depth=queue_depth
        ).run(iter_shards(items, shard_size))
        assert _collect(shards) == expected, f"shard={shard_size} depth={queue_depth}"


# ----------------------------------------------------------------- spec parsing


def test_pipeline_spec_defaults():
    assert pipeline_from_spec(None) == PipelineSpec(streaming=False)
    assert pipeline_from_spec("serial").streaming is False


def test_pipeline_spec_streaming_forms():
    assert pipeline_from_spec("stream") == PipelineSpec(True, DEFAULT_QUEUE_DEPTH)
    assert pipeline_from_spec("stream:") == PipelineSpec(True, DEFAULT_QUEUE_DEPTH)
    assert pipeline_from_spec("stream:16") == PipelineSpec(True, 16)
    assert pipeline_from_spec("Stream:4") == PipelineSpec(streaming=True, queue_depth=4)


@pytest.mark.parametrize("bad", ["serial:2", "stream:x", "stream:0", "stream:4:2", "warp"])
def test_pipeline_spec_rejects_garbage(bad):
    with pytest.raises(ValueError):
        pipeline_from_spec(bad)


def test_pipeline_requires_stages_and_depth():
    with pytest.raises(ValueError):
        StreamPipeline([])
    with pytest.raises(ValueError):
        StreamPipeline([MapStage(_double)], queue_depth=0)


def test_executor_warm_is_safe(cluster_executor):
    SerialExecutor().warm()  # no-op
    cluster_executor.warm()  # already enrolled: returns at once
    assert cluster_executor.map(cluster_tasks.square, [1, 2, 3]) == [1, 4, 9]
