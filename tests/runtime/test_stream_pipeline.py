"""Unit tests for the ledger read-ahead (:class:`StreamPipeline`).

The CI stress job reruns this module with a randomized
``REPRO_PIPELINE_QUEUE_DEPTH`` to shake out schedule-dependent bugs (in the
stateless-model-checking spirit: explore many interleavings systematically
rather than by luck of one scheduler).
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
    StreamPipeline,
    pipeline_from_spec,
)
from repro.spec import env

#: Randomized by the CI stress job; the default keeps local runs deterministic.
QUEUE_DEPTH = env("REPRO_PIPELINE_QUEUE_DEPTH") or 2


def _double(x):
    return 2 * x


# ----------------------------------------------------------------- pipelines


def test_results_come_back_in_source_order():
    assert StreamPipeline(_double, queue_depth=QUEUE_DEPTH).run(iter(range(100))) == [2 * x for x in range(100)]
    assert StreamPipeline(_double, queue_depth=QUEUE_DEPTH).run([]) == []


def test_function_runs_in_the_callers_thread_and_the_source_on_another():
    caller = threading.get_ident()
    read_on, run_on = set(), set()

    def source():
        for page in range(5):
            read_on.add(threading.get_ident())
            yield page

    StreamPipeline(lambda page: run_on.add(threading.get_ident()), queue_depth=QUEUE_DEPTH).run(source())
    assert run_on == {caller}
    assert read_on and caller not in read_on


def test_backpressure_bounds_buffering():
    """A slow function must throttle the reader through the bounded queue."""
    produced, lead = [], []

    def source():
        for page in range(20):
            produced.append(page)
            yield page

    def slow(page):
        lead.append(len(produced) - (page + 1))
        time.sleep(0.002)
        return page

    StreamPipeline(slow, queue_depth=2).run(source())
    assert len(lead) == 20
    # The reader can run ahead by at most the queue bound plus the page in hand.
    assert max(lead) <= 2 + 1


def test_function_error_propagates_and_joins_the_reader():
    before = threading.active_count()

    def failing(page):
        if page == 2:
            raise ValueError(f"injected failure at page {page}")
        return page

    with pytest.raises(ValueError, match="injected failure at page 2"):
        StreamPipeline(failing, queue_depth=1).run(iter(range(50)))
    assert threading.active_count() <= before


def test_function_error_stops_a_reader_blocked_on_a_full_queue():
    """An endless source fills the queue; the function's error must still
    return promptly, with the reader cancelled rather than left blocked."""
    before = set(threading.enumerate())

    def endless():
        page = 0
        while True:
            yield page
            page += 1

    def failing(page):
        time.sleep(0.01)  # let the reader fill the queue and block on put
        raise RuntimeError("check failed")

    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="check failed"):
        StreamPipeline(failing, queue_depth=1).run(endless())
    assert time.perf_counter() - start < 5
    assert set(threading.enumerate()) <= before


def test_source_error_propagates():
    def broken_source():
        yield 1
        raise OSError("ledger read failed")

    with pytest.raises(OSError, match="ledger read failed"):
        StreamPipeline(_double, queue_depth=QUEUE_DEPTH).run(broken_source())


def test_source_error_joins_the_reader():
    before = set(threading.enumerate())

    def broken_source():
        yield from range(10)
        raise OSError("ledger read failed")

    with pytest.raises(OSError):
        StreamPipeline(_double, queue_depth=1).run(broken_source())
    assert set(threading.enumerate()) <= before


def test_a_pipeline_runs_again_with_a_fresh_reader():
    """A run keeps no state on the instance: the same pipeline serves every read."""
    pipeline = StreamPipeline(_double, queue_depth=QUEUE_DEPTH)
    assert pipeline.run(range(7)) == [2 * x for x in range(7)]
    assert pipeline.run(range(3)) == [0, 2, 4]
    assert pipeline.run([]) == []


def test_randomized_schedules_stay_deterministic():
    """Many random queue depths and read delays must all produce the serial answer."""
    rng = random.Random((env("REPRO_STRESS_ITERATION") or 0) + 1234)
    for _ in range(5):
        queue_depth, delay = rng.randrange(1, 5), rng.choice((0.0, 0.0005))

        def source():
            for page in range(60):
                if delay:
                    time.sleep(delay)
                yield page

        assert StreamPipeline(_double, queue_depth=queue_depth).run(source()) == [2 * x for x in range(60)], (
            f"depth={queue_depth} delay={delay}"
        )


def test_pipeline_requires_a_positive_depth():
    with pytest.raises(ValueError):
        StreamPipeline(_double, queue_depth=0)


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


def test_executor_warm_is_safe(cluster_executor):
    SerialExecutor().warm()  # no-op
    cluster_executor.warm()  # already enrolled: returns at once
    assert cluster_executor.map(cluster_tasks.square, [1, 2, 3]) == [1, 4, 9]
