"""In-memory spans recorded from outside the program under test.

The benchmark times calls into ``repro``'s public functions by replacing the
public name with a wrapper (``setattr`` on the module or class that holds
it); nothing under ``src/`` knows it is being measured.  Spans are kept in a
list and written out when the benchmark ends.

Two tiers keep the arithmetic honest.  *Stage* spans are the calls a phase
makes (``tally.mix``, ``ledger.read``, ``voting.cast`` …); *primitive* spans
are what stages are built from (``crypto.exp``, ``runtime.batch`` …).  A
span's parent is the innermost open span **of its own tier** on the same
thread, and its self time is its duration minus its children's durations —
so each tier on its own partitions the wall clock of a single-threaded
phase, and the stage tier can be summed against a phase without the
primitive tier having been subtracted out of it first.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

STAGE = "stage"
PRIMITIVE = "primitive"


class Span(NamedTuple):
    span_id: int
    parent_id: Optional[int]
    name: str
    tier: str
    thread: int
    start: float
    end: float
    #: A count the wrapper read off the call (terms, pages, checks); 0 if none.
    value: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children of one parent run on the parent's thread, one after another, so
    the part they cover is the sum of their durations.
    """
    spans = list(spans)
    remaining = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent_id is not None and span.parent_id in remaining:
            remaining[span.parent_id] -= span.duration
    return remaining


class Tracer:
    """Records spans and owns the wrappers that produce them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------------- spans

    def _stack(self, tier: str) -> List[int]:
        stacks = getattr(self._local, "stacks", None)
        if stacks is None:
            stacks = self._local.stacks = {STAGE: [], PRIMITIVE: []}
        return stacks[tier]

    def begin(self, tier: str) -> Tuple[int, Optional[int], float]:
        span_id = next(self._ids)
        stack = self._stack(tier)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, self.clock()

    def end(self, token: Tuple[int, Optional[int], float], name: str, tier: str, value: float = 0) -> None:
        end = self.clock()
        span_id, parent, start = token
        self._stack(tier).pop()
        self.spans.append(
            Span(span_id, parent, name, tier, threading.get_ident(), start, end, value)
        )

    def take(self) -> List[Span]:
        """Hand over the spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans

    # -------------------------------------------------------------- wrappers

    def wrap(
        self,
        fn: Callable,
        name: str,
        tier: str,
        value: Optional[Callable[[Any, tuple, dict], float]] = None,
    ) -> Callable:
        """A function that records one span per call of ``fn``.

        ``value(result, args, kwargs)`` optionally reads a count off the
        call.  The wrapper keeps ``fn``'s module and qualified name, so a
        wrapped function still pickles by reference.
        """
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = begin(tier)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(token, name, tier, value(result, args, kwargs) if value else 0)

        return wrapper

    def wrap_generator(self, fn: Callable, name: str, tier: str) -> Callable:
        """One span per item pulled from the generator ``fn`` returns.

        The consumer's work between two pulls is not the generator's time, so
        a single span around the whole iteration would be wrong.  The pull
        that finds the generator exhausted is recorded with value 0, an item
        with value 1.
        """
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                token = begin(tier)
                try:
                    item = next(iterator)
                except StopIteration:
                    end(token, name, tier, 0)
                    return
                except BaseException:
                    end(token, name, tier, 0)
                    raise
                end(token, name, tier, 1)
                yield item

        return wrapper

    def install(self, holder: Any, attr: str, name: str, tier: str, value=None, generator=False) -> None:
        """Replace ``holder.attr`` (a module or class attribute) with a wrapper."""
        original = holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)
        wrapped = (
            self.wrap_generator(original, name, tier)
            if generator
            else self.wrap(original, name, tier, value)
        )
        self._installed.append((holder, attr, original))
        setattr(holder, attr, wrapped)

    def replace(self, holder: Any, attr: str, replacement: Any) -> None:
        """Set ``holder.attr`` to ``replacement`` and remember how to undo it."""
        self._installed.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, replacement)

    def uninstall(self) -> None:
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)


def to_json(spans: Iterable[Span], origin: float) -> List[Dict[str, Any]]:
    """Spans as plain dicts with times in seconds since ``origin``."""
    return [
        {
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "tier": span.tier,
            "thread": span.thread,
            "start": round(span.start - origin, 7),
            "end": round(span.end - origin, 7),
            "value": span.value,
        }
        for span in spans
    ]
