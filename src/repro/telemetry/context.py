"""Request-scoped trace context: the glue that makes spans *distributed*.

A :class:`TraceContext` is the portable half of a span: the ``trace_id``
naming the end-to-end operation (one HTTP cast, one tally), the ``span_id``
of the innermost open span (the parent any new child attaches under), and
the head-sampling decision.  It travels two ways:

- **In-process** via a :mod:`contextvars.ContextVar`, so parenting is
  correct in asyncio (each task sees its own copy-on-write context) *and*
  across ``asyncio.to_thread`` (which copies the context into the worker
  thread).  Plain ``threading.Thread`` does **not** inherit context — that
  is deliberate: a daemon flusher thread must not adopt whatever request
  happened to spawn it.  Boundaries that *should* carry context across a
  bare thread or queue hop capture it with :func:`current_context` and
  re-attach with :func:`attach`/:func:`detach`.
- **Between processes** as a W3C ``traceparent``-style header
  (``00-<32 hex trace>-<16 hex span>-<2 hex flags>``): the SDK sends it on
  HTTP requests, the gateway parses or mints one per request, and cluster
  TASK frames carry it to workers so their spans parent into the
  originating request.

Head sampling is decided once, when a trace is minted, from
``REPRO_TELEMETRY_SAMPLE`` (a probability in ``[0, 1]``, default ``1``).
The decision is a deterministic hash of the trace ID, so every process
that sees the same trace agrees without coordination.  Spans in an
unsampled trace still mint IDs and maintain parenting (children may turn
out to error), but only *record* when they fail — errors are always
sampled.
"""

from __future__ import annotations

import contextvars
import secrets
from typing import Any, NamedTuple, Optional

from repro.spec import env

#: Env knob: head-sampling probability in [0, 1].  Read per mint, so tests
#: and long-lived gateways can flip it without restarting.
SAMPLE_ENV = "REPRO_TELEMETRY_SAMPLE"

#: The HTTP header (and frame field) the context travels in.
TRACEPARENT_HEADER = "traceparent"

_VERSION = "00"
_HEX = frozenset("0123456789abcdef")

# 2^32 buckets for the deterministic sampling hash of the trace ID prefix.
_SAMPLE_BUCKETS = float(1 << 32)


class TraceContext(NamedTuple):
    """The portable trace state: ``(trace_id, span_id, sampled)``.

    ``trace_id`` is 32 lowercase hex chars; ``span_id`` is the 16-hex ID of
    the current span (the parent for any child opened under this context),
    or ``""`` for a freshly minted trace that has not opened a span yet.
    """

    trace_id: str
    span_id: str
    sampled: bool

    def to_traceparent(self) -> str:
        """Encode as a W3C-style ``traceparent`` value."""
        parent = self.span_id if len(self.span_id) == 16 else "0" * 16
        flags = "01" if self.sampled else "00"
        return f"{_VERSION}-{self.trace_id}-{parent}-{flags}"

    def child(self, span_id: str) -> "TraceContext":
        """The context a span opened under this one installs for *its* children."""
        return TraceContext(self.trace_id, span_id, self.sampled)


_ACTIVE: "contextvars.ContextVar[Optional[TraceContext]]" = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> Optional[TraceContext]:
    """The context attached to the current thread/task, or ``None``."""
    return _ACTIVE.get()


def attach(context: Optional[TraceContext]) -> "contextvars.Token[Optional[TraceContext]]":
    """Install ``context`` for the current execution scope.

    Returns a token for :func:`detach`.  Always pair the two (``try/finally``)
    — an unbalanced attach leaks the context into whatever runs next on the
    same thread.
    """
    return _ACTIVE.set(context)


def detach(token: "contextvars.Token[Optional[TraceContext]]") -> None:
    """Restore the context that was active before the paired :func:`attach`."""
    _ACTIVE.reset(token)


def new_trace_id() -> str:
    """A fresh 32-hex trace ID (CSPRNG-backed; collision-free in practice)."""
    return secrets.token_hex(16)


def sample_rate() -> float:
    """The head-sampling probability from ``REPRO_TELEMETRY_SAMPLE``.

    Read on every mint, so flipping the knob on a live process keeps
    working; a value that does not parse samples everything rather than
    failing the request being traced.
    """
    try:
        return env(SAMPLE_ENV)
    except ValueError:
        return 1.0


def trace_is_sampled(trace_id: str, rate: Optional[float] = None) -> bool:
    """Deterministic head-sampling decision for ``trace_id``.

    Hashing the ID (rather than rolling a die) means every process that
    parses the same traceparent reaches the same verdict with no flag
    handshake, and re-minting the decision is idempotent.
    """
    if rate is None:
        rate = sample_rate()
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    try:
        bucket = int(trace_id[:8], 16)
    except ValueError:
        return True
    return bucket < rate * _SAMPLE_BUCKETS


def new_trace(sampled: Optional[bool] = None) -> TraceContext:
    """Mint a fresh root context (no parent span yet)."""
    trace_id = new_trace_id()
    if sampled is None:
        sampled = trace_is_sampled(trace_id)
    return TraceContext(trace_id, "", sampled)


def parse_traceparent(value: Any) -> Optional[TraceContext]:
    """Decode a ``traceparent`` header value; ``None`` on anything malformed.

    Lenient on version (any 2-hex version parses, per the W3C forward-compat
    rule) and strict on shape: 32-hex trace, 16-hex parent, 2-hex flags.
    An all-zero trace ID is invalid and rejected.
    """
    if not isinstance(value, str):
        return None
    parts = value.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id, flags = parts[0], parts[1], parts[2], parts[3]
    if len(version) != 2 or not _HEX.issuperset(version) or version == "ff":
        return None
    if len(trace_id) != 32 or not _HEX.issuperset(trace_id) or trace_id == "0" * 32:
        return None
    if len(span_id) != 16 or not _HEX.issuperset(span_id) or span_id == "0" * 16:
        return None
    if len(flags) != 2 or not _HEX.issuperset(flags):
        return None
    sampled = bool(int(flags, 16) & 0x01)
    return TraceContext(trace_id, span_id, sampled)


def format_traceparent(context: Optional[TraceContext]) -> Optional[str]:
    """Encode a context for the wire; ``None`` stays ``None`` (nothing to send)."""
    if context is None:
        return None
    return context.to_traceparent()


__all__ = [
    "SAMPLE_ENV",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "attach",
    "current_context",
    "detach",
    "format_traceparent",
    "new_trace",
    "new_trace_id",
    "parse_traceparent",
    "sample_rate",
    "trace_is_sampled",
]
