"""Admission control: token buckets, bounded queues, and load shedding.

The gateway is where untrusted clients first meet the trusted stack, so the
resource envelope is enforced here, before any crypto or ledger work runs:

* **Token buckets** per tenant and per client (the peer address, or an
  ``X-Client-Id`` header when present) bound the sustained cast rate while
  allowing bursts up to the bucket size.  Buckets take the current monotonic
  time as an argument — the governor never reads an ambient clock, which
  keeps it trivially testable and REP002-clean.
* **A bounded admission queue** caps the number of casts admitted but not
  yet acknowledged by the ledger.  When it is full the request is **shed**:
  a 429 with a ``Retry-After`` hint, instead of an unbounded queue that
  converts overload into latency for everyone.
* **Drain mode** rejects new work with 503 while in-flight appends finish —
  the graceful-shutdown half of load shedding.

All state is owned by the event loop thread; nothing here takes locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.spec import KNOBS, env

#: Environment knobs (also set by the CLI flags); the stress CI leg
#: randomizes these to shake schedule-dependent flush bugs out.
BATCH_SIZE_ENV = "REPRO_GATEWAY_BATCH_SIZE"
QUEUE_DEPTH_ENV = "REPRO_GATEWAY_QUEUE_DEPTH"

DEFAULT_BATCH_SIZE: int = KNOBS[BATCH_SIZE_ENV].default
DEFAULT_QUEUE_DEPTH: int = KNOBS[QUEUE_DEPTH_ENV].default

#: ``Retry-After`` of a cast shed on queue depth: long enough for a board
#: flush to acknowledge what is in flight.
QUEUE_FULL_RETRY_SECONDS = 0.05

#: Rate limits are deliberately generous by default — the gateway's job is
#: surviving overload, not metering honest traffic.  Tests dial these down.
DEFAULT_TENANT_RATE = 10_000.0
DEFAULT_TENANT_BURST = 2_048.0
DEFAULT_CLIENT_RATE = 2_000.0
DEFAULT_CLIENT_BURST = 512.0

#: Cap on distinct per-client buckets kept per tenant (oldest evicted), so a
#: client-id-spinning adversary cannot grow memory without bound.
MAX_TRACKED_CLIENTS = 4_096


@dataclass
class GovernorConfig:
    """The admission envelope of one gateway process."""

    batch_size: int = DEFAULT_BATCH_SIZE
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    tenant_rate: float = DEFAULT_TENANT_RATE
    tenant_burst: float = DEFAULT_TENANT_BURST
    client_rate: float = DEFAULT_CLIENT_RATE
    client_burst: float = DEFAULT_CLIENT_BURST

    @classmethod
    def from_env(cls, **overrides: float) -> "GovernorConfig":
        """Defaults, then environment, then explicit keyword overrides."""
        config = cls(
            batch_size=env(BATCH_SIZE_ENV),
            queue_depth=env(QUEUE_DEPTH_ENV),
        )
        for name, value in overrides.items():
            if not hasattr(config, name):
                raise ValueError(f"unknown governor option {name!r}")
            setattr(config, name, value)
        return config


class TokenBucket:
    """The classic token bucket, with the clock passed in by the caller."""

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be positive, got {rate}/{burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated_at = now

    def try_acquire(self, now: float, cost: float = 1.0) -> float:
        """Take ``cost`` tokens; returns 0.0 on success, else seconds to wait.

        The returned wait is the exact time until the bucket will hold
        ``cost`` tokens at the sustained rate — what ``Retry-After`` should
        say for an honest client that backs off.
        """
        elapsed = max(0.0, now - self.updated_at)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated_at = now
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate


@dataclass(frozen=True)
class Admission:
    """The governor's verdict on one request."""

    allowed: bool
    retry_after_seconds: float = 0.0
    reason: str = ""


@dataclass
class TenantGovernor:
    """Per-tenant admission state: one tenant bucket + per-client buckets."""

    config: GovernorConfig
    tenant_bucket: Optional[TokenBucket] = None
    client_buckets: Dict[str, TokenBucket] = field(default_factory=dict)
    #: Casts admitted and not yet acknowledged by the ledger (the tenant
    #: adds on admission and subtracts when the append returns).
    queued: int = 0
    shed_total: int = 0
    admitted_total: int = 0

    def admit_cast(self, client_key: str, count: int, now: float) -> Admission:
        """Rate-limit then queue-bound one cast request of ``count`` ballots."""
        bucket = self.tenant_bucket
        if bucket is None:
            bucket = TokenBucket(self.config.tenant_rate, self.config.tenant_burst, now)
            self.tenant_bucket = bucket
        wait = bucket.try_acquire(now, cost=float(count))
        if wait > 0.0:
            self.shed_total += count
            return Admission(False, retry_after_seconds=wait, reason="tenant rate limit")
        client_wait = self._client_bucket(client_key, now).try_acquire(now, cost=float(count))
        if client_wait > 0.0:
            self.shed_total += count
            return Admission(False, retry_after_seconds=client_wait, reason="client rate limit")
        if self.queued + count > self.config.queue_depth:
            self.shed_total += count
            return Admission(
                False, retry_after_seconds=QUEUE_FULL_RETRY_SECONDS, reason="admission queue full"
            )
        self.admitted_total += count
        return Admission(True)

    def _client_bucket(self, client_key: str, now: float) -> TokenBucket:
        bucket = self.client_buckets.get(client_key)
        if bucket is None:
            if len(self.client_buckets) >= MAX_TRACKED_CLIENTS:
                # Evict the stalest bucket — an idle bucket is full anyway,
                # so eviction never *grants* tokens a live client lacked.
                stalest = min(self.client_buckets, key=lambda key: self.client_buckets[key].updated_at)
                del self.client_buckets[stalest]
            bucket = TokenBucket(self.config.client_rate, self.config.client_burst, now)
            self.client_buckets[client_key] = bucket
        return bucket

    def snapshot(self) -> Tuple[int, int, int]:
        """(queued, admitted_total, shed_total) for /metrics and tests."""
        return (self.queued, self.admitted_total, self.shed_total)
