"""Admission control units: token buckets, shedding, Retry-After honesty."""

from __future__ import annotations

import pytest

from repro.gateway.governor import (
    BATCH_SIZE_ENV,
    MAX_TRACKED_CLIENTS,
    QUEUE_DEPTH_ENV,
    GovernorConfig,
    TenantGovernor,
    TokenBucket,
)


def test_bucket_allows_burst_then_meters():
    bucket = TokenBucket(rate=10.0, burst=5.0, now=0.0)
    for _ in range(5):
        assert bucket.try_acquire(0.0) == 0.0
    wait = bucket.try_acquire(0.0)
    assert wait == pytest.approx(0.1)
    # After exactly that wait, one token is available again.
    assert bucket.try_acquire(wait) == 0.0


def test_bucket_refills_capped_at_burst():
    bucket = TokenBucket(rate=100.0, burst=4.0, now=0.0)
    for _ in range(4):
        assert bucket.try_acquire(0.0) == 0.0
    # A long idle period refills to burst, not beyond.
    for _ in range(4):
        assert bucket.try_acquire(1000.0) == 0.0
    assert bucket.try_acquire(1000.0) > 0.0


def test_bucket_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, burst=1.0, now=0.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=-1.0, now=0.0)


def test_governor_sheds_on_tenant_rate():
    config = GovernorConfig(tenant_rate=10.0, tenant_burst=4.0)
    governor = TenantGovernor(config=config)
    verdict = governor.admit_cast("client-a", 4, now=0.0)
    assert verdict.allowed
    shed = governor.admit_cast("client-a", 2, now=0.0)
    assert not shed.allowed
    assert shed.reason == "tenant rate limit"
    assert shed.retry_after_seconds == pytest.approx(0.2)
    assert governor.snapshot() == (0, 4, 2)


def test_governor_sheds_per_client_independently():
    config = GovernorConfig(
        tenant_rate=1e9, tenant_burst=1e9, client_rate=10.0, client_burst=2.0
    )
    governor = TenantGovernor(config=config)
    assert governor.admit_cast("client-a", 2, now=0.0).allowed
    assert not governor.admit_cast("client-a", 1, now=0.0).allowed
    # A different client has its own bucket.
    assert governor.admit_cast("client-b", 2, now=0.0).allowed


def test_governor_sheds_on_queue_depth_with_the_flush_floor():
    config = GovernorConfig(
        tenant_rate=1e9, tenant_burst=1e9, client_rate=1e9, client_burst=1e9,
        queue_depth=10, batch_size=5,
    )
    governor = TenantGovernor(config=config)
    assert governor.admit_cast("c", 8, now=0.0).allowed
    governor.queued = 8
    verdict = governor.admit_cast("c", 4, now=0.0)
    assert not verdict.allowed
    assert verdict.reason == "admission queue full"
    assert verdict.retry_after_seconds == 0.05


def test_client_bucket_eviction_is_bounded():
    config = GovernorConfig(tenant_rate=1e9, tenant_burst=1e9)
    governor = TenantGovernor(config=config)
    for index in range(MAX_TRACKED_CLIENTS + 50):
        governor.admit_cast(f"client-{index}", 1, now=float(index))
    assert len(governor.client_buckets) <= MAX_TRACKED_CLIENTS


def test_config_from_env_and_overrides(monkeypatch):
    monkeypatch.setenv(BATCH_SIZE_ENV, "7")
    monkeypatch.setenv(QUEUE_DEPTH_ENV, "33")
    config = GovernorConfig.from_env()
    assert config.batch_size == 7
    assert config.queue_depth == 33
    config = GovernorConfig.from_env(queue_depth=5, tenant_rate=1.5)
    assert config.batch_size == 7
    assert config.queue_depth == 5
    assert config.tenant_rate == 1.5
    with pytest.raises(ValueError):
        GovernorConfig.from_env(bogus_option=1)


def test_config_rejects_bad_env(monkeypatch):
    monkeypatch.setenv(BATCH_SIZE_ENV, "zero")
    with pytest.raises(ValueError):
        GovernorConfig.from_env()
    monkeypatch.setenv(BATCH_SIZE_ENV, "0")
    with pytest.raises(ValueError):
        GovernorConfig.from_env()
