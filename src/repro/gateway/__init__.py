"""Election-as-a-service: an HTTP front door over the reproduction stack.

``python -m repro.gateway`` serves versioned JSON routes (and a
server-sent-events audit stream) over :class:`~repro.gateway.service.GatewayService` — a
multi-tenant registry of elections whose ballot casts are appended to a
write-behind board (:class:`~repro.ledger.backends.memory.MemoryBackend` at
the governor's batch size), rate-limited and load-shed by
:mod:`repro.gateway.governor`.
See ``docs/gateway.md`` for the route table, schema versioning policy and a
curl quickstart.
"""

from repro.gateway.client import CastingSession, GatewayClient, GatewayClientError, RateLimited
from repro.gateway.governor import GovernorConfig, TenantGovernor, TokenBucket
from repro.gateway.routes import GatewayServer, route_table, server_from_spec
from repro.gateway.schemas import SCHEMA_VERSION, Schema, SchemaError, schema_catalog
from repro.gateway.service import (
    ElectionTenant,
    GatewayService,
    ServiceConfig,
    service_from_config,
)

__all__ = [
    "SCHEMA_VERSION",
    "CastingSession",
    "ElectionTenant",
    "GatewayClient",
    "GatewayClientError",
    "GatewayServer",
    "GatewayService",
    "GovernorConfig",
    "RateLimited",
    "Schema",
    "SchemaError",
    "ServiceConfig",
    "TenantGovernor",
    "TokenBucket",
    "route_table",
    "schema_catalog",
    "server_from_spec",
    "service_from_config",
]
