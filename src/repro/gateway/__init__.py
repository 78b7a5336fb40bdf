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
