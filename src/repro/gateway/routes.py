"""Versioned HTTP routes and the asyncio server hosting them.

The route table below is *data* — method, pattern, request/response schema
and a doc line per route — consumed three ways: the dispatcher matches
against it, ``docs/gateway.md`` renders it (checked by the gateway doc-sync
test), and the client SDK mirrors it method-for-method.  Handlers translate
between HTTP and :class:`~repro.gateway.service.GatewayService`; no domain
logic lives here.

Error mapping is centralized in :func:`dispatch`: schema failures become 400
bodies carrying per-field errors, governor shedding becomes 429 +
``Retry-After``, drain mode becomes 503, unknown tenants 404, status
conflicts 409 and anything else a handler raises 500 — every non-2xx body is
an :class:`ErrorBody` and the connection stays usable.
"""

from __future__ import annotations

import asyncio
import json
import logging
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Tuple, Type, Union

from repro import telemetry
from repro.errors import GatewayError
from repro.gateway.http import (
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    WS_TEXT,
    BadRequest,
    Request,
    encode_ws_frame,
    read_request,
    read_ws_frame,
    render_response,
    websocket_handshake_response,
)
from repro.gateway.schemas import (
    CastRequest,
    CastResponse,
    CreateElectionRequest,
    ErrorBody,
    RegisterRequest,
    Schema,
    SchemaError,
)
from repro.gateway.schemas import (
    AuditReportWire,
    ElectionInfo,
    HealthResponse,
    RegisterResponse,
    TallyResponse,
)
from repro.gateway.service import (
    ConflictError,
    DrainingError,
    GatewayService,
    ShedError,
    UnknownElectionError,
)
from repro.spec import GATEWAY, env

logger = logging.getLogger(__name__)

#: What one handler returns: status code + a schema body (or raw text for
#: the Prometheus exposition endpoint and the debug ops plane).
HandlerResult = Tuple[int, Union[Schema, str]]
Handler = Callable[[GatewayService, Request, Dict[str, str]], Awaitable[HandlerResult]]

#: Gate for the live ops plane (`GET /v1/debug/*`).  The routes are always
#: in the table (so docs and the SDK see them) but answer 404 unless the
#: process was started with ``REPRO_GATEWAY_DEBUG=1``.
DEBUG_ENV = "REPRO_GATEWAY_DEBUG"


def debug_enabled() -> bool:
    return env(DEBUG_ENV)


@dataclass(frozen=True)
class Route:
    """One row of the route table."""

    method: str
    pattern: str
    name: str
    doc: str
    handler: Handler
    request_schema: Optional[Type[Schema]] = None
    response_schema: Optional[Type[Schema]] = None

    def match(self, method: str, path: str) -> Optional[Dict[str, str]]:
        """Path parameters when ``method path`` matches this route, else None."""
        if method != self.method:
            return None
        return match_pattern(self.pattern, path)


def match_pattern(pattern: str, path: str) -> Optional[Dict[str, str]]:
    """Match ``/v1/elections/{election_id}/ballots`` style patterns."""
    pattern_parts = pattern.strip("/").split("/")
    path_parts = path.strip("/").split("/")
    if len(pattern_parts) != len(path_parts):
        return None
    params: Dict[str, str] = {}
    for expected, actual in zip(pattern_parts, path_parts):
        if expected.startswith("{") and expected.endswith("}"):
            if not actual:
                return None
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


async def _create_election(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    body = CreateElectionRequest.from_json(request.body)
    assert isinstance(body, CreateElectionRequest)
    return 201, await service.create_election(body)


async def _election_info(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    return 200, service.tenant(params["election_id"]).info()


async def _register(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    body = RegisterRequest.from_json(request.body)
    assert isinstance(body, RegisterRequest)
    return 200, await service.register(params["election_id"], body)


async def _cast(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    body = CastRequest.from_json(request.body)
    assert isinstance(body, CastRequest)
    seqs = await service.cast(params["election_id"], request.client_key, body)
    return 200, CastResponse(ledger_seqs=seqs)


async def _close_election(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    return 200, await service.close_election(params["election_id"])


async def _tally(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    return 200, await service.tally(params["election_id"])


async def _audit_report(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    return 200, await service.audit_report(params["election_id"])


async def _health(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    return 200, service.health()


async def _metrics(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    return 200, service.metrics()


def _require_debug() -> None:
    if not debug_enabled():
        # 404, not 403: the ops plane should be invisible when disabled.
        raise UnknownElectionError(
            f"debug routes are disabled (start the gateway with {DEBUG_ENV}=1)"
        )


async def _debug_spans(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    _require_debug()
    return 200, json.dumps({"spans": telemetry.active_spans()}, indent=2)


async def _debug_queues(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    _require_debug()
    return 200, json.dumps(service.debug_queues(), indent=2)


async def _debug_governors(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    _require_debug()
    return 200, json.dumps(service.debug_governors(), indent=2)


async def _debug_tenants(
    service: GatewayService, request: Request, params: Dict[str, str]
) -> HandlerResult:
    _require_debug()
    return 200, json.dumps(service.debug_tenants(), indent=2)


#: The WebSocket route is documented here but dispatched by the connection
#: handler (it hijacks the stream instead of returning one response).
AUDIT_STREAM_PATTERN = "/v1/elections/{election_id}/audit/stream"

ROUTES: Tuple[Route, ...] = (
    Route(
        "POST",
        "/v1/elections",
        "create_election",
        "Provision a tenant: roll, authority DKG, registrar keys, board.",
        _create_election,
        request_schema=CreateElectionRequest,
        response_schema=ElectionInfo,
    ),
    Route(
        "GET",
        "/v1/elections/{election_id}",
        "election_info",
        "Everything a casting client needs (group, keys, status, counts).",
        _election_info,
        response_schema=ElectionInfo,
    ),
    Route(
        "POST",
        "/v1/elections/{election_id}/registrations",
        "register",
        "Run TRIP registration for one voter; returns activated credentials.",
        _register,
        request_schema=RegisterRequest,
        response_schema=RegisterResponse,
    ),
    Route(
        "POST",
        "/v1/elections/{election_id}/ballots",
        "cast",
        "Cast 1..256 ballots in one append; batch_size ballots per tenant-board flush.",
        _cast,
        request_schema=CastRequest,
        response_schema=CastResponse,
    ),
    Route(
        "POST",
        "/v1/elections/{election_id}/close",
        "close_election",
        "Stop admission, wait out in-flight casts, flush the board chains.",
        _close_election,
        response_schema=ElectionInfo,
    ),
    Route(
        "POST",
        "/v1/elections/{election_id}/tally",
        "tally",
        "Run (or return) the mix-filter-decrypt tally; requires closed.",
        _tally,
        response_schema=TallyResponse,
    ),
    Route(
        "GET",
        "/v1/elections/{election_id}/audit/report",
        "audit_report",
        "Audit the election end-to-end; cached until the ledger moves.",
        _audit_report,
        response_schema=AuditReportWire,
    ),
    Route(
        "GET",
        "/healthz",
        "health",
        "Liveness plus the drain indicator load balancers act on.",
        _health,
        response_schema=HealthResponse,
    ),
    Route(
        "GET",
        "/metrics",
        "metrics",
        "Prometheus exposition of the process telemetry snapshot.",
        _metrics,
    ),
    Route(
        "GET",
        "/v1/debug/spans",
        "debug_spans",
        "In-flight spans, slowest first; 404 unless REPRO_GATEWAY_DEBUG=1.",
        _debug_spans,
    ),
    Route(
        "GET",
        "/v1/debug/queues",
        "debug_queues",
        "Admitted-but-unacknowledged casts and in-flight appends per tenant (debug only).",
        _debug_queues,
    ),
    Route(
        "GET",
        "/v1/debug/governors",
        "debug_governors",
        "Live token-bucket fill per tenant and per client (debug only).",
        _debug_governors,
    ),
    Route(
        "GET",
        "/v1/debug/tenants",
        "debug_tenants",
        "Per-tenant status, ballot counts, and admission totals (debug only).",
        _debug_tenants,
    ),
)


def route_table() -> Tuple[Route, ...]:
    """The full route table (docs and the doc-sync test derive from this)."""
    return ROUTES


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _error_response(
    status: int, message: str, field_errors: Optional[Dict[str, str]] = None,
    retry_after: Optional[float] = None,
) -> Tuple[int, bytes, Dict[str, str]]:
    body = ErrorBody(
        error=message, field_errors=field_errors, retry_after_seconds=retry_after
    )
    headers: Dict[str, str] = {}
    if retry_after is not None:
        headers["Retry-After"] = f"{max(retry_after, 0.001):.3f}"
    return status, body.to_json().encode(), headers


async def dispatch(
    service: GatewayService, request: Request
) -> Tuple[int, bytes, Dict[str, str], str]:
    """Route + run one request; returns (status, body, headers, content type)."""
    matched: Optional[Route] = None
    params: Dict[str, str] = {}
    allowed: List[str] = []
    for route in ROUTES:
        candidate = match_pattern(route.pattern, request.path)
        if candidate is None:
            continue
        allowed.append(route.method)
        if route.method == request.method:
            matched = route
            params = candidate
            break
    if matched is None:
        if allowed:
            status, body, headers = _error_response(
                405, f"method {request.method} not allowed (try {', '.join(sorted(allowed))})"
            )
        else:
            status, body, headers = _error_response(404, f"no route for {request.path}")
        return status, body, headers, "application/json"

    # Trace context: adopt the caller's traceparent or mint a fresh trace,
    # so every span below (handler, batch admit, ledger flush) shares one
    # trace_id.  Nothing here runs when telemetry is off.
    trace_context: Optional[telemetry.TraceContext] = None
    token = None
    if telemetry.enabled():
        trace_context = telemetry.parse_traceparent(
            request.header(telemetry.TRACEPARENT_HEADER)
        )
        if trace_context is None:
            trace_context = telemetry.new_trace()
        token = telemetry.attach(trace_context)
    try:
        with telemetry.span(
            "gateway.request", method=request.method, route=matched.pattern
        ) as handle:
            status, body, headers, content_type = await _execute_route(
                service, request, matched, params
            )
            handle.attrs["status"] = status
    finally:
        if token is not None:
            telemetry.detach(token)
    if trace_context is not None:
        headers.setdefault(
            telemetry.TRACEPARENT_HEADER,
            trace_context._replace(span_id=handle.span_id).to_traceparent(),
        )
        telemetry.histogram(
            "gateway.request.seconds",
            handle.elapsed_seconds,
            exemplar=trace_context.trace_id,
            method=request.method,
            route=matched.pattern,
        )
    return status, body, headers, content_type


#: Domain errors with a status of their own; 429/503 also carry ``Retry-After``.
_ERROR_STATUS = ((UnknownElectionError, 404), (ConflictError, 409), (ShedError, 429), (DrainingError, 503))


def _map_error(error: Exception) -> Tuple[int, bytes, Dict[str, str]]:
    """The one place an exception out of a handler becomes an HTTP error."""
    if isinstance(error, SchemaError):
        return _error_response(400, "request failed validation", field_errors=error.field_errors)
    for kind, status in _ERROR_STATUS:
        if isinstance(error, kind):
            return _error_response(status, str(error), retry_after=getattr(error, "retry_after_seconds", None))
    # Last resort: a failure nobody mapped — a GatewayError says what went
    # wrong, a handler bug only its type — costs one 500, not the connection
    # (an escaped exception kills the task and the client sees a reset).
    # The body names the type at most; the traceback goes to the log, in one
    # record that carries the request's trace id when telemetry minted one.
    error_type = type(error).__name__
    telemetry.counter("gateway.errors", type=error_type)
    context = telemetry.current_context()
    trace_id = context.trace_id if context is not None else None
    logger.error(
        "unmapped %s in a gateway handler (trace %s)", error_type, trace_id or "-",
        exc_info=error, extra={"trace_id": trace_id},
    )
    return _error_response(
        500, str(error) if isinstance(error, GatewayError) else f"internal error ({error_type})"
    )


async def _execute_route(
    service: GatewayService, request: Request, matched: Route, params: Dict[str, str]
) -> Tuple[int, bytes, Dict[str, str], str]:
    """Run one matched route's handler and map whatever it raises to HTTP."""
    try:
        status, payload = await matched.handler(service, request, params)
    except Exception as error:
        status, body, headers = _map_error(error)
        return status, body, headers, "application/json"
    if isinstance(payload, Schema):
        return status, payload.to_json().encode(), {}, "application/json"
    if matched.name.startswith("debug_"):
        return status, payload.encode(), {}, "application/json"
    return status, payload.encode(), {}, "text/plain; version=0.0.4"


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class GatewayServer:
    """``asyncio.start_server`` wrapper: keep-alive HTTP + the audit stream."""

    def __init__(
        self, service: GatewayService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: finish queued casts, then stop accepting."""
        await self.service.shutdown()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------- connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else ""
        try:
            while True:
                try:
                    request = await read_request(reader, peer=peer)
                except BadRequest as error:
                    status, body, headers = _error_response(400, str(error))
                    writer.write(render_response(status, body, extra_headers=headers, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                if request.wants_websocket:
                    await self._serve_audit_stream(reader, writer, request)
                    break
                status, body, headers, content_type = await dispatch(self.service, request)
                keep_alive = request.keep_alive
                writer.write(
                    render_response(
                        status, body, content_type=content_type,
                        extra_headers=headers, keep_alive=keep_alive,
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            # The peer vanished mid-exchange; nothing to answer.
            return
        finally:
            writer.close()

    async def _serve_audit_stream(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: Request
    ) -> None:
        params = match_pattern(AUDIT_STREAM_PATTERN, request.path)
        if params is None:
            status, body, headers = _error_response(
                404, f"no websocket endpoint at {request.path}"
            )
            writer.write(render_response(status, body, extra_headers=headers, keep_alive=False))
            await writer.drain()
            return
        try:
            tenant = self.service.tenant(params["election_id"])
        except UnknownElectionError as error:
            status, body, headers = _error_response(404, str(error))
            writer.write(render_response(status, body, extra_headers=headers, keep_alive=False))
            await writer.drain()
            return
        writer.write(websocket_handshake_response(request))
        await writer.drain()
        queue = tenant.subscribe()
        frame_task = asyncio.ensure_future(read_ws_frame(reader))
        event_task = asyncio.ensure_future(queue.get())
        try:
            while True:
                done, _ = await asyncio.wait(
                    {frame_task, event_task}, return_when=asyncio.FIRST_COMPLETED
                )
                if frame_task in done:
                    frame = frame_task.result()
                    if frame is None or frame.opcode == WS_CLOSE:
                        break
                    if frame.opcode == WS_PING:
                        writer.write(encode_ws_frame(WS_PONG, frame.payload))
                        await writer.drain()
                    frame_task = asyncio.ensure_future(read_ws_frame(reader))
                if event_task in done:
                    event = event_task.result()
                    if event is None:
                        writer.write(encode_ws_frame(WS_CLOSE, b""))
                        await writer.drain()
                        break
                    writer.write(encode_ws_frame(WS_TEXT, event.to_json().encode()))
                    await writer.drain()
                    event_task = asyncio.ensure_future(queue.get())
        finally:
            tenant.unsubscribe(queue)
            for task in (frame_task, event_task):
                if not task.done():
                    task.cancel()


def server_from_spec(spec: str, service: GatewayService) -> Optional[GatewayServer]:
    """Build a server from a ``gateway_spec`` (forms: :data:`repro.spec.GATEWAY`).

    ``None`` for ``off``; loopback and an ephemeral port unless given.
    """
    head, given = GATEWAY.parse(spec)
    if head == "off":
        return None
    return GatewayServer(service, **given)
