"""Minimal HTTP/1.1 wire plumbing over asyncio streams.

Deliberately dependency-free (``asyncio.start_server``): the reproduction
must not grow hard dependencies, and the gateway needs only a small, strict
subset of HTTP — JSON request/response bodies with ``Content-Length``,
keep-alive, and one ``text/event-stream`` response (the audit stream) whose
body runs until the connection closes.  Limits are enforced while *reading*
(header and body caps), so an oversized request costs the configured
maximum, not whatever the client felt like sending.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import GatewayError
from repro.gateway.schemas import MAX_BODY_BYTES

#: Reading limits: one header line and all headers.
MAX_HEADER_LINE = 8 * 1024
MAX_HEADER_COUNT = 64

STATUS_PHRASES: Dict[int, str] = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(GatewayError):
    """The peer sent bytes this server refuses to parse as HTTP."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    peer: str = ""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        return self.header("connection", "keep-alive").lower() != "close"

    @property
    def client_key(self) -> str:
        """The admission-control identity: explicit client id, else peer."""
        return self.header("x-client-id") or self.peer or "anonymous"

    @property
    def traceparent(self) -> str:
        """The raw distributed-tracing header, ``""`` when absent.

        Parsing/minting lives in the dispatcher
        (:mod:`repro.gateway.routes`), which hands the decoded
        :class:`repro.telemetry.TraceContext` to every span below it.
        """
        return self.header("traceparent")


async def read_request(reader: asyncio.StreamReader, peer: str = "") -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean EOF."""
    try:
        request_line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise BadRequest("truncated request line") from None
    except asyncio.LimitOverrunError:
        raise BadRequest("request line too long") from None
    if len(request_line) > MAX_HEADER_LINE:
        raise BadRequest("request line too long")
    try:
        method, target, version = request_line.decode("ascii").split()
    except ValueError:
        raise BadRequest("malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise BadRequest("truncated headers") from None
        if len(line) > MAX_HEADER_LINE:
            raise BadRequest("header line too long")
        if line == b"\r\n":
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise BadRequest("too many headers")
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise BadRequest("malformed header line")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length", "")
    if length_text:
        try:
            length = int(length_text)
        except ValueError:
            raise BadRequest("malformed Content-Length") from None
        if length < 0:
            raise BadRequest("negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise BadRequest("body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise BadRequest("body shorter than Content-Length") from None
    elif headers.get("transfer-encoding"):
        raise BadRequest("chunked bodies are not supported; send Content-Length")

    split = urlsplit(target)
    query = {key: value for key, value in parse_qsl(split.query)}
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
        peer=peer,
    )


def render_response(
    status: int,
    body: Optional[bytes],
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one HTTP/1.1 response.

    ``body=None`` serializes only the head of a response whose body runs
    until the server closes the connection: no ``Content-Length``, and
    ``Connection: close`` whatever ``keep_alive`` says.
    """
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}", f"Content-Type: {content_type}"]
    if body is None:
        keep_alive = False
    else:
        lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    for name in sorted(extra_headers or {}):
        lines.append(f"{name}: {(extra_headers or {})[name]}")
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    return head + (body or b"")
