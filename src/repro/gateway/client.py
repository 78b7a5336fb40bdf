"""Typed synchronous client SDK for the gateway.

One method per route, returning the same frozen schema dataclasses the
server serializes — the SDK and the server literally share
:mod:`repro.gateway.schemas`, so they cannot drift apart.  Transport is
stdlib ``http.client``: one keep-alive connection per client, plus one more
per audit stream, whose server-sent events it reads line by line.

:class:`CastingSession` closes the loop for end-to-end tests and demos: it
pulls :class:`~repro.gateway.schemas.ElectionInfo`, rebuilds the election
group by name through :mod:`repro.crypto.registry`, and forms real signed
ballots client-side with :func:`repro.voting.ballot.make_ballot` — the same
code path an in-process election uses, proving the HTTP surface carries
everything a voter's device needs.
"""

from __future__ import annotations

import http.client
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type, TypeVar, cast as narrowed

from repro import telemetry
from repro.crypto.encoding import ELEMENT, SCALAR
from repro.crypto.group import Group
from repro.crypto.registry import group_by_name
from repro.crypto.schnorr import SigningKeyPair
from repro.errors import GatewayError
from repro.gateway.schemas import (
    MAX_BODY_BYTES,
    AuditReportWire,
    AuditStreamEvent,
    BallotWire,
    CastRequest,
    CastResponse,
    CreateElectionRequest,
    CredentialWire,
    ElectionInfo,
    ErrorBody,
    HealthResponse,
    RegisterRequest,
    RegisterResponse,
    Schema,
    TallyResponse,
)
from repro.voting.ballot import make_ballot

S = TypeVar("S", bound=Schema)


class GatewayClientError(GatewayError):
    """A non-2xx response; carries the decoded :class:`ErrorBody`."""

    def __init__(self, status: int, body: ErrorBody) -> None:
        super().__init__(f"HTTP {status}: {body.error}")
        self.status = status
        self.body = body

    @property
    def field_errors(self) -> Dict[str, str]:
        return dict(self.body.field_errors or {})


class RateLimited(GatewayClientError):
    """A 429/503: the governor shed this request; back off and retry."""

    @property
    def retry_after_seconds(self) -> float:
        return float(self.body.retry_after_seconds or 0.0)


def _raise_for_status(status: int, payload: bytes) -> None:
    """Raise the :class:`GatewayClientError` a status of 400 or more stands for."""
    if status >= 400:
        error_body = ErrorBody.from_json(payload)
        assert isinstance(error_body, ErrorBody)
        if status in (429, 503):
            raise RateLimited(status, error_body)
        raise GatewayClientError(status, error_body)


@dataclass
class GatewayClient:
    """Synchronous SDK over one keep-alive connection."""

    host: str = "127.0.0.1"
    port: int = 8080
    client_id: str = ""
    timeout: float = 60.0
    _connection: Optional[http.client.HTTPConnection] = field(default=None, repr=False)

    # ---------------------------------------------------------------- plumbing

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Schema],
        response_schema: Type[S],
    ) -> S:
        status, payload = self._raw_request(method, path, body)
        decoded = response_schema.from_json(payload)
        assert isinstance(decoded, response_schema)
        return decoded

    def _raw_request(
        self, method: str, path: str, body: Optional[Schema]
    ) -> Tuple[int, bytes]:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        encoded = body.to_json().encode() if body is not None else b""
        with telemetry.span("gateway.client.request", method=method, path=path):
            try:
                self._connection.request(method, path, body=encoded, headers=self._headers())
                response = self._connection.getresponse()
                payload = response.read(MAX_BODY_BYTES + 1)
                status = response.status
            except (http.client.HTTPException, OSError):
                # The keep-alive connection died (server restart, drain
                # close); drop it so the next call reconnects, and surface
                # the failure.
                self.close()
                raise GatewayError(
                    f"connection to {self.host}:{self.port} failed"
                ) from None
        if len(payload) > MAX_BODY_BYTES:
            self.close()  # the rest of the body is still on the connection
            raise GatewayError(f"response body longer than {MAX_BODY_BYTES} bytes")
        _raise_for_status(status, payload)
        return status, payload

    def _headers(self) -> Dict[str, str]:
        """The headers of every request: content type, client id, traceparent.

        The SDK is the head of the distributed trace: called inside the
        ``gateway.client.request`` span, the traceparent it adds makes the
        server-side spans parent under this client call.  When telemetry is
        off the span is a no-op and no traceparent is sent.
        """
        headers = {"Content-Type": "application/json"}
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        context = telemetry.current_context()
        if context is not None:
            headers[telemetry.TRACEPARENT_HEADER] = context.to_traceparent()
        return headers

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ routes

    def create_election(
        self,
        election_id: str,
        num_voters: int,
        num_options: int,
        num_authority_members: Optional[int] = None,
        group: Optional[str] = None,
    ) -> ElectionInfo:
        request = CreateElectionRequest(
            election_id=election_id,
            num_voters=num_voters,
            num_options=num_options,
            num_authority_members=num_authority_members,
            group=group,
        )
        return self._request("POST", "/v1/elections", request, ElectionInfo)

    def info(self, election_id: str) -> ElectionInfo:
        return self._request("GET", f"/v1/elections/{election_id}", None, ElectionInfo)

    def register(self, election_id: str, voter_id: str) -> RegisterResponse:
        request = RegisterRequest(voter_id=voter_id)
        return self._request(
            "POST", f"/v1/elections/{election_id}/registrations", request, RegisterResponse
        )

    def cast_ballots(self, election_id: str, ballots: List[BallotWire]) -> CastResponse:
        request = CastRequest(ballots=ballots)
        return self._request(
            "POST", f"/v1/elections/{election_id}/ballots", request, CastResponse
        )

    def close_election(self, election_id: str) -> ElectionInfo:
        return self._request(
            "POST", f"/v1/elections/{election_id}/close", None, ElectionInfo
        )

    def tally(self, election_id: str) -> TallyResponse:
        return self._request(
            "POST", f"/v1/elections/{election_id}/tally", None, TallyResponse
        )

    def audit_report(self, election_id: str) -> AuditReportWire:
        return self._request(
            "GET", f"/v1/elections/{election_id}/audit/report", None, AuditReportWire
        )

    def health(self) -> HealthResponse:
        return self._request("GET", "/healthz", None, HealthResponse)

    def metrics(self) -> str:
        _, payload = self._raw_request("GET", "/metrics", None)
        return payload.decode()

    # ------------------------------------------------------------ audit stream

    def audit_stream(self, election_id: str) -> Iterator[AuditStreamEvent]:
        """Subscribe to the audit stream's server-sent events; yields them decoded.

        The stream has a connection of its own, as the keep-alive one stays
        free for requests.  Iteration ends when the server ends the stream
        (drain) or the caller closes the generator; a line longer than
        :data:`~repro.gateway.schemas.MAX_BODY_BYTES`, or a ``data:`` line that
        is not an :class:`AuditStreamEvent`, is a :class:`GatewayError`.
        """
        path = f"/v1/elections/{election_id}/audit/stream"
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        response: Optional[http.client.HTTPResponse] = None
        try:
            with telemetry.span("gateway.client.request", method="GET", path=path):
                connection.request("GET", path, headers=self._headers())
                response = connection.getresponse()
            if response.status != 200:
                _raise_for_status(response.status, response.read(MAX_BODY_BYTES))
                raise GatewayError(f"audit stream answered HTTP {response.status}")
            while line := response.readline(MAX_BODY_BYTES + 1):
                if not line.endswith(b"\n"):
                    raise GatewayError(
                        f"audit stream line cut off or longer than {MAX_BODY_BYTES} bytes"
                    )
                if line.startswith(b"data:"):
                    yield narrowed(AuditStreamEvent, AuditStreamEvent.from_json(line[5:]))
        except (http.client.HTTPException, OSError):
            raise GatewayError(f"audit stream from {self.host}:{self.port} failed") from None
        finally:
            if response is not None:
                response.close()
            connection.close()


@dataclass
class CastingSession:
    """Client-side ballot formation for one election over the SDK.

    Resolves the election group from the name the server advertises, keeps
    the activated credentials returned by registration, and forms signed
    encrypted ballots locally — the server never sees a secret key.
    """

    client: GatewayClient
    election_id: str
    info: Optional[ElectionInfo] = None
    _group: Optional[Group] = field(default=None, repr=False)
    credentials: Dict[str, List[CredentialWire]] = field(default_factory=dict)

    def refresh(self) -> ElectionInfo:
        self.info = self.client.info(self.election_id)
        self._group = group_by_name(self.info.group)
        return self.info

    @property
    def group(self) -> Group:
        if self._group is None:
            self.refresh()
        assert self._group is not None
        return self._group

    def register(self, voter_id: str) -> RegisterResponse:
        response = self.client.register(self.election_id, voter_id)
        self.credentials[voter_id] = list(response.credentials)
        return response

    def real_credential(self, voter_id: str) -> CredentialWire:
        for credential in self.credentials.get(voter_id, []):
            if credential.is_real:
                return credential
        raise GatewayError(f"voter {voter_id!r} has no activated real credential")

    def make_ballot_wire(
        self, credential: CredentialWire, choice: int
    ) -> BallotWire:
        """Form, prove and sign one ballot locally; returns its wire form.

        The server's keys and the credential are read by the kinds' strict
        readers: a key that is off-width or not a group element, or a secret
        key not below ``q``, is a :class:`SchemaError` naming the member.
        """
        info = self.info if self.info is not None else self.refresh()
        group = self.group
        keypair = SigningKeyPair(
            secret=credential.decoded(group, "secret_key", SCALAR),
            public=credential.decoded(group, "public_key", ELEMENT),
        )
        ballot = make_ballot(
            group,
            info.decoded(group, "authority_public_key", ELEMENT),
            keypair,
            choice,
            info.num_options,
            election_id=self.election_id,
        )
        return BallotWire.from_record(ballot.to_record())

    def cast(
        self, votes: List[Tuple[CredentialWire, int]]
    ) -> CastResponse:
        """Form and cast one micro-batch of (credential, choice) votes."""
        ballots = [self.make_ballot_wire(credential, choice) for credential, choice in votes]
        return self.client.cast_ballots(self.election_id, ballots)


def pretty_metrics(text: str, prefix: str = "repro_") -> List[str]:
    """Filter a Prometheus exposition down to this stack's sample lines."""
    return [
        line
        for line in text.splitlines()
        if line.startswith(prefix) and not line.startswith("#")
    ]


__all__ = [
    "CastingSession",
    "GatewayClient",
    "GatewayClientError",
    "RateLimited",
    "pretty_metrics",
]
