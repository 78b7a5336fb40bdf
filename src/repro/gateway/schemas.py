"""Typed, versioned request/response schemas with strict JSON (de)serialization.

This module is the single source of truth for the gateway's wire surface.
Every request and response body is a frozen dataclass whose fields are
declared once: each attribute's default is :func:`wire`, a dataclass field
carrying its :class:`FieldSpec` (wire type, constraints, doc line), and
``FIELDS`` is collected from those.  The generic (de)serializers walk the
``FIELDS`` table, so four consumers stay in lockstep by construction:

* the server routes validate incoming JSON against the same table that
  serialized the response (:meth:`Schema.from_json_dict` /
  :meth:`Schema.to_json_dict`);
* the synchronous client SDK (:mod:`repro.gateway.client`) round-trips the
  same classes;
* the route documentation (``docs/gateway.md``) is checked against
  :func:`schema_catalog` by the gateway doc-sync test;
* validation failures carry **per-field errors** (``ballots[2].ciphertext_c1
  → "not valid hex"``) assembled from the same specs.

A schema that mirrors a ledger record (:class:`BallotWire`, a
:class:`RecordSchema`) declares no fields at all: they are generated from the
record's own field table (:attr:`repro.ledger.records.Record.WIRE`), and so
are both conversions.

Wire conventions: group elements travel as lowercase hex of their canonical
fixed-width ``to_bytes()`` encoding; scalars (Schnorr responses, credential
secret keys) travel as canonical decimal strings (``0`` or no leading zero,
ASCII digits only) so non-bignum JSON parsers survive them; every response
body carries ``schema_version`` and inputs may pin it (a mismatch is a field
error, not a silent reinterpretation).  Unknown keys are rejected — a typo'd
field name fails loudly instead of being ignored.  Every value has exactly
one accepted spelling.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, Field, dataclass, field, replace
from typing import Any, Callable, ClassVar, Dict, FrozenSet, List, Optional, Tuple, Type, TypeVar, Union

from repro.crypto.group import Group
from repro.errors import GatewayError
from repro.ledger.records import BallotRecord, MalformedField, Record, fields_getter

#: The wire-schema version this module defines.  Routes are mounted under
#: ``/v1/``; a breaking field change bumps this and mounts ``/v2/`` routes
#: next to the old ones (see docs/gateway.md, "Schema versioning").
SCHEMA_VERSION = 1

#: Hard cap on ballots per cast request (pre-validation, so a hostile client
#: cannot make the server parse an unbounded array).
MAX_CAST_BATCH = 256

#: Hard cap on string field lengths unless a spec narrows it further.
MAX_STRING_LENGTH = 256

#: A canonical decimal scalar: ASCII digits, no leading zero, at most the
#: 1234 digits of a 4096-bit number (far below CPython's 4300-digit
#: ``int()`` limit, so conversion can never raise).
_CANONICAL_SCALAR = re.compile(r"0|[1-9][0-9]{0,1233}")


class SchemaError(GatewayError):
    """A request/response body failed strict validation.

    ``field_errors`` maps field paths (``ballots[2].ciphertext_c1``) to
    messages; the HTTP layer renders it as a 400 :class:`ErrorBody`.
    """

    def __init__(self, field_errors: Dict[str, str]) -> None:
        summary = "; ".join(f"{path}: {message}" for path, message in sorted(field_errors.items()))
        super().__init__(f"schema validation failed: {summary}")
        self.field_errors = dict(field_errors)


@dataclass(frozen=True)
class FieldSpec:
    """One wire field: name, wire type, constraints, and its doc line.

    ``kind`` is a closed vocabulary the generic (de)serializers understand:

    ========== ===================================================
    kind       wire representation
    ========== ===================================================
    string     JSON string (``max_length`` capped, non-empty unless
               ``allow_empty``)
    int        JSON integer (bools rejected; ``min_value``/``max_value``)
    float      JSON number
    bool       JSON true/false
    hex        lowercase hex string of a bytes value
    scalar     canonical decimal string of a non-negative integer
    map-int    JSON object of string keys to integers
    map-string JSON object of string keys to strings
    array      JSON array of ``item`` (a primitive kind or Schema class)
    schema     nested object of ``item`` (a Schema class)
    ========== ===================================================
    """

    name: str
    kind: str
    doc: str
    required: bool = True
    item: Union[str, Type["Schema"], None] = None
    max_length: int = MAX_STRING_LENGTH
    min_value: Optional[int] = None
    max_value: Optional[int] = None
    max_items: Optional[int] = None
    allow_empty: bool = False

    def wire_type(self) -> str:
        """The type label shown in derived docs (e.g. ``array[BallotWire]``)."""
        if self.kind == "array":
            inner = self.item if isinstance(self.item, str) else getattr(self.item, "SCHEMA_NAME", "?")
            return f"array[{inner}]"
        if self.kind == "schema":
            return getattr(self.item, "SCHEMA_NAME", "?")
        return self.kind


def wire(kind: str, doc: str, **constraints: Any) -> Any:
    """Declare one schema field: a dataclass field carrying its :class:`FieldSpec`.

    The attribute name becomes the spec's ``name``.  Optional fields default
    to ``None`` and arrays to an empty list, so constructors take exactly the
    required scalars positionally.
    """
    spec = FieldSpec("", kind, doc, **constraints)
    if kind == "array":
        return field(default_factory=list, metadata={"wire": spec})
    return field(default=MISSING if spec.required else None, metadata={"wire": spec})


#: Registry of every schema class by SCHEMA_NAME (docs + tests derive from it).
SCHEMAS: Dict[str, Type["Schema"]] = {}


@dataclass(frozen=True)
class Schema:
    """Base class: subclasses declare fields with :func:`wire` and get strict
    codecs free."""

    SCHEMA_NAME: ClassVar[str] = ""
    FIELDS: ClassVar[Tuple[FieldSpec, ...]] = ()
    _known: ClassVar[FrozenSet[str]] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Runs before @dataclass: the class body still holds the wire(...) fields.
        cls.FIELDS = tuple(
            replace(declared.metadata["wire"], name=name)
            for name, declared in vars(cls).items()
            if isinstance(declared, Field)
        )
        cls._known = frozenset(spec.name for spec in cls.FIELDS) | {"schema_version"}
        if cls.SCHEMA_NAME:
            SCHEMAS[cls.SCHEMA_NAME] = cls

    # ----------------------------------------------------------- serialization

    def to_json_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        for spec in self.FIELDS:
            value = getattr(self, spec.name)
            if value is None and not spec.required:
                continue
            data[spec.name] = _encode_value(spec, value)
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    # --------------------------------------------------------- deserialization

    @classmethod
    def from_json_dict(cls, data: Any, path: str = "") -> "Schema":
        errors: Dict[str, str] = {}
        value = cls._from_json_dict(data, path, errors)
        if errors:
            raise SchemaError(errors)
        assert value is not None  # errors is empty ⇒ every field decoded
        return value

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "Schema":
        try:
            data = json.loads(text)
        except (ValueError, UnicodeDecodeError):
            raise SchemaError({"$body": "not valid JSON"}) from None
        return cls.from_json_dict(data)

    @classmethod
    def _from_json_dict(cls, data: Any, path: str, errors: Dict[str, str]) -> Optional["Schema"]:
        prefix = f"{path}." if path else ""
        if not isinstance(data, dict):
            errors[path or "$body"] = f"expected an object, got {type(data).__name__}"
            return None
        for key in sorted(data.keys() - cls._known):
            errors[f"{prefix}{key}"] = "unknown field"
        declared = data.get("schema_version")
        if declared is not None and declared != SCHEMA_VERSION:
            errors[f"{prefix}schema_version"] = (
                f"version {declared!r} not supported (this endpoint speaks {SCHEMA_VERSION})"
            )
        decoded: List[Any] = []  # in FIELDS order, which is the constructor's
        for spec in cls.FIELDS:
            field_path = f"{prefix}{spec.name}"
            if spec.name in data:
                decoded.append(_DECODERS[spec.kind](spec, data[spec.name], field_path, errors))
            elif spec.required:
                errors[field_path] = "required field is missing"
            else:
                decoded.append(None)
        if errors:
            return None
        build: Callable[..., "Schema"] = cls
        return build(*decoded)


def _encode_value(spec: FieldSpec, value: Any) -> Any:
    if spec.kind == "hex":
        return bytes(value).hex()
    if spec.kind == "scalar":
        return str(int(value))
    if spec.kind == "array":
        if isinstance(spec.item, type) and issubclass(spec.item, Schema):
            return [item.to_json_dict() for item in value]
        if spec.item == "scalar":
            return [str(int(item)) for item in value]
        return list(value)
    if spec.kind == "schema":
        return value.to_json_dict() if value is not None else None
    if spec.kind in ("map-int", "map-string"):
        return {str(key): value[key] for key in sorted(value)}
    return value


# One strict decoder per kind: ``(spec, value, path, errors) -> decoded``; a
# refusal is recorded under ``path`` and decodes to ``None``.


def _decode_string(spec: FieldSpec, value: Any, path: str, errors: Dict[str, str]) -> Any:
    if not isinstance(value, str):
        errors[path] = f"expected a string, got {type(value).__name__}"
    elif not value and not spec.allow_empty:
        errors[path] = "must not be empty"
    elif len(value) > spec.max_length:
        errors[path] = f"longer than {spec.max_length} characters"
    else:
        return value
    return None


def _decode_int(spec: FieldSpec, value: Any, path: str, errors: Dict[str, str]) -> Any:
    if isinstance(value, bool) or not isinstance(value, int):
        errors[path] = f"expected an integer, got {type(value).__name__}"
    elif spec.min_value is not None and value < spec.min_value:
        errors[path] = f"must be >= {spec.min_value}"
    elif spec.max_value is not None and value > spec.max_value:
        errors[path] = f"must be <= {spec.max_value}"
    else:
        return value
    return None


def _decode_float(spec: FieldSpec, value: Any, path: str, errors: Dict[str, str]) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors[path] = f"expected a number, got {type(value).__name__}"
        return None
    return float(value)


def _decode_bool(spec: FieldSpec, value: Any, path: str, errors: Dict[str, str]) -> Any:
    if not isinstance(value, bool):
        errors[path] = f"expected a boolean, got {type(value).__name__}"
        return None
    return value


def _decode_hex(spec: FieldSpec, value: Any, path: str, errors: Dict[str, str]) -> Any:
    if not isinstance(value, str) or not value:
        errors[path] = "expected a non-empty hex string"
        return None
    try:
        data = bytes.fromhex(value)
    except ValueError:
        errors[path] = "not valid hex"
        return None
    if data.hex() != value:  # fromhex also takes upper case and whitespace
        errors[path] = "not lowercase hex without whitespace"
        return None
    return data


def _decode_scalar(spec: FieldSpec, value: Any, path: str, errors: Dict[str, str]) -> Any:
    if not isinstance(value, str) or _CANONICAL_SCALAR.fullmatch(value) is None:
        errors[path] = "expected a decimal-string scalar"
        return None
    return int(value)


def _decode_array(spec: FieldSpec, value: Any, path: str, errors: Dict[str, str]) -> Any:
    if not isinstance(value, list):
        errors[path] = f"expected an array, got {type(value).__name__}"
    elif not value and not spec.allow_empty:
        errors[path] = "must not be empty"
    elif spec.max_items is not None and len(value) > spec.max_items:
        errors[path] = f"more than {spec.max_items} items"
    elif isinstance(spec.item, str):
        decode = _DECODERS[spec.item]
        return [decode(spec, element, f"{path}[{index}]", errors) for index, element in enumerate(value)]
    else:
        assert spec.item is not None
        decode_item = spec.item._from_json_dict
        return [decode_item(element, f"{path}[{index}]", errors) for index, element in enumerate(value)]
    return None


def _decode_schema(spec: FieldSpec, value: Any, path: str, errors: Dict[str, str]) -> Any:
    assert isinstance(spec.item, type) and issubclass(spec.item, Schema)
    return spec.item._from_json_dict(value, path, errors)


def _decode_map(spec: FieldSpec, value: Any, path: str, errors: Dict[str, str]) -> Any:
    if not isinstance(value, dict):
        errors[path] = f"expected an object, got {type(value).__name__}"
        return None
    expected, label = (int, "an integer") if spec.kind == "map-int" else (str, "a string")
    mapping: Dict[str, Any] = {}
    for key in sorted(value):
        entry = value[key]
        if isinstance(entry, bool) or not isinstance(entry, expected):
            errors[f"{path}.{key}"] = f"expected {label} value"
        else:
            mapping[str(key)] = entry
    return mapping


_DECODERS: Dict[str, Callable[[FieldSpec, Any, str, Dict[str, str]], Any]] = {
    "string": _decode_string,
    "int": _decode_int,
    "float": _decode_float,
    "bool": _decode_bool,
    "hex": _decode_hex,
    "scalar": _decode_scalar,
    "array": _decode_array,
    "schema": _decode_schema,
    "map-int": _decode_map,
    "map-string": _decode_map,
}


# ---------------------------------------------------------------------------
# Concrete wire schemas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBody(Schema):
    """Every non-2xx response body."""

    SCHEMA_NAME: ClassVar[str] = "ErrorBody"

    error: str = wire("string", "human-readable error summary", max_length=2048)
    field_errors: Optional[Dict[str, str]] = wire("map-string", "per-field validation messages", required=False)
    retry_after_seconds: Optional[float] = wire(
        "float", "present on 429/503: retry after this many seconds", required=False
    )


@dataclass(frozen=True)
class CreateElectionRequest(Schema):
    """``POST /v1/elections`` — provision a tenant and run its setup phase."""

    SCHEMA_NAME: ClassVar[str] = "CreateElectionRequest"

    election_id: str = wire("string", "tenant identifier (also the ballots' election id)", max_length=64)
    num_voters: int = wire("int", "electoral-roll size", min_value=1, max_value=1_000_000)
    num_options: int = wire("int", "number of ballot choices", min_value=2, max_value=64)
    num_authority_members: Optional[int] = wire(
        "int", "authority DKG size (default 3)", required=False, min_value=2, max_value=16
    )
    group: Optional[str] = wire(
        "string", "named election group (default: the server's --group)", required=False, max_length=64
    )


@dataclass(frozen=True)
class ElectionInfo(Schema):
    """``GET /v1/elections/{id}`` — everything a casting client needs."""

    SCHEMA_NAME: ClassVar[str] = "ElectionInfo"

    election_id: str = wire("string", "tenant identifier", max_length=64)
    status: str = wire("string", "open | closed | tallied", max_length=16)
    group: str = wire("string", "named group clients must rebuild", max_length=64)
    generator: bytes = wire("hex", "the group generator (sanity anchor)")
    authority_public_key: bytes = wire("hex", "collective ElGamal key ballots encrypt to")
    num_options: int = wire("int", "number of ballot choices", min_value=1)
    num_voters: int = wire("int", "electoral-roll size", min_value=0)
    num_registered: int = wire("int", "voters with an active registration", min_value=0)
    num_ballots: int = wire("int", "ballots on the ledger (flushed)", min_value=0)
    pending_casts: int = wire("int", "casts admitted but not yet flushed", min_value=0)


@dataclass(frozen=True)
class RegisterRequest(Schema):
    """``POST /v1/elections/{id}/registrations`` body."""

    SCHEMA_NAME: ClassVar[str] = "RegisterRequest"

    voter_id: str = wire("string", "roll identifier of the voter to register", max_length=128)


@dataclass(frozen=True)
class CredentialWire(Schema):
    """An activated credential, returned to the voter's device.

    This models the paper's in-person hand-off of activated credential
    material to the voter: it exists **only** in the registration response
    (never on the ledger, never in logs or telemetry).
    """

    SCHEMA_NAME: ClassVar[str] = "CredentialWire"

    voter_id: str = wire("string", "owning voter", max_length=128)
    secret_key: int = wire("scalar", "credential signing key (device-private)")
    public_key: bytes = wire("hex", "credential public key (what the ledger sees)")
    is_real: bool = wire("bool", "real (counting) vs fake (coercion-decoy) credential")


@dataclass(frozen=True)
class RegisterResponse(Schema):
    """``POST /v1/elections/{id}/registrations`` result."""

    SCHEMA_NAME: ClassVar[str] = "RegisterResponse"

    voter_id: str = wire("string", "registered voter", max_length=128)
    ledger_seq: int = wire("int", "registration record's ledger sequence number", min_value=0)
    credentials: List[CredentialWire] = wire(
        "array", "activated credentials (first real, then fakes)", item=CredentialWire, max_items=64
    )


#: The in-memory type of each wire kind a ledger record's members use.
_MEMBER_TYPES = {"hex": bytes, "scalar": int, "string": str}

S = TypeVar("S", bound="RecordSchema")


@dataclass(frozen=True)
class RecordSchema(Schema):
    """A schema generated from a ledger record type: ``record=`` names it, the
    fields are its JSON members (:attr:`Record.WIRE`), and both conversions
    are the record's own derived codec."""

    RECORD: ClassVar[Type[Record]]
    _members: ClassVar[Callable[[Any], Tuple[Any, ...]]]  # schema -> wire values

    def __init_subclass__(cls, record: Type[Record], **kwargs: Any) -> None:
        annotations = dict(vars(cls).get("__annotations__", {}))
        for member in record.WIRE:
            annotations[member.name] = _MEMBER_TYPES[member.json]
            limit = member.max_length or MAX_STRING_LENGTH
            setattr(cls, member.name, wire(member.json, member.doc, max_length=limit))
        cls.__annotations__ = annotations
        cls.RECORD = record
        cls._members = fields_getter([member.name for member in record.WIRE])
        super().__init_subclass__(**kwargs)

    @classmethod
    def from_record(cls: Type[S], record: Record) -> S:
        """The wire form of a ledger record (lossless)."""
        build: Callable[..., S] = cls
        return build(*record.to_wire())

    def to_record(self, group: Group, path: str) -> Record:
        """Strictly decode into the ledger record over ``group``.

        A member that is not the one canonical encoding of a value of the
        group — wrong width, not a group element, a signature response
        outside ``[0, q)`` — raises :class:`SchemaError` under
        ``<path>.<member>``, so a malformed cast is a 400 naming the field,
        not a 500 deep inside the ledger.
        """
        kind = type(self)
        try:
            return kind.RECORD.from_wire(group, kind._members(self))
        except MalformedField as error:
            raise SchemaError({f"{path}.{error.field}": error.problem}) from None


@dataclass(frozen=True)
class BallotWire(RecordSchema, record=BallotRecord):
    """One signed encrypted ballot: exactly the JSON members of a ledger
    :class:`~repro.ledger.records.BallotRecord`, generated from it."""

    SCHEMA_NAME: ClassVar[str] = "BallotWire"


@dataclass(frozen=True)
class CastRequest(Schema):
    """``POST /v1/elections/{id}/ballots`` — cast a micro-batch of ballots."""

    SCHEMA_NAME: ClassVar[str] = "CastRequest"

    ballots: List[BallotWire] = wire(
        "array", f"1..{MAX_CAST_BATCH} ballots admitted as one batch", item=BallotWire, max_items=MAX_CAST_BATCH
    )


@dataclass(frozen=True)
class CastResponse(Schema):
    """Ledger receipts for an admitted cast batch."""

    SCHEMA_NAME: ClassVar[str] = "CastResponse"

    ledger_seqs: List[int] = wire(
        "array", "sequence numbers, one per ballot, in request order", item="int", max_items=MAX_CAST_BATCH
    )


@dataclass(frozen=True)
class TallyResponse(Schema):
    """``POST /v1/elections/{id}/tally`` and ``GET .../tally`` result."""

    SCHEMA_NAME: ClassVar[str] = "TallyResponse"

    election_id: str = wire("string", "tallied election", max_length=64)
    counts: Dict[str, int] = wire("map-int", "per-option vote counts (keys are option indices)")
    turnout: int = wire("int", "counted ballots", min_value=0)
    num_ballots_on_ledger: int = wire("int", "ballots read from the ledger", min_value=0)
    num_valid_ballots: int = wire(
        "int", "credentials with a validly signed ballot, after last-write-wins", min_value=0
    )
    num_counted: int = wire("int", "ballots surviving tag filtering", min_value=0)
    num_discarded: int = wire("int", "fake-credential ballots discarded", min_value=0)
    winner: int = wire("int", "winning option index", min_value=0)


@dataclass(frozen=True)
class AuditReportWire(Schema):
    """``GET /v1/elections/{id}/audit/report`` — the cached audit outcome."""

    SCHEMA_NAME: ClassVar[str] = "AuditReportWire"

    election_id: str = wire("string", "audited election", max_length=64)
    ok: bool = wire("bool", "did every check pass")
    strategy: str = wire("string", "verifier strategy that produced the report", max_length=32)
    num_checks: int = wire("int", "checks executed", min_value=0)
    num_failed: int = wire("int", "checks failed", min_value=0)
    fingerprint: str = wire("string", "canonical outcome digest (strategy-independent)", max_length=64)
    elapsed_seconds: float = wire("float", "audit wall-clock seconds")
    failures: List[str] = wire(
        "array", "failure loci (empty when ok)", item="string", allow_empty=True, max_items=1024
    )


@dataclass(frozen=True)
class HealthResponse(Schema):
    """``GET /healthz`` — liveness plus a drain indicator for balancers."""

    SCHEMA_NAME: ClassVar[str] = "HealthResponse"

    status: str = wire("string", "ok | draining", max_length=16)
    elections: int = wire("int", "provisioned tenants", min_value=0)
    uptime_seconds: float = wire("float", "seconds since the service started")


@dataclass(frozen=True)
class AuditStreamEvent(Schema):
    """One WebSocket message on ``/v1/elections/{id}/audit/stream``."""

    SCHEMA_NAME: ClassVar[str] = "AuditStreamEvent"

    event: str = wire("string", "status | audit-report", max_length=32)
    election_id: str = wire("string", "subscribed election", max_length=64)
    status: str = wire("string", "election status at emission time", max_length=16)
    report: Optional[AuditReportWire] = wire(
        "schema", "present on audit-report events", item=AuditReportWire, required=False
    )


# ---------------------------------------------------------------------------
# Domain conversions (wire <-> ledger records)
# ---------------------------------------------------------------------------


def ballot_to_wire(record: BallotRecord) -> BallotWire:
    """Encode a ledger ballot record for the wire (lossless)."""
    return BallotWire.from_record(record)


def ballot_from_wire(group: Group, wire: BallotWire, path: str = "ballot") -> BallotRecord:
    """Decode a wire ballot into a ledger record over ``group`` (strict:
    see :meth:`Schema.to_record`)."""
    record = wire.to_record(group, path)
    assert isinstance(record, BallotRecord)
    return record


def schema_catalog() -> Dict[str, Type[Schema]]:
    """Every registered schema, by name (docs and the doc-sync test)."""
    return dict(SCHEMAS)


def schema_markdown(schema: Type[Schema]) -> str:
    """A markdown table for one schema — the docs are derived, not hand-kept."""
    lines = [
        f"### `{schema.SCHEMA_NAME}`",
        "",
        "| field | type | required | description |",
        "|---|---|---|---|",
    ]
    for spec in schema.FIELDS:
        required = "yes" if spec.required else "no"
        lines.append(f"| `{spec.name}` | `{spec.wire_type()}` | {required} | {spec.doc} |")
    return "\n".join(lines)
