"""Typed ledger records — the append *commands* of the bulletin board.

Every write to the board is one of five typed records, on the paper's three
hash-chained sub-ledgers (Appendix D.1):

* :class:`RollEntry` / :class:`RegistrationRecord` → the registration ledger
  ``L_R`` (the electoral roll, Fig. 7 line 4; check-outs, Fig. 10);
* :class:`EnvelopeCommitmentRecord` / :class:`EnvelopeUsageRecord` → the
  envelope ledger ``L_E`` (commitments at setup, challenges consumed at
  activation — Appendix F.3.5);
* :class:`BallotRecord` → the ballot ledger ``L_V``.

The dataclasses are the **single declaration** of a record.  The class line
names its ``chain``, its ``key`` field and its rule, which is all the store
(:class:`~repro.ledger.backends.memory.MemoryBackend`) knows of a kind:

* ``unique=True`` — a key is held once and a repeat is refused (a roll entry
  by voter, a commitment and a usage by H(e));
* otherwise a key keeps a history, and its latest record is current (a
  registration supersedes by voter; ballots are filtered by election);
* ``requires=K`` — the key must already be held by kind ``K`` (a
  registration needs its voter on the roll).

A field's annotation picks its :class:`Kind` and every encoding is derived
from that, once, when the class is created:

* :meth:`Record.payload` — the canonical hash that enters the hash chain, so
  two backends that accept the same record sequence produce bit-identical
  logs regardless of how they store the records;
* :meth:`Record.to_row` / :meth:`Record.from_row` — the SQLite columns
  (:attr:`Record.COLUMNS`; column name = field name);
* :meth:`Record.to_wire` / :meth:`Record.from_wire` — the JSON members
  (:attr:`Record.WIRE`) the gateway's wire schemas are generated from.

The decoders are strict and total: any input that is not the encoding of
exactly one record raises :class:`MalformedField`.  A new record field is one
dataclass line, and a new record kind is one class.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, dataclass, field
from functools import lru_cache, partial
from operator import attrgetter
from typing import Any, Callable, ClassVar, List, NamedTuple, Optional, Sequence, Tuple, Type, TypeVar, Union
from typing import get_type_hints

from repro.crypto.group import Group, GroupElement
from repro.crypto.hashing import scalar_bytes, sha256
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import LedgerError


class MalformedField(LedgerError):
    """A strict decoder refused one field: ``field`` names it, ``problem`` says why."""

    def __init__(self, field: str, problem: str) -> None:
        super().__init__(f"{field}: {problem}")
        self.field = field
        self.problem = problem


# ------------------------------------------------------------------ strict parsers
#
# One per Python type a stored or transmitted value can have.  Each takes the
# field name first so a table row can bind it with ``partial``.


@lru_cache(maxsize=None)
def element_width(group: Group) -> int:
    """The fixed byte width of this group's canonical element encoding."""
    return len(group.generator.to_bytes())


def _element(name: str, group: Group, data: Any) -> GroupElement:
    if not isinstance(data, bytes) or len(data) != element_width(group):
        raise MalformedField(name, f"expected a {element_width(group)}-byte group element")
    try:
        return group.element_from_bytes(data)
    except Exception:  # backends raise varied types on corrupt encodings
        raise MalformedField(name, "not a valid group element") from None


def _response(name: str, group: Group, value: Any) -> int:
    if type(value) is not int or not 0 <= value < group.order:
        raise MalformedField(name, "signature response must satisfy 0 <= s < q")
    return value


def _scalar(name: str, group: Group, data: Any) -> int:
    if isinstance(data, bytes):
        value = int.from_bytes(data, "big")
        if scalar_bytes(value) == data:
            return value
    raise MalformedField(name, "not a canonical scalar encoding")


def _signature(name: str, group: Group, data: Any) -> SchnorrSignature:
    width = element_width(group)
    if not isinstance(data, bytes) or len(data) < width + 64:
        raise MalformedField(name, f"expected a signature of at least {width + 64} bytes")
    response = _response(name, group, _scalar(name, group, data[width:]))
    return SchnorrSignature(_element(name, group, data[:width]), response)


def _typed(expected: type, name: str, group: Group, value: Any) -> Any:
    if type(value) is not expected:  # exact: a bool is not an int here
        raise MalformedField(name, f"expected {expected.__name__}")
    return value


_integer = partial(_typed, int)
_bytes = partial(_typed, bytes)
_text = partial(_typed, str)

_Parser = Callable[[str, Group, Any], Any]


# ---------------------------------------------------------------------- field kinds


class Part(NamedTuple):
    """One JSON member of a field's wire form."""

    suffix: str  # appended to the field name
    json: str  # gateway schema kind: hex | scalar | string
    doc: str  # appended to the field doc
    get: Callable[[Any], Any]  # field value -> wire value (bytes, int or str)
    parse: _Parser  # its strict inverse


class Kind(NamedTuple):
    """How one kind of field is laid out in every encoding of a record."""

    sql: str  # SQLite column type: BLOB holds the canonical bytes, TEXT the str itself
    canonical: Callable[[Any], bytes]  # the bytes payload() hashes
    parse: _Parser  # strict inverse of the column value
    parts: Tuple[Part, ...]
    join: Optional[Callable[..., Any]] = None  # field value from several parsed parts


def _same(value: Any) -> Any:
    return value


def _to_bytes(value: Union[GroupElement, SchnorrSignature]) -> bytes:
    return value.to_bytes()


def _commitment_bytes(signature: SchnorrSignature) -> bytes:
    return signature.commitment.to_bytes()


#: Annotation → kind.  ``element``/``bytes`` travel as lowercase hex, ``scalar``
#: as a decimal string, ``text`` as a string, ``signature`` as two members.
KINDS = {
    GroupElement: Kind("BLOB", _to_bytes, _element, (Part("", "hex", "", _to_bytes, _element),)),
    SchnorrSignature: Kind(
        "BLOB",
        _to_bytes,
        _signature,
        (
            Part("_commitment", "hex", " commitment R", _commitment_bytes, _element),
            Part("_response", "scalar", " response s", attrgetter("response"), _response),
        ),
        join=SchnorrSignature,
    ),
    int: Kind("BLOB", scalar_bytes, _scalar, (Part("", "scalar", "", _same, _integer),)),
    bytes: Kind("BLOB", _same, _bytes, (Part("", "hex", "", _same, _bytes),)),
    str: Kind("TEXT", str.encode, _text, (Part("", "string", "", _same, _text),)),
}


class WireField(NamedTuple):
    """One member of a record's JSON form (what the gateway schema is built from)."""

    name: str
    json: str
    doc: str
    max_length: Optional[int]


def described(doc: str, *, max_length: Optional[int] = None, hashed_first: bool = False, default: Any = MISSING) -> Any:
    """A record field: its doc line, a text field's length cap, and whether
    :meth:`Record.payload` hashes it ahead of the others (canonical order is
    attribute order otherwise)."""
    return field(default=default, metadata={"doc": doc, "max_length": max_length, "hashed_first": hashed_first})


R = TypeVar("R", bound="Record")


def fields_getter(names: List[str]) -> Callable[[Any], Tuple[Any, ...]]:
    """``record -> the named values``, a tuple even for one name."""
    get = attrgetter(*names)
    if len(names) > 1:
        return get
    return lambda record: (get(record),)


class Chain(NamedTuple):
    """One hash-chained sub-ledger: the paper's name for its log, and the
    name its audit check reports (``ledger.<name>-chain``)."""

    log: str
    name: str


L_R = Chain("L_R", "registration")
L_E = Chain("L_E", "envelope")
L_V = Chain("L_V", "ballot")

#: Every declared record kind, in declaration order: the order SQLite tables
#: are created and read, and (through their chains) the order of the chains.
RECORD_TYPES: List[Type["Record"]] = []


class _Codec(NamedTuple):
    """Everything derived from one record class's field table."""

    values: Callable[[Any], Tuple[Any, ...]]  # record -> field values, attribute order
    hashed_values: Callable[[Any], Tuple[Any, ...]]  # … in canonical (payload) order
    part_values: Callable[[Any], Tuple[Any, ...]]  # … one per wire member
    canonical: Tuple[Callable[[Any], bytes], ...]
    column: Tuple[Callable[[Any], Any], ...]
    row_parsers: Tuple[Callable[[Group, Any], Any], ...]
    part_getters: Tuple[Callable[[Any], Any], ...]
    part_parsers: Tuple[Callable[[Group, Any], Any], ...]
    joins: Tuple[Tuple[Callable[..., Any], int, int], ...]  # last first, so slices stay valid


class Record:
    """Base of the record kinds; derives every codec from the field table."""

    TAG: ClassVar[bytes]  # domain separator of payload()
    TABLE: ClassVar[str]  # SQLite table
    CHAIN: ClassVar[Chain]  # the sub-ledger the record extends
    KEY: ClassVar[Optional[str]]  # the field the store indexes the kind by
    UNIQUE: ClassVar[bool]  # a key is held once
    REQUIRES: ClassVar[Optional[Type["Record"]]]  # the kind that must hold the key first
    COLUMNS: ClassVar[Tuple[Tuple[str, str], ...]]  # (field name, SQLite type)
    WIRE: ClassVar[Tuple[WireField, ...]]
    _codec: ClassVar[_Codec]

    def __init_subclass__(
        cls,
        tag: bytes,
        table: str,
        chain: Chain,
        key: Optional[str] = None,
        unique: bool = False,
        requires: Optional[Type["Record"]] = None,
        **kwargs: Any,
    ) -> None:
        super().__init_subclass__(**kwargs)
        # Runs before @dataclass, so the declared fields are still the
        # ``described(...)`` objects in the class body, in attribute order.
        hints = get_type_hints(cls)
        declared = [
            (name, KINDS[hints[name]], spec.metadata) for name, spec in vars(cls).items() if isinstance(spec, Field)
        ]
        hashed = sorted(declared, key=lambda entry: not entry[2]["hashed_first"])
        parts = [(name, meta, part) for name, kind, meta in declared for part in kind.parts]
        joins: List[Tuple[Callable[..., Any], int, int]] = []
        first = 0
        for _, kind, _ in declared:
            if kind.join is not None:
                joins.insert(0, (kind.join, first, first + len(kind.parts)))
            first += len(kind.parts)
        cls.TAG, cls.TABLE, cls.CHAIN = tag, table, chain
        cls.KEY, cls.UNIQUE, cls.REQUIRES = key, unique, requires
        cls.COLUMNS = tuple((name, kind.sql) for name, kind, _ in declared)
        cls.WIRE = tuple(
            WireField(name + part.suffix, part.json, meta["doc"] + part.doc, meta["max_length"])
            for name, meta, part in parts
        )
        cls._codec = _Codec(
            values=fields_getter([name for name, _, _ in declared]),
            hashed_values=fields_getter([name for name, _, _ in hashed]),
            part_values=fields_getter([name for name, _, _ in parts]),
            canonical=tuple(kind.canonical for _, kind, _ in hashed),
            column=tuple(kind.canonical if kind.sql == "BLOB" else _same for _, kind, _ in declared),
            row_parsers=tuple(partial(kind.parse, name) for name, kind, _ in declared),
            part_getters=tuple(part.get for _, _, part in parts),
            part_parsers=tuple(partial(part.parse, name + part.suffix) for name, _, part in parts),
            joins=tuple(joins),
        )
        RECORD_TYPES.append(cls)

    def payload(self) -> bytes:
        """The canonical hash of this record — the bytes that enter the chain."""
        codec = self._codec
        parts = [encode(value) for encode, value in zip(codec.canonical, codec.hashed_values(self))]
        return sha256(self.TAG, *parts)

    def to_row(self) -> Tuple[Any, ...]:
        """The SQLite column values, in :attr:`COLUMNS` order."""
        codec = self._codec
        return tuple([encode(value) for encode, value in zip(codec.column, codec.values(self))])

    @classmethod
    def from_row(cls: Type[R], group: Group, row: Sequence[Any]) -> R:
        """Strict inverse of :meth:`to_row` over ``group``."""
        parsers = cls._codec.row_parsers
        if len(row) != len(parsers):
            raise MalformedField(cls.TABLE, f"expected {len(parsers)} columns")
        build: Callable[..., R] = cls  # each @dataclass subclass takes its fields in order
        return build(*[parse(group, value) for parse, value in zip(parsers, row)])

    def to_wire(self) -> Tuple[Any, ...]:
        """The wire values (bytes / int / str), in :attr:`WIRE` order."""
        codec = self._codec
        return tuple([get(value) for get, value in zip(codec.part_getters, codec.part_values(self))])

    @classmethod
    def from_wire(cls: Type[R], group: Group, values: Sequence[Any]) -> R:
        """Strict inverse of :meth:`to_wire` over ``group``."""
        codec = cls._codec
        if len(values) != len(codec.part_parsers):
            raise MalformedField(cls.TABLE, f"expected {len(codec.part_parsers)} members")
        parsed = [parse(group, value) for parse, value in zip(codec.part_parsers, values)]
        # A multi-part field collapses to one value; fields after it shift
        # down, which is why the joins run last-field-first.
        for join, first, last in codec.joins:
            parsed[first:last] = [join(*parsed[first:last])]
        build: Callable[..., R] = cls
        return build(*parsed)


# -------------------------------------------------------------------- the records


@dataclass(frozen=True)
class RollEntry(Record, tag=b"eligible-voter", table="roll", chain=L_R, key="voter_id", unique=True):
    """An eligible voter on the electoral roll, published on ``L_R`` (Fig. 7, line 4)."""

    voter_id: str = described("roll identifier of an eligible voter", max_length=128)


@dataclass(frozen=True)
class RegistrationRecord(
    Record, tag=b"registration-record", table="registrations", chain=L_R, key="voter_id", requires=RollEntry
):
    """An entry of the registration ledger ``L_R`` (check-out, Fig. 10)."""

    voter_id: str = described("roll identifier of the registered voter", max_length=128)
    public_credential_c1: GroupElement = described("public credential, first component")
    public_credential_c2: GroupElement = described("public credential, second component")
    kiosk_public_key: GroupElement = described("key of the kiosk that ran the session")
    kiosk_signature: SchnorrSignature = described("kiosk's check-out signature")
    official_public_key: GroupElement = described("key of the official who checked the voter out")
    official_signature: SchnorrSignature = described("official's check-out signature")


@dataclass(frozen=True)
class EnvelopeCommitmentRecord(
    Record, tag=b"envelope-commitment", table="envelope_commitments", chain=L_E, key="challenge_hash", unique=True
):
    """An entry of the envelope ledger ``L_E``: printer key, H(e), signature."""

    printer_public_key: GroupElement = described("key of the envelope printer")
    challenge_hash: bytes = described("H(e), the hash of the envelope challenge")
    printer_signature: SchnorrSignature = described("printer's signature")


@dataclass(frozen=True)
class EnvelopeUsageRecord(
    Record, tag=b"envelope-usage", table="envelope_usages", chain=L_E, key="challenge_hash", unique=True
):
    """A challenge revealed at activation time (duplicate detection)."""

    challenge: int = described("the envelope challenge e")
    challenge_hash: bytes = described("H(e), as committed by the printer")


@dataclass(frozen=True)
class BallotRecord(Record, tag=b"ballot-record", table="ballots", chain=L_V, key="election_id"):
    """An entry of the ballot ledger ``L_V``.

    ``credential_public_key`` is the key the ballot was cast with (real or
    fake — indistinguishable on the ledger); the ciphertext is the encrypted
    vote; the signature binds the two.
    """

    credential_public_key: GroupElement = described("casting credential (real or fake)")
    ciphertext_c1: GroupElement = described("ElGamal ciphertext, first component")
    ciphertext_c2: GroupElement = described("ElGamal ciphertext, second component")
    signature: SchnorrSignature = described("Schnorr signature")
    election_id: str = described("election the ballot belongs to", max_length=64, hashed_first=True, default="default")
