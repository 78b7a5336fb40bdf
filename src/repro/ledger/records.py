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

A field's annotation picks its kind in the one table of value kinds
(:mod:`repro.crypto.encoding`), and every encoding is derived from those
kinds, once, when the class is created: :meth:`Record.payload` (the hash
that enters the chain, so backends that accept the same records log
bit-identical chains), :meth:`Record.to_row` / :meth:`Record.from_row` (the
SQLite columns, :attr:`Record.COLUMNS`) and :meth:`Record.to_wire` /
:meth:`Record.from_wire` (the JSON members, :attr:`Record.WIRE`, the
gateway's schemas are generated from).  The decoders are the kinds' strict
readers: any input that is not the encoding of exactly one record raises
:class:`MalformedField` naming the field.  A new record field is one
dataclass line, and a new record kind is one class.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, dataclass, field
from operator import attrgetter
from typing import Any, Callable, ClassVar, List, NamedTuple, Optional, Sequence, Tuple, Type, TypeVar
from typing import get_type_hints

from repro.crypto.encoding import BYTES, ELEMENT, SCALAR, SIGNATURE, TEXT, Reader
from repro.crypto.encoding import element_width as element_width  # re-exported: the ledger's element width
from repro.crypto.group import Group, GroupElement
from repro.crypto.hashing import sha256
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import LedgerError


class MalformedField(LedgerError):
    """A strict decoder refused one field: ``field`` names it, ``problem`` says why."""

    def __init__(self, field: str, problem: str) -> None:
        super().__init__(f"{field}: {problem}")
        self.field = field
        self.problem = problem


#: The ledger's kinds, by the annotation that picks one for a field.
_KIND_OF = {GroupElement: ELEMENT, SchnorrSignature: SIGNATURE, int: SCALAR, bytes: BYTES, str: TEXT}


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
    row_names: Tuple[str, ...]
    row_readers: Tuple[Reader, ...]
    part_getters: Tuple[Callable[[Any], Any], ...]
    part_names: Tuple[str, ...]
    part_readers: Tuple[Reader, ...]
    joins: Tuple[Tuple[Callable[..., Any], int, int], ...]  # last first, so slices stay valid
    scalars: Tuple[Tuple[str, Callable[[Any], Any], Reader], ...]  # (part name, record -> scalar, its rule)


def _read(
    table: str, names: Tuple[str, ...], readers: Tuple[Reader, ...], group: Group, values: Sequence[Any]
) -> List[Any]:
    """Each value through its reader; a refusal is a :class:`MalformedField` naming it."""
    if len(values) != len(readers):
        raise MalformedField(table, f"expected {len(readers)} values")
    read_values: List[Any] = []
    append = read_values.append
    try:
        for read, value in zip(readers, values):
            append(read(group, value))
    except ValueError as refusal:
        raise MalformedField(names[len(read_values)], str(refusal)) from None
    return read_values


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
            (name, _KIND_OF[hints[name]], spec.metadata) for name, spec in vars(cls).items() if isinstance(spec, Field)
        ]
        hashed = sorted(declared, key=lambda entry: not entry[2]["hashed_first"])
        parts = [(name + member.suffix, meta, member) for name, kind, meta in declared for member in kind.members]
        joins: List[Tuple[Callable[..., Any], int, int]] = []
        first = 0
        for _, kind, _ in declared:
            if kind.join is not None:
                joins.insert(0, (kind.join, first, first + len(kind.members)))
            first += len(kind.members)
        cls.TAG, cls.TABLE, cls.CHAIN = tag, table, chain
        cls.KEY, cls.UNIQUE, cls.REQUIRES = key, unique, requires
        cls.COLUMNS = tuple((name, kind.sql) for name, kind, _ in declared)
        cls.WIRE = tuple(
            WireField(name, member.json, meta["doc"] + member.doc, meta["max_length"]) for name, meta, member in parts
        )
        cls._codec = _Codec(
            values=fields_getter([name for name, _, _ in declared]),
            hashed_values=fields_getter([name for name, _, _ in hashed]),
            part_values=fields_getter([name for name, kind, _meta in declared for _member in kind.members]),
            canonical=tuple(kind.canonical for _, kind, _ in hashed),
            column=tuple(kind.column for _, kind, _ in declared),
            row_names=tuple(name for name, _, _ in declared),
            row_readers=tuple(kind.read for _, kind, _ in declared),
            part_getters=tuple(member.get for _, _, member in parts),
            part_names=tuple(name for name, _, _ in parts),
            part_readers=tuple(member.read for _, _, member in parts),
            joins=tuple(joins),
            scalars=tuple(
                (name + member.suffix, lambda record, of=attrgetter(name), get=member.get: get(of(record)), member.read)
                for name, kind, _ in declared
                for member in kind.members
                if member.json == "scalar"
            ),
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
        codec = cls._codec
        build: Callable[..., R] = cls  # each @dataclass subclass takes its fields in order
        return build(*_read(cls.TABLE, codec.row_names, codec.row_readers, group, row))

    def check_scalars(self, group: Group) -> None:
        """Refuse (:class:`LedgerError`) a scalar outside ``0 <= x < q``: the
        rule every reader applies, without decoding anything else."""
        for name, get, rule in self._codec.scalars:
            try:
                rule(group, get(self))
            except ValueError as refusal:
                raise LedgerError(f"{self.TABLE}: {name}: {refusal}") from None

    def to_wire(self) -> Tuple[Any, ...]:
        """The wire values (bytes / int / str), in :attr:`WIRE` order."""
        codec = self._codec
        return tuple([get(value) for get, value in zip(codec.part_getters, codec.part_values(self))])

    @classmethod
    def from_wire(cls: Type[R], group: Group, values: Sequence[Any]) -> R:
        """Strict inverse of :meth:`to_wire` over ``group``."""
        codec = cls._codec
        parsed = _read(cls.TABLE, codec.part_names, codec.part_readers, group, values)
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
