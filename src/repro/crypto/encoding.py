"""One table of value kinds: how every published value is written and read.

Everything TRIP lets anyone verify is bytes: the codes printed in the booth
(Fig. 2, Appendix E), the records on the three ledgers (Appendix D.1) and
their JSON at the gateway.  Each value in them has one :class:`Kind`, which
gives all of its forms — hashed bytes, SQL column, printed parts, JSON
members — and one strict, total reader per form: it returns the one value
whose form is its input, or raises :class:`ValueError` saying why not.  Each
surface wraps that in its own error naming the field (``MalformedField`` on
the ledger, ``MalformedCode`` on paper, ``SchemaError`` at the gateway).

A scalar has two byte forms (:func:`~repro.crypto.hashing.scalar_bytes` when
hashed or stored, exactly :func:`scalar_width` bytes when printed) and one
value rule, ``0 <= x < q``, which every reader applies.  A signature's ``R``
is decoded in :data:`SIGNATURE` (the ledger's) and stays an
``ElementEncoding`` in :data:`ENCODED_SIGNATURE` (the printed codes', whose
check recomputes it), as a :data:`COMMIT`'s ``Y1`` and ``Y2`` do.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from operator import attrgetter
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.crypto.chaum_pedersen import ChaumPedersenCommit
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group import ElementEncoding, Group, GroupElement
from repro.crypto.hashing import scalar_bytes
from repro.crypto.schnorr import SchnorrSignature

#: ``(group, form) -> value``; a ``ValueError`` says why not.
Reader = Callable[[Group, Any], Any]


@lru_cache(maxsize=None)
def element_width(group: Group) -> int:
    """The fixed byte width of this group's canonical element encoding."""
    return len(group.generator.to_bytes())


@lru_cache(maxsize=None)
def scalar_width(group: Group) -> int:
    """The fixed byte width of a printed scalar: ``⌈|q|/8⌉``."""
    return (group.order.bit_length() + 7) // 8


# ------------------------------------------------------------------ strict readers


def _typed(expected: type, group: Optional[Group], value: Any) -> Any:
    if type(value) is not expected:  # exact: a bool is not an int here
        raise ValueError(f"expected {expected.__name__}")
    return value


def _below_order(group: Group, value: Any) -> int:
    if type(value) is not int or not 0 <= value < group.order:
        raise ValueError("a scalar must satisfy 0 <= x < q")
    return value


def _stored_scalar(group: Group, data: Any) -> int:
    if isinstance(data, bytes):
        value = int.from_bytes(data, "big")
        if scalar_bytes(value) == data:
            return _below_order(group, value)
    raise ValueError("not a canonical scalar encoding")


def _print_scalar(group: Group, value: int) -> Tuple[bytes, ...]:
    return (value.to_bytes(scalar_width(group), "big"),)


def _printed_scalar(group: Group, data: bytes) -> int:
    if len(data) != scalar_width(group):
        raise ValueError(f"a scalar is {scalar_width(group)} bytes, not {len(data)}")
    return _below_order(group, int.from_bytes(data, "big"))


def _element(group: Group, data: Any) -> GroupElement:
    if not isinstance(data, bytes):
        raise ValueError("expected the bytes of a group element")
    if len(data) != element_width(group):
        raise ValueError(f"a group element is {element_width(group)} bytes, not {len(data)}")
    try:
        return group.element_from_bytes(data)
    except ValueError:
        raise  # the group's own reason, e.g. a point outside the subgroup
    except Exception:  # backends raise varied types on corrupt encodings
        raise ValueError("not a valid group element") from None


def utf8_text(value: Any) -> str:
    """``value`` if it is a str UTF-8 can spell: one holding a lone surrogate
    could be stored, but never hashed, signed or printed."""
    text = _typed(str, None, value)
    if not text.isascii():  # O(1): the common identifier skips the encode
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("not UTF-8 text: it holds a lone surrogate") from None
    return text


def _encoding(group: Group, data: Any) -> ElementEncoding:
    return ElementEncoding(group, _typed(bytes, group, data))


# ---------------------------------------------------------------------- the kinds


class Member(NamedTuple):
    """One JSON member of a value's wire form."""

    suffix: str  # appended to the field name
    json: str  # a JSON_FORMS key, or "string"
    doc: str  # appended to the field doc
    get: Callable[[Any], Any]  # value -> member value (bytes, int or str)
    read: Reader  # its strict inverse


class Kind(NamedTuple):
    """How one kind of value is written and read in every form."""

    name: str
    sql: str  # SQLite column type
    canonical: Callable[[Any], bytes]  # the hashed bytes
    column: Callable[[Any], Any]  # the SQL column value
    read: Reader  # strict inverse of column
    printed: Callable[[Optional[Group], Any], Tuple[bytes, ...]]  # the printed parts
    read_printed: Callable[..., Any]  # (group, *parts) -> value
    members: Tuple[Member, ...]  # the JSON members, one per printed part
    join: Optional[Callable[..., Any]] = None  # the value from its members' values


def _same(value: Any) -> Any:
    return value


def _to_bytes(value: Any) -> bytes:
    return value.to_bytes()


def _blob(name: str, write: Callable[[Any], bytes], read: Reader) -> Kind:
    """A kind whose every form is the same bytes (in JSON, lowercase hex)."""
    printed = lambda group, value: (write(value),)
    return Kind(name, "BLOB", write, write, read, printed, read, (Member("", "hex", "", write, read),))


def textual(name: str, to_text: Callable[[Any], str], from_text: Callable[[str], Any]) -> Kind:
    """A kind spelled as text: UTF-8 when hashed or printed, the text itself in SQL and JSON."""
    encode: Callable[[Any], bytes] = str.encode if to_text is _same else lambda value: to_text(value).encode()

    def read(group: Optional[Group], value: Any) -> Any:
        return from_text(utf8_text(value))

    def read_printed(group: Optional[Group], data: bytes) -> Any:
        return from_text(data.decode("utf-8"))

    printed = lambda group, value: (encode(value),)
    return Kind(name, "TEXT", encode, to_text, read, printed, read_printed, (Member("", "string", "", to_text, read),))


def _pair(name: str, join: Callable[..., Any], first: Tuple[str, str, Kind], second: Tuple[str, str, Kind]) -> Kind:
    """Two ``(attribute, member doc, kind)`` values under one name: hashed and
    stored as their concatenation (the first one element wide), printed as two
    parts, in JSON as two members named ``_<attribute>``."""
    (attr_a, doc_a, kind_a), (attr_b, doc_b, kind_b) = first, second
    get_a, get_b, read_a, read_b = attrgetter(attr_a), attrgetter(attr_b), kind_a.read, kind_b.read

    def read(group: Group, data: Any) -> Any:
        if type(data) is not bytes:
            raise ValueError(f"expected the bytes of a {name}")
        width = element_width(group)
        return join(read_a(group, data[:width]), read_b(group, data[width:]))

    def printed(group: Optional[Group], value: Any) -> Tuple[bytes, ...]:
        return kind_a.printed(group, get_a(value)) + kind_b.printed(group, get_b(value))

    def read_printed(group: Optional[Group], part_a: bytes, part_b: bytes) -> Any:
        return join(kind_a.read_printed(group, part_a), kind_b.read_printed(group, part_b))

    def member(attr: str, doc: str, get: Callable[[Any], Any], of: Member) -> Member:
        return Member(f"_{attr}", of.json, doc, get if of.get is _same else lambda value: of.get(get(value)), of.read)

    members = (member(attr_a, doc_a, get_a, kind_a.members[0]), member(attr_b, doc_b, get_b, kind_b.members[0]))
    return Kind(name, "BLOB", _to_bytes, _to_bytes, read, printed, read_printed, members, join)


TEXT = textual("text", _same, _same)
BYTES = _blob("bytes", _same, partial(_typed, bytes))
SCALAR = Kind(
    "scalar", "BLOB", scalar_bytes, scalar_bytes, _stored_scalar, _print_scalar, _printed_scalar,
    (Member("", "scalar", "", _same, _below_order),),
)
ELEMENT = _blob("element", _to_bytes, _element)
#: An element a check recomputes: it stays its bytes.
ENCODING = _blob("encoding", _to_bytes, _encoding)
SIGNATURE = _pair(
    "signature", SchnorrSignature, ("commitment", " commitment R", ELEMENT), ("response", " response s", SCALAR)
)
ENCODED_SIGNATURE = _pair(
    "encoded-signature",
    SchnorrSignature,
    ("commitment", " commitment R", ENCODING),
    ("response", " response s", SCALAR),
)
CIPHERTEXT = _pair(
    "ciphertext", ElGamalCiphertext, ("c1", " first component", ELEMENT), ("c2", " second component", ELEMENT)
)
COMMIT = _pair("commit", ChaumPedersenCommit, ("commit_g", " Y1", ENCODING), ("commit_h", " Y2", ENCODING))

KINDS = (TEXT, BYTES, SCALAR, ELEMENT, ENCODING, SIGNATURE, ENCODED_SIGNATURE, CIPHERTEXT, COMMIT)


# ------------------------------------------------------------------ JSON spellings

#: A canonical decimal: ASCII digits, no leading zero, at most the 1234 digits
#: of a 4096-bit number (far below CPython's 4300-digit ``int()`` limit).
_DECIMAL = re.compile(r"0|[1-9][0-9]{0,1233}")


def _read_hex(value: Any) -> bytes:
    if not isinstance(value, str) or not value:
        raise ValueError("expected a non-empty hex string")
    try:
        data = bytes.fromhex(value)
    except ValueError:
        raise ValueError("not valid hex") from None
    if data.hex() != value:  # fromhex also takes upper case and whitespace
        raise ValueError("not lowercase hex without whitespace")
    return data


def _read_decimal(value: Any) -> int:
    if not isinstance(value, str) or _DECIMAL.fullmatch(value) is None:
        raise ValueError("expected a decimal-string scalar")
    return int(value)


class JsonForm(NamedTuple):
    """How a member value is spelled in JSON, and the one spelling read back."""

    write: Callable[[Any], str]
    read: Callable[[Any], Any]  # a ValueError says why not


#: ``hex`` spells bytes, ``scalar`` a non-negative int; a string member is itself.
JSON_FORMS: Dict[str, JsonForm] = {"hex": JsonForm(bytes.hex, _read_hex), "scalar": JsonForm(str, _read_decimal)}
