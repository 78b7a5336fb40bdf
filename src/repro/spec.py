"""One spec grammar and one knob table for the whole stack.

Every ``ElectionConfig.*_spec`` string (``head[:arg[:arg]]``) and every
``REPRO_*`` environment variable is declared here, once, as a table row: the
``*_from_spec`` constructors parse through :data:`GRAMMARS`, every
environment read under ``src/repro`` goes through :func:`env` (analysis rule
REP007 flags one anywhere else), and ``python -m repro.spec`` prints the
reference that ``docs/architecture.md`` embeds.

One rule for every grammar: the head is case-insensitive; arguments keep
their case; an empty argument means "not given", so the constructor's own
default applies; an unknown head, a malformed, out-of-range, missing or extra
argument raises the grammar's error type at parse time, naming the config
field and the accepted forms.  Stdlib-only: telemetry, the executors and
the bigint layer import this module, so it imports nothing of theirs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Type

from repro.errors import BigIntError, GatewayError, LedgerError

# ------------------------------------------------------------ typed values


def _number(text: str, kind: Callable[[str], Any], low: Any = None, high: Any = None) -> Any:
    """``int(text)``/``float(text)`` within ``low..high``, saying what is wrong otherwise."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{text!r} is not {'an integer' if kind is int else 'a number'}") from None
    if (low is not None and value < low) or (high is not None and value > high):
        raise ValueError(f"{value} is not in {low}..{'' if high is None else high}")
    return value


def parse_host_port(text: str) -> Tuple[str, int]:
    """Parse ``host:port`` (cluster addresses on the CLI and in specs)."""
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ValueError(f"{text!r} is not host:port")
    return host, _number(port_text, int, 0, 65535)


def _addresses(text: str) -> Tuple[Tuple[str, int], ...]:
    addresses = tuple(parse_host_port(part) for part in text.split(",") if part)
    if not addresses:
        raise ValueError("no host:port given")
    return addresses


#: type name (as the generated reference prints it) -> (parser, cut).  The
#: cut is how a grammar argument is taken off the text after the head: up to
#: the "next" colon, everything "before-last" colon (a host may contain
#: colons), or the "rest" (paths, nested specs and address lists contain colons).
_TYPES: Dict[str, Tuple[Callable[[str], Any], str]] = {
    "int>=1": (lambda text: _number(text, int, 1), "next"),
    "port": (lambda text: _number(text, int, 0, 65535), "next"),
    "host": (str, "before-last"),
    "path": (str, "rest"),
    "inner-spec": (str, "rest"),
    "host:port[,host:port…]": (_addresses, "rest"),
    "str": (str, "rest"),
    "seconds>=0.001": (lambda text: _number(text, float, 0.001), "rest"),
    "rate 0-1 (clamped)": (lambda text: min(1.0, max(0.0, _number(text, float))), "rest"),
    "flag (1 = on)": (lambda text: text == "1", "rest"),
}

# ---------------------------------------------------------------- grammars


class Arg(NamedTuple):
    """One positional argument; ``name`` is the constructor keyword it feeds."""

    name: str
    type: str
    required: bool = False


@dataclass(frozen=True, eq=False)
class Grammar:
    """One ``ElectionConfig`` spec field: its heads, defaults and error type.

    ``default`` is the config field's default; ``empty`` is what an empty or
    ``None`` spec parses as (``None``: rejected).
    """

    field: str
    selects: str
    default: str
    empty: Optional[str]
    error: Type[Exception]
    heads: Dict[str, Tuple[Arg, ...]]

    @property
    def forms(self) -> List[str]:
        """``batched[:batch_size][:inner]``-style renderings (arguments are positional)."""
        return [
            head + "".join(f":{arg.name}" if arg.required else f"[:{arg.name}]" for arg in args)
            for head, args in self.heads.items()
        ]

    def _fail(self, spec: Optional[str], problem: str) -> Exception:
        return self.error(f"{self.field}: {problem} in {spec!r}; expected {' | '.join(self.forms)}")

    def parse(self, spec: Optional[str]) -> Tuple[str, Dict[str, Any]]:
        """The canonical head and the arguments that were given, by name."""
        text = (spec or "").strip() or self.empty
        if text is None:
            raise self._fail(spec, "empty spec")
        head_text, _, rest = text.partition(":")
        head = head_text.lower()
        if head not in self.heads:
            raise self._fail(spec, f"unknown head {head_text!r}")
        given: Dict[str, Any] = {}
        for arg in self.heads[head]:
            parser, cut = _TYPES[arg.type]
            if cut == "rest":
                token, rest = rest, ""
            elif cut == "before-last":
                token, _, rest = rest.rpartition(":")
            else:
                token, _, rest = rest.partition(":")
            if not token:
                if arg.required:
                    raise self._fail(spec, f"{head} needs {arg.name}")
                continue
            try:
                given[arg.name] = parser(token)
            except ValueError as exc:
                raise self._fail(spec, f"bad {arg.name} ({exc})") from None
            if arg.type == "inner-spec":
                self.parse(token)
        if rest:
            raise self._fail(spec, f"extra argument {rest!r}")
        return head, given


_CHUNK = Arg("chunk_size", "int>=1")

EXECUTOR = Grammar(
    "executor_spec", "`repro.runtime` executor the parallel stages fan out over", "serial", "serial", ValueError,
    {"serial": (), "cluster": (Arg("num_workers", "int>=1", required=True),),
     "remote": (Arg("listen", "host:port[,host:port…]", required=True),)},
)
BOARD = Grammar(
    "board_spec", "`repro.ledger` backend the bulletin board stores on", "memory", None, LedgerError,
    {"memory": (), "sqlite": (Arg("path", "path"),),
     "batched": (Arg("batch_size", "int>=1"), Arg("inner", "inner-spec"))},
)
PIPELINE = Grammar(
    "pipeline_spec", "whether the tally's paged ledger read runs ahead on a reader thread",
    "serial", "serial", ValueError, {"serial": (), "stream": (Arg("queue_depth", "int>=1"),)},
)
AUDIT = Grammar(
    "audit_spec", "`repro.audit` verification strategy", "batched", "eager", ValueError,
    {"eager": (), "batched": (_CHUNK,), "dist": (_CHUNK,)},
)
TELEMETRY = Grammar(
    "telemetry_spec", "`repro.telemetry` sink", "off", "off", ValueError,
    {"off": (), "mem": (), "jsonl": (Arg("path", "path", required=True),)},
)
BIGINT = Grammar(
    "bigint_spec", "`repro.crypto.bigint` backend the process must already run on (validated, never switched)",
    "auto", "auto", BigIntError, {"auto": (), "python": (), "gmpy2": ()},
)
GATEWAY = Grammar(
    "gateway_spec", "`repro.gateway` HTTP server", "off", "off", GatewayError,
    {"off": (), "serve": (Arg("host", "host"), Arg("port", "port"))},
)

#: Every grammar, in ``ElectionConfig`` field order.
GRAMMARS: Tuple[Grammar, ...] = (EXECUTOR, BOARD, PIPELINE, AUDIT, TELEMETRY, BIGINT, GATEWAY)

# ------------------------------------------- knobs (environment variables)


class Knob(NamedTuple):
    """One ``REPRO_*`` variable; an ``owner`` under ``tests/`` means only tests read it."""

    name: str
    type: str
    default: Any
    owner: str
    doc: str


KNOBS: Dict[str, Knob] = {knob.name: knob for knob in (
    Knob("REPRO_BIGINT", "str", "auto", "repro.crypto.bigint",
         "Process-wide big-integer backend (a `bigint_spec` form), resolved once on first use."),
    Knob("REPRO_TELEMETRY", "str", None, "repro.telemetry",
         "A `telemetry_spec` form child processes attach to; written by `telemetry.configure`. Unset means off."),
    Knob("REPRO_TELEMETRY_SAMPLE", "rate 0-1 (clamped)", 1.0, "repro.telemetry.context",
         "Head-sampling probability of new traces; an unparsable value samples everything."),
    Knob("REPRO_CLUSTER_SECRET", "str", None, "repro.cluster",
         "Shared enrollment secret (hex, or any string taken literally); `--secret-env` names another variable."),
    Knob("REPRO_CLUSTER_ENROLL_TIMEOUT", "seconds>=0.001", 120.0, "repro.cluster.coordinator",
         "How long to wait for the worker floor to enroll (read at import)."),
    Knob("REPRO_CLUSTER_TASK_TIMEOUT", "seconds>=0.001", None, "repro.cluster.coordinator",
         "How long one in-flight task may run before its shard is reassigned (read at import); unset disables."),
    Knob("REPRO_GATEWAY_BATCH_SIZE", "int>=1", 64, "repro.gateway.governor", "Ballots per tenant-board flush."),
    Knob("REPRO_GATEWAY_QUEUE_DEPTH", "int>=1", 1024, "repro.gateway.governor",
         "Bound on casts admitted but not yet acknowledged before requests are shed with 429."),
    Knob("REPRO_GATEWAY_DEBUG", "flag (1 = on)", False, "repro.gateway.routes",
         "Serve the `/v1/debug/*` ops-plane routes (404 otherwise)."),
    # Read only by the tests, from the CI stress and tier-1 jobs; each test module has its own default.
    Knob("REPRO_PIPELINE_QUEUE_DEPTH", "int>=1", None, "tests/runtime, tests/tally", "Randomized queue depth."),
    Knob("REPRO_STRESS_ITERATION", "int>=1", None, "tests/runtime", "Stress iteration, mixed into the test's seed."),
    Knob("REPRO_CLUSTER_WORKERS", "int>=1", None, "tests/cluster",
         "Randomized worker count of the shared loopback test cluster (default 2)."),
    Knob("REPRO_CLUSTER_PAGE_SIZE", "int>=1", None, "tests/cluster", "Randomized ledger page size (default 3)."),
    Knob("REPRO_TRACE_EXPORT_DIR", "path", None, "tests/gateway",
         "Where the end-to-end tracing test exports its trace and waterfall as CI artifacts."),
)}


def env(name: str, var: Optional[str] = None) -> Any:
    """The typed value of knob ``name``, or its default when unset or empty.

    ``var`` reads another variable under the same row (the worker's
    ``--secret-env VAR``).  Garbage raises :class:`ValueError` naming the variable.
    """
    knob = KNOBS[name]
    raw = os.environ.get(var or name)
    if not raw:
        return knob.default
    try:
        return _TYPES[knob.type][0](raw)
    except ValueError as exc:
        raise ValueError(f"{var or name}: {exc} (expected {knob.type})") from None


# ------------------------------- generated reference (python -m repro.spec)


def _table(*rows: Tuple[str, ...]) -> List[str]:
    header, body = rows[0], rows[1:]
    return ["| " + " | ".join(cells) + " |" for cells in (header, ("---",) * len(header), *body)]


def _code(value: Any) -> str:
    if value is None:
        return "unset"
    return f"`{int(value)}`" if isinstance(value, bool) else f"`{value}`"


def reference_markdown() -> str:
    """The grammar table and the knob reference, as embedded in the docs."""
    grammar_rows = []
    for grammar in GRAMMARS:
        types = {arg.name: arg.type for args in grammar.heads.values() for arg in args}
        grammar_rows.append((
            f"`{grammar.field}`", grammar.selects, _code(grammar.default),
            ", ".join(f"`{form}`" for form in grammar.forms),
            ", ".join(f"`{name}`: {type_}" for name, type_ in types.items()) or "—",
            f"`{grammar.error.__name__}`",
        ))
    knob_rows = [
        (
            f"`{knob.name}`", knob.type, _code(knob.default),
            f"{knob.owner} (test-only)" if knob.owner.startswith("tests/") else f"`{knob.owner}`",
            knob.doc,
        )
        for knob in KNOBS.values()
    ]
    lines = _table(("field", "selects", "default", "forms", "argument types", "raises"), *grammar_rows)
    lines += [""] + _table(("variable", "type", "default", "read by", "meaning"), *knob_rows)
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(reference_markdown(), end="")
