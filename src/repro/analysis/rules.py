"""The domain rule catalog: REP001–REP007.

Each rule is a pure function of one parsed file (an
:class:`~repro.analysis.engine.AnalysisContext`); which files a rule runs on
is decided by :mod:`repro.analysis.policy`.  Rules are deliberately
syntactic — no type inference, no cross-file analysis — so a finding is
always explainable by pointing at the flagged line.  The cost of that choice
is a small set of known false-positive shapes; those get inline
``# repro: noqa[RULE]`` with a justification comment, which is the review
surface the rules are designed around.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Type

from repro.analysis.engine import AnalysisContext, Finding
from repro.telemetry.names import ALL_NAMES, NAMES_BY_INSTRUMENT

__all__ = [
    "ALL_RULES",
    "RULE_REGISTRY",
    "Rule",
    "SecretHygieneRule",
    "DeterminismRule",
    "PickleSafetyRule",
    "LockDisciplineRule",
    "TelemetryNameRule",
    "ExceptionHygieneRule",
    "EnvRegistryRule",
    "rule_instances",
]


class Rule:
    """Base class: subclasses set the id/summary/rationale and ``check``."""

    rule_id: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        raise NotImplementedError


RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def _register(cls: Type[Rule]) -> Type[Rule]:
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


# ------------------------------------------------------------------ helpers


def _terminal_name(node: ast.AST) -> str:
    """The rightmost identifier of a Name/Attribute/Call chain, or ''."""
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _base_name(node: ast.AST) -> str:
    """The leftmost identifier of a Name/Attribute chain, or ''."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _walk_same_scope(statements: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class bodies.

    Code inside a nested ``def`` runs later, outside the enclosing ``with``
    block's dynamic extent — lock-discipline must not charge it to the lock.
    """
    stack: List[ast.AST] = list(statements)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ------------------------------------------------- REP001: secret hygiene


@_register
class SecretHygieneRule(Rule):
    rule_id = "REP001"
    summary = "secret-taxonomy identifiers must never reach log lines, f-strings, or exception text"
    rationale = (
        "The coordinator logging policy (PR 6) promises that the enrollment "
        "secret, handshake nonces, and MACs are never logged at any level; "
        "interpolating such an identifier into a log call, f-string, or "
        "raised exception message leaks key material into traces and crash "
        "reports that outlive the handshake."
    )

    #: Underscore-separated identifier parts that mark key material.
    TAXONOMY = frozenset({"secret", "nonce", "mac", "hmac", "privkey", "private"})
    #: ``secrets`` here is the stdlib CSPRNG module, not a value to protect.
    ALLOWED_NAMES = frozenset({"secrets"})
    LOG_METHODS = frozenset(
        {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}
    )

    @classmethod
    def _is_secret_identifier(cls, name: str) -> bool:
        if not name or name in cls.ALLOWED_NAMES:
            return False
        parts = name.lower().lstrip("_").split("_")
        return any(part in cls.TAXONOMY for part in parts)

    def _secret_refs(self, node: ast.AST) -> Iterator[ast.AST]:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and self._is_secret_identifier(child.id):
                yield child
            elif isinstance(child, ast.Attribute) and self._is_secret_identifier(child.attr):
                yield child

    def _is_log_call(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id == "print"
        if isinstance(func, ast.Attribute):
            if func.attr == "warn" and _base_name(func) == "warnings":
                return True
            if func.attr in self.LOG_METHODS:
                base = _terminal_name(func.value).lower()
                return "log" in base
        return False

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call) and self._is_log_call(node):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    for ref in self._secret_refs(arg):
                        yield context.finding(
                            self.rule_id,
                            ref,
                            f"secret-taxonomy identifier {_terminal_name(ref)!r} "
                            f"interpolated into a log call",
                        )
            elif isinstance(node, ast.FormattedValue):
                for ref in self._secret_refs(node.value):
                    yield context.finding(
                        self.rule_id,
                        ref,
                        f"secret-taxonomy identifier {_terminal_name(ref)!r} "
                        f"formatted into an f-string",
                    )
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                args: Iterable[ast.AST] = ()
                if isinstance(exc, ast.Call):
                    args = list(exc.args) + [kw.value for kw in exc.keywords]
                for arg in args:
                    # f-string args are caught by the FormattedValue branch;
                    # here we catch direct interpolation (%, +, str(secret)).
                    if isinstance(arg, ast.JoinedStr):
                        continue
                    for ref in self._secret_refs(arg):
                        yield context.finding(
                            self.rule_id,
                            ref,
                            f"secret-taxonomy identifier {_terminal_name(ref)!r} "
                            f"passed into a raised exception message",
                        )


# -------------------------------------------------- REP002: determinism


@_register
class DeterminismRule(Rule):
    rule_id = "REP002"
    summary = "no ambient randomness, wall-clock reads, or set-iteration order in deterministic paths"
    rationale = (
        "The tally must be bit-identical across serial, streaming, and "
        "cluster schedules; ambient random.*, time.time(), os.urandom(), "
        "datetime.now(), and iteration over sets (string hashes vary per "
        "process under hash randomization) all break replayability.  "
        "Randomness must flow through an injected random.Random (or the "
        "sanctioned `secrets` module for key generation)."
    )

    WALL_CLOCK = frozenset({"time", "time_ns"})
    DATETIME_FNS = frozenset({"now", "utcnow", "today"})
    RNG_CONSTRUCTORS = frozenset({"Random", "SystemRandom"})

    def _check_call(self, context: AnalysisContext, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if base == "random" and attr not in self.RNG_CONSTRUCTORS:
                yield context.finding(
                    self.rule_id,
                    node,
                    f"ambient random.{attr}() — randomness must come from an "
                    f"injected random.Random",
                )
            elif base == "time" and attr in self.WALL_CLOCK:
                yield context.finding(
                    self.rule_id,
                    node,
                    f"wall-clock time.{attr}() in a deterministic path — use an "
                    f"injected clock (time.monotonic is fine for timeouts)",
                )
            elif base == "os" and attr == "urandom":
                yield context.finding(
                    self.rule_id,
                    node,
                    "os.urandom() — use secrets.token_bytes() for key material "
                    "or an injected random.Random for replayable randomness",
                )
            elif attr in self.DATETIME_FNS and _terminal_name(func.value) in ("datetime", "date"):
                yield context.finding(
                    self.rule_id,
                    node,
                    f"wall-clock datetime.{attr}() in a deterministic path",
                )
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
            if func.attr in self.DATETIME_FNS and func.value.attr in ("datetime", "date"):
                yield context.finding(
                    self.rule_id,
                    node,
                    f"wall-clock datetime.{func.attr}() in a deterministic path",
                )
        # list(set(...)) / tuple(set(...)) materializes hash order.
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple")
            and len(node.args) == 1
            and self._is_set_expr(node.args[0])
        ):
            yield context.finding(
                self.rule_id,
                node,
                f"{func.id}(set(...)) materializes set iteration order — "
                f"sort first (sorted(...)) to pin the order",
            )

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                for finding in self._check_call(context, node):
                    yield finding
            elif isinstance(node, ast.For) and self._is_set_expr(node.iter):
                yield context.finding(
                    self.rule_id,
                    node.iter,
                    "iterating a set literal — order follows string hash "
                    "randomization; iterate a sorted(...) copy",
                )
            elif isinstance(node, ast.comprehension) and self._is_set_expr(node.iter):
                yield context.finding(
                    self.rule_id,
                    node.iter,
                    "comprehension over a set expression — order follows string "
                    "hash randomization; iterate a sorted(...) copy",
                )


# ------------------------------------------------ REP003: pickle safety


@_register
class PickleSafetyRule(Rule):
    rule_id = "REP003"
    summary = "pickle deserialization only inside repro.cluster.protocol's restricted unpickler"
    rationale = (
        "pickle.loads executes arbitrary constructors; the cluster protocol "
        "funnels every untrusted frame through a globals-restricted "
        "Unpickler before authentication.  Any other deserialization site "
        "reopens the remote-code-execution hole that design closed."
    )

    FLAGGED = frozenset({"loads", "load", "Unpickler"})

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        from_pickle: Set[str] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "pickle":
                from_pickle.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name in self.FLAGGED
                )
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            flagged: Optional[str] = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "pickle"
                and func.attr in self.FLAGGED
            ):
                flagged = f"pickle.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in from_pickle:
                flagged = f"pickle.{func.id}"
            if flagged:
                yield context.finding(
                    self.rule_id,
                    node,
                    f"{flagged}() outside repro.cluster.protocol — route "
                    f"deserialization through the restricted codec",
                )


# --------------------------------------------- REP004: lock discipline


@_register
class LockDisciplineRule(Rule):
    rule_id = "REP004"
    summary = "no executor fan-out, queue puts, socket I/O, or subprocess spawn under a held lock"
    rationale = (
        "The pipeline, ledger and cluster layers all take locks; a blocking "
        "call (bounded-queue put, socket send, executor.map waiting on workers "
        "that need the same lock) inside a `with lock:` body is a deadlock "
        "waiting for the right schedule.  Leaf locks that exist only to "
        "serialize one socket write are the known exception — annotate them "
        "inline with `# repro: noqa[REP004]` and a comment."
    )

    LOCKISH = ("lock", "cond", "mutex", "sem")
    BLOCKING_METHODS = frozenset(
        {
            "map",
            "starmap",
            "submit",
            "put",
            "put_nowait",
            "sendall",
            "recv",
            "accept",
            "connect",
            "makefile",
        }
    )
    FRAME_IO = frozenset({"send_frame", "recv_frame"})
    SUBPROCESS_FNS = frozenset({"Popen", "run", "call", "check_call", "check_output"})

    @classmethod
    def _is_lockish(cls, expr: ast.AST) -> bool:
        name = _terminal_name(expr).lower()
        return any(part in name for part in cls.LOCKISH)

    def _blocking_call(self, call: ast.Call) -> Optional[str]:
        func = call.func
        name = _terminal_name(func)
        if name in self.FRAME_IO:
            return f"{name}() (socket I/O)"
        if isinstance(func, ast.Attribute):
            if func.attr in self.BLOCKING_METHODS:
                kind = "queue put" if func.attr.startswith("put") else "blocking call"
                return f".{func.attr}() ({kind})"
            if func.attr in self.SUBPROCESS_FNS and _base_name(func) == "subprocess":
                return f"subprocess.{func.attr}() (subprocess spawn)"
        return None

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            lock_names = [
                _terminal_name(item.context_expr)
                for item in node.items
                if self._is_lockish(item.context_expr)
            ]
            if not lock_names:
                continue
            for inner in _walk_same_scope(node.body):
                if isinstance(inner, ast.Call):
                    described = self._blocking_call(inner)
                    if described:
                        yield context.finding(
                            self.rule_id,
                            inner,
                            f"{described} inside `with {lock_names[0]}:` — move the "
                            f"blocking call outside the critical section",
                        )


# --------------------------------------- REP005: telemetry name registry


@_register
class TelemetryNameRule(Rule):
    rule_id = "REP005"
    summary = "telemetry span/counter/gauge/histogram names must be literals from repro.telemetry.names"
    rationale = (
        "Serial and streaming schedules of the same tally must emit "
        "identical span names for trace diffing and the bench gates to "
        "compare like with like; a name interpolated at the call site can "
        "drift per schedule and leaks unbounded metric cardinality."
    )

    INSTRUMENTS = frozenset({"span", "counter", "gauge", "histogram"})

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "telemetry"
                and func.attr in self.INSTRUMENTS
            ):
                continue
            if not node.args:
                continue
            name_arg = node.args[0]
            if not (isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)):
                yield context.finding(
                    self.rule_id,
                    name_arg,
                    f"telemetry.{func.attr}() name must be a string literal, "
                    f"not a computed expression",
                )
                continue
            name = name_arg.value
            allowed = NAMES_BY_INSTRUMENT[func.attr]
            if name in allowed:
                continue
            if name in ALL_NAMES:
                yield context.finding(
                    self.rule_id,
                    name_arg,
                    f"{name!r} is registered for a different instrument than "
                    f"telemetry.{func.attr}() — likely a call-site typo",
                )
            else:
                yield context.finding(
                    self.rule_id,
                    name_arg,
                    f"{name!r} is not in repro.telemetry.names — register it "
                    f"there (one registry keeps schedules' traces comparable)",
                )


# ------------------------------------------ REP006: exception hygiene


@_register
class ExceptionHygieneRule(Rule):
    rule_id = "REP006"
    summary = "no bare except, and no silently swallowed domain exceptions"
    rationale = (
        "A bare `except:` eats KeyboardInterrupt and SystemExit; a "
        "`pass`-body handler for ClusterError/LedgerError/etc. turns a "
        "protocol violation into a silent hang three layers up.  Transport "
        "teardown that also catches OSError, or handlers paired with a "
        "`finally:` cleanup, are the sanctioned shapes and stay unflagged."
    )

    DOMAIN = frozenset(
        {
            "ReproError",
            "ClusterError",
            "ConnectionClosed",
            "ProtocolError",
            "TallyError",
            "RegistrationError",
            "VerificationError",
            "LedgerError",
            "CoercionDetected",
        }
    )
    #: Catching any of these alongside a domain type marks transport cleanup.
    BROAD_COMPANIONS = frozenset({"OSError", "IOError", "EOFError", "Exception"})

    @staticmethod
    def _caught_names(type_node: ast.AST) -> List[str]:
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        return [_terminal_name(node) for node in nodes]

    @staticmethod
    def _is_pass_body(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or Ellipsis
            return False
        return True

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if handler.type is None:
                    yield context.finding(
                        self.rule_id,
                        handler,
                        "bare `except:` — it catches KeyboardInterrupt and "
                        "SystemExit; name the exceptions you mean",
                    )
                    continue
                if not self._is_pass_body(handler.body):
                    continue
                caught = self._caught_names(handler.type)
                if "BaseException" in caught:
                    yield context.finding(
                        self.rule_id,
                        handler,
                        "`except BaseException: pass` swallows interpreter "
                        "shutdown signals",
                    )
                    continue
                domain_hits = [name for name in caught if name in self.DOMAIN]
                if not domain_hits:
                    continue
                if any(name in self.BROAD_COMPANIONS for name in caught):
                    continue  # transport-teardown idiom: domain + OSError tuple
                if node.finalbody:
                    continue  # the finally block is the real handler
                yield context.finding(
                    self.rule_id,
                    handler,
                    f"{domain_hits[0]} swallowed with a pass-body handler — "
                    f"propagate it, log it, or pair the try with a finally",
                )


# ------------------------------------------------ REP007: env registry


@_register
class EnvRegistryRule(Rule):
    rule_id = "REP007"
    summary = "environment variables are read only through repro.spec's knob table"
    rationale = (
        "Every REPRO_* variable is one typed row of repro.spec.KNOBS; a "
        "private os.environ.get elsewhere is a setting the generated "
        "reference and the garbage-value error never see.  Writes that hand "
        "a spec to child processes, and passing the whole environment to a "
        "subprocess, are not keyed reads and stay unflagged."
    )

    @staticmethod
    def _is_environ(node: ast.AST) -> bool:
        """``os.environ``, or the bare name from ``from os import environ``."""
        return isinstance(node, (ast.Attribute, ast.Name)) and _terminal_name(node) == "environ"

    def _keyed_read(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            return _terminal_name(func) == "getenv" or (
                isinstance(func, ast.Attribute) and func.attr in ("get", "setdefault") and self._is_environ(func.value)
            )
        if isinstance(node, ast.Subscript):
            return isinstance(node.ctx, ast.Load) and self._is_environ(node.value)
        if isinstance(node, ast.Compare):
            return any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) and any(
                self._is_environ(comparator) for comparator in node.comparators
            )
        return False

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if self._keyed_read(node):
                yield context.finding(
                    self.rule_id,
                    node,
                    "environment read outside repro.spec — declare the variable "
                    "in repro.spec.KNOBS and read it with repro.spec.env()",
                )


#: Every registered rule id, sorted — the "runs ≥6 rules" acceptance surface.
ALL_RULES: List[str] = sorted(RULE_REGISTRY)


def rule_instances(rule_ids: Iterable[str]) -> List[Rule]:
    """Instantiate the given rules (unknown ids raise KeyError loudly)."""
    return [RULE_REGISTRY[rule_id]() for rule_id in sorted(set(rule_ids))]
