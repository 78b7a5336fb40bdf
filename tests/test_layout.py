"""The package stands alone: nothing under ``src/repro`` imports the benchmark tree.

``benchmarks/`` holds the figure apparatus (``benchmarks/figures``, imported as
``figures``) and the end-to-end instrument (``benchmarks/e2e``, whose modules
import by their bare names); both sit on ``sys.path`` only when pytest or a
script puts them there, so ``repro`` importing either works in the repo and
breaks in an installed package.

And a printed code is signed in one place: its ``signed`` constructor in
``registration/materials.py`` is the only code that signs a commit, check-out
or response message.  Value kinds are declared, and elements decoded, only
under ``src/repro/crypto``; and the runtime and the crypto never import the
audit.  No test asserts on a clock reading.  A package ``__init__`` is its
docstring and nothing else, except the few named below.  Only the gateway's
HTTP side imports asyncio.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


def _benchmark_module_names():
    names = {"benchmarks"}
    for directory in (BENCHMARKS, BENCHMARKS / "e2e"):
        for path in directory.iterdir():
            if path.suffix == ".py" or (path / "__init__.py").exists():
                names.add(path.stem)
    return names


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module


def test_nothing_under_src_repro_imports_from_benchmarks():
    forbidden = _benchmark_module_names()
    assert {"figures", "catalogue", "trajectory"} <= forbidden
    offenders = [
        f"{path.relative_to(ROOT)}:{lineno} imports {module}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for lineno, module in _imported_modules(path)
        if module.split(".")[0] in forbidden
    ]
    assert offenders == []


#: The messages the kiosk signs on the receipt's three codes.
CODE_MESSAGES = {"commit_message", "check_out_message", "response_message"}


def _called_name(node: ast.Call) -> str:
    func = node.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else ""


def test_a_printed_code_is_signed_only_by_its_own_constructor():
    """No function outside ``registration/materials.py`` both signs and builds a code's message."""
    materials = ROOT / "src" / "repro" / "registration" / "materials.py"
    offenders = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path == materials:
            continue
        for function in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called = {_called_name(node) for node in ast.walk(function) if isinstance(node, ast.Call)}
            if "schnorr_sign" in called and called & CODE_MESSAGES:
                offenders.add(f"{path.relative_to(ROOT)}:{function.lineno} {function.name}")
    assert sorted(offenders) == []


#: The names the end-to-end benchmark builds and traces boards by; they go
#: with ROADMAP item 1(b).
BENCHMARK_BOARD_NAMES = {"publish_electoral_roll", "post_registration", "post_ballot"}


def test_no_ledger_class_mirrors_a_record_kind_in_its_method_names():
    """A record kind declares its chain, key and rule, and the store serves
    every kind through ``append`` / ``append_many`` and generic reads: no
    class under ``src/repro/ledger`` grows an ``append_<kind>``,
    ``post_<kind>`` or ``num_<kind>`` method again."""
    offenders = []
    for path in sorted((ROOT / "src" / "repro" / "ledger").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            allowed = BENCHMARK_BOARD_NAMES if node.name == "BulletinBoard" else set()
            offenders += [
                f"{path.relative_to(ROOT)}:{method.lineno} {node.name}.{method.name}"
                for method in node.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and method.name.startswith(("append_", "post_", "num_"))
                and method.name != "append_many"
                and method.name not in allowed
            ]
    assert offenders == []


def test_values_are_decoded_and_kinds_declared_only_under_crypto():
    """The one table of value kinds lives in ``repro.crypto.encoding``: outside
    ``src/repro/crypto`` no code decodes an element itself (it reads through a
    kind) and no class named ``Kind`` starts a second table."""
    crypto = ROOT / "src" / "repro" / "crypto"
    offenders = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if crypto in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _called_name(node) == "element_from_bytes":
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno} calls element_from_bytes")
            elif isinstance(node, ast.ClassDef) and node.name == "Kind":
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno} declares class Kind")
    assert offenders == []


def test_the_runtime_and_crypto_do_not_import_the_audit():
    """The audit sits on the batch folds, not under them: the fold-then-bisect
    lives in ``repro.runtime.batch``, so nothing under ``src/repro/runtime``
    or ``src/repro/crypto`` imports ``repro.audit``, not even inside a function."""
    offenders = [
        f"{path.relative_to(ROOT)}:{lineno} imports {module}"
        for package in ("runtime", "crypto")
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py"))
        for lineno, module in _imported_modules(path)
        if module == "repro.audit" or module.startswith("repro.audit.")
    ]
    assert offenders == []


#: Test files that may still assert on a clock reading, each with its reason.
#: It goes with ROADMAP item 18.
CLOCK_ASSERTS_ALLOWED = {
    "tests/runtime/test_stream_pipeline.py": "the stream pipeline's teardown is bounded by wall time",
}


def _reads_a_clock(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if _called_name(node) in ("perf_counter", "monotonic"):
        return True
    if isinstance(func, ast.Attribute):
        return func.attr == "time" and isinstance(func.value, ast.Name) and func.value.id == "time"
    return isinstance(func, ast.Name) and func.id == "time"


def _clock_names(function: ast.AST):
    """The names ``function`` binds from a clock reading, directly or through
    another such name (``elapsed = time.monotonic() - start``)."""
    bindings = [
        (node.targets if isinstance(node, ast.Assign) else [node.target], node.value)
        for node in ast.walk(function)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None
    ]
    names: set = set()
    grew = True
    while grew:
        grew = False
        for targets, value in bindings:
            if _mentions_a_clock(value, names):
                bound = {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
                grew |= not bound <= names
                names |= bound
    return names


def _mentions_a_clock(node: ast.AST, names) -> bool:
    return any(
        _reads_a_clock(sub) or (isinstance(sub, ast.Name) and sub.id in names) for sub in ast.walk(node)
    )


def _clock_asserts(path: Path):
    """Line numbers of the asserts in ``path`` that read a clock, directly or
    through a name their function binds from one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    scopes = [(tree, set())] + [(function, _clock_names(function)) for function in functions]
    return sorted({
        node.lineno
        for scope, names in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.Assert) and _mentions_a_clock(node, names)
    })


def test_no_test_asserts_on_a_clock_reading():
    """A test states its claim by events and counts, not by how long something
    took: no ``assert`` under ``tests/`` or in ``benchmarks/**/test_*.py``
    calls ``perf_counter``, ``monotonic`` or ``time.time``, or names a value
    its function bound from one, outside the files
    :data:`CLOCK_ASSERTS_ALLOWED` names."""
    paths = sorted((ROOT / "tests").rglob("*.py")) + sorted(BENCHMARKS.rglob("test_*.py"))
    offenders = [
        f"{path.relative_to(ROOT).as_posix()}:{lineno}"
        for path in paths
        if path.relative_to(ROOT).as_posix() not in CLOCK_ASSERTS_ALLOWED
        for lineno in _clock_asserts(path)
    ]
    assert offenders == []


@pytest.mark.parametrize("body, line", [
    ("    start = time.monotonic()\n    work()\n    assert start > 0\n", 4),
    ("    start = perf_counter()\n    elapsed = perf_counter() - start\n"
     "    took = elapsed * 1000\n    assert took < 5\n", 5),
], ids=["bound-from-a-clock", "bound-through-another-name"])
def test_the_clock_guard_follows_a_name_bound_from_a_clock(tmp_path, body, line):
    path = tmp_path / "test_snippet.py"
    path.write_text("def test_snippet():\n" + body + "\n\ndef test_other(start):\n    assert start > 0\n")
    assert _clock_asserts(path) == [line]


def test_the_clock_allowances_are_still_needed():
    """An allowance whose file no longer asserts on a clock goes from the list."""
    for name in CLOCK_ASSERTS_ALLOWED:
        assert _clock_asserts(ROOT / name), name


#: The package ``__init__`` files that may import, each with the ``repro``
#: modules it imports and why.  Every other package ``__init__`` is its
#: docstring alone: a caller imports a name from the module that defines it,
#: so importing one module (a cluster worker unpickling a shard function)
#: never drags in its package's siblings.
INIT_IMPORTS_ALLOWED = {
    "src/repro/__init__.py": (
        {"repro.errors", "repro.telemetry"},
        "the package's error types and telemetry handle, which everything imports anyway",
    ),
    "src/repro/telemetry/__init__.py": (
        {"repro.spec", "repro.telemetry.context", "repro.telemetry.core", "repro.telemetry.snapshot"},
        "the package is the telemetry API module itself",
    ),
    "src/repro/runtime/__init__.py": (
        {"repro.runtime.precompute"},
        "importing precompute installs the fixed-base hook that group.power consults",
    ),
    "src/repro/election/__init__.py": (
        {"repro.election.config", "repro.election.pipeline"},
        "the election facade that the README and the benchmark's workloads import",
    ),
}


def _repro_imports(path: Path):
    """The ``repro`` modules ``path`` imports, a ``from X import y`` of a
    submodule counted as ``X.y``."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                parts = f"{node.module}.{alias.name}".split(".")
                target = ROOT / "src" / Path(*parts)
                is_module = target.with_suffix(".py").exists() or (target / "__init__.py").exists()
                modules.add(".".join(parts) if is_module else node.module)
    return {module for module in modules if module.split(".")[0] == "repro"}


def test_package_inits_import_only_their_allowances():
    offenders = []
    for path in sorted((ROOT / "src" / "repro").rglob("__init__.py")):
        name = path.relative_to(ROOT).as_posix()
        if name in INIT_IMPORTS_ALLOWED:
            allowed, _reason = INIT_IMPORTS_ALLOWED[name]
            offenders += [f"{name} imports {module}" for module in sorted(_repro_imports(path) - allowed)]
            continue
        body = ast.parse(path.read_text(), filename=str(path)).body
        is_docstring = [isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) for node in body]
        if is_docstring != [True]:
            offenders.append(f"{name} is more than its docstring")
    assert offenders == []


def test_the_init_allowances_are_still_needed():
    """An allowance goes from the list once its ``__init__`` stops importing
    a module it names."""
    for name, (allowed, reason) in INIT_IMPORTS_ALLOWED.items():
        assert reason
        assert allowed <= _repro_imports(ROOT / name), name


def _emitted_check_kinds():
    """``(literal kinds, offenders)`` of every ``Check(...)`` / ``plan.add(...)`` under ``src/repro``.

    An offender is a check whose kind is not a string literal, outside
    ``AuditPlan.add`` itself, which forwards its caller's kind.
    """
    api = ROOT / "src" / "repro" / "audit" / "api.py"
    kinds, offenders = set(), []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_check = isinstance(func, ast.Name) and func.id == "Check"
            is_plan_add = (
                isinstance(func, ast.Attribute) and func.attr == "add"
                and isinstance(func.value, ast.Name) and "plan" in func.value.id
            )
            if not (is_check or is_plan_add):
                continue
            kind = node.args[0] if node.args else next((kw.value for kw in node.keywords if kw.arg == "kind"), None)
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                kinds.add(kind.value)
            elif path != api:
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return kinds, offenders


def test_every_audit_kind_has_a_producer_and_no_other_kind_exists():
    """The kind table is exactly the kinds ``src/repro`` publishes checks under."""
    from repro.audit.kinds import KINDS

    kinds, offenders = _emitted_check_kinds()
    assert offenders == []
    assert kinds == set(KINDS)


def _loads_asyncio(*modules: str) -> bool:
    probe = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "print('asyncio' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, *modules], capture_output=True, text=True, check=True
    ).stdout
    return out.strip() == "True"


def test_only_the_gateway_service_imports_asyncio():
    """asyncio brings in about 50 modules; a process that never serves HTTP —
    an in-process election, a tally or audit, a cluster coordinator, an SDK
    client — does not load it."""
    assert not _loads_asyncio(
        "repro.election", "repro.ledger.api", "repro.tally.pipeline", "repro.audit.checks",
        "repro.cluster.executor", "repro.gateway.client",
    )
    assert _loads_asyncio("repro.gateway.service")
