"""The package stands alone: nothing under ``src/repro`` imports the benchmark tree.

``benchmarks/`` holds the figure apparatus (``benchmarks/figures``, imported as
``figures``) and the end-to-end instrument (``benchmarks/e2e``, whose modules
import by their bare names); both sit on ``sys.path`` only when pytest or a
script puts them there, so ``repro`` importing either works in the repo and
breaks in an installed package.

And a printed code is signed in one place: its ``signed`` constructor in
``registration/materials.py`` is the only code that signs a commit, check-out
or response message.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
