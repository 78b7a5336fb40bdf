"""The package stands alone: nothing under ``src/repro`` imports the benchmark tree.

``benchmarks/`` holds the figure apparatus (``benchmarks/figures``, imported as
``figures``) and the end-to-end instrument (``benchmarks/e2e``, whose modules
import by their bare names); both sit on ``sys.path`` only when pytest or a
script puts them there, so ``repro`` importing either works in the repo and
breaks in an installed package.
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
