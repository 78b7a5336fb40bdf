"""The documentation gate: docs stay link-valid and their examples run.

Two checks over ``docs/*.md`` (plus the README):

* every relative markdown link resolves to a file that exists in the repo
  (external ``http(s)`` links are out of scope — CI must not flake on the
  network);
* every fenced code block containing doctest examples (``>>>``) executes
  cleanly via :mod:`doctest`, so the documented API calls cannot rot;
* the spec-grammar and knob tables in ``docs/architecture.md`` are exactly
  what ``python -m repro.spec`` prints.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

DOC_FILES = sorted(REPO_ROOT.glob("docs/*.md")) + [REPO_ROOT / "README.md"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```(?:python|pycon)\n(.*?)```", re.DOTALL)


def _doc_ids():
    return [str(path.relative_to(REPO_ROOT)) for path in DOC_FILES]


def test_docs_tree_exists():
    names = {path.name for path in REPO_ROOT.glob("docs/*.md")}
    assert {"architecture.md", "performance.md", "benchmarks.md"} <= names


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_relative_links_resolve(doc):
    text = doc.read_text()
    broken = []
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:  # same-file anchor
            continue
        resolved = (doc.parent / path_part).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken relative link(s): {broken}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_fenced_examples_run(doc):
    text = doc.read_text()
    blocks = [block for block in _FENCE.findall(text) if ">>>" in block]
    if not blocks:
        pytest.skip(f"{doc.name} has no doctest examples")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    for index, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"{doc.name}[{index}]", str(doc), 0)
        runner.run(test)
    assert runner.failures == 0, f"{doc.name}: {runner.failures} doctest failure(s)"


def test_configuration_surface_tables_are_the_generated_reference():
    from repro.spec import reference_markdown

    text = (REPO_ROOT / "docs" / "architecture.md").read_text()
    begin = "<!-- begin generated: python -m repro.spec -->\n"
    generated = text.split(begin, 1)[1].split("<!-- end generated -->", 1)[0]
    assert generated == reference_markdown(), (
        "docs/architecture.md drifted from repro.spec; paste the output of "
        "`python -m repro.spec` between the generated markers"
    )
