"""docs/gateway.md renders the real route table — keep them in lockstep."""

from __future__ import annotations

from pathlib import Path

from repro.gateway.routes import route_table
from repro.gateway.schemas import schema_catalog, schema_markdown
from repro.gateway.governor import BATCH_SIZE_ENV, QUEUE_DEPTH_ENV

DOC = Path(__file__).resolve().parents[2] / "docs" / "gateway.md"


def test_every_route_is_documented():
    text = DOC.read_text()
    for route in route_table():
        assert route.pattern in text, f"{route.pattern} missing from docs/gateway.md"
        assert route.doc in text, f"doc line for {route.name} missing from docs/gateway.md"


def test_doc_names_the_admission_knobs():
    text = DOC.read_text()
    for env in (BATCH_SIZE_ENV, QUEUE_DEPTH_ENV):
        assert env in text


def test_schema_markdown_renders_for_every_schema():
    # The per-field reference the doc points readers at must actually render.
    for name, schema in schema_catalog().items():
        rendered = schema_markdown(schema)
        assert rendered.startswith(f"### `{name}`")
        assert "|" in rendered  # the field table
