"""Every spec grammar and every knob row of :mod:`repro.spec`, table-driven.

The per-subsystem suites keep checking what each ``*_from_spec`` *builds*;
this one pins the shared rule: what parses, to what, and how each malformed
class fails — with the grammar's declared error type, the config field and
the accepted forms in the message, before anything is constructed.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro import spec
from repro.errors import BigIntError, GatewayError, LedgerError

# (grammar, spec string, expected head, expected given arguments)
VALID = [
    (spec.EXECUTOR, None, "serial", {}),
    (spec.EXECUTOR, "", "serial", {}),
    (spec.EXECUTOR, "serial", "serial", {}),
    (spec.EXECUTOR, "serial:", "serial", {}),
    (spec.EXECUTOR, "  Thread:2 ", "thread", {"num_workers": 2}),
    (spec.EXECUTOR, "thread:", "thread", {}),
    (spec.EXECUTOR, "process", "process", {}),
    (spec.EXECUTOR, "PROCESS:4", "process", {"num_workers": 4}),
    (spec.EXECUTOR, "cluster:3", "cluster", {"num_workers": 3}),
    (spec.EXECUTOR, "remote:Tally-Host:9000", "remote", {"listen": (("Tally-Host", 9000),)}),
    (spec.EXECUTOR, "remote:10.0.0.1:9000,10.0.0.2:0", "remote", {"listen": (("10.0.0.1", 9000), ("10.0.0.2", 0))}),
    (spec.BOARD, "memory", "memory", {}),
    (spec.BOARD, "memory:", "memory", {}),
    (spec.BOARD, "sqlite", "sqlite", {}),
    (spec.BOARD, "SQLite:/Tmp/Board.db", "sqlite", {"path": "/Tmp/Board.db"}),
    (spec.BOARD, "batched", "batched", {}),
    (spec.BOARD, "batched:256", "batched", {"batch_size": 256}),
    (spec.BOARD, "batched:256:sqlite:/p.db", "batched", {"batch_size": 256, "inner": "sqlite:/p.db"}),
    (spec.BOARD, "batched::sqlite", "batched", {"inner": "sqlite"}),
    (spec.BOARD, "batched:8:batched:4:memory", "batched", {"batch_size": 8, "inner": "batched:4:memory"}),
    (spec.PIPELINE, None, "serial", {}),
    (spec.PIPELINE, "serial", "serial", {}),
    (spec.PIPELINE, "stream", "stream", {}),
    (spec.PIPELINE, "stream:", "stream", {}),
    (spec.PIPELINE, "Stream:16", "stream", {"queue_depth": 16}),
    (spec.PIPELINE, "stream:4", "stream", {"queue_depth": 4}),
    (spec.AUDIT, None, "eager", {}),
    (spec.AUDIT, "eager", "eager", {}),
    (spec.AUDIT, "eager:", "eager", {}),
    (spec.AUDIT, "batched", "batched", {}),
    (spec.AUDIT, "batched:512", "batched", {"chunk_size": 512}),
    (spec.AUDIT, "stream:32:8", "stream", {"shard_size": 32, "queue_depth": 8}),
    (spec.AUDIT, "dist", "dist", {}),
    (spec.AUDIT, "DIST:256", "dist", {"shard_size": 256}),
    (spec.TELEMETRY, None, "off", {}),
    (spec.TELEMETRY, "  off  ", "off", {}),
    (spec.TELEMETRY, "MEM", "mem", {}),
    (spec.TELEMETRY, "mem:", "mem", {}),
    (spec.TELEMETRY, "jsonl:/Tmp/Trace.jsonl", "jsonl", {"path": "/Tmp/Trace.jsonl"}),
    (spec.TELEMETRY, "JSONL:C:\\traces\\t.jsonl", "jsonl", {"path": "C:\\traces\\t.jsonl"}),
    (spec.BIGINT, None, "auto", {}),
    (spec.BIGINT, "Python", "python", {}),
    (spec.BIGINT, "gmpy2", "gmpy2", {}),
    (spec.GATEWAY, None, "off", {}),
    (spec.GATEWAY, "OFF", "off", {}),
    (spec.GATEWAY, "serve", "serve", {}),
    (spec.GATEWAY, "serve:", "serve", {}),
    (spec.GATEWAY, "serve:8080", "serve", {"port": 8080}),
    (spec.GATEWAY, "serve:0", "serve", {"port": 0}),
    (spec.GATEWAY, "Serve:Gateway.Example:8080", "serve", {"host": "Gateway.Example", "port": 8080}),
    (spec.GATEWAY, "serve:0.0.0.0:", "serve", {"host": "0.0.0.0"}),
    (spec.GATEWAY, "serve:::1:8080", "serve", {"host": "::1", "port": 8080}),
]

# (grammar, malformed spec, the class of mistake)
INVALID = [
    (spec.EXECUTOR, "gpu", "unknown head"),
    (spec.EXECUTOR, "thread:zero", "non-int"),
    (spec.EXECUTOR, "process:0", "<1"),
    (spec.EXECUTOR, "serial:2", "extra arg"),
    (spec.EXECUTOR, "thread:2:2", "extra arg"),
    (spec.EXECUTOR, "cluster", "missing required"),
    (spec.EXECUTOR, "cluster:", "missing required"),
    (spec.EXECUTOR, "cluster:0", "<1"),
    (spec.EXECUTOR, "remote", "missing required"),
    (spec.EXECUTOR, "remote:,", "missing required"),
    (spec.EXECUTOR, "remote:hostonly", "bad address"),
    (spec.EXECUTOR, "remote:host:70000", "bad port"),
    (spec.BOARD, "", "empty"),
    (spec.BOARD, None, "empty"),
    (spec.BOARD, "bogus", "unknown head"),
    (spec.BOARD, "memory:8", "extra arg"),
    (spec.BOARD, "batched:zero", "non-int"),
    (spec.BOARD, "batched:0", "<1"),
    (spec.BOARD, "batched:8:bogus", "bad inner spec"),
    (spec.BOARD, "batched:8:batched:0", "bad inner spec"),
    (spec.PIPELINE, "warp", "unknown head"),
    (spec.PIPELINE, "off", "unknown head"),
    (spec.PIPELINE, "serial:2", "extra arg"),
    (spec.PIPELINE, "stream:x", "non-int"),
    (spec.PIPELINE, "stream:0", "<1"),
    (spec.PIPELINE, "stream:4:2", "extra arg"),
    (spec.PIPELINE, "stream::8", "extra arg"),
    (spec.AUDIT, "batchd", "unknown head"),
    (spec.AUDIT, "streaming", "unknown head"),
    (spec.AUDIT, "distributed", "unknown head"),
    (spec.AUDIT, "eager:1", "extra arg"),
    (spec.AUDIT, "batched:zero", "non-int"),
    (spec.AUDIT, "batched:0", "<1"),
    (spec.AUDIT, "stream:2:0", "<1"),
    (spec.AUDIT, "stream:x", "non-int"),
    (spec.AUDIT, "dist:4:4", "extra arg"),
    (spec.TELEMETRY, "statsd:localhost", "unknown head"),
    (spec.TELEMETRY, "jsonl", "empty required path"),
    (spec.TELEMETRY, "jsonl:", "empty required path"),
    (spec.TELEMETRY, "mem:x", "extra arg"),
    (spec.BIGINT, "gmp", "unknown head"),
    (spec.BIGINT, "python:3", "extra arg"),
    (spec.GATEWAY, "listen", "unknown head"),
    (spec.GATEWAY, "off:1", "extra arg"),
    (spec.GATEWAY, "serve:http", "bad port"),
    (spec.GATEWAY, "serve:70000", "bad port"),
    (spec.GATEWAY, "serve:-1", "bad port"),
    (spec.GATEWAY, "serve:0.0.0.0:99999", "bad port"),
]

ERROR_TYPES = {
    "executor_spec": ValueError,
    "board_spec": LedgerError,
    "pipeline_spec": ValueError,
    "audit_spec": ValueError,
    "telemetry_spec": ValueError,
    "bigint_spec": BigIntError,
    "gateway_spec": GatewayError,
}


def _ids(rows):
    return [f"{grammar.field}-{text!r}" for grammar, text, *_ in rows]


@pytest.mark.parametrize("grammar,text,head,given", VALID, ids=_ids(VALID))
def test_documented_forms_parse(grammar, text, head, given):
    assert grammar.parse(text) == (head, given)


@pytest.mark.parametrize("grammar,text,mistake", INVALID, ids=_ids(INVALID))
def test_malformed_specs_raise_the_declared_error_naming_field_and_forms(grammar, text, mistake):
    with pytest.raises(grammar.error) as raised:
        grammar.parse(text)
    message = str(raised.value)
    assert grammar.field in message, mistake
    assert " | ".join(grammar.forms) in message, mistake


def test_every_grammar_declares_its_config_field_default_and_error():
    from repro.election import ElectionConfig

    assert [grammar.field for grammar in spec.GRAMMARS] == list(ERROR_TYPES)
    defaults = ElectionConfig()
    for grammar in spec.GRAMMARS:
        assert grammar.error is ERROR_TYPES[grammar.field]
        assert getattr(defaults, grammar.field) == grammar.default
        assert grammar.parse(grammar.default) == (grammar.default, {})
        # Every head of every grammar is exercised by the table above.
        covered = {head for g, _, head, _ in VALID if g is grammar}
        assert covered == set(grammar.heads)


# ---------------------------------------------------------------- knobs

# type -> (a raw value, what it reads as, a raw value that must not parse)
KNOB_SAMPLES = {
    "int>=1": ("7", 7, "zero"),
    "seconds>=0.001": ("2.5", 2.5, "-3"),
    "rate 0-1 (clamped)": ("7", 1.0, "often"),
    "flag (1 = on)": ("1", True, None),
    "str": ("Some:Value", "Some:Value", None),
    "path": ("/Tmp/Dir", "/Tmp/Dir", None),
}


@pytest.mark.parametrize("knob", spec.KNOBS.values(), ids=list(spec.KNOBS))
def test_every_knob_reads_unset_set_and_garbage(knob, monkeypatch):
    raw, value, garbage = KNOB_SAMPLES[knob.type]
    monkeypatch.delenv(knob.name, raising=False)
    assert spec.env(knob.name) == knob.default
    monkeypatch.setenv(knob.name, "")
    assert spec.env(knob.name) == knob.default
    monkeypatch.setenv(knob.name, raw)
    assert spec.env(knob.name) == value
    if garbage is not None:
        monkeypatch.setenv(knob.name, garbage)
        with pytest.raises(ValueError, match=knob.name):
            spec.env(knob.name)


def test_knob_table_counts_and_ownership():
    owners = [knob.owner for knob in spec.KNOBS.values()]
    assert len([owner for owner in owners if owner.startswith("repro.")]) == 9
    assert len([owner for owner in owners if owner.startswith("tests/")]) == 6
    assert len(owners) == 15 and all(knob.doc for knob in spec.KNOBS.values())


def test_undeclared_variables_cannot_be_read():
    with pytest.raises(KeyError):
        spec.env("REPRO_NOT_A_KNOB")


def test_a_knob_can_be_read_from_another_variable(monkeypatch):
    monkeypatch.delenv("REPRO_CLUSTER_SECRET", raising=False)
    monkeypatch.setenv("SITE_SECRET", "00ff")
    assert spec.env("REPRO_CLUSTER_SECRET", var="SITE_SECRET") == "00ff"
    monkeypatch.setenv("SITE_BATCH", "none")
    with pytest.raises(ValueError, match="SITE_BATCH"):
        spec.env("REPRO_GATEWAY_BATCH_SIZE", var="SITE_BATCH")


def test_module_cli_prints_the_reference():
    result = subprocess.run(
        [sys.executable, "-m", "repro.spec"], capture_output=True, text=True, check=True
    )
    assert result.stdout == spec.reference_markdown()
    for grammar in spec.GRAMMARS:
        assert f"`{grammar.field}`" in result.stdout
    for name in spec.KNOBS:
        assert f"`{name}`" in result.stdout
