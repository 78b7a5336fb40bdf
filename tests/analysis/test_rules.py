"""Per-rule fixtures: each REP rule has at least one triggering and one
non-triggering source fragment, run through the real engine entry point."""

from textwrap import dedent

from repro.analysis.engine import analyze_file
from repro.analysis.rules import ALL_RULES, RULE_REGISTRY, rule_instances


def run_rule(rule_id, source, path="repro/cluster/module.py"):
    return analyze_file(
        "<fixture>", rule_instances([rule_id]), path=path, source=dedent(source)
    )


def test_registry_has_the_six_domain_rules():
    assert ALL_RULES == ["REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007"]
    for rule_id in ALL_RULES:
        rule = RULE_REGISTRY[rule_id]
        assert rule.rule_id == rule_id
        assert rule.summary and rule.rationale


class TestSecretHygiene:
    def test_secret_in_log_call_flagged(self):
        findings = run_rule("REP001", """\
            import logging
            logger = logging.getLogger(__name__)

            def enroll(secret, worker_id):
                logger.info("enrolling %s with %s", worker_id, secret)
        """)
        assert [f.rule_id for f in findings] == ["REP001"]
        assert "'secret'" in findings[0].message

    def test_nonce_in_fstring_flagged(self):
        findings = run_rule("REP001", """\
            def describe(challenge_nonce):
                return f"challenge was {challenge_nonce}"
        """)
        assert len(findings) == 1 and "f-string" in findings[0].message

    def test_mac_in_exception_message_flagged(self):
        findings = run_rule("REP001", """\
            def verify(mac_tag):
                raise ValueError("bad tag: " + repr(mac_tag))
        """)
        assert len(findings) == 1 and "exception" in findings[0].message

    def test_identity_only_logging_clean(self):
        findings = run_rule("REP001", """\
            import logging
            import secrets
            logger = logging.getLogger(__name__)

            def enroll(worker_id):
                token = secrets.token_bytes(16)
                logger.info("worker %s enrolled", worker_id)
                return token
        """)
        assert findings == []


class TestDeterminism:
    def test_ambient_random_and_wall_clock_flagged(self):
        findings = run_rule("REP002", """\
            import os, random, time

            def shuffle(items):
                random.shuffle(items)
                started = time.time()
                seed = os.urandom(16)
                return items, started, seed
        """)
        assert [f.rule_id for f in findings] == ["REP002"] * 3

    def test_set_iteration_flagged(self):
        findings = run_rule("REP002", """\
            def orders(items):
                for item in set(items):
                    yield item
                return list(set(items))
        """)
        assert len(findings) == 2

    def test_injected_rng_monotonic_and_sorted_clean(self):
        findings = run_rule("REP002", """\
            import random, secrets, time

            def shuffle(items, rng):
                rng = rng or random.Random(7)
                rng.shuffle(items)
                deadline = time.monotonic() + 5
                key = secrets.token_bytes(32)
                return sorted(set(items)), deadline, key
        """)
        assert findings == []


class TestPickleSafety:
    def test_pickle_loads_flagged(self):
        findings = run_rule("REP003", """\
            import pickle

            def decode(blob):
                return pickle.loads(blob)
        """)
        assert len(findings) == 1 and "pickle.loads" in findings[0].message

    def test_from_import_alias_flagged(self):
        findings = run_rule("REP003", """\
            from pickle import loads as unpickle

            def decode(blob):
                return unpickle(blob)
        """)
        assert len(findings) == 1

    def test_dumps_and_json_loads_clean(self):
        findings = run_rule("REP003", """\
            import json, pickle

            def encode(obj, blob):
                return pickle.dumps(obj), json.loads(blob)
        """)
        assert findings == []


class TestLockDiscipline:
    def test_queue_put_under_lock_flagged(self):
        findings = run_rule("REP004", """\
            def push(self, item):
                with self._lock:
                    self._queue.put(item)
        """)
        assert len(findings) == 1 and "queue put" in findings[0].message

    def test_socket_io_and_subprocess_under_lock_flagged(self):
        findings = run_rule("REP004", """\
            import subprocess

            def pump(self, frame):
                with self._send_lock:
                    send_frame(self._sock, frame)
                    subprocess.run(["true"])
        """)
        assert len(findings) == 2

    def test_nested_def_body_not_charged_to_lock(self):
        findings = run_rule("REP004", """\
            def plan(self, item):
                with self._lock:
                    def later():
                        self._queue.put(item)
                    return later
        """)
        assert findings == []

    def test_non_lock_context_manager_clean(self):
        findings = run_rule("REP004", """\
            def write(self, path, item):
                with open(path, "w") as handle:
                    self._queue.put(item)
                    handle.write("x")
        """)
        assert findings == []


class TestTelemetryNames:
    def test_unregistered_name_flagged(self):
        findings = run_rule("REP005", """\
            from repro import telemetry

            def work():
                with telemetry.span("my.adhoc.name"):
                    pass
        """)
        assert len(findings) == 1 and "not in repro.telemetry.names" in findings[0].message

    def test_wrong_instrument_flagged_as_typo(self):
        # "ledger.flush" is a registered *span*; counting it is a call-site typo.
        findings = run_rule("REP005", """\
            from repro import telemetry

            def work():
                telemetry.counter("ledger.flush")
        """)
        assert len(findings) == 1 and "different instrument" in findings[0].message

    def test_computed_name_flagged(self):
        findings = run_rule("REP005", """\
            from repro import telemetry

            def work(stage):
                telemetry.counter("stage." + stage)
        """)
        assert len(findings) == 1 and "literal" in findings[0].message

    def test_registered_names_clean(self):
        findings = run_rule("REP005", """\
            from repro import telemetry

            def work(n):
                telemetry.counter("cluster.enroll", worker="w1")
                telemetry.histogram("ledger.flush.records", n, backend="batched")
                with telemetry.span("ledger.flush", backend="batched"):
                    pass
        """)
        assert findings == []


class TestExceptionHygiene:
    def test_bare_except_flagged(self):
        findings = run_rule("REP006", """\
            def run(task):
                try:
                    task()
                except:
                    pass
        """)
        assert len(findings) == 1 and "bare" in findings[0].message

    def test_swallowed_domain_exception_flagged(self):
        findings = run_rule("REP006", """\
            from repro.errors import ClusterError

            def run(task):
                try:
                    task()
                except ClusterError:
                    pass
        """)
        assert len(findings) == 1 and "ClusterError" in findings[0].message

    def test_base_exception_pass_flagged(self):
        findings = run_rule("REP006", """\
            def run(task):
                try:
                    task()
                except BaseException:
                    pass
        """)
        assert len(findings) == 1

    def test_transport_teardown_tuple_clean(self):
        findings = run_rule("REP006", """\
            from repro.errors import ClusterError

            def close(sock):
                try:
                    sock.close()
                except (ClusterError, OSError):
                    pass
        """)
        assert findings == []

    def test_finally_paired_handler_clean(self):
        findings = run_rule("REP006", """\
            from repro.errors import ClusterError

            def run(task, cleanup):
                try:
                    task()
                except ClusterError:
                    pass
                finally:
                    cleanup()
        """)
        assert findings == []

    def test_handled_domain_exception_clean(self):
        findings = run_rule("REP006", """\
            from repro.errors import ClusterError

            def run(task, log):
                try:
                    task()
                except ClusterError as exc:
                    log.warning("task failed: %s", exc)
                    raise
        """)
        assert findings == []


class TestEnvRegistry:
    def test_keyed_environment_reads_flagged(self):
        findings = run_rule("REP007", """\
            import os
            from os import environ, getenv

            def settings():
                a = os.environ.get("REPRO_BIGINT", "auto")
                b = os.environ["REPRO_TELEMETRY"]
                c = os.getenv("REPRO_TELEMETRY_SAMPLE")
                d = "REPRO_GATEWAY_DEBUG" in os.environ
                e = environ.get("HOME")
                f = getenv("HOME")
                return a, b, c, d, e, f
        """)
        assert [f.rule_id for f in findings] == ["REP007"] * 6
        assert all("repro.spec.env()" in f.message for f in findings)

    def test_typed_reader_writes_and_whole_environment_copies_clean(self):
        findings = run_rule("REP007", """\
            import os
            import subprocess
            from repro.spec import env

            def spawn(command, spec):
                os.environ["REPRO_TELEMETRY"] = spec
                os.environ.pop("REPRO_TELEMETRY_SAMPLE", None)
                child_env = dict(os.environ)
                child_env.pop("REPRO_TELEMETRY", None)
                return subprocess.Popen(command, env=child_env), env("REPRO_BIGINT")
        """)
        assert findings == []

    def test_the_reader_itself_is_exempt_by_policy(self):
        from repro.analysis.policy import rule_ids_for_path

        assert "REP007" not in rule_ids_for_path("repro/spec.py")
        assert "REP007" in rule_ids_for_path("repro/registration/qr.py")
        assert "REP007" in rule_ids_for_path("repro/errors.py")
