"""What every workload shares: the pinned environment, scratch files, child
processes that are always reaped, the calibration unit and the run header.

Nothing here imports ``repro``: :func:`pin_environment` has to run first.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Tuple

from catalogue import HERE, ROOT

SRC = ROOT / "src"

PINNED = {"REPRO_BIGINT": "python"}
SCRUBBED = ("REPRO_TELEMETRY", "REPRO_PRECOMPUTE_CACHE")
SCRUBBED_PREFIXES = ("REPRO_GATEWAY_", "REPRO_CLUSTER_")

#: Seconds a child gets between SIGTERM and SIGKILL.
TERMINATE_GRACE_SECONDS = 10.0


class BenchmarkError(Exception):
    """The benchmark could not produce a valid measurement."""


def pin_environment() -> Dict[str, object]:
    """Pin and scrub ``os.environ`` before ``repro`` is imported.

    The benchmark never inherits a knob: the bigint backend is forced to pure
    Python, and every ``REPRO_*`` variable that changes behaviour is removed.
    ``PYTHONPATH`` gains ``src`` so cluster workers and the gateway child,
    which inherit this environment, import the same tree.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {SRC}")
    scrubbed = sorted(
        name
        for name in os.environ
        if name in SCRUBBED or name.startswith(SCRUBBED_PREFIXES)
    )
    for name in scrubbed:
        del os.environ[name]
    os.environ.update(PINNED)
    existing = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {"pinned": dict(PINNED), "scrubbed": scrubbed}


def skip_sqlite_fsync() -> None:
    """Every SQLite connection this process opens from now on skips ``fsync``.

    The ledger's SQLite backend commits with ``synchronous=FULL``, and on the
    shared disks this runs on one such commit took 0.8 ms, then 2 ms, then
    4 ms within two minutes of an otherwise idle host: a gate on a phase that
    is mostly commits (a registration makes five) follows the neighbours, not
    the code.  With ``synchronous=OFF`` SQLite does all the same work — SQL,
    codec, journal file, page writes — and only leaves out the wait for the
    disk.  The benchmark process and the gateway child both call this.
    """
    import sqlite3

    connect = sqlite3.connect

    def connect_without_fsync(*args, **kwargs):
        connection = connect(*args, **kwargs)
        connection.execute("PRAGMA synchronous=OFF")
        return connection

    sqlite3.connect = connect_without_fsync


def raise_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks reap the children."""

    def _exit(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)


def scratch_directory() -> "tempfile.TemporaryDirectory[str]":
    """A directory for SQLite files, removed when the ``with`` block ends.

    It is made inside the checkout, not under ``/tmp``: the driver's contract
    lets the benchmark write nowhere else.
    """
    return tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT)


# ------------------------------------------------------------------ children


def terminate(process: "subprocess.Popen") -> Optional[str]:
    """SIGTERM, wait, SIGKILL after the grace period; returns the child's stdout."""
    if process.poll() is None:
        process.terminate()
    try:
        output, _ = process.communicate(timeout=TERMINATE_GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        process.kill()
        output, _ = process.communicate()
    return output


class GatewayProcess:
    """The gateway under test, in a child process on an ephemeral loopback port."""

    def __init__(self, board_spec: str, mixers: int, proof_rounds: int, telemetry: str) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable, str(HERE / "gateway_proc.py"),
                "--board-spec", board_spec, "--mixers", str(mixers),
                "--proof-rounds", str(proof_rounds), "--telemetry", telemetry,
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        self.final: Optional[dict] = None
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
            line = self.process.stdout.readline() if ready else ""
            self.port = int(json.loads(line)["port"])
        except (ValueError, KeyError):
            terminate(self.process)
            raise BenchmarkError("the gateway child did not report a port") from None
        except BaseException:
            terminate(self.process)
            raise

    def stop(self) -> dict:
        """Drain and stop the child; returns what it reported about its boards."""
        if self.final is None:
            output = terminate(self.process) or ""
            self.final = {}
            for line in output.splitlines():
                if line.startswith("{"):
                    self.final = json.loads(line)
        return self.final


# ------------------------------------------------------------- measurements


def peak_rss_mb() -> float:
    """Max resident set of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


_MODULUS = (1 << 2048) - 1942289
_EXPONENT = int.from_bytes(bytes(range(1, 256)) + b"\x01", "big")


def modexp2048_seconds(samples: int) -> List[float]:
    """Seconds of each of ``samples`` fixed 2048-bit ``pow(g, x, p)`` calls.

    The inputs are fixed so that the timing measures the host, not the draw.
    """
    timings = []
    for _ in range(samples):
        start = time.perf_counter()
        pow(3, _EXPONENT, _MODULUS)
        timings.append(time.perf_counter() - start)
    return timings


def calibrate_modexp2048_us(samples: int) -> float:
    """Median microseconds of one 2048-bit modexp: the header's calibration unit."""
    return statistics.median(modexp2048_seconds(samples)) * 1e6


#: Seconds the calibration modexp takes on the host every timing is scaled to.
REFERENCE_MODEXP_SECONDS = 0.020

#: Calibration calls made before and after every phase.
PROBE_SAMPLES = 2


class PhaseClock:
    """Times the phases of one repetition and scales each to reference speed.

    The VMs this runs on change speed by a third for seconds or minutes at a
    time, and everything on them with it.  So the calibration modexp runs
    right before and right after each phase, and the phase's wall clock is
    multiplied by ``REFERENCE_MODEXP_SECONDS`` over the mean of those
    readings: the time the phase would have taken had the host run at
    reference speed throughout.  ``wall`` keeps the unscaled seconds.
    """

    def __init__(self, probe: bool = True) -> None:
        #: ``False`` (``--smoke``) leaves every phase unscaled and costs no time.
        self.probe = probe
        self.wall: Dict[str, float] = {}
        self.scaled: Dict[str, float] = {}
        self.window: Dict[str, Tuple[float, float]] = {}
        self._probe_at = -1.0
        self._probe = 0.0

    def _modexp_seconds(self) -> float:
        if not self.probe:
            return REFERENCE_MODEXP_SECONDS
        # Two phases back to back share the probe between them.
        if time.perf_counter() - self._probe_at > 1e-3:
            self._probe = statistics.mean(modexp2048_seconds(PROBE_SAMPLES))
            self._probe_at = time.perf_counter()
        return self._probe

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        before = self._modexp_seconds()
        start = time.perf_counter()
        yield
        end = time.perf_counter()
        self._probe_at = -1.0
        after = self._modexp_seconds()
        self.window[name] = (start, end)
        self.wall[name] = end - start
        self.scaled[name] = (end - start) * REFERENCE_MODEXP_SECONDS / ((before + after) / 2)


def git_sha() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def run_header(
    seed: int, environment: Dict[str, object], modexp_us: float, sizes: dict, settings: dict
) -> dict:
    from repro.crypto import bigint

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "bigint_backend": bigint.active_backend().name,
        "crypto.bigint.modexp2048_us": modexp_us,
        "seed": seed,
        "settings": settings,
        "sizes": sizes,
        "environment": environment,
    }


def print_metrics(title: str, rows: List[tuple]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>14.6g} {unit}")
