"""Pluggable big-integer arithmetic backends for the mod-p groups.

CPython's arbitrary-precision integers are correct but leave a lot of raw
speed on the table for the 2048/3072-bit moduli the large-group benchmarks
run on: `gmpy2 <https://pypi.org/project/gmpy2/>`_ (GMP under the hood)
multiplies and exponentiates the same numbers several times faster.  This
module is the seam that lets :class:`~repro.crypto.modp_group.ModPGroup` use
either implementation without the rest of the stack noticing:

* the **python** backend is plain ``int`` arithmetic — always available, the
  reference semantics;
* the **gmpy2** backend stores element values as ``gmpy2.mpz`` and routes
  exponentiation through ``gmpy2.powmod``.  It is an optional dependency
  (``pip install repro-votegral[native]``); requesting it without the
  package installed raises :class:`BigIntError`.

Backend choice is a **per-process acceleration detail, never a protocol
parameter**: every element's canonical byte encoding, every hash, every
published transcript is bit-identical across backends (``mpz`` round-trips
exactly through ``int``), which the cross-backend test matrix pins down.  A
cluster can therefore mix workers with and without gmpy2 freely.

Selection (forms: :data:`repro.spec.BIGINT`):

* the ``REPRO_BIGINT`` environment variable picks the backend for the whole
  process, resolved lazily on first use and inherited by forked/spawned
  workers; ``auto`` (the default) uses gmpy2 when importable, else pure Python;
* :attr:`repro.election.config.ElectionConfig.bigint_spec` never switches a
  live process (groups already constructed keep their arithmetic), it only
  *checks* that the requested backend is the active one and fails loudly
  otherwise.

Tests that genuinely need to switch backends mid-process use
:func:`set_active_backend`, which clears the registered group/table caches
so later group constructions pick up the new arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.errors import BigIntError
from repro.spec import BIGINT, env

#: Environment variable consulted (once, lazily) for the process-wide backend.
ENV_VAR = "REPRO_BIGINT"

#: The spec value meaning "fastest available backend".
AUTO = "auto"


@dataclass(frozen=True)
class BigIntBackend:
    """One big-integer arithmetic implementation.

    ``convert`` maps a Python ``int`` into the backend's value type (values
    support ``*``, ``%``, ``==``, ``hash`` and ``int()`` round-tripping);
    ``powmod``/``invert`` are the two operations whose native implementations
    carry almost all of the speedup.
    """

    name: str
    convert: Callable[[int], Any]
    powmod: Callable[[Any, int, Any], Any]
    invert: Callable[[Any, Any], Any]


def _python_backend() -> BigIntBackend:
    return BigIntBackend(
        name="python",
        convert=int,
        powmod=pow,
        invert=lambda value, modulus: pow(value, -1, modulus),
    )


def _gmpy2_backend() -> BigIntBackend:
    try:
        import gmpy2
    except ImportError as exc:  # pragma: no cover - exercised only without gmpy2
        raise BigIntError(
            "the gmpy2 big-integer backend was requested but gmpy2 is not "
            "installed (pip install gmpy2, or use REPRO_BIGINT=python)"
        ) from exc
    return BigIntBackend(
        name="gmpy2",
        convert=gmpy2.mpz,
        powmod=gmpy2.powmod,
        invert=gmpy2.invert,
    )


_FACTORIES: "dict[str, Callable[[], BigIntBackend]]" = {
    "python": _python_backend,
    "gmpy2": _gmpy2_backend,
}


def available_backends() -> List[str]:
    """Backend names that would resolve successfully in this process."""
    names = ["python"]
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        pass
    else:
        names.append("gmpy2")
    return names


def resolve_backend(spec: str = AUTO) -> BigIntBackend:
    """Instantiate the backend for ``spec`` (``auto``/``python``/``gmpy2``).

    ``auto`` prefers gmpy2 when importable and silently falls back to pure
    Python; an explicit name is honoured exactly or raises
    :class:`BigIntError`.
    """
    name = BIGINT.parse(spec)[0]
    if name == AUTO:
        try:
            return _gmpy2_backend()
        except BigIntError:
            return _python_backend()
    return _FACTORIES[name]()


_active: Optional[BigIntBackend] = None

# Callables that drop caches keyed to the previous backend's group instances
# (the mod-p group singletons, fixed-base tables).  Registered by the modules
# that own those caches so this module stays import-cycle free.
_reset_hooks: List[Callable[[], None]] = []


def register_reset_hook(hook: Callable[[], None]) -> None:
    """Register a cache-clearing callback invoked by :func:`set_active_backend`."""
    _reset_hooks.append(hook)


def active_backend() -> BigIntBackend:
    """The process-wide backend, resolved from ``REPRO_BIGINT`` on first use."""
    global _active
    if _active is None:
        _active = resolve_backend(env(ENV_VAR))
    return _active


def set_active_backend(spec: str) -> str:
    """Switch the process-wide backend; returns the previous backend's name.

    Clears every registered group/table cache so groups constructed *after*
    the switch use the new arithmetic.  Elements created before the switch
    keep their old group instances (mixing them with new ones raises the
    usual cross-group :class:`TypeError`), so this is a test/tooling hook —
    production processes select the backend once, via ``REPRO_BIGINT``,
    before any group exists.
    """
    global _active
    previous = active_backend().name
    _active = resolve_backend(spec)
    for hook in _reset_hooks:
        hook()
    return previous


def require(spec: str) -> BigIntBackend:
    """Validate an election's ``bigint_spec`` against the active backend.

    ``auto`` accepts whatever is active.  An explicit ``python``/``gmpy2``
    must *match* the active backend: arithmetic backends are fixed per
    process (group singletons and precomputed tables are built on one value
    type), so a mismatch means the environment was not set up as the config
    demands — fail loudly with the fix rather than silently running slower
    or half-switched.
    """
    name = BIGINT.parse(spec)[0]
    if name == AUTO:
        return active_backend()
    active = active_backend()
    if active.name != name:
        raise BigIntError(
            f"bigint_spec={name!r} but this process resolved the "
            f"{active.name!r} backend; set {ENV_VAR}={name} in the "
            "environment before the first group is constructed"
        )
    return active
