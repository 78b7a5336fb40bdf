"""The named-group registry: one table from group *names* to factories.

Groups carry a ``name`` attribute (``"modp-2048"``, ``"ed25519"``, the toy
``"modp-toy-INSECURE"``), and several surfaces resolve a name back to the
canonical factory: the gateway's tenants and its ``ElectionInfo``
schema (clients rebuild the election group from the name the service
advertises), and the benchmark scripts.  Keeping the mapping here — instead
of a private dict per call site — means a new group preset becomes usable
everywhere by adding one row.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.crypto.group import Group

__all__ = ["GROUP_NAMES", "group_by_name", "register_group"]

_FACTORIES: Dict[str, Callable[[], Group]] = {}


def register_group(name: str, factory: Callable[[], Group]) -> None:
    """Register (or replace) the canonical factory for a group name."""
    _FACTORIES[name] = factory


def _ensure_builtin() -> None:
    # Lazy: importing ed25519/modp at module import time would make this a
    # heavyweight import for consumers that never resolve a name.
    if _FACTORIES:
        return
    from repro.crypto.ed25519 import ed25519_group
    from repro.crypto.modp_group import (
        modp_group_256,
        modp_group_2048,
        modp_group_3072,
        testing_group,
    )

    register_group("modp-2048", modp_group_2048)
    register_group("modp-3072", modp_group_3072)
    register_group("modp-256", modp_group_256)
    register_group("ed25519", ed25519_group)
    register_group("modp-toy-INSECURE", testing_group)
    # Friendly aliases accepted on input surfaces (specs, CLI flags).
    register_group("toy", testing_group)


def GROUP_NAMES() -> List[str]:
    """Every registered group name, sorted (CLI ``choices`` and docs)."""
    _ensure_builtin()
    return sorted(_FACTORIES)


def group_by_name(name: str) -> Group:
    """Resolve a group name to its canonical instance.

    Raises :class:`ValueError` with the known names on an unknown name, so
    input surfaces (gateway schemas, CLI flags) get a usable error message.
    """
    _ensure_builtin()
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(f"unknown group {name!r} (known: {', '.join(sorted(_FACTORIES))})")
    return factory()
