"""Byte-accounted registry of derived (lifted) eval-domain key tensors.

ARK's inter-operation key-reuse insight: switching keys are long-lived,
so anything *derived* from them — the batched engines' lifted tensor
forms — should be computed once and shared by every operation that
touches the key.  Before this registry three such caches existed ad hoc:

* the CKKS keyswitch engine's per-``(key, extended basis)``
  ``(L_ext, dnum, 2, N)`` tensors (PR 4, stored on the ``SwitchKey``);
* the repack engine's per-exponent ``(N, d, 2)`` lifted automorphism
  tensors (stored on the engine);
* the batched blind-rotate engine's per-``(n, moduli)`` key tensor
  stack (stored on the ``BlindRotateKey``).

All three now route through one process-wide :class:`EvalKeyRegistry`
keyed ``(owner, kind, subkey)``, so the same lifted tensor serves
keyswitch, rotation and repack; a key set's derived-tensor footprint is
one :meth:`~EvalKeyRegistry.owner_bytes` sum; and the key cache's demote
tier (`drop back to seed+b`) can release every tensor derived from a key
it demotes with one :meth:`~EvalKeyRegistry.drop_owner` call.

Owners are weakly referenced: when a key object dies, its entries (and
their bytes) vanish from the accounting automatically.  The registry is
unbounded — eviction is the key cache's job, through ``drop_owner``.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

__all__ = ["EvalKeyRegistry", "get_key_registry"]


def _value_nbytes(value: Any) -> int:
    """Bytes of a lifted tensor value: an ndarray or a list/tuple of them."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (list, tuple)):
        return sum(int(v.nbytes) for v in value if isinstance(v, np.ndarray))
    return 0


@dataclass
class _Entry:
    ref: "weakref.ref[Any]"
    value: Any
    nbytes: int
    #: Called with the (still-live) owner when the entry is dropped, so
    #: legacy per-object mirrors (``SwitchKey._eval_tensors``, the repack
    #: engine's dict) stay consistent.  Must not strongly capture the
    #: owner — entries would then keep their owner alive forever.
    on_drop: Optional[Callable[[Any], None]] = None


class EvalKeyRegistry:
    """Process-wide cache of lifted key tensors, keyed ``(owner, kind,
    subkey)`` with weakly-referenced owners and per-owner byte accounting."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: Dict[Tuple[int, str, Hashable], _Entry] = {}
        self._owner_keys: Dict[int, List[Tuple[int, str, Hashable]]] = {}
        self._finalizers: Dict[int, weakref.finalize] = {}

    # -- core ------------------------------------------------------------------

    def get_or_build(self, owner: Any, kind: str, subkey: Hashable,
                     build: Callable[[], Any],
                     on_drop: Optional[Callable[[Any], None]] = None) -> Any:
        """Return the cached tensor for ``(owner, kind, subkey)``, building
        it once on miss.  ``build`` runs under the registry lock (builds
        are pure lifts; holding the lock keeps concurrent tenants from
        double-lifting the same large tensor)."""
        key = (id(owner), kind, subkey)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.ref() is not None:
                return entry.value
            value = build()
            self._insert(owner, key, value, on_drop)
            return value

    def register(self, owner: Any, kind: str, subkey: Hashable, value: Any,
                 on_drop: Optional[Callable[[Any], None]] = None) -> None:
        """Account a tensor built elsewhere (idempotent per key)."""
        key = (id(owner), kind, subkey)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.ref() is not None:
                return
            self._insert(owner, key, value, on_drop)

    def _insert(self, owner: Any, key: Tuple[int, str, Hashable], value: Any,
                on_drop: Optional[Callable[[Any], None]]) -> None:
        oid = id(owner)
        self._entries[key] = _Entry(ref=weakref.ref(owner), value=value,
                                    nbytes=_value_nbytes(value),
                                    on_drop=on_drop)
        self._owner_keys.setdefault(oid, []).append(key)
        if oid not in self._finalizers:
            self._finalizers[oid] = weakref.finalize(
                owner, self._owner_died, oid)

    def _drop_key(self, key: Tuple[int, str, Hashable]) -> int:
        entry = self._entries.pop(key, None)
        if entry is None:
            return 0
        keys = self._owner_keys.get(key[0])
        if keys is not None:
            try:
                keys.remove(key)
            except ValueError:
                pass
            if not keys:
                self._owner_keys.pop(key[0], None)
        if entry.on_drop is not None:
            owner = entry.ref()
            if owner is not None:
                entry.on_drop(owner)
        return entry.nbytes

    def _owner_died(self, oid: int) -> None:
        with self._lock:
            self._finalizers.pop(oid, None)
            for key in list(self._owner_keys.get(oid, ())):
                self._entries.pop(key, None)
            self._owner_keys.pop(oid, None)

    # -- owner-level operations ------------------------------------------------

    def drop_owner(self, owner: Any) -> int:
        """Drop every tensor derived from ``owner``; returns bytes freed.
        The streaming cache's demote tier calls this so a key falling
        back to seed+``b`` residency also sheds its lifted forms."""
        with self._lock:
            return sum(self._drop_key(key)
                       for key in list(self._owner_keys.get(id(owner), ())))

    def owner_bytes(self, owner: Any) -> int:
        """Current derived-tensor bytes attributed to ``owner``."""
        with self._lock:
            return sum(self._entries[key].nbytes
                       for key in self._owner_keys.get(id(owner), ())
                       if key in self._entries)


_REGISTRY = EvalKeyRegistry()


def get_key_registry() -> EvalKeyRegistry:
    """The process-wide registry every engine lifts through."""
    return _REGISTRY
