"""Per-user key residency for the bootstrap service (ARK direction).

Every bootstrap request is useless without its user's key material —
the blind-rotate key, the repack automorphism keys, the Algorithm-2
test vector — and that material is the binding resource when many
tenants are served from one process: ARK measures 3.52 MB per brk entry
and 1.76 GB per user at paper parameters
(:func:`repro.analysis.key_size_table` audits the formula;
:meth:`~repro.switching.keys.SwitchingKeySet.resident_bytes` counts
the actual resident arrays).  This module bounds
it: :class:`LruKeyCache` keeps at most ``capacity_bytes`` of key
material resident, evicting the least-recently-used user's entry —
*including its executor*: an evicted :class:`~repro.switching.
mp_executor.ProcessPoolFanoutExecutor` is closed, releasing its worker
processes and shared-memory key block, not just the primary's arrays.

Entries are **pinned** while requests reference them (queued or in
flight), so eviction can never close an executor mid-batch: evicting a
pinned entry removes it from the cache immediately (it stops counting
toward capacity-driven admission and cannot be returned again) but the
actual close is deferred to the last unpin.

Users may *share* key material — the provider returning the same
:class:`UserKeys` object for several user ids models one tenant
application serving many end users under one evaluation-key context.
Shared keys alias one cache entry (bytes counted once, one executor),
which is what lets the coalescer batch those users' requests together.

A key set's storage states add a second, cheaper eviction tier: when
the resident keys support ``drop_expanded()`` (every
:class:`~repro.switching.keys.SwitchingKeySet` does; a ``.brk``-only
key box does not), an over-capacity cache first *demotes* cold
unpinned entries — freeing the expanded ciphertexts and their lifted
eval-domain tensors while the seed+``b`` material (and the entry's
executor) stays resident — and only falls back to full eviction if
demotion alone cannot fit.  A demoted user's next request pays
re-expansion, not a provider reload and executor rebuild.

Because a key set's footprint changes as it expands and demotes,
entries carry an optional ``nbytes_fn`` re-measured on every
cache hit; the cache maintains a running byte total (updated on
insert/refresh/evict) instead of re-walking every entry per eviction
iteration, which made eviction quadratic in resident users.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Set

from ..ckks.context import CkksContext
from ..math.rns import RnsPoly
from ..switching.keys import brk_bytes, rns_poly_bytes


class UserKeys:
    """One user's loaded bootstrap key material.

    ``keys`` must expose ``.brk`` (what the fan-out executors consume);
    a full :class:`~repro.switching.keys.SwitchingKeySet` additionally
    enables ciphertext-level (Algorithm 2) requests when ``ctx`` is
    given.  ``test_vector`` is the blind-rotate LUT shared by every
    request under this key.
    """

    def __init__(self, keys: Any, test_vector: RnsPoly,
                 ctx: Optional[CkksContext] = None):
        self.keys = keys
        self.test_vector = test_vector
        self.ctx = ctx

    @classmethod
    def from_switching(cls, ctx: CkksContext, keys: Any) -> "UserKeys":
        """Wrap a :class:`~repro.switching.keys.SwitchingKeySet` with the
        Algorithm-2 test vector derived exactly as the executors derive
        it (so the cached LUT is shared, not rebuilt)."""
        test_vector = keys.test_vector(ctx.n, ctx.full_basis.moduli[0])
        return cls(keys, test_vector, ctx=ctx)

    @property
    def n_t(self) -> int:
        """Blind-rotate dimension of these keys — read off the key set
        without expanding it (``brk.n_t`` on a ``.brk``-only box)."""
        n_t = getattr(self.keys, "n_t", None)
        return self.keys.brk.n_t if n_t is None else n_t

    def resident_bytes(self) -> int:
        """Measured bytes of this user's resident key material (the
        quantity the cache charges against its capacity)."""
        fn = getattr(self.keys, "resident_bytes", None)
        if callable(fn):
            total = int(fn())
        else:
            total = brk_bytes(self.keys.brk)
        return total + rns_poly_bytes(self.test_vector)


class KeyCacheEntry:
    """One resident user: keys + the executor (and pipeline) bound to
    them, with the pin count that guards the executor's lifetime."""

    __slots__ = ("user_keys", "executor", "pipeline", "nbytes",
                 "nbytes_fn", "users", "pins", "defunct", "closed", "lock")

    def __init__(self, user_keys: UserKeys, executor: Any,
                 pipeline: Any, nbytes: int,
                 nbytes_fn: Optional[Callable[[], int]] = None):
        self.user_keys = user_keys
        self.executor = executor
        self.pipeline = pipeline
        self.nbytes = nbytes
        #: Re-measures the entry's footprint (key sets grow on expansion
        #: and shrink on demotion); ``None`` = static size.
        self.nbytes_fn = nbytes_fn
        #: Every user id this entry serves (shared-key aliasing).
        self.users: Set[Any] = set()
        self.pins = 0
        #: Evicted while pinned: close deferred to the last unpin.
        self.defunct = False
        self.closed = False
        #: Serialises dispatches onto this entry's executor (a worker
        #: pool is not re-entrant; one batch in flight per entry).
        self.lock = asyncio.Lock()

    def pin(self) -> None:
        self.pins += 1

    def unpin(self) -> None:
        self.pins -= 1
        if self.pins == 0 and self.defunct:
            self.close()

    def close(self) -> None:
        """Release the executor's OS resources (idempotent)."""
        if self.closed:
            return
        self.closed = True
        close = getattr(self.executor, "close", None)
        if callable(close):
            close()

    def release(self) -> None:
        """Eviction-side close: immediate when unpinned, deferred to the
        last unpin while requests are still in flight."""
        if self.pins == 0:
            self.close()
        else:
            self.defunct = True

    def measure(self) -> int:
        """Current footprint: re-measured via ``nbytes_fn`` when the
        entry's keys can change size, else the recorded size."""
        if self.nbytes_fn is not None:
            self.nbytes = int(self.nbytes_fn())
        return self.nbytes

    def demote(self) -> int:
        """Drop the keys back to seed+``b`` residency if they support
        it; returns bytes freed (0 for a ``.brk``-only key box)."""
        drop = getattr(self.user_keys.keys, "drop_expanded", None)
        if not callable(drop):
            return 0
        freed = int(drop())
        if self.nbytes_fn is not None:
            self.measure()
        else:
            self.nbytes = max(0, self.nbytes - freed)
        return freed


class LruKeyCache:
    """Byte-accounted LRU over :class:`KeyCacheEntry`.

    ``key_provider(user_id) -> UserKeys`` loads (or generates) a user's
    key material on miss; ``entry_factory(user_keys) -> KeyCacheEntry``
    builds the executor/pipeline around it (supplied by the service so
    the cache stays executor-agnostic).  ``capacity_bytes=None`` means
    unbounded.

    A *hit* is a request whose user already maps to a resident entry —
    no provider call.  A miss calls the provider; if the returned
    ``UserKeys`` object is already resident under another user id the
    new user aliases that entry (no new bytes, no new executor).

    Eviction never touches pinned entries (their bytes are resident
    regardless until in-flight work completes), so with every entry
    pinned the cache can transiently exceed capacity; the service's
    bounded queue bounds that overshoot.
    """

    def __init__(self, key_provider: Callable[[Any], UserKeys],
                 entry_factory: Callable[[UserKeys], KeyCacheEntry],
                 capacity_bytes: Optional[int] = None):
        self._provider = key_provider
        self._factory = entry_factory
        self.capacity_bytes = capacity_bytes
        #: id(UserKeys) -> entry, in LRU order (front = coldest).
        self._entries: "OrderedDict[int, KeyCacheEntry]" = OrderedDict()
        self._by_user: Dict[Any, int] = {}
        #: Running total of resident entry bytes — kept in sync on every
        #: insert/refresh/evict so eviction is O(victims), not a full
        #: re-walk of the cache per freed entry.
        self._resident = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.demotions = 0
        self.peak_resident_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def resident_bytes(self) -> int:
        return self._resident

    def recount_bytes(self) -> int:
        """Walk every entry and return the measured total (does not
        mutate the running total) — the consistency oracle for tests."""
        return sum(e.nbytes for e in self._entries.values())

    def _refresh(self, entry: KeyCacheEntry) -> None:
        """Re-measure one entry and fold the delta into the running
        total (key sets change size between touches)."""
        before = entry.nbytes
        self._resident += entry.measure() - before
        self.peak_resident_bytes = max(self.peak_resident_bytes,
                                       self._resident)

    def resident_users(self) -> Set[Any]:
        return set(self._by_user)

    def get(self, user_id: Any) -> KeyCacheEntry:
        """The (pinned-by-caller-next) entry for ``user_id``, loading and
        evicting as needed."""
        ref = self._by_user.get(user_id)
        if ref is not None and ref in self._entries:
            self.hits += 1
            entry = self._entries[ref]
            self._entries.move_to_end(ref)
            self._refresh(entry)
            self._evict_to_fit(keep=ref)
            return entry

        self.misses += 1
        user_keys = self._provider(user_id)
        ref = id(user_keys)
        entry = self._entries.get(ref)
        if entry is None:
            entry = self._factory(user_keys)
            self._entries[ref] = entry
            self._resident += entry.nbytes
            self.peak_resident_bytes = max(self.peak_resident_bytes,
                                           self._resident)
            self._evict_to_fit(keep=ref)
        else:
            # Another user id already loaded these exact keys: alias.
            self._entries.move_to_end(ref)
            self._refresh(entry)
        entry.users.add(user_id)
        self._by_user[user_id] = ref
        return entry

    def _evict_to_fit(self, keep: int) -> None:
        if self.capacity_bytes is None:
            return
        # Tier 1: demote cold entries back to seed+b residency
        # — the expanded tensors go, the entry (and executor) stays.
        if self._resident > self.capacity_bytes:
            for ref in list(self._entries):
                if self._resident <= self.capacity_bytes:
                    return
                entry = self._entries.get(ref)
                if entry is None or entry.pins > 0 or ref == keep:
                    continue
                before = entry.nbytes
                if entry.demote() > 0:
                    self._resident += entry.nbytes - before
                    self.demotions += 1
        # Tier 2: full eviction (closes the executor).
        while self._resident > self.capacity_bytes:
            victim = next((r for r, e in self._entries.items()
                           if e.pins == 0 and r != keep), None)
            if victim is None:
                return  # everything else pinned (or alone): admit oversize
            self._evict(victim)

    def _evict(self, ref: int) -> None:
        entry = self._entries.pop(ref)
        self._resident -= entry.nbytes
        for user in entry.users:
            self._by_user.pop(user, None)
        self.evictions += 1
        entry.release()

    def close(self) -> None:
        """Drop every entry (drain path).  Entries with in-flight pins
        are closed by their last unpin."""
        while self._entries:
            ref = next(iter(self._entries))
            entry = self._entries.pop(ref)
            self._resident -= entry.nbytes
            for user in entry.users:
                self._by_user.pop(user, None)
            entry.release()
