"""The coalescing asyncio bootstrap service (the "millions of users" front-end).

The batched engines earn their speedups only at batch size — BlindRotate
runs 5-13x faster when the ``(N, batch, h+1)`` tensors are full — but a
real deployment receives *single* ciphertexts, one request at a time,
from many concurrent users.  Dispatched individually, every request
would pay the scalar-era latency profile and the engines' wins would
never materialise.  :class:`BootstrapService` closes that gap the same
way BTS argues bootstrapping throughput must be won in hardware: by
amortising the expensive shared work across many ciphertexts.

The moving parts:

* **Coalescer.**  Accepted requests join one queue; a dispatcher fills a
  batch per key group up to ``max_batch`` LWEs *or* until the oldest
  member has waited ``max_delay_s`` — whichever comes first — then
  dispatches the composed batch as ONE ``executor.fanout`` call and
  slices the accumulators back into per-request replies.  A key entry
  runs one batch at a time; its next batch forms from everything queued
  while the current one runs, and dispatches when that one ends.  Correctness
  gate: the engines are bit-identical to deterministic oracles and every
  BlindRotate is independent, so a request's result is **byte-equal no
  matter which other requests it was batched with** (tests assert this
  property across executors).
* **Per-user keys.**  Requests are keyed by ``user_id``; key material is
  resolved through the byte-accounted LRU :class:`~repro.service.
  key_cache.LruKeyCache` (ARK direction: the resident key working set,
  not the ciphertexts, is the binding resource under many tenants).
  Requests can only coalesce with requests under the *same* key — blind
  rotation is keyed — so cross-user batching happens exactly when users
  share an evaluation-key context (one tenant app, many end users).
* **Backpressure.**  The queue is bounded by ``max_queue`` requests
  (pending + in flight); beyond it, submission fails fast with a typed
  :class:`~repro.errors.ServiceOverloadError` carrying a measured
  ``retry_after`` instead of letting latency grow without bound.  A
  request whose caller cancels while it is queued gives its room back
  at once and takes no batch slot.
* **Executors.**  Each key group's batches dispatch onto the executor
  built by ``executor_factory`` — in-process
  :class:`~repro.switching.pipeline.LocalExecutor` by default, or a
  per-key :class:`~repro.switching.mp_executor.ProcessPoolFanoutExecutor`
  (:func:`pool_executor_factory`) so coalescing composes with true
  multi-core fan-out.  Batches run in a worker thread
  (``asyncio.to_thread``); the event loop keeps accepting requests while
  a batch computes.
* **Shutdown.**  :meth:`~BootstrapService.stop` drains: new submissions
  are refused, every queued request is dispatched immediately (deadline
  waived), in-flight batches complete, and cached executors are closed —
  worker pools release their processes and shared-memory key blocks.

Three request granularities share the machinery: :meth:`~BootstrapService.
submit` bootstraps one LWE ciphertext (one blind rotation),
:meth:`~BootstrapService.submit_ciphertext` runs a full Algorithm-2
scheme-switching bootstrap whose N extracted LWEs ride the same
coalesced fan-out via the pipeline's ``prepare``/``complete`` stage
split, and :meth:`~BootstrapService.submit_pbs` runs a programmable
(LUT) bootstrap the same way.  PBS requests batch per ``(LUT, scale)``
group — one fan-out tensor carries one test vector — so same-function
traffic from different users under a shared key coalesces, while
Algorithm-2 and different-LUT requests dispatch as separate batches.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..ckks.ciphertext import CkksCiphertext
from ..errors import ParameterError, ServiceClosedError, ServiceOverloadError
from ..switching.pipeline import BootstrapPipeline, LocalExecutor, key_registry, run_batch
from ..tfhe.glwe import GlweCiphertext
from ..tfhe.lwe import LweCiphertext
from .key_cache import KeyCacheEntry, LruKeyCache, UserKeys


@dataclass
class ServiceTrace:
    """Lifetime record of one service instance (what the load benchmark
    reads): request intake and outcome counts, achieved batch fill, the
    coalescing wait each batch paid, queue depth, and key-cache traffic.
    """

    requests_accepted: int = 0
    requests_rejected: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    #: Requests whose caller went away (task cancelled) before a result
    #: was delivered; after a drain ``accepted == completed + failed +
    #: cancelled``.
    requests_cancelled: int = 0
    batches: int = 0
    #: Total LWE blind-rotates dispatched across all coalesced batches.
    coalesced_lwes: int = 0
    #: Achieved batch fill histogram (LWEs per batch -> occurrences).
    batch_fill: Dict[int, int] = field(default_factory=dict)
    #: Summed per-request queue wait (arrival -> dispatch), seconds.
    coalesce_wait_s: float = 0.0
    max_coalesce_wait_s: float = 0.0
    #: Wall-clock spent inside batch execution (prepare+fanout+complete).
    batch_seconds: float = 0.0
    peak_queue_depth: int = 0
    #: Programmable-bootstrap (LUT) requests accepted.
    pbs_requests: int = 0
    key_cache_hits: int = 0
    key_cache_misses: int = 0
    key_cache_evictions: int = 0
    #: Entries dropped back to seed+b residency (tier-1
    #: eviction: expanded tensors freed, entry and executor kept).
    key_cache_demotions: int = 0
    peak_resident_key_bytes: int = 0
    #: True once ``stop()`` finished a graceful drain.
    drained: bool = False

    @property
    def mean_batch_fill(self) -> float:
        return self.coalesced_lwes / self.batches if self.batches else 0.0

    @property
    def key_cache_hit_rate(self) -> float:
        looked_up = self.key_cache_hits + self.key_cache_misses
        return self.key_cache_hits / looked_up if looked_up else 0.0


class _Request:
    """One queued bootstrap request (internal)."""

    __slots__ = ("user_id", "kind", "payload", "weight", "arrival",
                 "future", "entry", "lut", "group")

    def __init__(self, user_id: Any, kind: str, payload: Any, weight: int,
                 future: "asyncio.Future[Any]", entry: KeyCacheEntry,
                 lut: Any = None, group: Any = None):
        self.user_id = user_id
        self.kind = kind
        self.payload = payload
        #: LWE blind-rotates this request contributes to a batch (1 for
        #: an LWE request, N for a full Algorithm-2 ciphertext or PBS).
        self.weight = weight
        self.arrival = time.monotonic()
        self.future = future
        self.entry = entry
        #: Resolved :class:`~repro.switching.luts.LutSpec` for PBS
        #: requests (``None`` on the Algorithm-2 kinds).
        self.lut = lut
        #: Batch key within the key entry: requests coalesce only with
        #: the same group, because one fan-out tensor carries exactly
        #: one test vector — ``None`` for the Algorithm-2 kinds,
        #: ``(lut name, scale)`` for PBS.
        self.group = group


def pool_executor_factory(num_workers: int = 2,
                          **pool_kwargs: Any) -> Callable[[UserKeys], Any]:
    """An ``executor_factory`` that gives every resident key group its
    own :class:`~repro.switching.mp_executor.ProcessPoolFanoutExecutor`
    — coalesced batches then fan out across real cores, and key-cache
    eviction closes the pool (workers + shared key block released)."""
    from ..switching.mp_executor import ProcessPoolFanoutExecutor

    def factory(user_keys: UserKeys) -> Any:
        return ProcessPoolFanoutExecutor(user_keys.keys,
                                         user_keys.test_vector,
                                         num_workers=num_workers,
                                         **pool_kwargs)

    return factory


class BootstrapService:
    """Async front-end coalescing single-ciphertext bootstrap requests
    into engine-sized batches.

    Usage::

        service = BootstrapService(key_provider, max_batch=32,
                                   max_delay_s=0.01)
        async with service:
            acc = await service.submit("alice", lwe_ct)

    ``key_provider(user_id) -> UserKeys`` supplies key material on cache
    miss (it runs synchronously on the submitting task — point lookups
    are expected; generation-on-miss works but stalls that submitter).
    """

    def __init__(self, key_provider: Callable[[Any], UserKeys], *,
                 max_batch: int = 32,
                 max_delay_s: float = 0.010,
                 max_queue: int = 256,
                 key_cache_bytes: Optional[int] = None,
                 executor_factory: Optional[Callable[[UserKeys], Any]] = None,
                 trace: Optional[ServiceTrace] = None):
        if max_batch < 1:
            raise ParameterError("max_batch must be at least 1")
        if max_queue < 1:
            raise ParameterError("max_queue must be at least 1")
        if max_delay_s < 0:
            raise ParameterError("max_delay_s must be non-negative")
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.max_queue = max_queue
        self.trace = trace if trace is not None else ServiceTrace()
        self._executor_factory: Callable[[UserKeys], Any] = \
            executor_factory if executor_factory is not None \
            else (lambda uk: LocalExecutor(uk.keys, uk.test_vector))
        self.cache = LruKeyCache(key_provider, self._make_entry,
                                 key_cache_bytes)
        self._pending: List[_Request] = []
        self._inflight = 0
        #: Key entries (by id) with a batch in flight: one batch per
        #: entry at a time — a worker pool is not re-entrant — and the
        #: entry's next batch forms from everything queued meanwhile.
        self._busy: Set[int] = set()
        self._batch_tasks: Set["asyncio.Future[None]"] = set()
        self._wakeup = asyncio.Event()
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._started = False
        self._stopping = False
        self._closed = False
        #: EWMA of per-request service time, feeding ``retry_after``.
        self._ewma_request_s = 0.0

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "BootstrapService":
        """Start the dispatcher (idempotent until :meth:`stop`)."""
        if self._closed:
            raise ServiceClosedError("service has been stopped")
        if not self._started:
            self._started = True
            self._dispatcher = asyncio.create_task(
                self._dispatch_loop(), name="bootstrap-service-dispatcher")
        return self

    async def stop(self) -> None:
        """Graceful drain: refuse new requests, dispatch everything
        queued immediately (deadline waived), await in-flight batches,
        then close cached executors (pools release workers + shared
        memory).  Idempotent."""
        if self._closed:
            return
        self._stopping = True
        self._wakeup.set()
        if self._dispatcher is not None:
            await self._dispatcher
        while self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks),
                                 return_exceptions=True)
        self._closed = True
        self.cache.close()
        self._sync_cache_stats()
        self.trace.drained = True

    async def __aenter__(self) -> "BootstrapService":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    def queue_depth(self) -> int:
        """Requests currently held by the service (queued + in flight);
        a queued request stops counting the moment its caller cancels."""
        return sum(not r.future.done() for r in self._pending) \
            + self._inflight

    # -- submission -----------------------------------------------------------

    async def submit(self, user_id: Any, lwe: LweCiphertext) -> GlweCiphertext:
        """Bootstrap one LWE ciphertext (one blind rotation against the
        user's key and test vector); resolves to its accumulator."""
        return await self._submit(user_id, "lwe", lwe)

    async def submit_ciphertext(self, user_id: Any,
                                ct: CkksCiphertext) -> CkksCiphertext:
        """Run a full Algorithm-2 scheme-switching bootstrap; the N
        extracted LWEs ride the coalesced fan-out with everyone else's.
        Requires the user's :class:`UserKeys` to carry a ``ctx``."""
        return await self._submit(user_id, "ckks", ct)

    async def submit_pbs(self, user_id: Any, ct: CkksCiphertext,
                         f: Any) -> CkksCiphertext:
        """Programmable bootstrap: apply ``f`` (a callable,
        :class:`~repro.switching.luts.LutSpec`, or workload name)
        coefficient-wise to a level-0 ciphertext through the coalesced
        fan-out.  Same-LUT requests (same function, same scale) batch
        into one fan-out tensor; different LUTs never share a batch —
        one tensor carries one test vector.  Requires the user's
        :class:`UserKeys` to carry a ``ctx``."""
        return await self._submit(user_id, "pbs", ct, f=f)

    async def _submit(self, user_id: Any, kind: str, payload: Any,
                      f: Any = None) -> Any:
        if self._closed or self._stopping or not self._started:
            raise ServiceClosedError(
                "service is not accepting requests (not started, stopping, "
                "or stopped)")
        depth = self.queue_depth()
        if depth >= self.max_queue:
            self.trace.requests_rejected += 1
            raise ServiceOverloadError(
                f"request queue is full ({depth} of {self.max_queue})",
                retry_after=self._retry_after(depth))
        entry = self.cache.get(user_id)
        self._sync_cache_stats()
        lut = None
        group = None
        if kind in ("ckks", "pbs"):
            if entry.pipeline is None:
                raise ParameterError(
                    f"user {user_id!r} has no CKKS context: ciphertext "
                    f"requests need UserKeys built with ctx "
                    f"(UserKeys.from_switching)")
            # Refuse here what ``prepare*`` would refuse inside the batch,
            # where the error would fail every co-batched request.
            entry.pipeline.validate(payload, pbs=kind == "pbs")
            weight = entry.pipeline.ctx.n
            if kind == "pbs":
                # Resolve to a named spec now (cheap — no LUT build);
                # the N-point NTT build happens once, in the batch's
                # worker thread, guarded by the registry's lock.
                lut = key_registry(entry.pipeline.keys).spec_for(f)
                group = (lut.name, float(payload.scale))
                self.trace.pbs_requests += 1
        else:
            # Likewise what ``rotate_batch`` would refuse inside the batch.
            uk = entry.user_keys
            two_n = 2 * uk.test_vector.n
            if payload.dim != uk.n_t or payload.q != two_n:
                raise ParameterError(
                    f"user {user_id!r} blind-rotates LWE ciphertexts of "
                    f"dimension {uk.n_t} mod {two_n}, got dimension "
                    f"{payload.dim} mod {payload.q}")
            weight = 1
        future: "asyncio.Future[Any]" = \
            asyncio.get_running_loop().create_future()
        req = _Request(user_id, kind, payload, weight, future, entry,
                       lut=lut, group=group)
        entry.pin()
        self._pending.append(req)
        self.trace.requests_accepted += 1
        self.trace.peak_queue_depth = max(self.trace.peak_queue_depth,
                                          self.queue_depth())
        self._wakeup.set()
        try:
            return await future
        finally:
            entry.unpin()

    def _retry_after(self, depth: int) -> float:
        """When queue room is likely: the backlog priced at the measured
        per-request service time, floored at one coalescing window."""
        return max(self.max_delay_s, depth * self._ewma_request_s, 1e-3)

    # -- coalescing dispatcher ------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            # Clear-before-scan: a submit landing after the scan re-sets
            # the event, so the wait below returns immediately instead of
            # sleeping past the new request's deadline.
            self._wakeup.clear()
            now = time.monotonic()
            ready, next_deadline = self._ready_groups(now)
            if ready:
                for group in ready:
                    self._launch(group)
                continue
            if self._stopping and not self._pending:
                return
            timeout = None if next_deadline is None else \
                max(next_deadline - time.monotonic(), 0.0)
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout)
            except asyncio.TimeoutError:
                pass

    def _ready_groups(self, now: float
                      ) -> Tuple[List[List[_Request]], Optional[float]]:
        """Group pending requests by batch key — key entry plus LUT
        group (arrival order preserved) — and split into groups ready to
        dispatch — full to ``max_batch``, past the ``max_delay_s``
        deadline, or draining — plus the earliest deadline among the
        not-yet-ready rest.  Algorithm-2 traffic (group ``None``) and
        each distinct PBS LUT batch separately: one fan-out tensor, one
        test vector.  Requests cancelled while queued are dropped first,
        so they take no batch slot."""
        live = [r for r in self._pending if not r.future.done()]
        self.trace.requests_cancelled += len(self._pending) - len(live)
        self._pending = live
        groups: Dict[Tuple[int, Any], List[_Request]] = {}
        for req in self._pending:
            groups.setdefault((id(req.entry), req.group), []).append(req)
        ready: List[List[_Request]] = []
        next_deadline: Optional[float] = None
        busy = set(self._busy)
        for reqs in groups.values():
            if id(reqs[0].entry) in busy:
                continue  # woken when the entry's batch finishes
            fill = sum(r.weight for r in reqs)
            deadline = reqs[0].arrival + self.max_delay_s
            if self._stopping or fill >= self.max_batch or now >= deadline:
                ready.append(reqs)
                busy.add(id(reqs[0].entry))
            elif next_deadline is None or deadline < next_deadline:
                next_deadline = deadline
        return ready, next_deadline

    def _launch(self, group: List[_Request]) -> None:
        """Carve up to ``max_batch`` LWEs off a ready group (oldest
        first; a single overweight request still dispatches alone) and
        run them as one batch task."""
        batch: List[_Request] = []
        fill = 0
        for req in group:
            if batch and fill + req.weight > self.max_batch:
                break
            batch.append(req)
            fill += req.weight
        taken = set(map(id, batch))
        self._pending = [r for r in self._pending if id(r) not in taken]
        self._inflight += len(batch)
        self._busy.add(id(batch[0].entry))
        task = asyncio.create_task(self._run_batch(batch, fill))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, batch: List[_Request], fill: int) -> None:
        entry = batch[0].entry
        dispatch_t = time.monotonic()
        waits = [dispatch_t - r.arrival for r in batch]
        seconds = 0.0
        resolved = 0  # futures still waiting when the batch finished
        try:
            results, seconds = await asyncio.to_thread(
                self._execute_batch, entry, batch)
        except Exception as exc:
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
                    resolved += 1
            self.trace.requests_failed += resolved
        else:
            for req, result in zip(batch, results):
                if not req.future.done():
                    req.future.set_result(result)
                    resolved += 1
            self.trace.requests_completed += resolved
            per_request = seconds / len(batch)
            self._ewma_request_s = per_request \
                if self._ewma_request_s == 0.0 \
                else 0.7 * self._ewma_request_s + 0.3 * per_request
        finally:
            self._inflight -= len(batch)
            self._busy.discard(id(entry))
            self._wakeup.set()  # the entry's next batch may form now
        self.trace.requests_cancelled += len(batch) - resolved
        waited = sum(waits)
        self.trace.batches += 1
        self.trace.coalesced_lwes += fill
        self.trace.batch_fill[fill] = \
            self.trace.batch_fill.get(fill, 0) + 1
        self.trace.coalesce_wait_s += waited
        self.trace.max_coalesce_wait_s = max(
            self.trace.max_coalesce_wait_s, max(waits))
        self.trace.batch_seconds += seconds

    def _execute_batch(self, entry: KeyCacheEntry,
                       batch: List[_Request]) -> Tuple[List[Any], float]:
        """Prepare the batch's ciphertext requests (ModSwitch + Extract)
        and hand everything to the shared
        :func:`~repro.switching.pipeline.run_batch` loop — ONE fan-out,
        replies sliced back per request (runs in a worker thread).  A
        PBS batch (all requests share one LUT group, by construction of
        ``_ready_groups``) resolves its LUT id once."""
        t0 = time.perf_counter()
        pipe = entry.pipeline
        items: List[Any] = []
        lut_id: Optional[str] = None
        for req in batch:
            if req.kind == "lwe":
                items.append(req.payload)
            elif req.kind == "pbs":
                items.append(pipe.prepare_pbs(req.payload))
                if lut_id is None:
                    lut_id = pipe.resolve_lut(req.lut, req.payload.scale)
            else:
                items.append(pipe.prepare(req.payload))
        results = run_batch(entry.executor, items, lut=lut_id, pipeline=pipe)
        return results, time.perf_counter() - t0

    # -- wiring ---------------------------------------------------------------

    def _make_entry(self, user_keys: UserKeys) -> KeyCacheEntry:
        executor = self._executor_factory(user_keys)
        pipeline = None
        if user_keys.ctx is not None:
            pipeline = BootstrapPipeline(user_keys.ctx, user_keys.keys,
                                         executor=executor)

        def nbytes_fn() -> int:
            return user_keys.resident_bytes() + \
                int(getattr(executor, "shared_key_bytes", 0))

        return KeyCacheEntry(user_keys, executor, pipeline, nbytes_fn(),
                             nbytes_fn=nbytes_fn)

    def _sync_cache_stats(self) -> None:
        self.trace.key_cache_hits = self.cache.hits
        self.trace.key_cache_misses = self.cache.misses
        self.trace.key_cache_evictions = self.cache.evictions
        self.trace.key_cache_demotions = self.cache.demotions
        self.trace.peak_resident_key_bytes = max(
            self.trace.peak_resident_key_bytes,
            self.cache.peak_resident_bytes)
