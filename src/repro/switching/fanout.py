"""Fault-tolerant BlindRotate fan-out, shared by every distributed executor.

PR 5 built the primary-side failure story — CRC-framed wire blobs,
deterministic fault injection, whole-slice re-dispatch to the least-
loaded survivor under a retry budget — inside the *simulated* cluster.
The real multiprocessing pool needs the identical loop, with "node"
meaning an OS process instead of a :class:`SimulatedNode`.  This module
is the unification: :class:`CommLog`, :class:`Fault` and
:class:`FaultInjector` live here (``cluster_sim`` re-exports them for
compatibility), and :class:`FaultTolerantFanout` owns the one recovery
loop both executors run:

1. First pass: the paper's Section-V send policy — each worker's full
   contiguous slice is dispatched before the next worker's.
2. Any slice whose reply fails validation (death, timeout, short reply,
   CRC mismatch) is queued and re-dispatched *whole* to the least-loaded
   surviving worker (:func:`~repro.switching.scheduler.
   pick_recovery_node`), under a retry budget.
3. A typed :class:`~repro.errors.ClusterExecutionError` is raised only
   when no healthy worker remains or the budget is exhausted.

Subclasses provide the transport: how a slice reaches a worker, how the
reply comes back, and what "death" looks like (a raised
``_NodeCrash`` in the simulation; ``SIGKILL`` / nonzero exit / reply
timeout on a real process pool).

Fault specs are plain picklable dataclasses and the injector's schedule
can be generated deterministically from a seed
(:meth:`FaultInjector.seeded`), so the *same* injection schedule can
drive the simulated cluster in-process and the worker pool across
process boundaries — the basis of the parity tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ClusterExecutionError
from ..tfhe.glwe import GlweCiphertext
from ..tfhe.lwe import LweCiphertext
from .pipeline import BootstrapTrace
from .scheduler import make_schedule, pick_recovery_node

#: ``CommLog`` source/destination id of the pool's coordinating process.
#: The simulated cluster's primary is node 0 (it computes a slice
#: itself); the multiprocessing pool's parent only coordinates, so its
#: traffic is logged against this sentinel id instead.
PRIMARY = -1


@dataclass
class CommLog:
    """Bytes and message counts per (src, dst) link.

    First-attempt and recovery traffic are accounted *separately*:
    ``record(..., retry=True)`` adds to the grand totals **and** to the
    ``retry_*`` breakdowns, so :meth:`total_bytes` is everything that
    crossed the wire and :meth:`total_retry_bytes` the share caused by
    fault recovery.
    """

    bytes_sent: Dict[Tuple[int, int], int] = field(default_factory=dict)
    messages: Dict[Tuple[int, int], int] = field(default_factory=dict)
    retry_bytes: Dict[Tuple[int, int], int] = field(default_factory=dict)
    retry_messages: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def record(self, src: int, dst: int, payload: bytes,
               retry: bool = False) -> None:
        key = (src, dst)
        self.bytes_sent[key] = self.bytes_sent.get(key, 0) + len(payload)
        self.messages[key] = self.messages.get(key, 0) + 1
        if retry:
            self.retry_bytes[key] = self.retry_bytes.get(key, 0) + len(payload)
            self.retry_messages[key] = self.retry_messages.get(key, 0) + 1

    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())

    def link_bytes(self, src: int, dst: int) -> int:
        return self.bytes_sent.get((src, dst), 0)

    def total_retry_bytes(self) -> int:
        return sum(self.retry_bytes.values())

    def retry_link_bytes(self, src: int, dst: int) -> int:
        return self.retry_bytes.get((src, dst), 0)


@dataclass
class Fault:
    """One injected fault against a node/worker.

    ``kind`` is one of ``"crash"`` (die after ``after`` BlindRotates of
    the incoming batch), ``"kill_worker"`` (the process-pool realisation
    of a crash: the worker SIGKILLs itself — or ``os._exit``\\ s with
    ``exit_code`` — after ``after`` BlindRotates; the simulated cluster
    treats it exactly like ``crash``), ``"drop_reply"`` /
    ``"corrupt_reply"`` (lose or bit-flip reply blob ``reply_index``),
    or ``"straggle"`` (add ``delay_seconds`` of latency — simulated on
    the cluster, a real ``sleep`` on the pool — a timeout failure if it
    exceeds the executor's ``straggler_timeout``).  Non-persistent
    faults fire exactly once, so recovery succeeds; ``persistent=True``
    models a node that stays broken.

    Faults are *per-slice*: a crash-family fault with ``after`` at or
    beyond the slice length cannot fire on that slice, so the executors
    leave it scheduled (:meth:`realisable` is the predicate the
    injector's ``take`` applies) — it may still fire on a later, longer
    slice, e.g. a re-dispatched one.  A consumed fault is therefore
    always actually realised, never silently swallowed.

    Faults are plain picklable dataclasses: the pool ships them to the
    worker process that must realise them.
    """

    kind: str
    node_id: int
    after: int = 0
    reply_index: int = 0
    delay_seconds: float = 0.0
    persistent: bool = False
    exit_code: Optional[int] = None

    @classmethod
    def crash(cls, node_id: int, after: int = 0,
              persistent: bool = False) -> "Fault":
        return cls("crash", node_id, after=after, persistent=persistent)

    @classmethod
    def kill_worker(cls, node_id: int, after: int = 0,
                    exit_code: Optional[int] = None,
                    persistent: bool = False) -> "Fault":
        """Real worker death: SIGKILL by default, or a nonzero
        ``exit_code`` for the orderly-crash flavour."""
        return cls("kill_worker", node_id, after=after, exit_code=exit_code,
                   persistent=persistent)

    @classmethod
    def drop_reply(cls, node_id: int, index: int = 0,
                   persistent: bool = False) -> "Fault":
        return cls("drop_reply", node_id, reply_index=index,
                   persistent=persistent)

    @classmethod
    def corrupt_reply(cls, node_id: int, index: int = 0,
                      persistent: bool = False) -> "Fault":
        return cls("corrupt_reply", node_id, reply_index=index,
                   persistent=persistent)

    @classmethod
    def straggler(cls, node_id: int, delay_seconds: float,
                  persistent: bool = False) -> "Fault":
        return cls("straggle", node_id, delay_seconds=delay_seconds,
                   persistent=persistent)

    def realisable(self, slice_len: int) -> bool:
        """Whether this fault can actually fire on a slice of
        ``slice_len`` LWEs: crash-family faults need ``after`` inside
        the slice; every other kind fires on any nonempty slice."""
        if self.kind in ("crash", "kill_worker"):
            return self.after < slice_len
        return slice_len > 0


class FaultInjector:
    """Deterministic fault source every fan-out executor consults.

    Holds a list of :class:`Fault` specs; :meth:`take` pops the first
    matching non-persistent fault (persistent ones keep firing).  An
    empty injector is a no-op — the default, fault-free execution.

    The injector is picklable and order-deterministic, so the exact
    schedule that drove a simulated run can be replayed against the
    process pool (and vice versa).
    """

    def __init__(self, faults: Sequence[Fault] = ()):
        self.faults: List[Fault] = list(faults)

    def take(self, node_id: int, kind: str,
             slice_len: Optional[int] = None) -> Optional[Fault]:
        """Pop the first matching fault.  With ``slice_len`` given, a
        fault that is not :meth:`~Fault.realisable` on a slice of that
        length is skipped *and left scheduled* — consuming it would make
        it silently disappear without ever firing."""
        for i, fault in enumerate(self.faults):
            if fault.node_id == node_id and fault.kind == kind:
                if slice_len is not None and not fault.realisable(slice_len):
                    continue
                if not fault.persistent:
                    del self.faults[i]
                return fault
        return None

    def take_any(self, node_id: int, *kinds: str,
                 slice_len: Optional[int] = None) -> Optional[Fault]:
        """First matching fault of any listed kind (``crash`` and
        ``kill_worker`` are interchangeable on most executors)."""
        for kind in kinds:
            fault = self.take(node_id, kind, slice_len=slice_len)
            if fault is not None:
                return fault
        return None

    @classmethod
    def seeded(cls, seed: int, node_ids: Sequence[int],
               kinds: Sequence[str] = ("crash", "drop_reply", "corrupt_reply"),
               count: int = 2) -> "FaultInjector":
        """A deterministic schedule of ``count`` faults drawn from
        ``kinds`` over ``node_ids``.  The same ``(seed, node_ids, kinds,
        count)`` always yields the same schedule — in this process, in a
        worker that unpickled it, and in a fresh interpreter — so one
        seed pins an injection scenario across both executors."""
        rng = random.Random(seed)
        faults: List[Fault] = []
        for _ in range(count):
            kind = rng.choice(list(kinds))
            node_id = rng.choice(list(node_ids))
            if kind in ("crash", "kill_worker"):
                faults.append(Fault(kind, node_id, after=rng.randrange(2)))
            elif kind == "straggle":
                faults.append(Fault(kind, node_id,
                                    delay_seconds=rng.uniform(0.05, 0.2)))
            else:
                faults.append(Fault(kind, node_id,
                                    reply_index=rng.randrange(4)))
        return cls(faults)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultInjector) and self.faults == other.faults

    def __repr__(self) -> str:  # pragma: no cover
        return f"FaultInjector({self.faults!r})"


class FaultTolerantFanout:
    """The shared dispatch + recovery loop (template-method base).

    Subclasses implement the transport:

    * :meth:`_workers` — ``{worker_id: handle}`` of currently-usable
      workers (the loop mutates this dict as deaths are detected);
    * :meth:`_load` — BlindRotates a handle has executed (recovery
      targets the least-loaded survivor);
    * a *synchronous* transport (the simulated cluster) implements
      :meth:`_dispatch` — send one contiguous slice, block for the
      reply, validate, splice results; return ``False`` on any detected
      failure — and inherits the default :meth:`_send`/:meth:`_collect`
      pair, which completes each dispatch inline;
    * a transport with real concurrency (the process pool) overrides
      :meth:`_send` (deliver the slice and return immediately) and
      :meth:`_collect` (block until at least one outstanding slice
      resolves), so **every worker's slice is in flight before any
      reply is awaited** — the property that makes the fan-out actually
      parallel in wall-clock time.
    """

    #: Re-dispatch budget per fan-out (``None`` = 4x the worker count);
    #: exhausting it — only possible with persistent faults on healthy
    #: workers — raises ClusterExecutionError instead of looping forever.
    max_retries: Optional[int] = None
    #: Outcome buffer for the synchronous default transport; reset at
    #: the top of every :meth:`fanout`.
    _sync_outcomes: List[Tuple[int, bool]]
    #: LUT id for the current batch (set by :meth:`fanout`; ``None``
    #: selects the Algorithm-2 switching vector).
    _lut: Optional[str] = None

    # -- subclass contract ---------------------------------------------------

    def _workers(self) -> Dict[int, object]:
        raise NotImplementedError

    def _load(self, handle: object) -> int:
        raise NotImplementedError

    def _dispatch(self, handle: object, start: int, stop: int,
                  lwes: Sequence[LweCiphertext],
                  results: List[Optional[GlweCiphertext]],
                  healthy: Dict[int, object],
                  trace: BootstrapTrace, retry: bool) -> bool:
        raise NotImplementedError

    # -- default synchronous transport ---------------------------------------

    def _send(self, wid: int, handle: object, start: int, stop: int,
              lwes: Sequence[LweCiphertext],
              results: List[Optional[GlweCiphertext]],
              healthy: Dict[int, object],
              trace: BootstrapTrace, retry: bool) -> bool:
        """Synchronous default: the dispatch runs to completion inline
        (via :meth:`_dispatch`) and its outcome is buffered for the next
        :meth:`_collect`.  Returns ``False`` only when the slice never
        reached a worker — impossible inline, so always ``True`` here."""
        ok = self._dispatch(handle, start, stop, lwes, results, healthy,
                            trace, retry)
        self._sync_outcomes.append((wid, ok))
        return True

    def _collect(self, pending: Dict[int, Tuple[int, int]],
                 lwes: Sequence[LweCiphertext],
                 results: List[Optional[GlweCiphertext]],
                 healthy: Dict[int, object],
                 trace: BootstrapTrace) -> List[Tuple[int, bool]]:
        """Synchronous default: drain the outcomes buffered by
        :meth:`_send`.  Async transports block here until at least one
        outstanding slice resolves and return its ``(wid, ok)``."""
        outcomes = self._sync_outcomes
        self._sync_outcomes = []
        return outcomes

    # -- the one loop --------------------------------------------------------

    def fanout(self, lwes: Sequence[LweCiphertext],
               trace: BootstrapTrace,
               lut: Optional[str] = None) -> List[GlweCiphertext]:
        healthy = self._workers()
        num_workers = len(healthy)
        schedule = make_schedule(len(lwes), num_workers)
        results: List[Optional[GlweCiphertext]] = [None] * len(lwes)
        self._sync_outcomes = []
        # The batch-wide LUT selection, read by the transport's
        # _dispatch/_send (None = the Algorithm-2 switching vector).
        self._lut = lut
        pending: Dict[int, Tuple[int, int]] = {}  # wid -> slice in flight
        failed: List[Tuple[int, int, int]] = []  # (start, stop, failed id)

        # Send phase: the Section-V send policy, one worker's full
        # contiguous slice before the next — and *every* slice is sent
        # before any reply is awaited, so an async transport has all
        # workers computing concurrently.
        for assignment in schedule.nodes:
            if assignment.count == 0:
                continue
            wid = assignment.node_id
            if self._send(wid, healthy[wid], assignment.start,
                          assignment.stop, lwes, results, healthy, trace,
                          retry=False):
                pending[wid] = (assignment.start, assignment.stop)
            else:
                failed.append((assignment.start, assignment.stop, wid))

        # Collect + recovery: gather replies as they land; re-dispatch
        # each failed contiguous slice whole to the least-loaded *idle*
        # survivor.  A slice whose only idle candidate is the worker
        # that just failed it waits for a busy worker to free up, so
        # recovery targeting matches the synchronous loop's.
        budget = self.max_retries if self.max_retries is not None \
            else 4 * num_workers
        while pending or failed:
            while failed:
                if not healthy:
                    raise ClusterExecutionError(
                        f"fan-out failed: no healthy node remains for "
                        f"{len(failed)} pending slice(s)",
                        failed_nodes=trace.failed_nodes,
                        pending_slices=[(s, e) for s, e, _ in failed])
                if trace.fanout_retries >= budget:
                    raise ClusterExecutionError(
                        f"fan-out failed: retry budget ({budget}) exhausted "
                        f"with {len(failed)} pending slice(s)",
                        failed_nodes=trace.failed_nodes,
                        pending_slices=[(s, e) for s, e, _ in failed])
                start, stop, origin = failed[0]
                idle = [wid for wid in healthy if wid not in pending]
                if not idle or (set(idle) == {origin} and len(healthy) > 1):
                    break  # a reply must free a better target first
                failed.pop(0)
                loads = {wid: self._load(healthy[wid]) for wid in idle}
                target_id = pick_recovery_node(idle, loads, exclude=origin)
                trace.fanout_retries += 1
                trace.fanout_redispatched_lwes += stop - start
                trace.notes.append(
                    f"re-dispatching LWEs [{start}, {stop}) from node "
                    f"{origin} to node {target_id}")
                if self._send(target_id, healthy[target_id], start, stop,
                              lwes, results, healthy, trace, retry=True):
                    pending[target_id] = (start, stop)
                else:
                    failed.append((start, stop, target_id))
            if not pending:
                continue
            for wid, ok in self._collect(pending, lwes, results, healthy,
                                         trace):
                start, stop = pending.pop(wid)
                if not ok:
                    failed.append((start, stop, wid))
        # Recovery guarantees completeness: every slot is filled.
        return [acc for acc in results if acc is not None]

    # -- shared helpers ------------------------------------------------------

    @staticmethod
    def _add_time(trace: BootstrapTrace, wid: int, seconds: float) -> None:
        trace.node_seconds[wid] = trace.node_seconds.get(wid, 0.0) + seconds

    @staticmethod
    def _mark_dead(wid: int, healthy: Dict[int, object],
                   trace: BootstrapTrace, why: str) -> None:
        healthy.pop(wid, None)
        if wid not in trace.failed_nodes:
            trace.failed_nodes.append(wid)
        trace.notes.append(f"node {wid} {why}")
