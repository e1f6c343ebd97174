"""Fault-tolerant BlindRotate fan-out, shared by every distributed executor.

HEAP §V has the primary send every secondary its contiguous batch of
BlindRotates and collect the accumulators back.  Two transports run
that here — the in-process :class:`~repro.switching.cluster_sim.
ClusterExecutor` (the deterministic test double: simulated time, no
sleeps) and the real :class:`~repro.switching.mp_executor.
ProcessPoolFanoutExecutor` — and everything they have in common lives
in this module, once:

* :class:`CommLog`, :class:`Fault` and :class:`FaultInjector` — the
  wire accounting and the deterministic, picklable fault schedule
  (:meth:`FaultInjector.seeded`), so one schedule drives both
  transports;
* :func:`serve_slice` — the node side of one slice: unframe, realise
  the slice's faults around the BlindRotate, frame the reply;
* :class:`FaultTolerantFanout` — the primary side: framing each slice,
  drawing its faults, the one recovery loop and the one reply check.

The recovery loop:

1. First pass: the paper's Section-V send policy — each worker's full
   contiguous slice is sent before the next worker's, and every slice
   is in flight before any reply is awaited.
2. Any slice whose reply fails validation (death, timeout, short reply,
   CRC mismatch) is queued and re-dispatched *whole* to the least-loaded
   idle survivor (:func:`~repro.switching.scheduler.
   pick_recovery_node`), under a retry budget.
3. A typed :class:`~repro.errors.ClusterExecutionError` is raised only
   when no healthy worker remains or the budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random
import time
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple, Type, TypeVar

from ..errors import ClusterExecutionError, ParameterError, WireFormatError
from ..io import (
    deserialize_glwe,
    deserialize_lwe,
    frame_blob,
    serialize_glwe,
    serialize_lwe,
    unframe_blob,
)
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
    the incoming slice: a raised signal on the simulated cluster; on the
    pool the worker SIGKILLs itself, or ``os._exit``\\ s with
    ``exit_code`` when one is given), ``"drop_reply"`` /
    ``"corrupt_reply"`` (lose or bit-flip reply blob ``reply_index``),
    or ``"straggle"`` (add ``delay_seconds`` to the reply time —
    simulated on the cluster, a real ``sleep`` on the pool — a timeout
    failure if it exceeds the executor's ``reply_timeout``).
    Non-persistent faults fire exactly once, so recovery succeeds;
    ``persistent=True`` models a node that stays broken.

    Faults are *per-slice*: a crash with ``after`` at or beyond the
    slice length cannot fire on that slice, so it stays scheduled
    (:meth:`realisable` is the predicate the injector's ``take``
    applies) — it may still fire on a later, longer slice, e.g. a
    re-dispatched one.  A consumed fault is therefore always actually
    realised, never silently swallowed.

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
              exit_code: Optional[int] = None,
              persistent: bool = False) -> "Fault":
        return cls("crash", node_id, after=after, exit_code=exit_code,
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
        ``slice_len`` LWEs: a crash needs ``after`` inside the slice;
        every other kind fires on any nonempty slice."""
        if self.kind == "crash":
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
            if kind == "crash":
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


def serve_slice(task: Dict[str, Any], tv: Any,
                rotate: Callable[[Any, List[LweCiphertext]],
                                 List[GlweCiphertext]],
                die: Callable[[Fault], NoReturn],
                sleep: Callable[[float], None]) -> Dict[str, Any]:
    """The node side of one slice, for every transport: unframe the
    task's LWEs, realise its faults around ``rotate(tv, lwes)``, and
    build the reply.  The transport supplies only how to die (``die``
    never returns) and how to straggle (``sleep``); the reply's
    ``seconds`` is compute time plus any injected delay."""
    faults = {fault.kind: fault for fault in task["faults"]}
    lwes = [deserialize_lwe(unframe_blob(b)) for b in task["lwes"]]
    t0 = time.perf_counter()
    crash = faults.get("crash")
    if crash is not None:
        # The primary ships only realisable crashes: burn the partial
        # work like a real mid-batch death, then die.
        if crash.after:
            rotate(tv, lwes[:crash.after])
        die(crash)
    accs = rotate(tv, lwes)
    seconds = time.perf_counter() - t0
    straggle = faults.get("straggle")
    if straggle is not None:
        sleep(straggle.delay_seconds)
        seconds += straggle.delay_seconds
    wire_out = [frame_blob(serialize_glwe(a)) for a in accs]
    drop = faults.get("drop_reply")
    if drop is not None and wire_out:
        del wire_out[min(drop.reply_index, len(wire_out) - 1)]
    corrupt = faults.get("corrupt_reply")
    if corrupt is not None and wire_out:
        i = min(corrupt.reply_index, len(wire_out) - 1)
        blob = bytearray(wire_out[i])
        blob[-1] ^= 0x41
        wire_out[i] = bytes(blob)
    return {"op": "result", "slice_id": task["slice_id"], "blobs": wire_out,
            "seconds": seconds, "processed": len(accs)}


_Fanout = TypeVar("_Fanout", bound="FaultTolerantFanout")


class FaultTolerantFanout:
    """The shared dispatch + recovery loop (template-method base).

    Subclasses implement the transport:

    * :meth:`_workers` — ``{worker_id: handle}`` of currently-usable
      workers (the loop mutates this dict as deaths are detected); every
      handle carries ``.processed``, the BlindRotates it has executed
      (recovery targets the least-loaded survivor);
    * :meth:`_send` — deliver one already framed task (slice id, LWE
      blobs, fault list, LUT id) and return at once; ``False`` when it
      never reached the worker;
    * :meth:`_collect` — block until at least one in-flight slice
      resolves and return its ``(wid, reply)``, ``reply`` ``None`` when
      the worker died or timed out (the transport marks it dead).

    Everything else — framing, drawing the slice's faults, traffic
    accounting, validating and splicing replies — happens here.
    """

    #: The id whose own slice never crosses a wire (the cluster's
    #: computing node 0); the pool's coordinator is :data:`PRIMARY`.
    _primary = PRIMARY

    def __init__(self, keys: Any, test_vector: Any, num_workers: int = 2,
                 fault_injector: Optional[FaultInjector] = None,
                 reply_timeout: float = 30.0,
                 max_retries: Optional[int] = None):
        if num_workers < 1:
            raise ParameterError("need at least one worker")
        #: The key set programmable batches resolve their LUT against,
        #: and the Algorithm-2 vector served when a batch names no LUT.
        self.keys = keys
        self.test_vector = test_vector
        self.injector = fault_injector if fault_injector is not None \
            else FaultInjector()
        self.comm = CommLog()
        #: Reply time (compute + injected delay) past which a worker is
        #: presumed dead — simulated on the cluster, a real deadline on
        #: the pool.
        self.reply_timeout = reply_timeout
        #: Re-dispatch budget per fan-out (``None`` = 4x the worker
        #: count); exhausting it — only possible with persistent faults
        #: on healthy workers — raises ClusterExecutionError instead of
        #: looping forever.
        self.max_retries = max_retries

    @classmethod
    def for_keys(cls: Type[_Fanout], ctx: Any, keys: Any,
                 num_workers: int = 2,
                 fault_injector: Optional[FaultInjector] = None,
                 reply_timeout: float = 30.0,
                 max_retries: Optional[int] = None,
                 **kwargs: Any) -> _Fanout:
        """Build the executor for a context + key set (the shared
        Algorithm-2 test vector is derived exactly as the other
        executors derive it)."""
        test_vector = keys.test_vector(ctx.n, ctx.full_basis.moduli[0])
        return cls(keys, test_vector, num_workers=num_workers,
                   fault_injector=fault_injector, reply_timeout=reply_timeout,
                   max_retries=max_retries, **kwargs)

    def utilisation(self) -> Dict[int, int]:
        """BlindRotates executed per worker: every reply's count, plus —
        on the simulated cluster only, whose nodes know it — the partial
        batch a crashed node burned."""
        return {wid: h.processed for wid, h in self._workers().items()}

    # -- subclass contract ---------------------------------------------------

    def _workers(self) -> Dict[int, Any]:
        raise NotImplementedError

    def _send(self, wid: int, handle: Any, task: Dict[str, Any], retry: bool,
              healthy: Dict[int, Any], trace: BootstrapTrace) -> bool:
        raise NotImplementedError

    def _collect(self, pending: Dict[int, Tuple[int, int, bool]],
                 healthy: Dict[int, Any], trace: BootstrapTrace
                 ) -> List[Tuple[int, Optional[Dict[str, Any]]]]:
        raise NotImplementedError

    # -- the one loop --------------------------------------------------------

    def fanout(self, lwes: Sequence[LweCiphertext],
               trace: BootstrapTrace,
               lut: Optional[str] = None) -> List[GlweCiphertext]:
        healthy = self._workers()
        num_workers = len(healthy)
        schedule = make_schedule(len(lwes), num_workers)
        results: List[Optional[GlweCiphertext]] = [None] * len(lwes)
        # wid -> (start, stop, retry) of the slice in flight there.
        pending: Dict[int, Tuple[int, int, bool]] = {}
        failed: List[Tuple[int, int, int]] = []  # (start, stop, failed id)

        def send(wid: int, start: int, stop: int, retry: bool) -> None:
            wire_in = [frame_blob(serialize_lwe(lwe))
                       for lwe in lwes[start:stop]]
            # Drawn once, in one order; only a crash realisable on this
            # slice is consumed.
            drawn = (self.injector.take(wid, "crash", slice_len=stop - start),
                     self.injector.take(wid, "straggle"),
                     self.injector.take(wid, "drop_reply"),
                     self.injector.take(wid, "corrupt_reply"))
            task: Dict[str, Any] = {
                "op": "task", "slice_id": (start, stop), "lwes": wire_in,
                "faults": [f for f in drawn if f is not None], "lut": lut}
            if self._send(wid, healthy[wid], task, retry, healthy, trace):
                # Bytes that never left the primary are not traffic.
                self._record(wid, wire_in, retry)
                pending[wid] = (start, stop, retry)
            else:
                failed.append((start, stop, wid))

        # Send phase: the Section-V send policy, one worker's full
        # contiguous slice before the next — and *every* slice is sent
        # before any reply is awaited, so all workers compute at once.
        for assignment in schedule.nodes:
            if assignment.count:
                send(assignment.node_id, assignment.start, assignment.stop,
                     retry=False)

        # Collect + recovery: gather replies as they land; re-dispatch
        # each failed contiguous slice whole to the least-loaded *idle*
        # survivor.  A slice whose only idle candidate is the worker
        # that just failed it waits for a busy worker to free up.
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
                loads = {wid: healthy[wid].processed for wid in idle}
                target_id = pick_recovery_node(idle, loads, exclude=origin)
                trace.fanout_retries += 1
                trace.fanout_redispatched_lwes += stop - start
                trace.notes.append(
                    f"re-dispatching LWEs [{start}, {stop}) from node "
                    f"{origin} to node {target_id}")
                send(target_id, start, stop, retry=True)
            if not pending:
                continue
            for wid, reply in self._collect(pending, healthy, trace):
                start, stop, retry = pending.pop(wid)
                if reply is None or not self._accept(
                        wid, healthy[wid], reply, start, stop, retry,
                        results, trace):
                    failed.append((start, stop, wid))
        # Recovery guarantees completeness: every slot is filled.
        return [acc for acc in results if acc is not None]

    def _accept(self, wid: int, handle: Any, reply: Dict[str, Any],
                start: int, stop: int, retry: bool,
                results: List[Optional[GlweCiphertext]],
                trace: BootstrapTrace) -> bool:
        """Book one reply's time and work, validate it (slice id, count,
        CRC) and splice its accumulators into ``results``; ``False``
        queues the slice for re-dispatch (the worker stays healthy)."""
        self._add_time(trace, wid, float(reply.get("seconds", 0.0)))
        handle.processed += int(reply.get("processed", 0))
        if reply.get("op") != "result" or \
                tuple(reply.get("slice_id", ())) != (start, stop):
            trace.notes.append(
                f"node {wid}: unexpected reply {reply.get('op')!r} for "
                f"slice {reply.get('slice_id')!r} — slice queued for "
                f"re-dispatch")
            return False
        wire_out = list(reply["blobs"])
        self._record(wid, wire_out, retry, reply=True)
        if len(wire_out) != stop - start:
            trace.notes.append(
                f"node {wid}: short reply ({len(wire_out)} of "
                f"{stop - start}) — slice queued for re-dispatch")
            return False
        try:
            accs = [deserialize_glwe(unframe_blob(b)) for b in wire_out]
        except WireFormatError:
            trace.notes.append(
                f"node {wid}: reply failed CRC check — slice queued for "
                f"re-dispatch")
            return False
        results[start:stop] = accs
        return True

    # -- shared helpers ------------------------------------------------------

    def _record(self, wid: int, blobs: Sequence[bytes], retry: bool,
                reply: bool = False) -> None:
        """Log one direction of primary<->``wid`` traffic (the primary's
        own slice never crosses a wire)."""
        if wid == self._primary:
            return
        src, dst = (wid, self._primary) if reply else (self._primary, wid)
        for blob in blobs:
            self.comm.record(src, dst, blob, retry=retry)

    @staticmethod
    def _add_time(trace: BootstrapTrace, wid: int, seconds: float) -> None:
        trace.node_seconds[wid] = trace.node_seconds.get(wid, 0.0) + seconds

    @staticmethod
    def _mark_dead(wid: int, healthy: Dict[int, Any],
                   trace: BootstrapTrace, why: str) -> None:
        healthy.pop(wid, None)
        if wid not in trace.failed_nodes:
            trace.failed_nodes.append(wid)
        trace.notes.append(f"node {wid} {why}")
