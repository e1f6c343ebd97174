"""Truly parallel BlindRotate fan-out on a persistent process pool.

Everything before this module *simulated* distribution: the
:class:`~repro.switching.cluster_sim.ClusterExecutor` runs its "nodes"
sequentially in one process, so Algorithm 2's headline parallelism
(mutually-independent BlindRotates, paper Fig. 1 / Table V) never
produced wall-clock speedup.  :class:`ProcessPoolFanoutExecutor` is the
real thing: a persistent pool of ``multiprocessing`` workers that plugs
into the same :class:`~repro.switching.pipeline.Executor` protocol and
runs the fan-out stage concurrently across cores.

Design points, in the order they matter:

* **Key material is shared, not sent.**  ARK's observation — the
  blind-rotate key working set (1.76 GB at paper parameters), not the
  ciphertexts, is the binding cost of fanning bootstrap work out — is
  taken literally: the key is published **once** into a
  ``multiprocessing.shared_memory`` block
  (:func:`repro.io.publish_shared_arrays`) and every worker attaches
  zero-copy numpy views.  What is shared is the seed+``b`` form every
  generated key has — the body polynomials (one
  ``(n_t, 2, (h+1)d, N)`` stack per limb) plus the Algorithm-2 test
  vector, with the mask seeds in the manifest: each worker replays the
  uniform mask halves into an evaluation-domain key stack and hands it
  to its own :class:`~repro.tfhe.batch_engine.BatchBlindRotateEngine`
  (``key_pm=`` constructor injection), which keeps only the stack's
  FFT spectrum — so no RGSW-form key is ever rebuilt and the shared
  block is half the int64 stack's size at ``h = 1``.
  Wide-modulus (``object``-dtype) keys cannot be memory-mapped, and a
  hand-assembled key without mask seeds has no seed+``b`` form;
  publishing either raises :class:`~repro.errors.SharedBufferError` and
  callers fall back to the in-process executors.
* **One transport contract.**  This class subclasses
  :class:`~repro.switching.fanout.FaultTolerantFanout`, which frames
  each slice, draws its faults, runs the recovery loop and validates
  every reply exactly as it does for the simulated cluster.  ``_send``
  ships the task down the worker's pipe and returns; ``_collect``
  gathers replies as they land via
  :func:`multiprocessing.connection.wait` over all in-flight pipes, with
  a per-worker reply deadline — so every slice is in flight before any
  reply is awaited and the fan-out's wall-clock is the slowest slice,
  not the sum of slices.
* **Real failures, and respawn.**  Death is observed, not decided:
  ``SIGKILL``, nonzero exit, reply timeout.  A dead worker is replaced
  (same id, fresh process, re-attached keys) under a respawn budget,
  and the failed slice is re-dispatched through the ordinary
  :func:`~repro.switching.scheduler.pick_recovery_node` path.
* **Faults are realised in the worker.**  The fault list rides in the
  task and the worker serves it through the shared
  :func:`~repro.switching.fanout.serve_slice`: a ``crash`` SIGKILLs the
  worker (or calls ``os._exit`` with the fault's ``exit_code``) mid-batch,
  a ``straggle`` sleeps.

Output is bit-identical to :class:`~repro.switching.pipeline.
LocalExecutor` — BlindRotate is exact modular arithmetic, and
partitioning an embarrassingly parallel batch changes no operand —
including runs where a worker is killed mid-batch (tests assert both).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from multiprocessing import connection
from typing import Any, Dict, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from ..errors import ClusterExecutionError, ParameterError, SharedBufferError
from ..io import SharedBufferManifest, attach_shared_arrays, publish_shared_arrays
from ..math.gadget import GadgetVector
from ..math.rns import RnsBasis, RnsPoly
from ..tfhe.batch_engine import BatchBlindRotateEngine
from ..tfhe.blind_rotate import BlindRotateKey
from ..tfhe.glwe import GlweCiphertext
from ..tfhe.lwe import LweCiphertext
from .fanout import Fault, FaultInjector, FaultTolerantFanout, serve_slice
from .keys import stack_brk_bodies
from .pipeline import BootstrapTrace, key_registry

#: Seconds a freshly spawned worker has to attach its keys and report
#: ready before it counts as failed to come up.
_READY_TIMEOUT = 60.0


# -- key material <-> shared memory -----------------------------------------------


def _pack_key_material(brk: BlindRotateKey,
                       test_vector: RnsPoly) -> Tuple[Dict[str, np.ndarray],
                                                      Dict[str, object]]:
    """The publish-side layout, with the scalar parameters needed to
    rebuild everything in ``meta``.

    What is shared is the key's **body** polynomials — shape
    ``(n_t, 2, (h+1)d, N)`` per limb — and the test vector's coefficient
    limbs; the per-entry mask seeds ride in ``meta`` and workers replay
    the uniform mask halves locally.  Against mapping the lifted tensors
    that roughly halves the shared key bytes (exactly half at ``h = 1``)
    at the price of per-worker expansion compute and private
    (non-shared) mask residency.  That is ARK's tradeoff, taken
    literally: seeds travel, bandwidth doesn't.
    """
    if len(brk.mask_seeds) != brk.n_t:
        raise SharedBufferError(
            "blind-rotate key carries no mask seeds (hand-assembled, not "
            "generated): it cannot be published as seeds + bodies")
    basis = test_vector.basis
    tv = test_vector.to_coeff()
    arrays: Dict[str, np.ndarray] = {
        "test_vector": np.stack([np.asarray(limb) for limb in tv.limbs]),
    }
    try:
        bodies = stack_brk_bodies(brk, basis)
    except ParameterError as exc:
        raise SharedBufferError(
            "wide-modulus keys cannot be shared as fixed-width "
            "bodies") from exc
    for li, stacked in enumerate(bodies):
        arrays[f"brk_b_{li}"] = stacked
    meta: Dict[str, object] = {
        "n": test_vector.n,
        "n_t": brk.n_t,
        "h": brk.h,
        "moduli": list(basis.moduli),
        "gadget_q": brk.gadget.q,
        "gadget_base_bits": brk.gadget.base_bits,
        "gadget_digits": brk.gadget.digits,
        "tv_domain": "coeff",
        "brk_mask_seeds": [[int(p), int(m)] for p, m in brk.mask_seeds],
    }
    return arrays, meta


def _expand_key_pm(views: Dict[str, np.ndarray], meta: Dict[str, object],
                          n: int, n_t: int, h: int, d: int,
                          basis: RnsBasis) -> List[np.ndarray]:
    """Worker-side runtime key expansion (ARK): rebuild the full
    evaluation-domain key stack from shared bodies plus mask seeds.

    Bodies are copied out of the shared block into the worker-local
    tensor; the mask columns are pure PRNG replay of the exact draw
    order :func:`~repro.tfhe.rgsw.rgsw_encrypt` used (entry seed
    → rows ``c`` outer / ``k`` inner → mask components → limbs in basis
    order), each draw already an evaluation-domain residue.  The stack
    is bit-identical to the primary's in-process lift of the same key;
    the engine keeps only its FFT spectrum (one inverse NTT per entry
    and limb).
    """
    from ..math.sampling import mask_stream

    cols = h + 1
    seeds = meta["brk_mask_seeds"]
    key_pm = [e.zeros((n_t, n, (h + 1) * d, 2 * cols)) for e in basis.engines]
    bodies = [views[f"brk_b_{li}"] for li in range(len(basis))]
    for i in range(n_t):
        seed_p, seed_m = seeds[i]  # type: ignore[index]
        for pm, (col_off, seed) in enumerate(((0, seed_p), (cols, seed_m))):
            rng = mask_stream(int(seed))
            for c in range(cols):
                for k in range(d):
                    r = c * d + k
                    for mc in range(h):
                        for li, q in enumerate(basis.moduli):
                            key_pm[li][i, :, r, col_off + mc] = rng.uniform(n, q)
                    for li in range(len(basis)):
                        key_pm[li][i, :, r, col_off + h] = bodies[li][i, pm, r]
    return key_pm


def _rebuild_key_material(manifest: SharedBufferManifest):
    """Worker-side inverse of :func:`_pack_key_material`: attach the block
    and rebuild ``(block, engine, test_vector)`` as zero-copy views.

    The :class:`~repro.tfhe.batch_engine.BatchBlindRotateEngine` gets
    the worker-expanded stack injected directly (columns ``[0, h+1)`` =
    brk+, ``[h+1, 2(h+1))`` = brk−) and keeps its spectrum; the key
    object handed to it is a header carrying only ``gadget`` and ``h``.
    """
    block, views = attach_shared_arrays(manifest)
    meta = manifest.meta
    n = int(meta["n"])
    n_t = int(meta["n_t"])
    h = int(meta["h"])
    basis = RnsBasis(meta["moduli"])
    gadget = GadgetVector(q=int(meta["gadget_q"]),
                          base_bits=int(meta["gadget_base_bits"]),
                          digits=int(meta["gadget_digits"]))
    nlimbs = len(basis)
    key_pm = _expand_key_pm(views, meta, n, n_t, h, gadget.digits, basis)
    header = BlindRotateKey(plus=[], minus=[], gadget=gadget, h=h)
    engine = BatchBlindRotateEngine(header, n, basis, key_pm=key_pm)
    tv_stack = views["test_vector"]
    test_vector = RnsPoly(n, basis, [tv_stack[li] for li in range(nlimbs)],
                          str(meta["tv_domain"]))
    return block, engine, test_vector


# -- the worker process ------------------------------------------------------------


def _die(fault: Fault) -> NoReturn:
    """A crash fault, for real: ``os._exit(exit_code)`` when one is
    given, else SIGKILL."""
    if fault.exit_code is not None:
        os._exit(int(fault.exit_code))
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable: SIGKILL is not catchable")


def _worker_main(conn, wid: int, manifest: SharedBufferManifest) -> None:
    """Worker loop: attach keys once, then serve task slices until told
    to stop (or until an injected fault kills the process).

    Must stay a module-level function: under the ``spawn`` start method
    it is located by import, not inherited by fork.
    """
    block, engine, test_vector = _rebuild_key_material(manifest)
    #: Programmable LUTs attached from shared memory, keyed by registry
    #: id: ``lut_id -> (shm_block, RnsPoly view)``.  A respawned worker
    #: starts empty and re-attaches on first use — the manifest rides in
    #: every task message that names a LUT.
    lut_cache: Dict[str, Tuple[object, RnsPoly]] = {}
    try:
        conn.send({"op": "ready", "worker": wid, "pid": os.getpid()})
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg.get("op") == "stop":
                break
            if msg.get("op") != "task":
                continue
            lut_id = msg.get("lut")
            if lut_id is None:
                tv = test_vector
            elif lut_id in lut_cache:
                tv = lut_cache[lut_id][1]
            else:
                lut_manifest: SharedBufferManifest = msg["lut_manifest"]
                lblock, lviews = attach_shared_arrays(lut_manifest)
                lmeta = lut_manifest.meta
                lbasis = RnsBasis(lmeta["moduli"])
                stack = lviews["lut"]
                tv = RnsPoly(int(lmeta["n"]), lbasis,
                             [stack[li] for li in range(len(lbasis))],
                             str(lmeta["domain"]))
                lut_cache[lut_id] = (lblock, tv)
            try:
                conn.send(serve_slice(msg, tv, engine.rotate_batch, _die,
                                      time.sleep))
            except (BrokenPipeError, OSError):
                break
    finally:
        try:
            conn.close()
        finally:
            for lblock, _ in lut_cache.values():
                try:
                    lblock.close()
                except OSError:  # pragma: no cover
                    pass
            block.close()


class _WorkerHandle:
    """Primary-side bookkeeping for one pool worker (``deadline`` is the
    reply deadline of the slice in flight, set by ``_send``)."""

    __slots__ = ("wid", "process", "conn", "processed", "deadline")

    def __init__(self, wid: int, process, conn, processed: int = 0):
        self.wid = wid
        self.process = process
        self.conn = conn
        self.processed = processed
        self.deadline = 0.0


# -- the executor ------------------------------------------------------------------


class ProcessPoolFanoutExecutor(FaultTolerantFanout):
    """A persistent worker pool executing the fan-out stage in parallel.

    Plugs into :class:`~repro.switching.pipeline.BootstrapPipeline`
    exactly like the in-process executors.  The pool owns OS resources —
    worker processes and one shared-memory block — so it is a context
    manager; use ``with ProcessPoolFanoutExecutor.for_keys(...)`` or
    call :meth:`close` explicitly.

    A worker that has not replied within ``reply_timeout`` is presumed
    dead, killed, and (``max_respawns`` permitting) respawned.
    """

    def __init__(self, keys, test_vector: RnsPoly, num_workers: int = 2,
                 fault_injector: Optional[FaultInjector] = None,
                 reply_timeout: float = 30.0,
                 max_retries: Optional[int] = None,
                 start_method: Optional[str] = None,
                 max_respawns: Optional[int] = None):
        super().__init__(keys, test_vector, num_workers=num_workers,
                         fault_injector=fault_injector,
                         reply_timeout=reply_timeout, max_retries=max_retries)
        #: Dead-worker replacement budget over the pool's lifetime.
        self.max_respawns = max_respawns if max_respawns is not None \
            else 2 * num_workers
        self._respawns_used = 0
        self._mp = multiprocessing.get_context(start_method)
        self._closed = False
        self._block = None
        #: Published programmable-LUT tensors:
        #: ``lut_id -> (shm_block, manifest)``.  Like the key block,
        #: each LUT is published once and attached zero-copy by every
        #: worker (including respawns) on first use.
        self._lut_blocks: Dict[str, Tuple[object, SharedBufferManifest]] = {}
        self._handles: Dict[int, _WorkerHandle] = {}

        arrays, meta = _pack_key_material(keys.brk, test_vector)
        self._block, self.manifest = publish_shared_arrays(arrays, meta)
        self.shared_key_bytes = self.manifest.total_bytes
        t0 = time.perf_counter()
        try:
            for wid in range(num_workers):
                self._handles[wid] = self._spawn(wid)
        except BaseException:
            self.close()
            raise
        self.spinup_seconds = time.perf_counter() - t0

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self, wid: int, processed: int = 0) -> _WorkerHandle:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(target=_worker_main,
                                   args=(child_conn, wid, self.manifest),
                                   daemon=True,
                                   name=f"fanout-worker-{wid}")
        process.start()
        child_conn.close()  # the child owns its end now
        deadline = time.monotonic() + _READY_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or (process.exitcode is not None
                                  and not parent_conn.poll(0)):
                process.kill()
                process.join(2.0)
                parent_conn.close()
                raise ClusterExecutionError(
                    f"worker {wid} failed to come up "
                    f"(exitcode={process.exitcode})")
            try:
                if parent_conn.poll(min(0.05, max(remaining, 0.0))):
                    msg = parent_conn.recv()
                    if msg.get("op") == "ready":
                        break
            except (EOFError, OSError):
                continue  # loop re-checks exitcode
        return _WorkerHandle(wid, process, parent_conn, processed)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (workers stopped, shared key
        block released).  The service's key cache asserts this on its
        eviction and drain paths."""
        return self._closed

    def close(self) -> None:
        """Stop every worker and release the shared key block.  Idempotent
        (safe to call repeatedly, from ``__exit__``, cache eviction, and
        ``__del__`` alike — only the first call does work)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles.values():
            try:
                handle.conn.send({"op": "stop"})
            except (BrokenPipeError, OSError):
                pass
        for handle in self._handles.values():
            handle.process.join(2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(2.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._handles.clear()
        for lblock, _ in self._lut_blocks.values():
            try:
                lblock.close()
                lblock.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._lut_blocks.clear()
        if self._block is not None:
            try:
                self._block.close()
                self._block.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._block = None

    def __enter__(self) -> "ProcessPoolFanoutExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- FaultTolerantFanout contract -----------------------------------------

    def _lut_manifest(self, lut_id: str) -> SharedBufferManifest:
        """Publish one programmable LUT's coefficient limbs into its own
        shared-memory block (idempotent per id); workers attach
        zero-copy views from the manifest shipped with their tasks."""
        if lut_id in self._lut_blocks:
            return self._lut_blocks[lut_id][1]
        poly = key_registry(self.keys).vector(lut_id).to_coeff()
        arrays = {"lut": np.stack([np.asarray(limb) for limb in poly.limbs])}
        meta = {"n": poly.n, "moduli": list(poly.basis.moduli),
                "domain": "coeff", "lut_id": lut_id}
        block, manifest = publish_shared_arrays(arrays, meta)
        self._lut_blocks[lut_id] = (block, manifest)
        self.shared_key_bytes += manifest.total_bytes
        return manifest

    def fanout(self, lwes: Sequence[LweCiphertext],
               trace: BootstrapTrace,
               lut: Optional[str] = None) -> List[GlweCiphertext]:
        if self._closed:
            raise ClusterExecutionError("worker pool is closed")
        if not self._handles:
            raise ClusterExecutionError(
                "no healthy worker remains in the pool")
        if lut is not None:
            self._lut_manifest(lut)  # published before any slice flies
        trace.pool_spinup_seconds = self.spinup_seconds
        trace.shared_key_bytes = self.shared_key_bytes
        return super().fanout(lwes, trace, lut=lut)

    def _workers(self) -> Dict[int, _WorkerHandle]:
        return dict(self._handles)

    def _send(self, wid: int, handle: _WorkerHandle, task: Dict[str, Any],
              retry: bool, healthy: Dict[int, _WorkerHandle],
              trace: BootstrapTrace) -> bool:
        """Ship one task down the worker's pipe (with the LUT's manifest
        when it names one), stamp its reply deadline, and return."""
        lut = task["lut"]
        task["lut_manifest"] = self._lut_manifest(lut) if lut is not None \
            else None
        try:
            handle.conn.send(task)
        except (BrokenPipeError, OSError):
            self._fail_worker(handle, healthy, trace,
                              "died before dispatch (send failed)")
            return False
        handle.deadline = time.monotonic() + self.reply_timeout
        return True

    def _collect(self, pending, healthy: Dict[int, _WorkerHandle],
                 trace: BootstrapTrace
                 ) -> List[Tuple[int, Optional[Dict[str, Any]]]]:
        """Block until at least one in-flight slice resolves: a reply
        lands (:func:`multiprocessing.connection.wait` over every
        in-flight pipe), a pipe hits EOF (worker death), or a per-worker
        reply deadline expires (worker presumed dead: killed + reaped).
        A reply left over from an earlier fan-out that raised is
        rejected by the base's slice-id check."""
        inflight = {healthy[wid].conn: healthy[wid] for wid in pending}
        while True:
            timeout = max(0.0, min(h.deadline for h in inflight.values())
                          - time.monotonic())
            ready = connection.wait(list(inflight), timeout)
            outcomes: List[Tuple[int, Optional[Dict[str, Any]]]] = []
            for conn in ready:
                handle = inflight[conn]
                try:
                    outcomes.append((handle.wid, conn.recv()))
                except (EOFError, OSError):
                    self._fail_worker(handle, healthy, trace,
                                      self._death_reason(handle.process))
                    outcomes.append((handle.wid, None))
            if ready:
                return outcomes
            now = time.monotonic()
            for handle in inflight.values():
                if handle.deadline > now:
                    continue
                try:
                    if handle.conn.poll(0):
                        continue  # a reply raced the deadline; take it
                except (EOFError, OSError):
                    pass  # next wait() returns the EOF'd pipe as ready
                self._fail_worker(
                    handle, healthy, trace,
                    f"timed out (> {self.reply_timeout:.3f}s "
                    f"without a reply)")
                outcomes.append((handle.wid, None))
            if outcomes:
                return outcomes

    # -- failure detection + respawn ------------------------------------------

    @staticmethod
    def _death_reason(process) -> str:
        process.join(2.0)  # reap, so exitcode reflects the actual death
        code = process.exitcode
        if code is not None and code < 0:
            return f"killed by signal {-code} mid-batch"
        return f"died mid-batch (exitcode={code})"

    def _fail_worker(self, handle: _WorkerHandle,
                     healthy: Dict[int, _WorkerHandle],
                     trace: BootstrapTrace, why: str) -> None:
        """Declare a worker dead, reap the process, and respawn a
        replacement under the same id if the budget allows (the fresh
        worker rejoins ``healthy`` and can take recovery slices)."""
        wid = handle.wid
        self._mark_dead(wid, healthy, trace, why)
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(2.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        self._handles.pop(wid, None)
        if self._respawns_used >= self.max_respawns:
            trace.notes.append(
                f"worker {wid} not respawned (budget {self.max_respawns} "
                f"exhausted)")
            return
        try:
            fresh = self._spawn(wid, processed=handle.processed)
        except ClusterExecutionError as exc:
            trace.notes.append(f"worker {wid} respawn failed: {exc}")
            return
        self._respawns_used += 1
        self._handles[wid] = fresh
        healthy[wid] = fresh
        trace.worker_respawns += 1
        trace.notes.append(f"worker {wid} respawned")
