"""Functional simulation of the multi-FPGA deployment (paper Section V).

A :class:`SimulatedCluster` runs the scheme-switching bootstrap with the
BlindRotate phase distributed over explicit :class:`SimulatedNode`
workers.  Ciphertexts cross node boundaries only in serialized,
CRC-framed form (through :mod:`repro.io`), so the simulation exercises a
real wire format and produces a per-link communication log that the
hardware model's CMAC accounting can be checked against.

The cluster plugs a :class:`ClusterExecutor` into the one shared
:class:`~repro.switching.pipeline.BootstrapPipeline`
(``cluster.pipeline.run`` / ``.run_pbs``), so steps 1-2 and 4-5 of
Algorithm 2 execute the exact same code as a single-node run and the
output is bit-identical (tests assert it), the basis of the paper's
claim that the approach "can be mapped to any system with multiple
compute nodes".

The primary follows the paper's send policy exactly — it "sends all the
ciphertexts intended for one of the secondary FPGAs before sending the
ciphertexts for the next one" — and extends it with a fault model the
fixed-fabric FPGA deployment never needed: a :class:`FaultInjector` can
crash a node mid-batch, drop or corrupt a reply blob, or delay a node
(straggler).  The dispatch + recovery loop itself lives in
:class:`~repro.switching.fanout.FaultTolerantFanout` (shared with the
real multiprocessing pool); this module supplies the simulated
transport: in-process :class:`SimulatedNode` calls with CRC frames,
retry traffic accounted separately on the :class:`CommLog`, and a typed
:class:`~repro.errors.ClusterExecutionError` when recovery is
exhausted.  :class:`CommLog`, :class:`Fault` and :class:`FaultInjector`
are re-exported from :mod:`repro.switching.fanout` for compatibility.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..ckks.context import CkksContext
from ..errors import ParameterError, WireFormatError
from ..io import (
    deserialize_glwe,
    deserialize_lwe,
    deserialize_rns_poly,
    frame_blob,
    serialize_glwe,
    serialize_lwe,
    serialize_rns_poly,
    unframe_blob,
)
from ..tfhe.blind_rotate import blind_rotate_batch
from ..tfhe.glwe import GlweCiphertext
from ..tfhe.lwe import LweCiphertext
from .fanout import CommLog, Fault, FaultInjector, FaultTolerantFanout
from .keys import SwitchingKeySet
from .pipeline import BootstrapPipeline, BootstrapTrace, key_registry

__all__ = [
    "CommLog",
    "Fault",
    "FaultInjector",
    "SimulatedNode",
    "ClusterExecutor",
    "SimulatedCluster",
]


class _NodeCrash(Exception):
    """Internal signal: a simulated node died mid-batch (never escapes
    the executor — the primary sees it as a missing reply)."""


class SimulatedNode:
    """One compute node holding a copy of the public switching keys."""

    def __init__(self, node_id: int, keys: SwitchingKeySet, test_vector):
        self.node_id = node_id
        self.keys = keys
        self.test_vector = test_vector
        self.processed = 0
        #: Programmable LUTs installed over the wire, keyed by registry
        #: id — a node only ever sees a LUT as a CRC-framed blob.
        self._luts: Dict[str, object] = {}

    def install_lut(self, lut_id: str, blob: bytes) -> None:
        """Accept one CRC-framed serialized test vector from the primary
        (shipped once per node per LUT; cached for every later batch)."""
        self._luts[lut_id] = deserialize_rns_poly(unframe_blob(blob))

    def process(self, wire_lwes: List[bytes],
                fail_after: Optional[int] = None,
                lut: Optional[str] = None) -> List[bytes]:
        """Unframe and deserialize the assigned batch, BlindRotate it
        (the batched §IV-E schedule), and return
        CRC-framed serialized accumulators.  ``fail_after`` simulates a
        crash after that many BlindRotates (the work is spent — it counts
        toward :attr:`processed` — but no reply is produced).  ``lut``
        selects a previously :meth:`install_lut`-ed test vector instead
        of the Algorithm-2 switching vector."""
        if lut is None:
            tv = self.test_vector
        elif lut in self._luts:
            tv = self._luts[lut]
        else:
            raise ParameterError(
                f"node {self.node_id}: LUT {lut!r} was never installed")
        lwes = [deserialize_lwe(unframe_blob(b)) for b in wire_lwes]
        if fail_after is not None and fail_after < len(lwes):
            if fail_after:
                blind_rotate_batch(tv, lwes[:fail_after], self.keys.brk)
                self.processed += fail_after
            raise _NodeCrash(self.node_id)
        accs = blind_rotate_batch(tv, lwes, self.keys.brk)
        self.processed += len(accs)
        return [frame_blob(serialize_glwe(a)) for a in accs]


class ClusterExecutor(FaultTolerantFanout):
    """The fan-out stage over simulated message-passing nodes.

    Inherits the dispatch + recovery loop from
    :class:`~repro.switching.fanout.FaultTolerantFanout` and supplies
    the simulated transport: each slice is serialized, CRC-framed and
    "sent" to a :class:`SimulatedNode` by direct call; crash faults
    (``crash`` and ``kill_worker`` are equivalent here) surface as a
    missing reply, stragglers as simulated latency against
    ``straggler_timeout``, and drop/corrupt faults mutate the reply
    blobs so the primary's CRC/count validation catches them.
    """

    def __init__(self, nodes: Sequence[SimulatedNode], comm: CommLog,
                 fault_injector: Optional[FaultInjector] = None,
                 straggler_timeout: float = 30.0,
                 max_retries: Optional[int] = None,
                 keys: Optional[SwitchingKeySet] = None):
        self.nodes = list(nodes)
        self.comm = comm
        self.injector = fault_injector if fault_injector is not None \
            else FaultInjector()
        #: Simulated seconds after which a delayed node is presumed dead.
        self.straggler_timeout = straggler_timeout
        self.max_retries = max_retries
        #: Key set whose LUT registry programmable batches resolve
        #: against (defaults to the first node's copy).
        self.keys = keys if keys is not None \
            else (self.nodes[0].keys if self.nodes else None)
        #: ``(node_id, lut_id)`` pairs already shipped — a LUT crosses
        #: each link once, then lives in the node's cache.
        self._lut_shipped: set = set()

    # -- FaultTolerantFanout contract -----------------------------------------

    def _workers(self) -> Dict[int, SimulatedNode]:
        return {node.node_id: node for node in self.nodes}

    def _load(self, handle: SimulatedNode) -> int:
        return handle.processed

    def _dispatch(self, handle: SimulatedNode, start: int, stop: int,
                  lwes: Sequence[LweCiphertext],
                  results: List[Optional[GlweCiphertext]],
                  healthy: Dict[int, SimulatedNode],
                  trace: BootstrapTrace, retry: bool) -> bool:
        """Send one contiguous slice, validate the reply, splice the
        accumulators into ``results``.  Returns False on any detected
        failure (the caller queues the slice for re-dispatch)."""
        nid = handle.node_id
        lut = self._lut
        if lut is not None and (nid, lut) not in self._lut_shipped:
            # First use of this LUT on this node: ship the test vector
            # CRC-framed, exactly like key material would travel.
            lut_blob = frame_blob(serialize_rns_poly(
                key_registry(self.keys).vector(lut)))
            if nid != 0:
                self.comm.record(0, nid, lut_blob, retry=retry)
            handle.install_lut(lut, lut_blob)
            self._lut_shipped.add((nid, lut))
        wire_in = [frame_blob(serialize_lwe(lwe)) for lwe in lwes[start:stop]]
        if nid != 0:  # the primary's own slice never crosses the wire
            for blob in wire_in:
                self.comm.record(0, nid, blob, retry=retry)

        # Only realisable faults are consumed: a crash scheduled beyond
        # this slice's length stays queued for a later (longer) slice.
        crash = self.injector.take_any(nid, "crash", "kill_worker",
                                       slice_len=stop - start)
        t0 = time.perf_counter()
        try:
            wire_out = handle.process(wire_in,
                                      fail_after=crash.after if crash else None,
                                      lut=lut)
        except _NodeCrash:
            self._add_time(trace, nid, time.perf_counter() - t0)
            self._mark_dead(nid, healthy, trace, "crashed mid-batch")
            return False
        elapsed = time.perf_counter() - t0

        straggle = self.injector.take(nid, "straggle")
        if straggle is not None:
            elapsed += straggle.delay_seconds
        self._add_time(trace, nid, elapsed)
        if straggle is not None and \
                straggle.delay_seconds > self.straggler_timeout:
            self._mark_dead(
                nid, healthy, trace,
                f"timed out ({straggle.delay_seconds:.3f}s simulated > "
                f"{self.straggler_timeout:.3f}s limit)")
            return False

        drop = self.injector.take(nid, "drop_reply")
        if drop is not None and wire_out:
            del wire_out[min(drop.reply_index, len(wire_out) - 1)]
        corrupt = self.injector.take(nid, "corrupt_reply")
        if corrupt is not None and wire_out:
            i = min(corrupt.reply_index, len(wire_out) - 1)
            blob = bytearray(wire_out[i])
            blob[-1] ^= 0x41
            wire_out[i] = bytes(blob)

        if nid != 0:
            for blob in wire_out:
                self.comm.record(nid, 0, blob, retry=retry)

        if len(wire_out) != stop - start:
            trace.notes.append(
                f"node {nid}: short reply ({len(wire_out)} of "
                f"{stop - start}) — slice queued for re-dispatch")
            return False
        try:
            accs = [deserialize_glwe(unframe_blob(b)) for b in wire_out]
        except WireFormatError:
            trace.notes.append(
                f"node {nid}: reply failed CRC check — slice queued for "
                f"re-dispatch")
            return False
        results[start:stop] = accs
        return True


class SimulatedCluster:
    """Primary + secondaries for the distributed bootstrap: the nodes,
    their :class:`CommLog`, and the shared pipeline with a
    :class:`ClusterExecutor` in the fan-out stage.  Run it through
    ``cluster.pipeline.run(ct)`` / ``.run_pbs(ct, f)`` — output
    bit-identical to a single-node run, including runs with injected
    faults (recovery re-dispatches, the result is unchanged); a
    programmable LUT ships to each node once, CRC-framed and logged on
    :attr:`comm`."""

    def __init__(self, ctx: CkksContext, keys: SwitchingKeySet,
                 num_nodes: int = 8,
                 fault_injector: Optional[FaultInjector] = None,
                 straggler_timeout: float = 30.0,
                 max_retries: Optional[int] = None):
        if num_nodes < 1:
            raise ParameterError("need at least one node")
        self.ctx = ctx
        self.keys = keys
        test_vector = keys.test_vector(ctx.n, ctx.full_basis.moduli[0])
        self.nodes = [SimulatedNode(i, keys, test_vector)
                      for i in range(num_nodes)]
        self.comm = CommLog()
        self.executor = ClusterExecutor(
            self.nodes, self.comm, fault_injector=fault_injector,
            straggler_timeout=straggler_timeout, max_retries=max_retries,
            keys=keys)
        self.pipeline = BootstrapPipeline(ctx, keys, executor=self.executor)

    def utilisation(self) -> Dict[int, int]:
        """BlindRotates executed per node (includes work a node spent on
        a batch it crashed out of — the cycles are burned either way)."""
        return {node.node_id: node.processed for node in self.nodes}
