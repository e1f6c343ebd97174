"""Functional simulation of the multi-FPGA deployment (paper Section V).

:class:`ClusterExecutor` runs the fan-out stage of the one shared
:class:`~repro.switching.pipeline.BootstrapPipeline` over explicit
:class:`SimulatedNode` workers::

    BootstrapPipeline(ctx, keys,
                      executor=ClusterExecutor.for_keys(ctx, keys,
                                                        num_workers=4))

Ciphertexts cross node boundaries only in serialized, CRC-framed form
(through :mod:`repro.io`), so the simulation exercises a real wire
format and produces a per-link :class:`~repro.switching.fanout.CommLog`
(``executor.comm``) that the hardware model's CMAC accounting can be
checked against.  Steps 1-2 and 4-5 of Algorithm 2 execute the exact
same code as a single-node run and the output is bit-identical (tests
assert it), the basis of the paper's claim that the approach "can be
mapped to any system with multiple compute nodes".

Node 0 is the primary and computes a slice itself, so its own traffic
is never logged.  The send policy, the fault schedule, the recovery
loop and the reply check are
:class:`~repro.switching.fanout.FaultTolerantFanout`'s, shared with the
real process pool; a node serves its slice through the same
:func:`~repro.switching.fanout.serve_slice`.  This module supplies only
the transport, and it is deterministic: nodes run in turn, in process,
when the primary collects; a crash is a raised signal; a straggle adds
simulated seconds, and a node whose simulated reply time exceeds
``reply_timeout`` is presumed dead.  Unlike the pool, a dead node is
not respawned within a fan-out.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, NoReturn, Optional, Tuple

from ..errors import ParameterError
from ..io import deserialize_rns_poly, frame_blob, serialize_rns_poly, unframe_blob
from ..tfhe.blind_rotate import blind_rotate_batch
from ..tfhe.glwe import GlweCiphertext
from ..tfhe.lwe import LweCiphertext
from .fanout import Fault, FaultInjector, FaultTolerantFanout, serve_slice
from .keys import SwitchingKeySet
from .pipeline import BootstrapTrace, key_registry

__all__ = ["SimulatedNode", "ClusterExecutor"]


class _NodeCrash(Exception):
    """Internal signal: a simulated node died mid-batch (never escapes
    the executor — the primary sees it as a missing reply)."""


class SimulatedNode:
    """One compute node holding a copy of the public switching keys."""

    def __init__(self, node_id: int, keys: SwitchingKeySet, test_vector):
        self.node_id = node_id
        self.keys = keys
        self.test_vector = test_vector
        #: BlindRotates booked by the primary from this node's replies,
        #: plus the partial batch it burned before a crash.
        self.processed = 0
        #: Programmable LUTs installed over the wire, keyed by registry
        #: id — a node only ever sees a LUT as a CRC-framed blob.
        self.luts: Dict[str, object] = {}

    def install_lut(self, lut_id: str, blob: bytes) -> None:
        """Accept one CRC-framed serialized test vector from the primary
        (shipped once per node per LUT; cached for every later batch)."""
        self.luts[lut_id] = deserialize_rns_poly(unframe_blob(blob))

    def serve(self, task: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one task: BlindRotate the slice (the batched §IV-E
        schedule) against the Algorithm-2 vector or an installed LUT,
        realising its faults; raises ``_NodeCrash`` on a crash fault."""
        lut = task["lut"]
        if lut is not None and lut not in self.luts:
            raise ParameterError(
                f"node {self.node_id}: LUT {lut!r} was never installed")
        tv = self.test_vector if lut is None else self.luts[lut]
        return serve_slice(task, tv, self._rotate, self._die,
                           lambda seconds: None)

    def _rotate(self, tv, lwes: List[LweCiphertext]) -> List[GlweCiphertext]:
        return blind_rotate_batch(tv, lwes, self.keys.brk)

    def _die(self, fault: Fault) -> NoReturn:
        self.processed += fault.after  # the cycles are burned either way
        raise _NodeCrash(self.node_id)


class ClusterExecutor(FaultTolerantFanout):
    """The fan-out stage over simulated message-passing nodes: a
    delivered task waits in its node's inbox until the primary collects,
    then every pending node serves its slice in send order."""

    _primary = 0

    def __init__(self, keys, test_vector, num_workers: int = 2,
                 fault_injector: Optional[FaultInjector] = None,
                 reply_timeout: float = 30.0,
                 max_retries: Optional[int] = None):
        super().__init__(keys, test_vector, num_workers=num_workers,
                         fault_injector=fault_injector,
                         reply_timeout=reply_timeout, max_retries=max_retries)
        self.nodes = [SimulatedNode(i, keys, test_vector)
                      for i in range(num_workers)]
        self._inbox: Dict[int, Dict[str, Any]] = {}

    def _workers(self) -> Dict[int, SimulatedNode]:
        return {node.node_id: node for node in self.nodes}

    def _send(self, wid: int, node: SimulatedNode, task: Dict[str, Any],
              retry: bool, healthy, trace: BootstrapTrace) -> bool:
        lut = task["lut"]
        if lut is not None and lut not in node.luts:
            # First use of this LUT on this node: ship the test vector
            # CRC-framed, exactly like key material would travel.
            blob = frame_blob(serialize_rns_poly(
                key_registry(self.keys).vector(lut)))
            self._record(wid, [blob], retry)
            node.install_lut(lut, blob)
        self._inbox[wid] = task
        return True

    def _collect(self, pending, healthy, trace: BootstrapTrace
                 ) -> List[Tuple[int, Optional[Dict[str, Any]]]]:
        outcomes: List[Tuple[int, Optional[Dict[str, Any]]]] = []
        for wid in pending:
            t0 = time.perf_counter()
            try:
                reply = healthy[wid].serve(self._inbox.pop(wid))
            except _NodeCrash:
                self._add_time(trace, wid, time.perf_counter() - t0)
                self._mark_dead(wid, healthy, trace, "crashed mid-batch")
                outcomes.append((wid, None))
                continue
            if reply["seconds"] > self.reply_timeout:
                self._mark_dead(
                    wid, healthy, trace,
                    f"timed out ({reply['seconds']:.3f}s simulated > "
                    f"{self.reply_timeout:.3f}s limit)")
                reply = None
            outcomes.append((wid, reply))
        return outcomes
