"""Event-level timeline simulation of the multi-FPGA bootstrap (§V).

The analytic :class:`~repro.hardware.cluster.ClusterBootstrapModel` gives
closed-form latencies; this module *simulates* the schedule event by
event — per-batch distribution (the primary "sends all the ciphertexts
intended for one of the secondary FPGAs before sending the ciphertexts
for the next one"), per-node batched BlindRotate compute, per-ciphertext
result streaming overlapped with compute, repack and the finishing steps
— and reports a timeline plus per-node utilisation.

Two claims become checkable numbers:

* the event-level end-to-end latency agrees with the analytic model
  (tests bound the gap), and
* "no FPGA is sitting idle": secondary busy-fraction during step 3 stays
  high because communication is overlapped with computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ParameterError
from ..params import HeapParams, make_heap_params
from ..switching.scheduler import make_schedule
from .cluster import ClusterBootstrapModel
from .config import ClusterConfig, EIGHT_FPGA


@dataclass(frozen=True)
class TimelineEvent:
    """One closed interval of activity on a resource."""

    resource: str      # "node3", "link3", "primary"
    phase: str         # "recv-batch", "blind-rotate", "send-results", ...
    start_s: float
    end_s: float


@dataclass
class SimulationResult:
    events: List[TimelineEvent] = field(default_factory=list)
    total_s: float = 0.0

    def busy_fraction(self, resource: str, window_start: float = 0.0,
                      window_end: Optional[float] = None) -> float:
        """Fraction of the window the resource spent busy."""
        end = window_end if window_end is not None else self.total_s
        if end <= window_start:
            raise ParameterError("empty window")
        busy = sum(max(0.0, min(e.end_s, end) - max(e.start_s, window_start))
                   for e in self.events if e.resource == resource)
        return busy / (end - window_start)

    def events_for(self, resource: str) -> List[TimelineEvent]:
        return sorted((e for e in self.events if e.resource == resource),
                      key=lambda e: e.start_s)


class BootstrapEventSimulator:
    """Replays the Section V schedule at event granularity."""

    def __init__(self, cluster: Optional[ClusterConfig] = None,
                 params: Optional[HeapParams] = None):
        self.cluster = cluster or EIGHT_FPGA
        self.params = params or make_heap_params()
        self.analytic = ClusterBootstrapModel(self.cluster, self.params)
        hw = self.cluster.node
        # Per-ciphertext transfer times on a CMAC link.  The distributed
        # LWE ciphertexts are the *modulus-switched* ones (Algorithm 2
        # step 2): components live in Z_2N, i.e. log2(2N)-bit words, far
        # smaller than the mod-q ciphertexts.
        self._result_tx_s = hw.cycles_to_seconds(hw.cycles_per_rlwe_tx)
        import math

        bits_2n = int(math.log2(2 * self.params.tfhe.n)) + 1
        lwe_bytes = (self.params.tfhe.n_t + 1) * bits_2n / 8.0
        self._lwe_tx_s = lwe_bytes / (hw.cmac_gbps * 1e9 / 8.0)

    def simulate(self, n_br: int, num_nodes: Optional[int] = None) -> SimulationResult:
        num_nodes = num_nodes or self.cluster.num_nodes
        schedule = make_schedule(n_br, num_nodes)
        bd = self.analytic.bootstrap_breakdown(n_br, num_nodes)
        result = SimulationResult()
        t = 0.0

        # Steps 1-2 on the primary.
        result.events.append(TimelineEvent("primary", "modswitch+extract",
                                           t, t + bd.modswitch_s))
        t += bd.modswitch_s

        # Distribution: node-by-node batch sends on the primary's port.
        send_clock = t
        compute_done: Dict[int, float] = {}
        results_arrived: Dict[int, float] = {}
        for a in schedule.nodes:
            if a.count == 0:
                compute_done[a.node_id] = send_clock
                results_arrived[a.node_id] = send_clock
                continue
            # Per-node compute time proportional to its share of step 3's
            # blind-rotate component.
            compute_s = bd.blind_rotate_s * (a.count / max(1, schedule.max_per_node))
            if a.is_primary:
                start = t  # primary's own batch needs no transfer
                result.events.append(TimelineEvent(
                    "node0", "blind-rotate", start, start + compute_s))
                compute_done[0] = start + compute_s
                results_arrived[0] = start + compute_s
                continue
            send_s = a.count * self._lwe_tx_s
            result.events.append(TimelineEvent(
                "primary", f"send-batch->{a.node_id}", send_clock,
                send_clock + send_s))
            result.events.append(TimelineEvent(
                f"link{a.node_id}", "lwe-in", send_clock, send_clock + send_s))
            # Compute is pipelined with reception: the batched BlindRotate
            # can start once the first ciphertexts land (per-LWE transfer
            # time is far below per-LWE compute time).
            start = send_clock + self._lwe_tx_s
            send_clock += send_s
            result.events.append(TimelineEvent(
                f"node{a.node_id}", "blind-rotate", start, start + compute_s))
            compute_done[a.node_id] = start + compute_s
            # Results stream back as produced, overlapped with compute:
            # the link finishes at most one transfer after the compute.
            per_ct = compute_s / a.count
            tx_start = start + min(per_ct, self._result_tx_s)
            tx_end = max(start + compute_s,
                         tx_start + a.count * self._result_tx_s)
            result.events.append(TimelineEvent(
                f"link{a.node_id}", "results-out", tx_start, tx_end))
            results_arrived[a.node_id] = tx_end

        gather_done = max(results_arrived.values())

        # Repack + finish on the primary.
        result.events.append(TimelineEvent("primary", "repack", gather_done,
                                           gather_done + bd.repack_s))
        finish_start = gather_done + bd.repack_s
        result.events.append(TimelineEvent("primary", "steps-4-5", finish_start,
                                           finish_start + bd.finish_s))
        result.total_s = finish_start + bd.finish_s
        return result

    def secondary_idle_fraction(self, n_br: int,
                                num_nodes: Optional[int] = None) -> float:
        """Average idle fraction of the secondaries during the compute
        window — the §V claim is that this stays small."""
        num_nodes = num_nodes or self.cluster.num_nodes
        if num_nodes < 2:
            raise ParameterError("no secondaries with a single node")
        sim = self.simulate(n_br, num_nodes)
        window_start = min(e.start_s for e in sim.events
                           if e.phase == "blind-rotate")
        window_end = max(e.end_s for e in sim.events
                         if e.phase == "blind-rotate")
        fractions = []
        for node_id in range(1, num_nodes):
            fractions.append(sim.busy_fraction(f"node{node_id}", window_start,
                                               window_end))
        return 1.0 - sum(fractions) / len(fractions)
