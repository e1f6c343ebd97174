"""Operation counters bridging the functional and performance layers.

Wrap any functional computation in :func:`count_ops` to record how many
NTT passes and element-wise modular multiplications it actually executed;
:func:`estimate_hardware_seconds` then prices those counts on the HEAP
hardware model.  This closes the loop between the two layers of the
reproduction: the op counts driving the Table V-VIII predictions can be
cross-checked against counts *measured* from the real implementation at
toy scale (see ``tests/test_profiling.py``).

Usage::

    with count_ops() as stats:
        pipeline.run(ct)
    print(stats.ntt_calls, stats.pointwise_mults)
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Iterator, Optional

if TYPE_CHECKING:
    from .hardware.config import HeapHwConfig


@dataclass
class OpStats:
    """Primitive-operation tally for one profiled region."""

    ntt_calls: int = 0            # forward + inverse transforms (per limb)
    ntt_points: int = 0           # total transform points (sum of sizes)
    pointwise_mults: int = 0      # element-wise modular multiplications
    external_products: int = 0    # RGSW x GLWE external products
    by_size: Dict[int, int] = field(default_factory=dict)
    #: How many rows each stacked NTT invocation carried (batch -> calls).
    #: A scalar implementation records everything under batch 1; the
    #: vectorised engine shows up as a few large-batch entries instead —
    #: the software mirror of HEAP keeping all 512 units busy.
    ntt_batch_hist: Dict[int, int] = field(default_factory=dict)
    #: External-product batch sizes (batch -> occurrences): how many
    #: accumulators advanced together through one fused decompose-NTT-MAC.
    ep_batch_hist: Dict[int, int] = field(default_factory=dict)
    # -- repack engine counters (LWE -> RLWE packing) --------------------
    repack_merge_keyswitches: int = 0   # merge-phase keyswitches (n_cts - 1 total)
    repack_trace_keyswitches: int = 0   # trace-phase keyswitches (log2(N/n_cts))
    repack_levels: int = 0              # batched automorphism levels executed
    repack_hoisted_decomposes: int = 0  # digit tensors reused via signed gather
    repack_fresh_decomposes: int = 0    # digit tensors decomposed from scratch
    repack_ntt_saved: int = 0           # per-limb NTT calls avoided by batching
    #: Keyswitches executed per repack level (level index -> count); in a
    #: full pack level ``k`` merges ``n/2^(k+1)`` pairs, then each trace
    #: level is a single fold — the counters make the pyramid visible.
    repack_level_hist: Dict[int, int] = field(default_factory=dict)
    # -- CKKS hybrid-keyswitch engine counters ---------------------------
    ks_modup_macs: int = 0      # limb-MACs spent lifting digits to Q*P
    ks_moddown_macs: int = 0    # limb-MACs spent scaling back down by P
    ks_ntt_saved: int = 0       # per-limb NTT calls avoided by hoisting
    ks_hoisted_rotations: int = 0  # rotations served from one shared lift
    bconv_plan_hits: int = 0    # BconvPlan cache hits
    bconv_plan_misses: int = 0  # BconvPlan cache builds
    # -- bootstrap fan-out counters (local + cluster executors) ----------
    fanout_dispatches: int = 0  # BlindRotate slices dispatched (first attempts)
    fanout_retries: int = 0     # recovery re-dispatches after a detected fault
    fanout_redispatched_lwes: int = 0  # LWE ciphertexts re-sent by recovery
    fanout_pool_spinups: int = 0       # worker pools started (fork + attach)
    fanout_pool_spinup_s: float = 0.0  # wall-clock spent spinning pools up
    fanout_worker_respawns: int = 0    # dead workers replaced mid-run
    fanout_shared_key_bytes: int = 0   # key bytes published to shared memory
    # -- programmable-bootstrap LUT registry counters --------------------
    lut_cache_hits: int = 0    # built LUT tensors served from the registry
    lut_cache_misses: int = 0  # LUT tensor builds (one N-point NTT per limb)
    # -- bootstrap service counters (repro.service) ----------------------
    service_requests: int = 0       # requests accepted into the queue
    service_rejected: int = 0       # requests refused by backpressure
    service_batches: int = 0        # coalesced batches dispatched
    service_coalesced_lwes: int = 0  # LWE blind-rotates across those batches
    service_coalesce_wait_s: float = 0.0  # summed request queue wait
    #: Achieved batch fill (LWEs per dispatched batch -> occurrences) —
    #: the software mirror of how full the (N, batch, h+1) tensors ran.
    service_batch_fill_hist: Dict[int, int] = field(default_factory=dict)
    #: Queue depth observed at each dispatch (depth -> occurrences).
    service_queue_depth_hist: Dict[int, int] = field(default_factory=dict)
    service_key_cache_hits: int = 0       # requests served by resident keys
    service_key_cache_misses: int = 0     # key-provider loads
    service_key_cache_evictions: int = 0  # entries evicted to fit capacity
    service_key_cache_demotions: int = 0  # entries dropped to seed+b form

    def record_keyswitch(self, *, modup_macs: int = 0, moddown_macs: int = 0,
                         ntt_saved: int = 0, hoisted_rotations: int = 0) -> None:
        self.ks_modup_macs += modup_macs
        self.ks_moddown_macs += moddown_macs
        self.ks_ntt_saved += ntt_saved
        self.ks_hoisted_rotations += hoisted_rotations

    def record_bconv_plan(self, hit: bool) -> None:
        if hit:
            self.bconv_plan_hits += 1
        else:
            self.bconv_plan_misses += 1

    def record_fanout(self, *, dispatches: int = 0, retries: int = 0,
                      redispatched_lwes: int = 0, pool_spinups: int = 0,
                      pool_spinup_s: float = 0.0, worker_respawns: int = 0,
                      shared_key_bytes: int = 0) -> None:
        self.fanout_dispatches += dispatches
        self.fanout_retries += retries
        self.fanout_redispatched_lwes += redispatched_lwes
        self.fanout_pool_spinups += pool_spinups
        self.fanout_pool_spinup_s += pool_spinup_s
        self.fanout_worker_respawns += worker_respawns
        self.fanout_shared_key_bytes += shared_key_bytes

    def record_lut_cache(self, hit: bool) -> None:
        if hit:
            self.lut_cache_hits += 1
        else:
            self.lut_cache_misses += 1

    def record_service(self, *, requests: int = 0, rejected: int = 0,
                       batch_fill: Optional[int] = None,
                       coalesce_wait_s: float = 0.0,
                       queue_depth: Optional[int] = None,
                       cache_hits: int = 0, cache_misses: int = 0,
                       cache_evictions: int = 0,
                       cache_demotions: int = 0) -> None:
        """Record coalescing-service activity: accepted/rejected
        requests, one dispatched batch (``batch_fill`` = its LWE count,
        ``queue_depth`` = pending requests at dispatch), queue wait, and
        key-cache traffic."""
        self.service_requests += requests
        self.service_rejected += rejected
        self.service_coalesce_wait_s += coalesce_wait_s
        if batch_fill is not None:
            self.service_batches += 1
            self.service_coalesced_lwes += batch_fill
            self.service_batch_fill_hist[batch_fill] = (
                self.service_batch_fill_hist.get(batch_fill, 0) + 1)
        if queue_depth is not None:
            self.service_queue_depth_hist[queue_depth] = (
                self.service_queue_depth_hist.get(queue_depth, 0) + 1)
        self.service_key_cache_hits += cache_hits
        self.service_key_cache_misses += cache_misses
        self.service_key_cache_evictions += cache_evictions
        self.service_key_cache_demotions += cache_demotions

    def merge(self, other: "OpStats") -> None:
        """Add another region's tally into this one (every scalar counter
        summed, every histogram merged per key) — how a nested
        :func:`count_ops` region forwards its ops to its parent."""
        for f in fields(self):
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            else:
                setattr(self, f.name, mine + theirs)

    def record_ntt(self, n: int, batch: int) -> None:
        self.ntt_calls += batch
        self.ntt_points += n * batch
        self.by_size[n] = self.by_size.get(n, 0) + batch
        self.ntt_batch_hist[batch] = self.ntt_batch_hist.get(batch, 0) + 1

    def record_mul(self, count: int) -> None:
        self.pointwise_mults += count

    def record_external_product(self, batch: int = 1) -> None:
        self.external_products += batch
        self.ep_batch_hist[batch] = self.ep_batch_hist.get(batch, 0) + 1

    def record_repack_level(self, level: int, keyswitches: int, *,
                            phase: str, hoisted: int, fresh: int,
                            ntt_saved: int) -> None:
        if phase == "merge":
            self.repack_merge_keyswitches += keyswitches
        else:
            self.repack_trace_keyswitches += keyswitches
        self.repack_levels += 1
        self.repack_hoisted_decomposes += hoisted
        self.repack_fresh_decomposes += fresh
        self.repack_ntt_saved += ntt_saved
        self.repack_level_hist[level] = (
            self.repack_level_hist.get(level, 0) + keyswitches
        )

    @property
    def butterfly_mults(self) -> int:
        """Scalar multiplications implied by the recorded transforms."""
        total = 0
        for n, calls in self.by_size.items():
            total += calls * (n // 2) * (n.bit_length() - 1)
        return total

    def total_scalar_mults(self) -> int:
        return self.butterfly_mults + self.pointwise_mults


#: The active collector (None = profiling disabled, zero overhead-ish).
_ACTIVE: Optional[OpStats] = None


def record_ntt(n: int, batch: int = 1) -> None:
    if _ACTIVE is not None:
        _ACTIVE.record_ntt(n, batch)


def record_mul(count: int) -> None:
    if _ACTIVE is not None:
        _ACTIVE.record_mul(count)


def record_external_product(batch: int = 1) -> None:
    """Record ``batch`` external products executed as one fused operation."""
    if _ACTIVE is not None:
        _ACTIVE.record_external_product(batch)


def record_repack_level(level: int, keyswitches: int, *, phase: str = "merge",
                        hoisted: int = 0, fresh: int = 0,
                        ntt_saved: int = 0) -> None:
    """Record one batched repack level (``keyswitches`` merged into one pass)."""
    if _ACTIVE is not None:
        _ACTIVE.record_repack_level(level, keyswitches, phase=phase,
                                    hoisted=hoisted, fresh=fresh,
                                    ntt_saved=ntt_saved)


def record_keyswitch(*, modup_macs: int = 0, moddown_macs: int = 0,
                     ntt_saved: int = 0, hoisted_rotations: int = 0) -> None:
    """Record one hybrid-keyswitch pass (MAC counts are per limb element)."""
    if _ACTIVE is not None:
        _ACTIVE.record_keyswitch(modup_macs=modup_macs, moddown_macs=moddown_macs,
                                 ntt_saved=ntt_saved,
                                 hoisted_rotations=hoisted_rotations)


def record_bconv_plan(hit: bool) -> None:
    """Record a BconvPlan cache lookup (hit) or build (miss)."""
    if _ACTIVE is not None:
        _ACTIVE.record_bconv_plan(hit)


def record_fanout(*, dispatches: int = 0, retries: int = 0,
                  redispatched_lwes: int = 0, pool_spinups: int = 0,
                  pool_spinup_s: float = 0.0, worker_respawns: int = 0,
                  shared_key_bytes: int = 0) -> None:
    """Record bootstrap fan-out activity (dispatches / recovery retries /
    worker-pool lifecycle)."""
    if _ACTIVE is not None:
        _ACTIVE.record_fanout(dispatches=dispatches, retries=retries,
                              redispatched_lwes=redispatched_lwes,
                              pool_spinups=pool_spinups,
                              pool_spinup_s=pool_spinup_s,
                              worker_respawns=worker_respawns,
                              shared_key_bytes=shared_key_bytes)


def record_lut_cache(hit: bool) -> None:
    """Record a LUT-registry lookup: served from cache (hit) or built
    fresh (miss)."""
    if _ACTIVE is not None:
        _ACTIVE.record_lut_cache(hit)


def record_service(*, requests: int = 0, rejected: int = 0,
                   batch_fill: Optional[int] = None,
                   coalesce_wait_s: float = 0.0,
                   queue_depth: Optional[int] = None,
                   cache_hits: int = 0, cache_misses: int = 0,
                   cache_evictions: int = 0,
                   cache_demotions: int = 0) -> None:
    """Record bootstrap-service activity (request intake, one coalesced
    batch dispatch, key-cache traffic) on the active collector."""
    if _ACTIVE is not None:
        _ACTIVE.record_service(requests=requests, rejected=rejected,
                               batch_fill=batch_fill,
                               coalesce_wait_s=coalesce_wait_s,
                               queue_depth=queue_depth,
                               cache_hits=cache_hits,
                               cache_misses=cache_misses,
                               cache_evictions=cache_evictions,
                               cache_demotions=cache_demotions)


@contextlib.contextmanager
def count_ops() -> Iterator[OpStats]:
    """Collect op counts for the enclosed block.

    Regions nest: while an inner region is active its collector receives
    the ops, and when it closes the inner tally is *forwarded* to the
    enclosing region, so an outer region always sees the inclusive total
    (earlier revisions silently dropped everything recorded inside a
    nested region).
    """
    global _ACTIVE
    previous = _ACTIVE
    stats = OpStats()
    _ACTIVE = stats
    try:
        yield stats
    finally:
        _ACTIVE = previous
        if previous is not None:
            previous.merge(stats)


def estimate_hardware_seconds(stats: OpStats,
                              hw: Optional[HeapHwConfig] = None) -> float:
    """Price measured op counts on the HEAP compute array (compute-bound
    estimate: total scalar multiplications over 512 pipelined units)."""
    # Imported here: profiling is a leaf module used by the hot paths, and
    # a top-level import would cycle through repro.hardware -> repro.switching.
    from .hardware.config import HeapHwConfig

    hw = hw or HeapHwConfig()
    cycles = stats.total_scalar_mults() / hw.num_mod_units
    return hw.cycles_to_seconds(cycles)
