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
    """Primitive-operation tally for one profiled region: arithmetic the
    hardware model prices or the engines execute, nothing else (fan-out,
    service, key-cache and LUT-registry facts live on the objects that
    produce them — ``BootstrapTrace``, ``ServiceTrace``, ``LruKeyCache``,
    ``LutRegistry``)."""

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
    """Record ``batch`` stacked ``n``-point transforms (one invocation)."""
    stats = _ACTIVE
    if stats is not None:
        stats.ntt_calls += batch
        stats.ntt_points += n * batch
        stats.by_size[n] = stats.by_size.get(n, 0) + batch
        stats.ntt_batch_hist[batch] = stats.ntt_batch_hist.get(batch, 0) + 1


def record_mul(count: int) -> None:
    stats = _ACTIVE
    if stats is not None:
        stats.pointwise_mults += count


def record_external_product(batch: int = 1) -> None:
    """Record ``batch`` external products executed as one fused operation."""
    stats = _ACTIVE
    if stats is not None:
        stats.external_products += batch
        stats.ep_batch_hist[batch] = stats.ep_batch_hist.get(batch, 0) + 1


def record_repack_level(level: int, keyswitches: int, *, phase: str,
                        ntt_saved: int) -> None:
    """Record one batched repack level (``keyswitches`` merged into one pass)."""
    stats = _ACTIVE
    if stats is not None:
        if phase == "merge":
            stats.repack_merge_keyswitches += keyswitches
        else:
            stats.repack_trace_keyswitches += keyswitches
        stats.repack_levels += 1
        stats.repack_ntt_saved += ntt_saved
        stats.repack_level_hist[level] = (
            stats.repack_level_hist.get(level, 0) + keyswitches)


def record_keyswitch(*, modup_macs: int = 0, moddown_macs: int = 0,
                     ntt_saved: int = 0, hoisted_rotations: int = 0) -> None:
    """Record one hybrid-keyswitch pass (MAC counts are per limb element)."""
    stats = _ACTIVE
    if stats is not None:
        stats.ks_modup_macs += modup_macs
        stats.ks_moddown_macs += moddown_macs
        stats.ks_ntt_saved += ntt_saved
        stats.ks_hoisted_rotations += hoisted_rotations


def record_bconv_plan(hit: bool) -> None:
    """Record a BconvPlan cache lookup (hit) or build (miss)."""
    stats = _ACTIVE
    if stats is not None:
        if hit:
            stats.bconv_plan_hits += 1
        else:
            stats.bconv_plan_misses += 1


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
