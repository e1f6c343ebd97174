"""Open-loop load benchmark for the coalescing bootstrap service.

The batched engines only pay off when the ``(N, batch, h+1)`` tensors
are full, but real traffic arrives one ciphertext at a time.  This bench
measures what :class:`~repro.service.BootstrapService` recovers of the
batch speedup under realistic load: a **seeded open-loop generator**
(requests arrive on an exponential clock at the offered rate, never
waiting for completions — the standard way to expose saturation, since a
closed loop self-throttles) drives single-LWE bootstrap requests from
many user ids sharing one tenant key set, at the canonical workload
(N = 2^10, max_batch = 32, n_t = 8 — same as
``bench_blind_rotate_batch.py`` and ``bench_mp_scaling.py``).

Reported per offered-load point: p50/p99 request latency, completed
throughput, mean achieved batch fill, key-cache hit rate, rejections.
The sweep runs 0.25x, 0.5x, 1x and 2x of the measured coalesced
capacity; the 2x point is saturation.

Two **no-coalescing per-request baselines** run at the same saturated
offered load, both ``max_batch=1, max_delay_s=0`` (every request pays a
solo fan-out, which is exactly what a service without a coalescer does):

* ``no_coalescing_baseline`` — solo dispatch through the *scalar*
  oracle (``blind_rotate_batch_reference`` behind the service's
  ``executor_factory`` hook): the per-request serving path as it existed before
  the batch engines landed (PRs 1-4 only help callers who arrive in
  batches; a lone request on the pre-batching repo ran the scalar
  oracle).  This is the baseline the acceptance gate compares against:
  it measures what the serving layer as a whole (coalescer + batched
  engine) buys a single-ciphertext caller.
* ``no_coalescing_vectorized`` — solo dispatch through the *batched*
  engine at batch 1.  This decomposes the win: coalescing's own
  amortization is bounded by the engine's solo/marginal cost ratio
  (~2.4x at N = 2^10: a batch-1 call is fixed-overhead-bound, a batch-32
  call is butterfly-bound), so this ratio is reported transparently
  rather than gated.

Acceptance gate (full mode): saturated coalesced throughput >= 3x the
scalar per-request baseline.  The measured engine+coalescing win is
~6-7x at this ring size, so 3x leaves headroom for coalescer overhead
(queueing, asyncio, slicing) without tolerating a broken coalescer.

A second section exercises the **multi-tenant key cache**: several
tenants with distinct key sets, a byte-capacity that only fits some of
them, and a skewed seeded access pattern — reporting hit rate,
evictions, and peak resident key bytes.

Run with ``PYTHONPATH=src python benchmarks/bench_service.py`` (or via
pytest; excluded from tier-1 ``testpaths``).  ``--quick`` is the CI
variant: N = 2^6, fewer requests, gate relaxed to 1.5x (CI containers
are 1-2 cores and noisy; the 3x claim is a full-mode claim).
"""

import asyncio
import os
import sys
import time

import numpy as np

try:
    from conftest import emit
except ImportError:  # running as a script, not under pytest
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import emit

from _timing import write_bench_json

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.errors import ServiceOverloadError
from repro.math.gadget import GadgetVector
from repro.math.modular import find_ntt_primes
from repro.math.rns import RnsBasis
from repro.math.sampling import Sampler
from repro.service import BootstrapService, ServiceTrace, UserKeys
from repro.switching.pipeline import BootstrapTrace, LocalExecutor
from repro.tfhe.blind_rotate import (
    BlindRotateKey,
    blind_rotate_batch_reference,
    build_test_vector,
)
from repro.tfhe.glwe import GlweSecretKey
from repro.tfhe.lwe import LweSecretKey, lwe_encrypt

JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_service.json")

#: LWE dimension, matching the blind-rotate and mp-scaling benches.
N_T = 8
SEED = 20240604


class _KeyBox:
    """Minimal key-set stand-in: the executors only need ``.brk``."""

    def __init__(self, brk):
        self.brk = brk


class _ScalarOracleExecutor:
    """The scalar oracle as a service executor — the baseline's
    per-request path from before the batched engines."""

    def __init__(self, uk):
        self.uk = uk

    def fanout(self, lwes, trace, lut=None):
        return blind_rotate_batch_reference(self.uk.test_vector, lwes,
                                            self.uk.keys.brk)


def _setup(n, seed=1234):
    q = find_ntt_primes(28, n, 1)[0]
    basis = RnsBasis([q])
    gadget = GadgetVector(q=q, base_bits=14, digits=2)
    s = Sampler(seed)
    lwe_sk = LweSecretKey.generate(N_T, s)
    glwe_sk = GlweSecretKey.generate(n, 1, s)
    brk = BlindRotateKey.generate(lwe_sk, glwe_sk, basis, gadget, s)

    def g(t):
        t = t % (2 * n)
        return (q // 8) * (1 if t < n else -1) % q

    f = build_test_vector(g, n, basis)
    return basis, lwe_sk, brk, f


def _percentile(sorted_vals, p):
    if not sorted_vals:
        return 0.0
    k = min(len(sorted_vals) - 1, int(round(p / 100 * (len(sorted_vals) - 1))))
    return sorted_vals[k]


async def _drive(svc, lwes, users, rate, rng):
    """Open-loop arrivals: request i is injected at the i-th exponential
    arrival time regardless of completions; returns per-request latency
    (submit -> result) and the rejection count."""
    latencies = []
    rejected = 0
    tasks = []

    async def one(uid, lwe):
        nonlocal rejected
        t0 = time.perf_counter()
        try:
            await svc.submit(uid, lwe)
        except ServiceOverloadError:
            rejected += 1
        else:
            latencies.append(time.perf_counter() - t0)

    start = time.perf_counter()
    due = 0.0
    for uid, lwe in zip(users, lwes):
        due += rng.exponential(1.0 / rate)
        delay = due - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(uid, lwe)))
    await asyncio.gather(*tasks)
    return latencies, rejected


def _run_point(uk, lwes, users, rate, *, max_batch, max_delay_s,
               max_queue=1024, executor_factory=None):
    trace = ServiceTrace()

    async def main():
        svc = BootstrapService(lambda uid: uk, max_batch=max_batch,
                               max_delay_s=max_delay_s,
                               max_queue=max_queue, trace=trace,
                               executor_factory=executor_factory)
        async with svc:
            t0 = time.perf_counter()
            latencies, rejected = await _drive(
                svc, lwes, users, rate, np.random.default_rng(SEED))
            elapsed = time.perf_counter() - t0
        return latencies, rejected, elapsed

    latencies, rejected, elapsed = asyncio.run(main())
    latencies.sort()
    completed = len(latencies)
    return {
        "offered_rps": round(rate, 2),
        "engine": "vectorized" if executor_factory is None else "reference",
        "max_batch": max_batch,
        "requests": len(lwes),
        "completed": completed,
        "rejected": rejected,
        "throughput_rps": round(completed / elapsed, 2),
        "p50_latency_s": round(_percentile(latencies, 50), 6),
        "p99_latency_s": round(_percentile(latencies, 99), 6),
        "mean_batch_fill": round(trace.mean_batch_fill, 2),
        "key_cache_hit_rate": round(trace.key_cache_hit_rate, 4),
        "batches": trace.batches,
    }


def _tenant_cache_section(n, tenants, resident_limit, requests):
    """Multi-tenant working set: distinct key sets, capacity that fits
    only ``resident_limit`` of them, skewed seeded access."""
    user_keys = {}
    lwe_sks = {}
    for t in range(tenants):
        _, lwe_sk, brk, f = _setup(n, seed=3000 + t)
        user_keys[f"tenant-{t}"] = UserKeys(_KeyBox(brk), f)
        lwe_sks[f"tenant-{t}"] = lwe_sk
    per_tenant = user_keys["tenant-0"].resident_bytes()
    capacity = resident_limit * per_tenant + per_tenant // 2

    rng = np.random.default_rng(SEED + 1)
    s = Sampler(77)
    # Zipf-ish skew: low-numbered tenants dominate, tail forces evictions.
    weights = np.array([1.0 / (t + 1) for t in range(tenants)])
    weights /= weights.sum()
    sequence = rng.choice(tenants, size=requests, p=weights)
    trace = ServiceTrace()

    async def main():
        svc = BootstrapService(lambda uid: user_keys[uid],
                               max_batch=8, max_delay_s=0.002,
                               key_cache_bytes=capacity, trace=trace)
        async with svc:
            # Waves, not one big gather: in-flight requests pin their
            # entries (eviction is deferred while pinned), so a single
            # gather of the whole sequence would pin every tenant at
            # once and never exercise eviction.
            wave = 8
            for i in range(0, len(sequence), wave):
                await asyncio.gather(*[
                    svc.submit(f"tenant-{t}",
                               lwe_encrypt(int(t) * 3,
                                           lwe_sks[f"tenant-{t}"],
                                           2 * n, s, error_std=0.5))
                    for t in sequence[i:i + wave]])

    asyncio.run(main())
    return {
        "tenants": tenants,
        "requests": requests,
        "capacity_bytes": capacity,
        "per_tenant_key_bytes": per_tenant,
        "resident_limit": resident_limit,
        "key_cache_hit_rate": round(trace.key_cache_hit_rate, 4),
        "evictions": trace.key_cache_evictions,
        "peak_resident_key_bytes": trace.peak_resident_key_bytes,
    }


def _run(n, max_batch, requests, num_users, gate_ratio):
    basis, lwe_sk, brk, f = _setup(n)
    uk = UserKeys(_KeyBox(brk), f)
    s = Sampler(42)
    lwes = [lwe_encrypt(i * 5, lwe_sk, 2 * n, s, error_std=0.5)
            for i in range(requests)]
    users = [f"user-{i % num_users}" for i in range(requests)]

    # Measured capacity of one full coalesced batch: the load sweep is
    # expressed in multiples of this so the saturation point is honest
    # on any host.
    ex = LocalExecutor(_KeyBox(brk), f)
    ex.fanout(lwes[:max_batch], BootstrapTrace())  # warmup (caches)
    t0 = time.perf_counter()
    ex.fanout(lwes[:max_batch], BootstrapTrace())
    batch_s = time.perf_counter() - t0
    capacity_rps = max_batch / batch_s
    # One batch of coalescing wait is the latency currency: wait about
    # half a batch service time before dispatching a partial batch.
    max_delay_s = max(batch_s / 2, 0.002)

    results = []
    for load in (0.25, 0.5, 1.0, 2.0):
        point = _run_point(uk, lwes, users, load * capacity_rps,
                           max_batch=max_batch, max_delay_s=max_delay_s)
        point["load"] = load
        results.append(point)
    saturated = results[-1]

    # Primary baseline: per-request dispatch on the scalar oracle — the
    # serving path a lone caller had before the batch engines existed
    # (the gate measures coalescer + batched engine).
    baseline = _run_point(uk, lwes, users, 2.0 * capacity_rps,
                          max_batch=1, max_delay_s=0.0,
                          executor_factory=_ScalarOracleExecutor)
    baseline["load"] = 2.0
    # Secondary reference: batch-1 dispatch through the batched engine,
    # isolating coalescing's own amortization (bounded by the engine's
    # solo/marginal ratio; reported, not gated).
    solo_vec = _run_point(uk, lwes, users, 2.0 * capacity_rps,
                          max_batch=1, max_delay_s=0.0)
    solo_vec["load"] = 2.0

    ratio = saturated["throughput_rps"] / baseline["throughput_rps"]
    vec_ratio = saturated["throughput_rps"] / solo_vec["throughput_rps"]
    write_bench_json(JSON_PATH, "service_load", results,
                     extra={"n": n, "n_t": N_T, "num_users": num_users,
                            "coalescer_max_delay_s": round(max_delay_s, 6),
                            "capacity_rps": round(capacity_rps, 2),
                            "no_coalescing_baseline": baseline,
                            "no_coalescing_vectorized": solo_vec,
                            "coalescing_speedup_at_saturation":
                                round(ratio, 2),
                            "coalescing_speedup_vs_batch1_vectorized":
                                round(vec_ratio, 2),
                            "gate_ratio": gate_ratio,
                            "tenant_cache": _tenant_cache_section(
                                min(n, 1 << 8), tenants=6,
                                resident_limit=3,
                                requests=max(requests // 2, 24))})

    lines = [f"Coalescing bootstrap service under open-loop load "
             f"(N={n}, max_batch={max_batch}, n_t={N_T}, "
             f"{num_users} users sharing one key set)",
             f"measured single-batch capacity: {capacity_rps:.1f} req/s "
             f"(batch of {max_batch} in {batch_s:.4f}s)",
             f"{'load':>6} {'offered':>9} {'thru rps':>9} {'p50 ms':>8} "
             f"{'p99 ms':>8} {'fill':>6} {'hit':>6} {'rej':>4}"]
    for r in results:
        lines.append(
            f"{r['load']:>5.2f}x {r['offered_rps']:>9.1f} "
            f"{r['throughput_rps']:>9.1f} "
            f"{r['p50_latency_s'] * 1e3:>8.1f} "
            f"{r['p99_latency_s'] * 1e3:>8.1f} "
            f"{r['mean_batch_fill']:>6.1f} "
            f"{r['key_cache_hit_rate']:>6.2f} {r['rejected']:>4}")
    for b, tag in ((baseline, "no-coalescing baseline (scalar engine)"),
                   (solo_vec, "batch-1 vectorized reference")):
        lines.append(
            f"  none {b['offered_rps']:>9.1f} {b['throughput_rps']:>9.1f} "
            f"{b['p50_latency_s'] * 1e3:>8.1f} "
            f"{b['p99_latency_s'] * 1e3:>8.1f} "
            f"{b['mean_batch_fill']:>6.1f} "
            f"{b['key_cache_hit_rate']:>6.2f} {b['rejected']:>4}"
            f"   <- {tag}")
    lines.append(f"coalescing speedup at saturation: {ratio:.2f}x vs "
                 f"scalar per-request dispatch (gate: >= {gate_ratio}x); "
                 f"{vec_ratio:.2f}x vs batch-1 vectorized dispatch")
    emit("service", "\n".join(lines))

    assert ratio >= gate_ratio, (
        f"coalescing + batched engine only bought {ratio:.2f}x over "
        f"scalar per-request dispatch at saturation "
        f"(gate {gate_ratio}x, N={n}, max_batch={max_batch})")
    return results


def bench_service():
    _run(1 << 10, 32, requests=192, num_users=16, gate_ratio=3.0)


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        # CI variant: tiny ring, small sweep; the serving layer must
        # still clearly beat scalar per-request dispatch, but the 3x
        # claim is reserved for full mode (CI containers are noisy).
        _run(1 << 6, 8, requests=48, num_users=4, gate_ratio=1.5)
    else:
        _run(1 << 10, 32, requests=192, num_users=16, gate_ratio=3.0)
    print("bench_service: OK")
