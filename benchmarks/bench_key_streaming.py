"""ARK-style seed+b key streaming: resident set vs throughput.

Three measurements, one json (``BENCH_key_streaming.json``):

1. **At-rest compression** — a switching key set at rest stores only the
   ``b``-halves plus per-key seeds; the uniform ``a``-halves replay from
   the PRNG at expansion time.  At ``h = 1`` that is half the bytes
   (gate: >= 1.9x measured on real toy-parameter keys).

2. **Pool publish** — the process-pool executor ships seeds + bodies
   through shared memory and each worker expands locally, so
   ``shared_key_bytes`` is ~half the lifted tensors an in-process
   engine holds, while workers trade expansion compute for bandwidth
   (the ARK tradeoff; the expansion cost is timed and reported, not
   hidden).

3. **Resident-set-vs-throughput curve** — a multi-tenant LWE bootstrap
   workload through :class:`~repro.service.BootstrapService` swept over
   ``key_cache_bytes`` capacities.  The key set's storage states give
   the LRU cache a second eviction tier: a cold tenant first *demotes*
   (expanded tensors freed, seed+``b`` and executor kept) and only
   under further pressure fully evicts.  The curve records throughput alongside
   hits/misses/evictions/demotions/expansions at each capacity — the
   paper-level story that the key working set, not compute, is the
   binding resource for multi-tenant serving.

Run with ``PYTHONPATH=src python benchmarks/bench_key_streaming.py``
(or via pytest).  ``--quick`` is the CI variant: fewer requests per
capacity point, same 4-point curve shape, all gates still enforced.
"""

import asyncio
import os
import sys
import time

try:
    from conftest import emit
except ImportError:  # running as a plain script, not under pytest
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import emit

import numpy as np
from _timing import time_interleaved, write_bench_json

from repro.ckks import CkksContext, CkksKeyGenerator
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.service import BootstrapService, ServiceTrace, UserKeys
from repro.switching.keys import SwitchingKeySet
from repro.switching.mp_executor import ProcessPoolFanoutExecutor
from repro.tfhe.batch_engine import BatchBlindRotateEngine
from repro.tfhe.lwe import LweSecretKey, lwe_encrypt

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_key_streaming.json")

PARAMS = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                         special_limbs=2)
SEED = 20240908
TENANTS = 4


def _make_stack():
    ctx = CkksContext(PARAMS.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(501))
    sk = gen.secret_key()
    return ctx, sk


def _at_rest_section(ctx, sk):
    """Measured seed+b compression on real keys (not the formula)."""
    swk = SwitchingKeySet.generate(ctx, sk, base_bits=4, error_std=0.8,
                                   key_seed=SEED)
    material = swk.compress()
    expanded_bytes = swk.resident_bytes()
    at_rest_bytes = material.resident_bytes()
    ratio = expanded_bytes / at_rest_bytes
    assert ratio >= 1.9, (
        f"seed+b at-rest form only {ratio:.2f}x smaller than expanded keys")

    # Runtime expansion cost: the compute side of the ARK tradeoff.
    def expand():
        stream = SwitchingKeySet.from_material(material)
        _ = stream.brk
        for t in stream.auto_keys.keys:
            _ = stream.auto_keys.keys[t]
        return stream

    expand()  # warmup (NTT/monomial caches)
    (expand_s,) = time_interleaved(expand)
    return swk, {
        "expanded_bytes": expanded_bytes,
        "at_rest_bytes": at_rest_bytes,
        "compression_ratio": round(ratio, 3),
        "full_expansion_seconds": round(expand_s, 6),
    }


def _pool_bytes(ctx, swk):
    """shared_key_bytes (seeds + bodies) vs the lifted tensors an
    in-process engine holds for the same key."""
    lifted_bytes = sum(
        t.nbytes for t in
        BatchBlindRotateEngine(swk.brk, ctx.n, swk.raised_basis).key_pm)
    t0 = time.perf_counter()
    with ProcessPoolFanoutExecutor.for_keys(ctx, swk, num_workers=1) as pool:
        shared_bytes = pool.shared_key_bytes
        spinup = time.perf_counter() - t0
    assert shared_bytes < lifted_bytes, (
        "seeds + bodies are not smaller than the lifted key tensors")
    return {
        "lifted_key_bytes": lifted_bytes,
        "shared_key_bytes": shared_bytes,
        "shared_bytes_ratio": round(lifted_bytes / shared_bytes, 3),
        "pool_spinup_s": round(spinup, 6),
    }


def _make_tenants(ctx):
    """Per-tenant key material (distinct seeds and secrets) plus the
    LWE secrets the submitted ciphertexts encrypt under."""
    tenants = {}
    for t in range(TENANTS):
        gen = CkksKeyGenerator(ctx, Sampler(7000 + t))
        sk = gen.secret_key()
        material = SwitchingKeySet.generate(
            ctx, sk, base_bits=4, error_std=0.8, key_seed=SEED + t).compress()
        lwe_sk = LweSecretKey(coeffs=np.asarray(sk.coeffs, dtype=object))
        tenants[f"tenant-{t}"] = (material, lwe_sk)
    return tenants


def _curve_point(ctx, tenants, capacity, requests):
    """One capacity point: zipf-skewed tenant access, waved submissions
    (in-flight requests pin their entries; waves let eviction breathe)."""
    streams = {}

    def provider(uid):
        # A fresh key set per admission: an evicted tenant pays
        # re-admission from material, a demoted one only re-expands.
        material, _ = tenants[uid]
        stream = SwitchingKeySet.from_material(material)
        streams.setdefault(uid, []).append(stream)
        return UserKeys.from_switching(ctx, stream)

    s = Sampler(77)
    rng = np.random.default_rng(SEED)
    weights = np.array([1.0 / (t + 1) for t in range(TENANTS)])
    weights /= weights.sum()
    sequence = rng.choice(TENANTS, size=requests, p=weights)
    lwes = {uid: lwe_encrypt(3, lwe_sk, 2 * ctx.n, s, error_std=0.5)
            for uid, (_m, lwe_sk) in tenants.items()}
    trace = ServiceTrace()

    async def main():
        svc = BootstrapService(provider, max_batch=8, max_delay_s=0.002,
                               key_cache_bytes=capacity, trace=trace)
        async with svc:
            t0 = time.perf_counter()
            wave = 8
            for i in range(0, len(sequence), wave):
                await asyncio.gather(*[
                    svc.submit(f"tenant-{t}", lwes[f"tenant-{t}"])
                    for t in sequence[i:i + wave]])
            return time.perf_counter() - t0

    elapsed = asyncio.run(main())
    expansions = sum(st.expansions for ss in streams.values() for st in ss)
    return {
        "capacity_bytes": capacity,
        "requests": requests,
        "throughput_rps": round(requests / elapsed, 2),
        "key_cache_hits": trace.key_cache_hits,
        "key_cache_misses": trace.key_cache_misses,
        "evictions": trace.key_cache_evictions,
        "demotions": trace.key_cache_demotions,
        "expansions": expansions,
        "peak_resident_key_bytes": trace.peak_resident_key_bytes,
    }


def _run(requests_per_point):
    ctx, sk = _make_stack()
    swk, at_rest = _at_rest_section(ctx, sk)
    pool = _pool_bytes(ctx, swk)

    tenants = _make_tenants(ctx)
    # Anchor capacities to a measured fully-expanded entry footprint
    # (keys + lifted tensors + executor) so the sweep stresses the same
    # regimes on any parameter change: ~1 expanded tenant, ~2, ~3, all.
    probe = _curve_point(ctx, tenants, None, min(requests_per_point, 16))
    expanded_entry = probe["peak_resident_key_bytes"] // TENANTS
    capacities = [int(expanded_entry * f) for f in (1.25, 2.25, 3.25)] + [None]
    curve = [_curve_point(ctx, tenants, cap, requests_per_point)
             for cap in capacities]
    assert len(curve) >= 4
    assert any(p["demotions"] > 0 for p in curve), (
        "no capacity point exercised the demote tier")

    write_bench_json(JSON_PATH, "key_streaming", curve,
                     extra={"n": ctx.n, "tenants": TENANTS,
                            "at_rest": at_rest, "pool_publish": pool})

    lines = ["Seed+b key streaming: resident set vs throughput "
             f"(n={ctx.n}, {TENANTS} tenants, zipf access)",
             f"at rest:   {at_rest['expanded_bytes']:>9} B expanded -> "
             f"{at_rest['at_rest_bytes']:>9} B seed+b "
             f"({at_rest['compression_ratio']:.2f}x), full expansion "
             f"{at_rest['full_expansion_seconds'] * 1e3:.1f} ms",
             f"pool:      {pool['lifted_key_bytes']:>9} B lifted -> "
             f"{pool['shared_key_bytes']:>9} B shared "
             f"({pool['shared_bytes_ratio']:.2f}x)",
             f"{'capacity':>12} {'rps':>8} {'hit':>5} {'miss':>5} "
             f"{'evict':>6} {'demote':>7} {'expand':>7} {'peak MB':>8}"]
    for p in curve:
        cap = "unbounded" if p["capacity_bytes"] is None \
            else str(p["capacity_bytes"])
        lines.append(
            f"{cap:>12} {p['throughput_rps']:>8.2f} "
            f"{p['key_cache_hits']:>5} {p['key_cache_misses']:>5} "
            f"{p['evictions']:>6} {p['demotions']:>7} {p['expansions']:>7} "
            f"{p['peak_resident_key_bytes'] / 1e6:>8.2f}")
    emit("key_streaming", "\n".join(lines))
    return curve


def bench_key_streaming():
    _run(64)


if __name__ == "__main__":
    _run(24 if "--quick" in sys.argv[1:] else 64)
    print("bench_key_streaming: OK")
