#!/usr/bin/env python3
"""Serving bootstrap traffic: the coalescing service front-end.

The batched engines only pay off when the fan-out tensors are full,
but real traffic arrives one ciphertext at a time.  This example runs
``repro.service.BootstrapService`` at toy ring size:

1. one tenant generates CKKS switching keys; several end users share
   them (the provider returns the same ``UserKeys`` object, so they
   alias one cache entry and coalesce into common batches),
2. the users submit exhausted ciphertexts concurrently,
3. the service coalesces the requests, runs one shared fan-out per
   batch (``run_batch`` — the same loop a solo
   ``BootstrapPipeline.run`` goes through), slices the results back,
   and every user decrypts a refreshed ciphertext — bit-identical to
   solo dispatch.
"""

import asyncio

import numpy as np

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.service import BootstrapService, ServiceTrace, UserKeys
from repro.switching import SwitchingKeySet


async def main() -> None:
    # One tenant's key material, shared by all of its end users.
    params = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                             special_limbs=2)
    ctx = CkksContext(params.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(1))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(2))
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(3), base_bits=4,
                                   error_std=0.8)
    tenant_keys = UserKeys.from_switching(ctx, swk)
    print(f"tenant keys resident: {tenant_keys.resident_bytes()} bytes")

    users = [f"user-{i}" for i in range(4)]
    plaintexts = {u: np.linspace(0.1, 0.6, ctx.slots) + 0.05 * i
                  for i, u in enumerate(users)}
    cts = {u: ev.encrypt(v, level=0) for u, v in plaintexts.items()}

    trace = ServiceTrace()
    svc = BootstrapService(lambda user_id: tenant_keys,
                           max_batch=4 * ctx.n,   # room for 4 ciphertexts
                           max_delay_s=0.05,      # latency budget
                           key_cache_bytes=64 << 20,
                           trace=trace)
    async with svc:
        refreshed = dict(zip(users, await asyncio.gather(*[
            svc.submit_ciphertext(u, cts[u]) for u in users])))
        # A second round from the same users hits the warm key cache.
        await asyncio.gather(*[
            svc.submit_ciphertext(u, cts[u]) for u in users])

    for u in users:
        err = np.max(np.abs(ev.decrypt(refreshed[u], sk).real
                            - plaintexts[u]))
        print(f"{u}: refreshed to level {refreshed[u].level}, "
              f"max error {err:.4f}")

    print(f"\n{trace.requests_completed} requests served in "
          f"{trace.batches} coalesced batch(es), "
          f"mean fill {trace.mean_batch_fill:.0f} LWEs, "
          f"key-cache hit rate {trace.key_cache_hit_rate:.2f} "
          f"({trace.key_cache_misses} miss / {trace.key_cache_hits} hit)")


if __name__ == "__main__":
    asyncio.run(main())
