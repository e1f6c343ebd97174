#!/usr/bin/env python3
"""Encrypted threshold analytics through the programmable-bootstrap service.

A provider hosts encrypted sensor readings for several users and wants
per-reading *risk bands* — ``band(v) = [v >= 0.25] + [v >= 0.625]`` in
{0, 1, 2} — without ever decrypting.  Each indicator is one programmable
bootstrap with a :func:`repro.switching.threshold` LUT, and the band is
a single homomorphic addition of the two indicator ciphertexts: no
polynomial approximation, no multiplicative depth, and the outputs come
back *fresh* (top level).

The requests go through ``BootstrapService.submit_pbs``: the service
coalesces same-LUT requests from different users into one shared
fan-out tensor per LUT (a tensor carries exactly one test vector, so
the two thresholds dispatch as two batches), and every result is
bit-identical to a solo ``BootstrapPipeline.run_pbs`` call.
"""

import asyncio

import numpy as np

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.service import BootstrapService, ServiceTrace, UserKeys
from repro.switching import SwitchingKeySet, threshold

LOW, HIGH = 0.25, 0.625


async def main() -> None:
    params = make_toy_params(n=64, limbs=3, limb_bits=30, scale_bits=28,
                             special_limbs=2)
    ctx = CkksContext(params.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(21))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(22))
    print("generating switching keys...")
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(23), base_bits=4,
                                   error_std=0.6)
    tenant_keys = UserKeys.from_switching(ctx, swk)

    # Two predicate LUTs, built once each and cached on the key set's
    # registry (`swk.luts.built_ids()` lists what was built).
    is_elevated = threshold(LOW)
    is_critical = threshold(HIGH)

    # Per-user coefficient-packed readings on exact phase-bucket
    # centers (buckets 0, 14, 26 of 32), several buckets clear of both
    # band edges (buckets 8 and 20) and of the LUT's anti-periodic
    # domain edge (bucket 32) — the honest contract of a 2N-bucket
    # lookup at toy ring size.
    users = ["plant-a", "plant-b", "plant-c"]
    rng = np.random.default_rng(5)
    readings = {u: rng.choice([0.0, 0.4375, 0.8125], size=ctx.n // 2)
                for u in users}
    cts = {u: ev.drop_to_level(ev.encrypt_coeffs(v), 0)
           for u, v in readings.items()}

    trace = ServiceTrace()
    svc = BootstrapService(lambda uid: tenant_keys,
                           max_batch=len(users) * ctx.n,
                           max_delay_s=0.05, trace=trace)
    async with svc:
        # 6 PBS requests, 2 LUTs: the service coalesces them into one
        # fan-out batch per LUT.
        elevated, critical = {}, {}
        results = await asyncio.gather(*(
            [svc.submit_pbs(u, cts[u], is_elevated) for u in users]
            + [svc.submit_pbs(u, cts[u], is_critical) for u in users]))
        for u, ct_lo in zip(users, results[:len(users)]):
            elevated[u] = ct_lo
        for u, ct_hi in zip(users, results[len(users):]):
            critical[u] = ct_hi

    print(f"\n{trace.pbs_requests} PBS requests -> "
          f"batches (fill -> count): {dict(trace.batch_fill)}")

    print(f"\nband(v) = [v >= {LOW}] + [v >= {HIGH}], computed encrypted:")
    for u in users:
        band_ct = ev.add(elevated[u], critical[u])  # depth-free stump
        got = np.round(ev.decrypt_coeffs_scaled(band_ct, sk)[:ctx.n // 2])
        want = ((readings[u] >= LOW).astype(int)
                + (readings[u] >= HIGH).astype(int))
        ok = (got == want).all()
        counts = {b: int((got == b).sum()) for b in (0, 1, 2)}
        print(f"  {u}: bands {counts}  "
              f"{'matches plaintext' if ok else 'MISMATCH'}")
        assert ok

    print("\nnote: each indicator is a *discontinuous* predicate — the")
    print("polynomial (CKKS-only) route would need a high-degree")
    print("approximation and multiplicative depth; here both come back")
    print("at the top level, and same-LUT traffic from different users")
    print("shares one blind-rotate tensor.")


if __name__ == "__main__":
    asyncio.run(main())
