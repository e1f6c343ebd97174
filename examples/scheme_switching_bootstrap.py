#!/usr/bin/env python3
"""Algorithm 2 in slow motion, plus the multi-node parallel schedule.

Walks through the scheme-switching bootstrap step by step, showing the
intermediate quantities the paper's Section III-B derives, then re-runs
the BlindRotate batch split over simulated compute nodes (the paper's
eight-FPGA deployment) and verifies the partitioned execution is
bit-identical to the single-node run — the property that makes the
approach "agnostic of the hardware".  The stage functions used here
(``extract_mod_2n``, ``blind_rotate_batch``) are the ones
``BootstrapPipeline.run`` — the one way to run the whole thing — calls.
It ends with the paper's own configuration: the same pipeline on an n_t
key set, blind-rotating at dimension n_t instead of N.
"""

import numpy as np

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.math.sampling import Sampler
from repro.params import make_keyswitched_toy_params, make_toy_params
from repro.switching import (
    BootstrapPipeline,
    SwitchingKeySet,
    expected_k_prime_std,
    make_schedule,
)
from repro.switching.pipeline import extract_mod_2n
from repro.tfhe.blind_rotate import blind_rotate_batch
from repro.tfhe.glwe import glwe_decrypt_coeffs


def main() -> None:
    params = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                             special_limbs=2)
    ctx = CkksContext(params.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(4))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(5))
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(6), base_bits=4,
                                   error_std=0.8)
    pipeline = BootstrapPipeline(ctx, swk)

    n = ctx.n
    two_n = 2 * n
    values = np.cos(np.linspace(0, 3, ctx.slots))
    ct = ev.encrypt(values, level=0)
    q = ct.basis.moduli[0]
    print(f"level-0 ciphertext over q = {q} ({q.bit_length()} bits), N = {n}")

    # -- Steps 1 & 2: ModulusSwitch ------------------------------------------------
    c0 = np.asarray(ct.c0.to_coeff().limbs[0], dtype=object)
    c1 = np.asarray(ct.c1.to_coeff().limbs[0], dtype=object)
    c0p, c1p = (two_n * c0) % q, (two_n * c1) % q
    c0m, c1m = (two_n * c0 - c0p) // q, (two_n * c1 - c1p) // q
    print(f"step 1-2: ct' over Z_q, ct_ms over Z_2N (components in [0, {two_n}))")
    print(f"  predicted wrap-count std ~ {expected_k_prime_std(n):.2f} "
          f"(aliasing bound N/2 = {n // 2})")

    # -- Step 3a: Extract ------------------------------------------------------------
    lwes = [extract_mod_2n(c1m, c0m, i, two_n) for i in range(n)]
    print(f"step 3a: extracted {len(lwes)} independent LWE ciphertexts (Eq. 2)")

    # -- Step 3b: BlindRotate, single node vs partitioned -----------------------------
    single = blind_rotate_batch(pipeline.test_vector, lwes, swk.brk)
    for nodes in (2, 4):
        schedule = make_schedule(len(lwes), nodes)
        multi = []
        for part in schedule.slices(lwes):
            multi.extend(blind_rotate_batch(pipeline.test_vector, part, swk.brk))
        same = all(
            a.body.to_coeff().limbs[0].tolist() == b.body.to_coeff().limbs[0].tolist()
            for a, b in zip(single, multi))
        print(f"step 3b: {nodes}-node schedule "
              f"({[a.count for a in schedule.nodes]} BlindRotates/node) "
              f"matches single node: {same}")

    # The blind-rotate outputs encrypt N^{-1} * q * (J - K') in their
    # constant term (the N^{-1} cancels the repack factor); undo both
    # factors to display the recovered wrap counts J - K'.
    big_qp = swk.raised_basis.product
    wraps = []
    for acc in single[:6]:
        c = int(glwe_decrypt_coeffs(acc, swk.glwe_sk_ref)[0]) * n % big_qp
        c = c - big_qp if c > big_qp // 2 else c
        wraps.append(round(c / q))
    print(f"step 3b: recovered per-coefficient wrap counts J - K': {wraps}")

    # -- Full pipeline -----------------------------------------------------------------
    refreshed = pipeline.run(ct)
    got = ev.decrypt(refreshed, sk).real
    print(f"steps 3c-5: repacked, added ct', rescaled by p")
    print(f"refreshed to level {refreshed.level}; "
          f"max error {np.max(np.abs(got - values)):.4f}")

    # -- The paper's n_t configuration: same pipeline, smaller brk ---------------------
    # (needs the strong switching prime p = 1 mod 2N^2)
    ctx_nt = CkksContext(make_keyswitched_toy_params(n=n), dnum=2)
    gen_nt = CkksKeyGenerator(ctx_nt, Sampler(7))
    sk_nt = gen_nt.secret_key()
    ev_nt = CkksEvaluator(ctx_nt, gen_nt.keyset(sk_nt), Sampler(8))
    swk_nt = SwitchingKeySet.generate(ctx_nt, sk_nt, Sampler(9), base_bits=4,
                                      error_std=0.6, n_t=n // 2)
    out_nt = BootstrapPipeline(ctx_nt, swk_nt).run(ev_nt.encrypt(values, level=0))
    err_nt = np.max(np.abs(ev_nt.decrypt(out_nt, sk_nt).real - values))
    print(f"n_t = {n // 2}: brk {swk_nt.brk.n_t} entries (vs {swk.brk.n_t}), "
          f"max error {err_nt:.4f}")


if __name__ == "__main__":
    main()
