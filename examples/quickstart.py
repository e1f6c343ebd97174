#!/usr/bin/env python3
"""Quickstart: encrypted arithmetic and the scheme-switching bootstrap.

Runs the full HEAP pipeline at toy ring size (a few seconds on a laptop):

1. set up CKKS, encrypt a vector,
2. burn through every level with multiplications,
3. refresh the exhausted ciphertext with the paper's scheme-switching
   bootstrap (Algorithm 2: ModulusSwitch -> Extract -> parallel
   BlindRotate -> repack -> add -> rescale),
4. keep computing on the refreshed ciphertext.
"""

import numpy as np

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.ckks.bootstrap import make_bootstrappable_toy_params
from repro.math.sampling import Sampler
from repro.switching import BootstrapPipeline, BootstrapTrace, SwitchingKeySet


def main() -> None:
    # Toy parameters: N=16 with a fixed-point limb chain (rescale primes
    # ~ Delta, wider base limb) so the scale survives the multiplication
    # chain.  The paper runs the same code at N=2^13 with 36-bit limbs.
    params = make_bootstrappable_toy_params(n=16, levels=3, delta_bits=22,
                                            q0_bits=28)
    ctx = CkksContext(params, dnum=2)
    print(f"context: {ctx}")

    gen = CkksKeyGenerator(ctx, Sampler(1))
    sk = gen.secret_key()
    keys = gen.keyset(sk)
    ev = CkksEvaluator(ctx, keys, Sampler(2))

    values = np.linspace(0.2, 0.9, ctx.slots)
    ct = ev.encrypt(values)
    print(f"encrypted {ctx.slots} slots at level {ct.level}")

    # Exhaust the levels: x -> x^2 -> x^4.
    expected = values.copy()
    while ct.level > 0:
        companion = ev.encrypt(expected, level=ct.level, scale=ct.scale)
        ct = ev.mul_relin_rescale(ct, companion)
        expected = expected * expected
        print(f"  mult -> level {ct.level}")
    print("levels exhausted; no further multiplication possible")

    # Scheme-switching bootstrap (paper Algorithm 2): BootstrapPipeline
    # is the one entry point; pass executor= to fan out over a pool.
    print("generating switching keys (blind-rotate + repack keys)...")
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(3), base_bits=4,
                                   error_std=0.8)
    pipeline = BootstrapPipeline(ctx, swk)
    trace = BootstrapTrace()
    refreshed = pipeline.run(ct, trace)
    print(f"bootstrap: {trace.num_lwe} LWE ciphertexts extracted, "
          f"{trace.num_blind_rotates} parallel BlindRotates, "
          f"{trace.repack_keyswitches} repack key switches")
    print(f"refreshed ciphertext level: {refreshed.level}")

    err = np.max(np.abs(ev.decrypt(refreshed, sk).real - expected))
    print(f"post-bootstrap max error: {err:.4f}")

    # And multiplication works again.
    again = ev.mul_relin_rescale(
        refreshed, ev.encrypt(expected, level=refreshed.level,
                              scale=refreshed.scale))
    err = np.max(np.abs(ev.decrypt(again, sk).real - expected ** 2))
    print(f"post-bootstrap multiplication max error: {err:.4f}")


if __name__ == "__main__":
    main()
