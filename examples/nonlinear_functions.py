#!/usr/bin/env python3
"""Non-linear functions on encrypted data via scheme switching (§III-A).

The paper motivates scheme switching with non-linear evaluation before
specialising it to bootstrapping: "The function f can be set to evaluate
sigmoid, exponentiation, or ReLU function."  This example runs that
general path — sign, ReLU and sigmoid through the TFHE LUT on
(coefficient-packed) CKKS ciphertexts, via ``BootstrapPipeline.run_pbs``,
the same pipeline Algorithm 2 runs on — and contrasts it with the
polynomial (Chebyshev) route the CKKS-only world is limited to.
"""

import numpy as np

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.math.modular import find_ntt_primes
from repro.math.sampling import Sampler
from repro.params import CkksParams
from repro.switching import (
    BootstrapPipeline,
    SwitchingKeySet,
    relu_fn,
    sigmoid_fn,
    sign_fn,
)
from repro.switching.functional import max_abs_input, quantisation_step


def main() -> None:
    # Fine LUT quantisation wants a small q/Delta ratio.
    n = 32
    primes = find_ntt_primes(30, n, 5)
    params = CkksParams(n=n, moduli=primes[:3], special_moduli=primes[3:5],
                        scale_bits=28)
    ctx = CkksContext(params, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(11))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(12))
    print("generating switching keys...")
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(13), base_bits=4,
                                   error_std=0.6)
    pipeline = BootstrapPipeline(ctx, swk)
    print(f"LUT domain: |v| < {max_abs_input(ctx):.2f}, "
          f"resolution {quantisation_step(ctx):.4f} "
          f"({2 * n} phase buckets)")

    rng = np.random.default_rng(3)
    z = rng.uniform(-0.9, 0.9, n)
    ct = ev.encrypt_coeffs(z, level=0)

    for name, f, ref in (
        ("sign", sign_fn, np.sign),
        ("ReLU", relu_fn, lambda x: np.maximum(x, 0)),
        ("sigmoid", sigmoid_fn, lambda x: 1 / (1 + np.exp(-x))),
    ):
        out = pipeline.run_pbs(ct, f)
        got = ev.decrypt_coeffs_scaled(out, sk)
        err = float(np.max(np.abs(got - ref(z))))
        print(f"{name:8s}: level {out.level} output "
              f"(fresh, no depth spent), max error {err:.3f}")

    print("\nfirst few values:")
    out = ev.decrypt_coeffs_scaled(pipeline.run_pbs(ct, relu_fn), sk)
    for i in range(6):
        print(f"  v = {z[i]:+.3f}  ->  ReLU = {out[i]:+.3f}")

    print("\nnote: sign is *discontinuous* — the CKKS-only (Chebyshev)")
    print("route cannot represent it; this is the paper's argument for")
    print("switching to TFHE for non-linear operations (Section III-A).")


if __name__ == "__main__":
    main()
