#!/usr/bin/env python3
"""Encrypted logistic-regression training (the paper's LR workload).

Trains a binary classifier on encrypted data, HELR-style: minibatch
packed in CKKS slots, degree-3 polynomial sigmoid, gradient step fully
under encryption, and a scheme-switching bootstrap refreshing the weight
ciphertext between iterations — "30 iterations and a bootstrapping
operation after every iteration" in the paper, two iterations here at
toy ring size.  Ends with the Table VI hardware-model prediction for the
production-scale run.
"""

import numpy as np

from repro.apps import (
    EncryptedLogisticRegression,
    PlaintextLogisticRegression,
    lr_iteration_model,
    synthetic_mnist_3v8,
    train_test_split,
)
from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.ckks.bootstrap import make_bootstrappable_toy_params
from repro.hardware import ClusterBootstrapModel, SingleFpgaModel
from repro.math.sampling import Sampler
from repro.switching import BootstrapPipeline, SwitchingKeySet


def main() -> None:
    # -- plaintext reference at the paper's dataset shape ------------------------
    ds = synthetic_mnist_3v8(num_samples=2000)
    train, test = train_test_split(ds)
    ref = PlaintextLogisticRegression(ds.num_features, lr=2.0)
    ref.train(train, iterations=30, batch_size=512)
    print(f"plaintext LR on synthetic MNIST-3v8 shape: "
          f"{100 * ref.accuracy(test):.1f}% accuracy after 30 iterations "
          f"(paper reports ~97%)")

    # -- encrypted training at toy scale -------------------------------------------
    f, b = 2, 4
    params = make_bootstrappable_toy_params(n=16, levels=8, delta_bits=22,
                                            q0_bits=28)
    ctx = CkksContext(params, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(31))
    sk = gen.secret_key()
    rots = set()
    shift = 1
    while shift < f:
        rots.update([shift, ctx.slots - shift])
        shift *= 2
    shift = f
    while shift < f * b:
        rots.update([shift, ctx.slots - shift])
        shift *= 2
    keys = gen.keyset(sk, rotations=sorted(rots))
    ev = CkksEvaluator(ctx, keys, Sampler(32), scale_rtol=5e-2)
    print("generating switching keys for the in-loop bootstrap...")
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(33), base_bits=4,
                                   error_std=0.8)
    boot = BootstrapPipeline(ctx, swk)  # the trainer calls boot.run(ct)
    trainer = EncryptedLogisticRegression(ctx, ev, f, b, lr=0.5,
                                          bootstrapper=boot)

    rng = np.random.default_rng(7)
    plain = PlaintextLogisticRegression(f, lr=0.5)
    ct_w = ev.encrypt(trainer.pack_weights(np.zeros(f)))
    for it in range(2):
        x = rng.uniform(-1, 1, (b, f))
        y = rng.integers(0, 2, b).astype(float)
        plain.iterate(x, y)
        ct_w = trainer.iterate(ct_w, x, y)
        print(f"iteration {it}: encrypted weights at level {ct_w.level}")
        if ct_w.level < 6:
            ct_w = trainer._refresh(ct_w)
            print(f"  scheme-switching bootstrap -> level {ct_w.level}")
    got = trainer.unpack_weights(ev.decrypt(ct_w, sk))
    print(f"encrypted weights: {np.round(got, 4)}")
    print(f"plaintext weights: {np.round(plain.w, 4)}")
    print(f"max deviation: {np.max(np.abs(got - plain.w)):.4f}")

    # -- Table VI prediction at production scale ---------------------------------------
    total, share = lr_iteration_model(SingleFpgaModel(), ClusterBootstrapModel())
    print(f"\nhardware model, production scale (N=2^13, 8 FPGAs, 256 slots): "
          f"{total * 1e3:.2f} ms/iteration, {100 * share:.0f}% in bootstrapping "
          f"(paper: 7 ms, ~21%)")


if __name__ == "__main__":
    main()
