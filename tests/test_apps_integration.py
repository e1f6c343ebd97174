"""Integration tests: LR training with scheme-switching bootstrap in the
loop, and the tiny encrypted CNN block (ResNet miniature)."""

import numpy as np
import pytest

from repro.apps import (
    EncryptedLogisticRegression,
    PlaintextLogisticRegression,
    TinyEncryptedCnn,
    resnet20_op_counts,
    resnet_inference_model,
    total_bootstrap_count,
)
from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.ckks.bootstrap import make_bootstrappable_toy_params
from repro.hardware import ClusterBootstrapModel, SingleFpgaModel
from repro.math.sampling import Sampler
from repro.switching import BootstrapPipeline, SwitchingKeySet

# Small ring keeps the in-loop bootstraps (N blind rotates each) tractable;
# fixed-point layout (rescale primes ~ Delta, wider q0) keeps the scale
# stable across the deep LR iteration.
PARAMS = make_bootstrappable_toy_params(n=16, levels=8, delta_bits=22,
                                        q0_bits=28)


@pytest.fixture(scope="module")
def lr_with_bootstrap():
    ctx = CkksContext(PARAMS, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(11))
    sk = gen.secret_key()
    f, b = 2, 4
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
    ev = CkksEvaluator(ctx, keys, Sampler(12), scale_rtol=5e-2)
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(13), base_bits=4,
                                   error_std=0.8)
    boot = BootstrapPipeline(ctx, swk)
    return ctx, sk, ev, boot, f, b


class TestLrTrainingWithBootstrap:
    def test_two_iterations_with_refresh(self, lr_with_bootstrap):
        """The paper's LR protocol in miniature: iterate, bootstrap,
        iterate again — levels are refreshed and training still tracks
        the plaintext reference."""
        ctx, sk, ev, boot, f, b = lr_with_bootstrap
        trainer = EncryptedLogisticRegression(ctx, ev, f, b, lr=0.5,
                                              bootstrapper=boot)
        rng = np.random.default_rng(5)
        x1 = rng.uniform(-1, 1, (b, f))
        y1 = rng.integers(0, 2, b).astype(float)
        x2 = rng.uniform(-1, 1, (b, f))
        y2 = rng.integers(0, 2, b).astype(float)

        ref = PlaintextLogisticRegression(f, lr=0.5)
        ref.iterate(x1, y1)
        ref.iterate(x2, y2)

        ct_w = ev.encrypt(trainer.pack_weights(np.zeros(f)))
        ct_w = trainer.iterate(ct_w, x1, y1)
        assert ct_w.level < ctx.max_level - 4  # levels really were consumed
        ct_w = trainer._refresh(ct_w)
        assert ct_w.level >= ctx.max_level - 2  # and restored
        ct_w = trainer.iterate(ct_w, x2, y2)
        got = trainer.unpack_weights(ev.decrypt(ct_w, sk))
        assert np.allclose(got, ref.w, atol=0.08), (got, ref.w)


TOYCNN_PARAMS = make_bootstrappable_toy_params(n=32, levels=6, delta_bits=24,
                                               q0_bits=30)


@pytest.fixture(scope="module")
def cnn_stack():
    ctx = CkksContext(TOYCNN_PARAMS, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(21))
    sk = gen.secret_key()
    side = 4
    kernel = np.array([[1.0, -0.5], [0.25, 0.75]])
    probe = TinyEncryptedCnn.__new__(TinyEncryptedCnn)
    # Rotations: conv taps + pooling shifts.
    rots = set()
    for di in range(2):
        for dj in range(2):
            r = di * side + dj
            if r:
                rots.add(r)
    shift = 1
    while shift < ctx.slots:
        rots.add(shift)
        shift *= 2
    keys = gen.keyset(sk, rotations=sorted(rots))
    ev = CkksEvaluator(ctx, keys, Sampler(22), scale_rtol=5e-2)
    return ctx, sk, ev, side, kernel


class TestTinyCnn:
    def test_conv_square_matches_reference(self, cnn_stack):
        ctx, sk, ev, side, kernel = cnn_stack
        cnn = TinyEncryptedCnn(ctx, ev, side, kernel)
        rng = np.random.default_rng(6)
        img = rng.uniform(-0.5, 0.5, (side, side))
        ct = ev.encrypt(cnn.pack_image(img))
        out = cnn.square_activation(cnn.conv(ct))
        got = ev.decrypt(out, sk).real
        want = cnn.reference(img, kernel)
        out_side = side - kernel.shape[0] + 1
        for i in range(out_side):
            assert np.allclose(got[i * side: i * side + out_side],
                               want[i], atol=0.05)

    def test_sum_pool(self, cnn_stack):
        ctx, sk, ev, side, kernel = cnn_stack
        cnn = TinyEncryptedCnn(ctx, ev, side, kernel)
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 0.3, (side, side))
        ct = ev.encrypt(cnn.pack_image(img))
        pooled = cnn.sum_pool(ct)
        got = ev.decrypt(pooled, sk).real[0]
        assert got == pytest.approx(float(np.sum(img)), abs=0.05)

    def test_image_too_large_rejected(self, cnn_stack):
        from repro.errors import ParameterError
        ctx, sk, ev, side, kernel = cnn_stack
        with pytest.raises(ParameterError):
            TinyEncryptedCnn(ctx, ev, 100, kernel)


class TestResNetModel:
    def test_layer_inventory(self):
        layers = resnet20_op_counts()
        names = [layer.name for layer in layers]
        assert names[0] == "stem-conv"
        assert sum(1 for n in names if "block" in n) == 9  # 3 stages x 3 blocks
        assert names[-1] == "avgpool-fc"

    def test_matches_paper_anchors(self):
        total, share = resnet_inference_model(SingleFpgaModel(),
                                              ClusterBootstrapModel())
        assert total == pytest.approx(0.267, rel=0.1)
        assert share == pytest.approx(0.44, abs=0.06)

    def test_bootstrap_count_plausible(self):
        # ARK/SHARP-era implementations report a few hundred bootstraps.
        assert 100 <= total_bootstrap_count() <= 500
