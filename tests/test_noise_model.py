"""Validate the noise model against measured pipeline runs."""


import numpy as np
import pytest

from repro.analysis.noise import (
    SwitchingNoiseModel,
    gaussian_tail,
    required_ring_dimension,
)
from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.switching import BootstrapPipeline, SwitchingKeySet


class TestGaussianTail:
    def test_known_values(self):
        assert gaussian_tail(0) == pytest.approx(1.0)
        assert gaussian_tail(1.96) == pytest.approx(0.05, abs=0.01)
        assert gaussian_tail(5) < 1e-6

    def test_monotone(self):
        xs = [0.5, 1.0, 2.0, 4.0]
        tails = [gaussian_tail(x) for x in xs]
        assert tails == sorted(tails, reverse=True)


class TestAliasingBound:
    def test_paper_parameters_are_safe(self):
        """At N = 2^13 / n_t = 500 the aliasing probability is negligible."""
        model = SwitchingNoiseModel(n=2**13, n_iter=500, gadget_base=2,
                                    gadget_digits=1, key_error_std=1.0)
        assert model.aliasing_failure_probability() < 2**-200

    def test_toy_parameters_are_safe_enough(self):
        model = SwitchingNoiseModel(n=16, n_iter=16, gadget_base=16,
                                    gadget_digits=28, key_error_std=0.8)
        assert model.aliasing_failure_probability() < 1e-2

    def test_required_ring_dimension(self):
        """n_t = 500 demands N >= ~128 for 2^-40 aliasing; the paper's
        2^13 has orders of magnitude of margin (its choice is driven by
        CKKS security/slots, not aliasing)."""
        n_req = required_ring_dimension(500)
        assert 64 <= n_req <= 1024
        assert n_req <= 2**13

    def test_tiny_ring_fails(self):
        model = SwitchingNoiseModel(n=4, n_iter=500, gadget_base=2,
                                    gadget_digits=1, key_error_std=1.0)
        assert model.aliasing_failure_probability() > 0.5


class TestNoisePrediction:
    def test_prediction_brackets_measurement(self):
        """Measured bootstrap slot error within ~100x of the 3-sigma
        prediction (heuristic average-case bound, order-of-magnitude
        standard)."""
        params = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                                 special_limbs=2)
        ctx = CkksContext(params.ckks, dnum=2)
        gen = CkksKeyGenerator(ctx, Sampler(301))
        sk = gen.secret_key()
        ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(302))
        base_bits = 4
        swk = SwitchingKeySet.generate(ctx, sk, Sampler(303),
                                       base_bits=base_bits, error_std=0.8)
        boot = BootstrapPipeline(ctx, swk)
        z = np.random.default_rng(0).uniform(-1, 1, ctx.slots)
        out = boot.run(ev.encrypt(z, level=0))
        measured = float(np.max(np.abs(ev.decrypt(out, sk).real - z)))

        model = SwitchingNoiseModel(
            n=ctx.n, n_iter=ctx.n, gadget_base=1 << base_bits,
            gadget_digits=swk.gadget.digits, key_error_std=0.8)
        predicted = model.final_slot_error(ctx.params.scale)
        assert measured < predicted * 100
        assert measured > predicted / 1000

    def test_noise_grows_with_iterations(self):
        short = SwitchingNoiseModel(n=64, n_iter=16, gadget_base=16,
                                    gadget_digits=20, key_error_std=1.0)
        long = SwitchingNoiseModel(n=64, n_iter=256, gadget_base=16,
                                   gadget_digits=20, key_error_std=1.0)
        assert long.blind_rotate_noise_std() > short.blind_rotate_noise_std()

    def test_noise_grows_with_base(self):
        fine = SwitchingNoiseModel(n=64, n_iter=64, gadget_base=4,
                                   gadget_digits=60, key_error_std=1.0)
        coarse = SwitchingNoiseModel(n=64, n_iter=64, gadget_base=256,
                                     gadget_digits=15, key_error_std=1.0)
        assert coarse.external_product_noise_std() > fine.external_product_noise_std()
