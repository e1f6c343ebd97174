"""Tests for non-linear function evaluation via scheme switching (§III-A)."""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.errors import ParameterError
from repro.math.modular import find_ntt_primes
from repro.math.sampling import Sampler
from repro.params import CkksParams
from repro.switching import BootstrapPipeline, SwitchingKeySet
from repro.switching.functional import (
    max_abs_input,
    quantisation_step,
    relu_fn,
    sigmoid_fn,
    sign_fn,
)


def make_lut_params(n=32):
    """Small q/Delta ratio for fine phase quantisation (step = q/(2N*Delta))."""
    primes = find_ntt_primes(30, n, 5)
    return CkksParams(n=n, moduli=primes[:3], special_moduli=primes[3:5],
                      scale_bits=28)


PARAMS = make_lut_params()


@pytest.fixture(scope="module")
def stack():
    ctx = CkksContext(PARAMS, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(801))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(802))
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(803), base_bits=4,
                                   error_std=0.6)
    fev = BootstrapPipeline(ctx, swk)
    return ctx, sk, ev, fev


class TestDomain:
    def test_max_input_and_step(self, stack):
        ctx, sk, ev, fev = stack
        q = ctx.full_basis.moduli[0]
        assert max_abs_input(ctx) == pytest.approx(q / (4 * ctx.params.scale))
        assert quantisation_step(ctx) == pytest.approx(
            q / (2 * ctx.n * ctx.params.scale))
        # The chosen parameters give sub-0.1 resolution.
        assert quantisation_step(ctx) < 0.1

    def test_requires_level0(self, stack):
        ctx, sk, ev, fev = stack
        with pytest.raises(ParameterError):
            fev.run_pbs(ev.encrypt_coeffs([0.1]), sign_fn)


class TestNonLinearFunctions:
    def test_sign(self, stack):
        """Discontinuous sign — impossible for the Chebyshev route, exact
        here up to quantisation around 0."""
        ctx, sk, ev, fev = stack
        rng = np.random.default_rng(0)
        z = rng.uniform(-0.9, 0.9, ctx.n)
        z[np.abs(z) < 0.2] += 0.3 * np.sign(z[np.abs(z) < 0.2] + 0.01)
        ct = ev.encrypt_coeffs(z, level=0)
        out = fev.run_pbs(ct, sign_fn)
        got = ev.decrypt_coeffs_scaled(out, sk)
        assert np.allclose(got, np.sign(z), atol=0.3), (got, np.sign(z))

    def test_relu(self, stack):
        ctx, sk, ev, fev = stack
        z = np.random.default_rng(1).uniform(-0.9, 0.9, ctx.n)
        ct = ev.encrypt_coeffs(z, level=0)
        got = ev.decrypt_coeffs_scaled(fev.run_pbs(ct, relu_fn), sk)
        assert np.allclose(got, np.maximum(z, 0), atol=0.3)

    def test_sigmoid(self, stack):
        ctx, sk, ev, fev = stack
        z = np.random.default_rng(2).uniform(-0.9, 0.9, ctx.n)
        ct = ev.encrypt_coeffs(z, level=0)
        got = ev.decrypt_coeffs_scaled(fev.run_pbs(ct, sigmoid_fn), sk)
        want = 1.0 / (1.0 + np.exp(-z))
        assert np.allclose(got, want, atol=0.3)

    def test_output_is_top_level(self, stack):
        """LUT evaluation doubles as a bootstrap: output at the top level,
        no multiplicative depth consumed."""
        ctx, sk, ev, fev = stack
        ct = ev.encrypt_coeffs([0.5], level=0)
        out = fev.run_pbs(ct, relu_fn)
        assert out.level == ctx.max_level

    def test_coefficient_packing_roundtrip(self, stack):
        ctx, sk, ev, fev = stack
        z = np.random.default_rng(3).uniform(-1, 1, ctx.n)
        got = ev.decrypt_coeffs_scaled(ev.encrypt_coeffs(z), sk)
        assert np.allclose(got, z, atol=1e-4)


class TestHelpers:
    def test_sign_fn(self):
        assert sign_fn(2.0) == 1.0 and sign_fn(-2.0) == -1.0 and sign_fn(0) == 0

    def test_relu_fn(self):
        assert relu_fn(3.0) == 3.0 and relu_fn(-3.0) == 0.0

    def test_sigmoid_fn(self):
        assert sigmoid_fn(0.0) == pytest.approx(0.5)
