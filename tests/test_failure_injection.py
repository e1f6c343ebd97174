"""Failure-injection tests: corrupted keys/ciphertexts must fail loudly
(via the noise-budget check), not silently return plausible garbage."""

import json

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.errors import NoiseBudgetExceeded
from repro.io import deserialize_ciphertext, serialize_ciphertext
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.switching import BootstrapPipeline, SwitchingKeySet

PARAMS = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                         special_limbs=2)


@pytest.fixture(scope="module")
def stack():
    ctx = CkksContext(PARAMS.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(701))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(702))
    return ctx, sk, ev


class TestWrongKey:
    def test_decryption_under_wrong_key_is_garbage(self, stack):
        ctx, sk, ev = stack
        other_sk = CkksKeyGenerator(ctx, Sampler(999)).secret_key()
        z = np.full(ctx.slots, 0.5)
        ct = ev.encrypt(z)
        with pytest.raises(NoiseBudgetExceeded):
            ev.check_noise_budget(ct, other_sk, z)


class TestTamperedCiphertext:
    def test_bitflip_detected_by_noise_check(self, stack):
        ctx, sk, ev = stack
        z = np.full(ctx.slots, 0.25)
        blob = serialize_ciphertext(ev.encrypt(z))
        payload = json.loads(blob.decode())
        # Flip a high bit of one mask coefficient.
        payload["c1"]["limbs"][0][3] ^= 1 << 25
        tampered = deserialize_ciphertext(json.dumps(payload).encode())
        with pytest.raises(NoiseBudgetExceeded):
            ev.check_noise_budget(tampered, sk, z)

    def test_untampered_passes(self, stack):
        ctx, sk, ev = stack
        z = np.full(ctx.slots, 0.25)
        ct = deserialize_ciphertext(serialize_ciphertext(ev.encrypt(z)))
        ev.check_noise_budget(ct, sk, z)


class TestCorruptedSwitchingKeys:
    def test_swapped_brk_entries_break_bootstrap(self, stack):
        """Swapping RGSW(s_i^+) and RGSW(s_i^-) for a few indices makes the
        blind rotation compute the wrong phase — the output must fail the
        noise check rather than decrypt to something near the message."""
        ctx, sk, ev = stack
        swk = SwitchingKeySet.generate(ctx, sk, Sampler(703), base_bits=4,
                                       error_std=0.8)
        # Corrupt: swap plus/minus for indices where the secret is nonzero.
        nonzero = [i for i in range(ctx.n) if int(sk.coeffs[i]) != 0][:4]
        for i in nonzero:
            swk.brk.plus[i], swk.brk.minus[i] = swk.brk.minus[i], swk.brk.plus[i]
        boot = BootstrapPipeline(ctx, swk)
        z = np.random.default_rng(1).uniform(0.3, 0.9, ctx.slots)
        out = boot.run(ev.encrypt(z, level=0))
        with pytest.raises(NoiseBudgetExceeded):
            ev.check_noise_budget(out, sk, z, max_error=0.2)

    def test_intact_keys_pass_the_same_check(self, stack):
        ctx, sk, ev = stack
        swk = SwitchingKeySet.generate(ctx, sk, Sampler(704), base_bits=4,
                                       error_std=0.8)
        boot = BootstrapPipeline(ctx, swk)
        z = np.random.default_rng(2).uniform(0.3, 0.9, ctx.slots)
        out = boot.run(ev.encrypt(z, level=0))
        ev.check_noise_budget(out, sk, z, max_error=0.2)
