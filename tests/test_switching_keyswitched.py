"""The n_t-dimension (LWE-keyswitched) bootstrap: a ``SwitchingKeySet``
generated with ``n_t=`` run through the one ``BootstrapPipeline``."""

import asyncio

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.errors import ParameterError
from repro.io import deserialize_seeded_key_material, serialize_seeded_key_material
from repro.math.sampling import Sampler
from repro.params import make_keyswitched_toy_params, make_toy_params
from repro.service import BootstrapService, UserKeys
from repro.switching import (SIGN, BootstrapPipeline, BootstrapTrace,
                             SwitchingKeySet)
from repro.switching.keys import brk_bytes, glwe_rows_bytes, lwe_ksk_bytes

from .oracle import assert_keyset_equal

N = 16
N_T = 8
PARAMS = make_keyswitched_toy_params(n=N, limbs=3, limb_bits=30,
                                     scale_bits=23, special_limbs=2)


@pytest.fixture(scope="module")
def stack():
    ctx = CkksContext(PARAMS, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(201))
    sk = gen.secret_key()
    keys = gen.keyset(sk)
    ev = CkksEvaluator(ctx, keys, Sampler(202))
    kwk = SwitchingKeySet.generate(ctx, sk, Sampler(203), base_bits=4,
                                   error_std=0.6, n_t=N_T)
    boot = BootstrapPipeline(ctx, kwk)
    return ctx, sk, ev, boot


class TestParams:
    def test_strong_prime_congruence(self):
        p = PARAMS.special_moduli[0]
        assert (p - 1) % (2 * N * N) == 0

    def test_primes_distinct(self):
        all_primes = list(PARAMS.moduli) + list(PARAMS.special_moduli)
        assert len(set(all_primes)) == len(all_primes)


class TestKeySet:
    def test_brk_has_nt_entries(self, stack):
        ctx, sk, ev, boot = stack
        # The whole point: the blind-rotate key has n_t entries, not N.
        assert boot.keys.brk.n_t == N_T

    def test_nt_cannot_exceed_ring(self, stack):
        ctx, sk, ev, boot = stack
        with pytest.raises(ParameterError):
            SwitchingKeySet.generate(ctx, sk, n_t=ctx.n + 1)

    def test_requires_strong_prime(self):
        weak = make_toy_params(n=N, limbs=3, limb_bits=30, scale_bits=23,
                               special_limbs=2)
        ctx = CkksContext(weak.ckks, dnum=2)
        sk = CkksKeyGenerator(ctx, Sampler(1)).secret_key()
        if (ctx.special_basis.moduli[0] - 1) % (2 * N * N) == 0:
            pytest.skip("weak params happen to satisfy the congruence")
        with pytest.raises(ParameterError):
            SwitchingKeySet.generate(ctx, sk, n_t=N_T)

    def test_key_size_advantage(self, stack):
        """brk shrinks by ~N/n_t vs the direct pipeline (the paper's
        500-entry key vs a dimension-N key)."""
        ctx, sk, ev, boot = stack
        direct = SwitchingKeySet.generate(ctx, sk, Sampler(9), base_bits=4)
        assert boot.keys.brk.size_bytes() * (N // N_T) == pytest.approx(
            direct.brk.size_bytes(), rel=0.01)


    def test_resident_bytes_count_the_nt_keys(self, stack):
        """The service's LRU charges the LWE key-switch key, the companion
        repack keys and the ring key-switch key, not just brk + repack."""
        ctx, sk, ev, boot = stack
        keys = boot.keys
        ring_keys = (list(keys.auto_keys.keys.values())
                     + list(keys.auto_keys_st.keys.values()) + [keys.ring_ksk])
        assert keys.resident_bytes() == (
            brk_bytes(keys.brk) + lwe_ksk_bytes(keys.lwe_ksk)
            + sum(glwe_rows_bytes(k.rows) for k in ring_keys))
        # N * d ciphertexts of n_t + 1 machine words each.
        assert lwe_ksk_bytes(keys.lwe_ksk) == (
            keys.lwe_ksk.num_ciphertexts() * (N_T + 1) * 8)

    def test_keeps_no_secret_but_the_debug_reference(self, stack):
        """s_t and its padded ring form are dropped after generation."""
        ctx, sk, ev, boot = stack
        secrets = [name for name, v in vars(boot.keys).items()
                   if type(v).__name__.endswith("SecretKey")]
        assert secrets == ["glwe_sk_ref"]
        assert "coeffs=[" not in repr(boot.keys)

    def test_nt_set_round_trips_through_material(self, stack):
        """generate == from_material(compress()) for every component —
        brk over s_t, lwe_ksk, both repack key sets, ring_ksk — across
        the CRC-framed wire form, and again after a demotion."""
        ctx, sk, ev, boot = stack
        material = boot.keys.compress()
        assert set(material.bodies) >= {"lwe_ksk_b", "auto_st_b_0", "ring_b_0"}
        back = SwitchingKeySet.from_material(deserialize_seeded_key_material(
            serialize_seeded_key_material(material)))
        assert (back.n_t, back.keyswitched, back.expansions) == (N_T, True, 0)
        assert back.resident_bytes() == material.resident_bytes()
        assert_keyset_equal(boot.keys, back)
        assert back.drop_expanded() > 0
        assert back.resident_bytes() == material.resident_bytes()
        assert_keyset_equal(boot.keys, back)


class TestBootstrap:
    def test_pbs_is_refused(self, stack):
        """PBS over an n_t key set is not implemented: typed refusal from
        the pipeline and, before queueing, from the service."""
        ctx, sk, ev, boot = stack
        ct = ev.encrypt_coeffs([0.5], level=0)
        with pytest.raises(ParameterError, match="n_t key set"):
            boot.prepare_pbs(ct)
        with pytest.raises(ParameterError, match="n_t key set"):
            boot.run_pbs(ct, SIGN)
        uk = UserKeys.from_switching(ctx, boot.keys)

        async def main():
            svc = BootstrapService(lambda uid: uk)
            async with svc:
                with pytest.raises(ParameterError, match="n_t key set"):
                    await svc.submit_pbs("u", ct, SIGN)
                assert svc.cache.get("u").pins == 0
            return svc.trace

        trace = asyncio.run(main())
        assert trace.requests_accepted == trace.requests_failed == 0

    def test_refreshes_and_decrypts(self, stack):
        ctx, sk, ev, boot = stack
        z = np.random.default_rng(0).uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(z, level=0)
        out = boot.run(ct)
        assert out.level == ctx.max_level
        got = ev.decrypt(out, sk)
        # The extra LWE key switch adds noise; keep a looser bound than
        # the direct pipeline.
        assert np.allclose(got.real, z, atol=0.15), np.max(np.abs(got.real - z))

    def test_trace(self, stack):
        ctx, sk, ev, boot = stack
        trace = BootstrapTrace()
        boot.run(ev.encrypt(0.2, level=0), trace)
        assert trace.num_lwe == ctx.n
        assert trace.num_blind_rotates == ctx.n
        # Two full packs (kq + companion) at n - 1 keyswitches each, plus
        # one ring key switch.
        assert trace.repack_merge_keyswitches == 2 * (ctx.n - 1)
        assert trace.repack_trace_keyswitches == 0
        assert trace.repack_keyswitches == 2 * (ctx.n - 1) + 1

    def test_blind_rotate_iterations_shrink(self, stack):
        """Each BlindRotate now runs n_t (not N) iterations; measured via
        the LWE dimension of the switched ciphertexts."""
        ctx, sk, ev, boot = stack
        ct = ev.encrypt(0.1, level=0)
        assert len(boot.keys.lwe_ksk.rows) == ctx.n
        small = boot.prepare(ct).lwes
        assert len(small) == ctx.n
        assert all(lwe.dim == N_T for lwe in small)

    def test_rejects_non_level0(self, stack):
        ctx, sk, ev, boot = stack
        with pytest.raises(ParameterError):
            boot.run(ev.encrypt(0.1))

    def test_multiplication_after_refresh(self, stack):
        ctx, sk, ev, boot = stack
        z = np.random.default_rng(1).uniform(0.3, 0.8, ctx.slots)
        out = boot.run(ev.encrypt(z, level=0))
        prod = ev.mul_relin_rescale(
            out, ev.encrypt(z, level=out.level, scale=out.scale))
        got = ev.decrypt(prod, sk).real
        assert np.allclose(got, z * z, atol=0.3)
