"""Tests for the op profiler and the functional-vs-model cross-check."""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.math.modular import find_ntt_primes
from repro.math.ntt import NttEngine
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.profiling import OpStats, count_ops, estimate_hardware_seconds
from repro.switching import BootstrapPipeline, SwitchingKeySet


class TestCounters:
    def test_single_ntt_counted(self):
        n = 32
        q = find_ntt_primes(24, n, 1)[0]
        eng = NttEngine(n, q)
        a = eng.mod.asarray(np.arange(n))
        with count_ops() as stats:
            eng.forward(a)
        assert stats.ntt_calls == 1
        assert stats.ntt_points == n
        assert stats.butterfly_mults == (n // 2) * 5  # log2(32) = 5

    def test_batched_ntt_counted_per_row(self):
        n = 16
        q = find_ntt_primes(24, n, 1)[0]
        eng = NttEngine(n, q)
        a = eng.mod.asarray(np.arange(3 * n).reshape(3, n) % q)
        with count_ops() as stats:
            eng.forward(a)
        assert stats.ntt_calls == 3

    def test_disabled_outside_context(self):
        n = 16
        q = find_ntt_primes(24, n, 1)[0]
        eng = NttEngine(n, q)
        a = eng.mod.asarray(np.arange(n))
        with count_ops() as stats:
            pass
        eng.forward(a)  # after the context: not recorded
        assert stats.ntt_calls == 0

    def test_nested_contexts_forward_to_parent(self):
        """A nested region's ops are forwarded to the enclosing region on
        exit, so the outer tally is the *inclusive* total (the inner
        region used to swallow them entirely)."""
        n = 16
        q = find_ntt_primes(24, n, 1)[0]
        eng = NttEngine(n, q)
        a = eng.mod.asarray(np.arange(n))
        with count_ops() as outer:
            with count_ops() as inner:
                eng.forward(a)
            eng.forward(a)
        assert inner.ntt_calls == 1
        assert outer.ntt_calls == 2
        assert outer.ntt_points == 2 * n

    def test_nested_contexts_merge_histograms(self):
        n = 16
        q = find_ntt_primes(24, n, 1)[0]
        eng = NttEngine(n, q)
        batch = eng.mod.asarray(np.arange(4 * n).reshape(4, n) % q)
        with count_ops() as outer:
            with count_ops() as inner:
                eng.forward(batch)
            eng.forward(batch[0])
        assert inner.ntt_batch_hist == {4: 1}
        assert outer.ntt_batch_hist == {4: 1, 1: 1}
        assert outer.by_size == {n: 5}

    def test_nested_region_exits_restore_collector(self):
        n = 16
        q = find_ntt_primes(24, n, 1)[0]
        eng = NttEngine(n, q)
        a = eng.mod.asarray(np.arange(n))
        with count_ops() as outer:
            with count_ops():
                pass
            eng.forward(a)  # recorded by the restored outer collector
        assert outer.ntt_calls == 1


class TestExternalProductCounters:
    def _blind_rotate_setup(self):
        from repro.math.gadget import GadgetVector
        from repro.math.rns import RnsBasis
        from repro.tfhe.blind_rotate import BlindRotateKey, build_test_vector
        from repro.tfhe.glwe import GlweSecretKey
        from repro.tfhe.lwe import LweSecretKey, lwe_encrypt

        n = 16
        q = find_ntt_primes(26, n, 1)[0]
        basis = RnsBasis([q])
        gadget = GadgetVector(q=q, base_bits=6, digits=3)
        s = Sampler(5)
        lwe_sk = LweSecretKey.generate(4, s)
        glwe_sk = GlweSecretKey.generate(n, 1, s)
        brk = BlindRotateKey.generate(lwe_sk, glwe_sk, basis, gadget, s)

        def g(t):
            t = t % (2 * n)
            return (q // 8) * (1 if t < n else -1) % q

        f = build_test_vector(g, n, basis)
        cts = [lwe_encrypt(i, lwe_sk, 2 * n, s, error_std=0.5) for i in range(3)]
        return f, cts, brk

    def test_scalar_path_records_batch_one(self):
        from repro.tfhe.blind_rotate import blind_rotate

        f, cts, brk = self._blind_rotate_setup()
        with count_ops() as stats:
            blind_rotate(f, cts[0], brk)
        assert stats.external_products > 0
        # The scalar oracle advances one accumulator at a time.
        assert set(stats.ep_batch_hist) == {1}
        assert stats.ep_batch_hist[1] == stats.external_products

    def test_vectorized_path_records_batch_sizes(self):
        from repro.tfhe.blind_rotate import blind_rotate_batch

        f, cts, brk = self._blind_rotate_setup()
        with count_ops() as stats:
            blind_rotate_batch(f, cts, brk)
        assert stats.external_products > 0
        # At least one fused iteration advanced the whole batch at once.
        assert max(stats.ep_batch_hist) > 1
        assert sum(b * c for b, c in stats.ep_batch_hist.items()) == stats.external_products

    def test_engines_record_equal_totals(self):
        from repro.tfhe.blind_rotate import (
            blind_rotate_batch,
            blind_rotate_batch_reference,
        )

        f, cts, brk = self._blind_rotate_setup()
        with count_ops() as vec_stats:
            blind_rotate_batch(f, cts, brk)
        with count_ops() as ref_stats:
            blind_rotate_batch_reference(f, cts, brk)
        # Same schedule, same skipped iterations -> same ciphertext-level
        # external-product count, just different batching.
        assert vec_stats.external_products == ref_stats.external_products

    def test_ntt_batch_histogram(self):
        n = 16
        q = find_ntt_primes(24, n, 1)[0]
        eng = NttEngine(n, q)
        a = eng.mod.asarray(np.arange(4 * n).reshape(4, n) % q)
        with count_ops() as stats:
            eng.forward(a)
            eng.forward(a[0])
        assert stats.ntt_batch_hist == {4: 1, 1: 1}


class TestFunctionalVsModel:
    def test_bootstrap_op_counts_measured(self):
        """Profile a real toy bootstrap and sanity-check the counts the
        performance model assumes: NTT work dominated by the blind-rotate
        external products (N rotations x digits x limbs)."""
        params = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                                 special_limbs=2)
        ctx = CkksContext(params.ckks, dnum=2)
        gen = CkksKeyGenerator(ctx, Sampler(901))
        sk = gen.secret_key()
        ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(902))
        swk = SwitchingKeySet.generate(ctx, sk, Sampler(903), base_bits=8,
                                       error_std=0.8)
        boot = BootstrapPipeline(ctx, swk)
        ct = ev.encrypt(0.3, level=0)
        with count_ops() as stats:
            boot.run(ct)
        # Lower bound: N blind rotates x N iterations x digit transforms,
        # over the 4-limb raised basis.
        digits = swk.gadget.digits
        min_ntts = ctx.n * ctx.n * digits  # very conservative
        assert stats.ntt_calls > min_ntts / 4
        assert stats.pointwise_mults > 0
        # The compute-bound hardware estimate for this toy run is far
        # below a millisecond — the array is built for N=2^13 rings.
        assert estimate_hardware_seconds(stats) < 1e-2

    def test_hardware_estimate_scales_with_work(self):
        a = OpStats(by_size={1 << 13: 100})
        b = OpStats(by_size={1 << 13: 200})
        assert estimate_hardware_seconds(b) == pytest.approx(
            2 * estimate_hardware_seconds(a))
