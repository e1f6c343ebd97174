"""End-to-end tests for the scheme-switching bootstrap (Algorithm 2)."""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.errors import ParameterError
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.switching import (
    BootstrapTrace,
    BootstrapPipeline,
    SwitchingKeySet,
    expected_k_prime_std,
    make_schedule,
)

# Small ring so the N blind rotates run in seconds; 30-bit limbs give
# enough noise headroom for the full pipeline.
PARAMS = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                         special_limbs=2)


@pytest.fixture(scope="module")
def stack():
    ctx = CkksContext(PARAMS.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(7))
    sk = gen.secret_key()
    keys = gen.keyset(sk)
    ev = CkksEvaluator(ctx, keys, Sampler(8))
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(9), base_bits=4, error_std=0.8)
    boot = BootstrapPipeline(ctx, swk)
    return ctx, sk, ev, boot


class TestBootstrapCorrectness:
    def test_refreshes_level(self, stack):
        ctx, sk, ev, boot = stack
        z = np.random.default_rng(0).uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(z, level=0)
        refreshed = boot.run(ct)
        assert refreshed.level == ctx.max_level
        got = ev.decrypt(refreshed, sk)
        assert np.allclose(got.real, z, atol=0.05), np.max(np.abs(got.real - z))

    def test_complex_message(self, stack):
        ctx, sk, ev, boot = stack
        rng = np.random.default_rng(1)
        z = rng.uniform(-1, 1, ctx.slots) + 1j * rng.uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(z, level=0)
        got = ev.decrypt(boot.run(ct), sk)
        assert np.allclose(got, z, atol=0.05)

    def test_enables_further_multiplications(self, stack):
        """The whole point: levels restored, Mult works again."""
        ctx, sk, ev, boot = stack
        z = np.random.default_rng(2).uniform(0.2, 0.9, ctx.slots)
        ct = ev.encrypt(z, level=0)  # exhausted ciphertext
        refreshed = boot.run(ct)
        prod = ev.mul_relin_rescale(
            refreshed, ev.encrypt(z, level=refreshed.level, scale=refreshed.scale))
        got = ev.decrypt(prod, sk)
        assert np.allclose(got.real, z * z, atol=0.1)

    def test_scale_preserved(self, stack):
        ctx, sk, ev, boot = stack
        ct = ev.encrypt(0.5, level=0)
        assert boot.run(ct).scale == ct.scale

    def test_rejects_non_level0(self, stack):
        ctx, sk, ev, boot = stack
        ct = ev.encrypt(0.5)  # top level
        with pytest.raises(ParameterError):
            boot.run(ct)

    def test_trace_counters(self, stack):
        ctx, sk, ev, boot = stack
        trace = BootstrapTrace()
        boot.run(ev.encrypt(0.1, level=0), trace)
        assert trace.num_lwe == ctx.n
        assert trace.num_blind_rotates == ctx.n
        assert trace.modswitch_ops == 2 * ctx.n
        # Full pack: n - 1 merge-tree keyswitches, no trace levels.
        assert trace.repack_merge_keyswitches == ctx.n - 1
        assert trace.repack_trace_keyswitches == 0
        assert trace.repack_keyswitches == ctx.n - 1
        assert set(trace.step_seconds) == {"extract", "blind_rotate",
                                           "repack", "finish"}

    def test_bootstrap_twice(self, stack):
        """Bootstrap output, burn levels back to 0, bootstrap again."""
        ctx, sk, ev, boot = stack
        z = np.random.default_rng(3).uniform(-0.5, 0.5, ctx.slots)
        ct = ev.encrypt(z, level=0)
        refreshed = boot.run(ct)
        dropped = ev.drop_to_level(refreshed, 0)
        again = boot.run(dropped)
        got = ev.decrypt(again, sk)
        assert np.allclose(got.real, z, atol=0.08)


class TestKPrimeBound:
    def test_k_prime_std_prediction(self):
        """Empirical wrap count matches the random-walk model, and stays
        far below the N/2 aliasing bound."""
        rng = np.random.default_rng(4)
        n = 64
        q = (1 << 30) + 1
        trials = []
        for _ in range(200):
            s = rng.integers(-1, 2, n)
            c = rng.integers(0, q, n)
            inner = int(np.dot(c.astype(object), s.astype(object)))
            trials.append(inner // q)
        std = float(np.std(trials))
        predicted = expected_k_prime_std(n)
        assert 0.5 * predicted < std < 2.0 * predicted
        assert max(abs(t) for t in trials) < n // 2


class TestMultiNodeEquivalence:
    def test_partitioned_blind_rotates_match_single_node(self, stack):
        """Running the batch split over k simulated nodes gives bitwise
        the same accumulators as a single node — the basis of the paper's
        hardware-agnostic scaling claim."""
        from repro.switching.pipeline import extract_mod_2n
        from repro.tfhe.blind_rotate import blind_rotate_batch
        ctx, sk, ev, boot = stack
        n = ctx.n
        two_n = 2 * n
        ct = ev.encrypt(0.3, level=0)
        q = ct.basis.moduli[0]
        c0 = np.asarray(ct.c0.to_coeff().limbs[0], dtype=object)
        c1 = np.asarray(ct.c1.to_coeff().limbs[0], dtype=object)
        c0_ms = (two_n * c0 - (two_n * c0) % q) // q
        c1_ms = (two_n * c1 - (two_n * c1) % q) // q
        lwes = [extract_mod_2n(c1_ms, c0_ms, i, two_n) for i in range(n)]
        single = blind_rotate_batch(boot.test_vector, lwes, boot.keys.brk)
        schedule = make_schedule(n, 4)
        multi = []
        for part in schedule.slices(lwes):
            multi.extend(blind_rotate_batch(boot.test_vector, part, boot.keys.brk))
        for a, b in zip(single, multi):
            assert a.body.to_coeff().limbs[0].tolist() == b.body.to_coeff().limbs[0].tolist()


class TestScheduler:
    def test_even_split(self):
        s = make_schedule(4096, 8)
        assert s.max_per_node == 512
        assert sum(a.count for a in s.nodes) == 4096
        assert s.nodes[0].is_primary and not s.nodes[1].is_primary

    def test_uneven_split(self):
        s = make_schedule(10, 3)
        assert [a.count for a in s.nodes] == [4, 3, 3]
        assert [a.start for a in s.nodes] == [0, 4, 7]

    def test_single_node(self):
        s = make_schedule(100, 1)
        assert s.nodes[0].count == 100

    def test_invalid(self):
        with pytest.raises(ParameterError):
            make_schedule(0, 2)
        with pytest.raises(ParameterError):
            make_schedule(5, 0)

    def test_slices_roundtrip(self):
        s = make_schedule(7, 2)
        parts = s.slices(list(range(7)))
        assert [list(p) for p in parts] == [[0, 1, 2, 3], [4, 5, 6]]
