"""Tests for the negacyclic NTT engine against naive references."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.math.modular import find_ntt_primes
from repro.math.ntt import NttEngine, get_ntt_engine

from .oracle import naive_negacyclic_mul


@pytest.fixture(params=[8, 64, 256], ids=lambda n: f"N={n}")
def sized_engine(request):
    n = request.param
    q = find_ntt_primes(28, n, 1)[0]
    return NttEngine(n, q)


class TestRoundTrip:
    def test_forward_inverse_identity(self, sized_engine):
        rng = np.random.default_rng(2)
        a = rng.integers(0, sized_engine.q, sized_engine.n)
        a = sized_engine.mod.asarray(a)
        assert np.array_equal(sized_engine.inverse(sized_engine.forward(a)), a)

    def test_inverse_forward_identity(self, sized_engine):
        rng = np.random.default_rng(3)
        a = sized_engine.mod.asarray(rng.integers(0, sized_engine.q, sized_engine.n))
        assert np.array_equal(sized_engine.forward(sized_engine.inverse(a)), a)

    def test_batched_last_axis(self, sized_engine):
        rng = np.random.default_rng(4)
        a = sized_engine.mod.asarray(rng.integers(0, sized_engine.q, (3, sized_engine.n)))
        batched = sized_engine.forward(a)
        rows = np.stack([sized_engine.forward(a[i]) for i in range(3)])
        assert np.array_equal(batched, rows)

    def test_zero_is_fixed_point(self, sized_engine):
        z = sized_engine.mod.zeros(sized_engine.n)
        assert np.array_equal(sized_engine.forward(z), z)


class TestConvolution:
    def test_matches_schoolbook(self, sized_engine):
        rng = np.random.default_rng(5)
        n, q = sized_engine.n, sized_engine.q
        a = sized_engine.mod.asarray(rng.integers(0, q, n))
        b = sized_engine.mod.asarray(rng.integers(0, q, n))
        fast = sized_engine.negacyclic_mul(a, b)
        slow = naive_negacyclic_mul(a, b, q)
        assert [int(v) for v in fast] == [int(v) for v in slow]

    def test_x_to_n_equals_minus_one(self, sized_engine):
        """Multiplying X^(N-1) by X must give -1: the negacyclic identity."""
        n, q = sized_engine.n, sized_engine.q
        a = sized_engine.mod.zeros(n)
        a[n - 1] = 1
        b = sized_engine.mod.zeros(n)
        b[1] = 1
        out = sized_engine.negacyclic_mul(a, b)
        expected = sized_engine.mod.zeros(n)
        expected[0] = q - 1
        assert np.array_equal(out, expected)

    def test_multiplicative_identity(self, sized_engine):
        rng = np.random.default_rng(6)
        n, q = sized_engine.n, sized_engine.q
        a = sized_engine.mod.asarray(rng.integers(0, q, n))
        one = sized_engine.mod.zeros(n)
        one[0] = 1
        assert np.array_equal(sized_engine.negacyclic_mul(a, one), a)

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_convolution_property(self, seed):
        n = 16
        q = find_ntt_primes(24, n, 1)[0]
        eng = get_ntt_engine(n, q)
        rng = np.random.default_rng(seed)
        a = eng.mod.asarray(rng.integers(0, q, n))
        b = eng.mod.asarray(rng.integers(0, q, n))
        assert [int(v) for v in eng.negacyclic_mul(a, b)] == [
            int(v) for v in naive_negacyclic_mul(a, b, q)
        ]


class TestLinearity:
    def test_forward_is_linear(self, sized_engine):
        rng = np.random.default_rng(7)
        n, q = sized_engine.n, sized_engine.q
        a = sized_engine.mod.asarray(rng.integers(0, q, n))
        b = sized_engine.mod.asarray(rng.integers(0, q, n))
        lhs = sized_engine.forward(sized_engine.mod.add(a, b))
        rhs = sized_engine.mod.add(sized_engine.forward(a), sized_engine.forward(b))
        assert np.array_equal(lhs, rhs)


class TestWideModulus:
    def test_36bit_roundtrip(self):
        n = 32
        q = find_ntt_primes(36, n, 1)[0]
        eng = NttEngine(n, q)
        rng = np.random.default_rng(8)
        a = eng.mod.asarray(np.asarray([int(x) for x in rng.integers(0, 2**35, n)], dtype=object))
        assert np.array_equal(eng.inverse(eng.forward(a)), a)

    def test_36bit_convolution(self):
        n = 16
        q = find_ntt_primes(36, n, 1)[0]
        eng = NttEngine(n, q)
        rng = np.random.default_rng(9)
        a = eng.mod.asarray(np.asarray([int(x) for x in rng.integers(0, 2**35, n)], dtype=object))
        b = eng.mod.asarray(np.asarray([int(x) for x in rng.integers(0, 2**35, n)], dtype=object))
        assert [int(v) for v in eng.negacyclic_mul(a, b)] == [
            int(v) for v in naive_negacyclic_mul(a, b, q)
        ]


class TestStackedMultiLimb:
    """Regression for the batched blind-rotate engine: a 3-D stacked
    transform (e.g. ``(batch, h+1, N)`` accumulators) must be element-wise
    identical to transforming each row on its own."""

    def test_forward_3d_matches_per_row(self):
        n = 64
        q = find_ntt_primes(26, n, 1)[0]
        eng = NttEngine(n, q)
        rng = np.random.default_rng(20)
        a = eng.mod.asarray(rng.integers(0, q, (4, 3, n)))
        stacked = eng.forward(a)
        assert stacked.shape == a.shape
        for i in range(4):
            for j in range(3):
                assert np.array_equal(stacked[i, j], eng.forward(a[i, j]))

    def test_inverse_3d_matches_per_row(self):
        n = 32
        q = find_ntt_primes(26, n, 1)[0]
        eng = NttEngine(n, q)
        rng = np.random.default_rng(21)
        a = eng.mod.asarray(rng.integers(0, q, (2, 5, n)))
        stacked = eng.inverse(a)
        assert stacked.shape == a.shape
        for i in range(2):
            for j in range(5):
                assert np.array_equal(stacked[i, j], eng.inverse(a[i, j]))

    def test_4d_roundtrip(self):
        """The digit tensors are 4-D ``(batch, h+1, d, N)`` stacks."""
        n = 16
        q = find_ntt_primes(24, n, 1)[0]
        eng = get_ntt_engine(n, q)
        rng = np.random.default_rng(22)
        a = eng.mod.asarray(rng.integers(0, q, (3, 2, 2, n)))
        assert np.array_equal(eng.inverse(eng.forward(a)), a)


class TestEngineCache:
    def test_cache_returns_same_object(self):
        q = find_ntt_primes(24, 32, 1)[0]
        assert get_ntt_engine(32, q) is get_ntt_engine(32, q)

    def test_cold_key_race_converges_on_one_engine(self):
        """Regression for the unlocked get-or-create the HL101 rule
        flags: threads racing on a cold (n, q) must all receive the SAME
        engine.  Before the double-checked lock, each racer could build
        and publish its own instance — callers then held engines whose
        workspaces were invisible to each other."""
        import concurrent.futures
        import threading

        from repro.math import ntt as ntt_mod

        n = 128
        q = find_ntt_primes(25, n, 2)[1]  # unlikely to be cached already
        ntt_mod._ENGINE_CACHE.pop((n, (q,)), None)  # force the cold path
        workers = 8
        barrier = threading.Barrier(workers)

        def grab():
            barrier.wait(timeout=30)
            return get_ntt_engine(n, q)

        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            engines = [f.result(timeout=60)
                       for f in [pool.submit(grab) for _ in range(workers)]]
        assert all(e is engines[0] for e in engines)

