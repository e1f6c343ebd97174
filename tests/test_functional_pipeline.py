"""Programmable bootstrapping: the LUT path through the unified
pipeline, executors, and registry.

Byte-equality of every executor against the scalar-oracle composition
lives in ``tests/test_conformance.py``; this file covers what is
specific to LUTs — how each executor ships one, the registry cache, the
extract kernels — and Hypothesis checks the LUT bucket math on plain
integers.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.errors import ParameterError
from repro.math.modular import find_ntt_primes
from repro.math.sampling import Sampler
from repro.params import CkksParams
from repro.profiling import count_ops
from repro.switching import BootstrapPipeline, SwitchingKeySet
from repro.switching.cluster_sim import ClusterExecutor
from repro.switching.functional import (
    pbs_extract_reference,
    pbs_extract_vectorized,
    relu_fn,
    sign_fn,
)
from repro.switching.luts import (
    RELU,
    LutRegistry,
    LutSpec,
    functional_lut_g,
    quantized,
    threshold,
)
from repro.switching.mp_executor import ProcessPoolFanoutExecutor

from .oracle import assert_ct_equal


def make_lut_params(n=32):
    primes = find_ntt_primes(30, n, 5)
    return CkksParams(n=n, moduli=primes[:3], special_moduli=primes[3:5],
                      scale_bits=28)


PARAMS = make_lut_params()


@pytest.fixture(scope="module")
def stack():
    ctx = CkksContext(PARAMS, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(901))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(902))
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(903), base_bits=4,
                                   error_std=0.6)
    ct = ev.drop_to_level(ev.encrypt_coeffs([0.5, -0.9, 0.05, -0.3]), 0)
    return ctx, sk, ev, swk, ct


class TestDeForkedBitIdentity:
    """How each distributed executor gets a LUT to its workers (their
    byte-equality to the oracle is in ``test_conformance.py``)."""

    def test_cluster_ships_lut_once_per_node(self, stack):
        ctx, _, _, swk, ct = stack
        clus = ClusterExecutor.for_keys(ctx, swk, num_workers=3)
        pipe = BootstrapPipeline(ctx, swk, executor=clus)
        pipe.run_pbs(ct, sign_fn)
        after_first = clus.comm.link_bytes(0, 1)
        pipe.run_pbs(ct, sign_fn)
        # Second batch re-sends LWEs but NOT the LUT tensor.
        lut_id = pipe.resolve_lut(sign_fn, ct.scale)
        assert all(lut_id in node.luts for node in clus.nodes)
        assert clus.comm.link_bytes(0, 1) < 2 * after_first

    def test_pool_publishes_lut_into_shared_memory(self, stack):
        ctx, _, _, swk, ct = stack
        with ProcessPoolFanoutExecutor.for_keys(ctx, swk,
                                                num_workers=1) as pool:
            key_only = pool.shared_key_bytes
            pipe = BootstrapPipeline(ctx, swk, executor=pool)
            pipe.run_pbs(ct, sign_fn)
            assert pool.shared_key_bytes > key_only
            lut_id = pipe.resolve_lut(sign_fn, ct.scale)
            assert lut_id in pool._lut_blocks
            grew_to = pool.shared_key_bytes
            pipe.run_pbs(ct, sign_fn)  # same LUT: no second block
            assert pool.shared_key_bytes == grew_to


class TestEngineRouting:
    """The pipeline runs the batched engine (``test_conformance.py``
    checks that the oracle it is compared against does not)."""

    def test_vectorized_engine_runs_batched_products(self, stack):
        ctx, _, _, swk, ct = stack
        with count_ops() as stats:
            BootstrapPipeline(ctx, swk).run_pbs(ct, sign_fn)
        assert stats.ep_batch_hist and max(stats.ep_batch_hist) > 1


class TestLutCache:
    def test_second_evaluate_hits(self, stack):
        ctx, _, _, swk, ct = stack
        pipe = BootstrapPipeline(ctx, swk)

        evaluations = []

        def fresh_fn(x):
            evaluations.append(x)
            return 0.25 * x

        before = len(swk.luts.built_ids())
        pipe.run_pbs(ct, fresh_fn)
        built = swk.luts.built_ids()
        assert len(built) == before + 1
        one_build = len(evaluations)
        assert one_build > 0
        pipe.run_pbs(ct, fresh_fn)
        # Built once: no new tensor, and f was not sampled again.
        assert swk.luts.built_ids() == built
        assert len(evaluations) == one_build

    def test_registry_race_builds_once(self):
        basis = find_ntt_primes(30, 32, 3)
        from repro.math.rns import RnsBasis
        reg = LutRegistry(RnsBasis(basis))
        got = []
        evaluations = []
        barrier = threading.Barrier(8)

        def counted_sign(x):
            evaluations.append(x)
            return sign_fn(x)

        spec = LutSpec("counted-sign", counted_sign)
        LutRegistry(RnsBasis(basis)).resolve(spec, 32, basis[0], 2.0 ** 10)
        one_build = len(evaluations)

        def worker():
            barrier.wait()
            lut_id = reg.resolve(spec, 32, basis[0], 2.0 ** 10)
            got.append(reg.vector(lut_id))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 8
        assert all(g is got[0] for g in got)  # one shared built tensor
        assert len(reg.built_ids()) == 1
        # The build runs under the registry lock — exactly one of the
        # eight threads sampled f.
        assert len(evaluations) == 2 * one_build > 0

    def test_switching_vector_shared_across_keyset_methods(self, stack):
        ctx, _, _, swk, _ = stack
        q = ctx.full_basis.moduli[0]
        assert swk.test_vector(ctx.n, q) is swk.test_vector(ctx.n, q)
        assert swk.test_vector(ctx.n, q) is swk.luts.switching_vector(
            ctx.n, q)

    def test_name_alias_rejected(self):
        basis = find_ntt_primes(30, 32, 3)
        from repro.math.rns import RnsBasis
        reg = LutRegistry(RnsBasis(basis))
        reg.spec_for(LutSpec("mine", sign_fn))
        with pytest.raises(ParameterError):
            reg.spec_for(LutSpec("mine", relu_fn))

    def test_unknown_name_and_id_rejected(self):
        basis = find_ntt_primes(30, 32, 3)
        from repro.math.rns import RnsBasis
        reg = LutRegistry(RnsBasis(basis))
        with pytest.raises(ParameterError):
            reg.spec_for("no-such-lut")
        with pytest.raises(ParameterError):
            reg.vector("sign@n32:q7:d0x1.0p+0")

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            LutSpec("has@at", sign_fn)
        with pytest.raises(ParameterError):
            LutSpec("", sign_fn)
        with pytest.raises(ParameterError):
            quantized(RELU, bits=0)

    def test_workload_names_resolve(self, stack):
        ctx, _, _, swk, ct = stack
        pipe = BootstrapPipeline(ctx, swk)
        by_name = pipe.run_pbs(ct, "sign")
        by_fn = pipe.run_pbs(ct, sign_fn)
        assert_ct_equal(by_name, by_fn)

    def test_threshold_and_quantized_mint_stable_names(self):
        assert threshold(0.25).name == threshold(0.25).name
        assert threshold(0.25).name != threshold(0.5).name
        assert quantized(RELU, 4).name == quantized(RELU, 4).name
        assert quantized(RELU, 4).name != quantized(RELU, 3).name


class TestExtractKernels:
    """The vectorized gather+modswitch equals the big-int loop."""

    def _random_limbs(self, n, q, seed):
        rng = np.random.default_rng(seed)
        return (rng.integers(0, q, n, dtype=np.int64),
                rng.integers(0, q, n, dtype=np.int64))

    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_bit_identity(self, n):
        q = find_ntt_primes(30, n, 1)[0]
        c0, c1 = self._random_limbs(n, q, seed=n)
        ref = pbs_extract_reference(c0, c1, n, 2 * n, q)
        vec = pbs_extract_vectorized(c0, c1, n, 2 * n, q)
        for r, v in zip(ref, vec):
            assert r.b == v.b and r.q == v.q
            assert r.a.tolist() == v.a.tolist()

    def test_wide_q_guard(self):
        n = 8
        q = (1 << 62) - 57  # (q-1)*2N overflows uint64
        with pytest.raises(ParameterError):
            pbs_extract_vectorized(np.zeros(n, dtype=object),
                                   np.zeros(n, dtype=object), n, 2 * n, q)

    def test_dispatcher_falls_back_on_wide_q(self, stack, monkeypatch):
        """`pbs_extract` takes the reference path by itself when q
        exceeds the uint64 guard."""
        import repro.switching.functional as functional
        ctx, _, ev, _, ct = stack
        calls = []
        real = functional.pbs_extract_reference
        monkeypatch.setattr(functional, "pbs_extract_reference",
                            lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(functional, "_U64_MAX", 2 ** 20)
        functional.pbs_extract(ct)
        assert calls


# -- LUT bucket math properties (pure integers) -----------------------------------
#
# Fixed small parameters; coefficient ranges are chosen so that
# |round(f * Delta)| stays under Q/2 everywhere on the quantised domain
# (|x| <= N/2 * step = 4.0 here) — otherwise the centered-lift decode
# below would alias and the properties would test the wrong thing.

N_PROP = 32
Q_PROP = find_ntt_primes(28, N_PROP, 1)[0]
P_PROP = find_ntt_primes(29, N_PROP, 1)[0]
BIG_QP = Q_PROP * P_PROP
DELTA = float(1 << 24)
STEP = Q_PROP / (2 * N_PROP * DELTA)  # ~0.25 value units per bucket

lin_a = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
lin_b = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
# Cubic: |a*x + b*x^3| at the domain edge x ~ 4.0 must stay under
# Q/(2*Delta) ~ 8.0 -> a in (-1, 1), b in (-0.05, 0.05) caps it at 7.2.
cub_a = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
cub_b = st.floats(min_value=-0.05, max_value=0.05, allow_nan=False)


def centered(x: int) -> int:
    return x - BIG_QP if x > BIG_QP // 2 else x


def decode_bucket(g, t: int) -> int:
    """Invert the fold: bucket -> round(f * Delta) (an exact integer)."""
    val = centered((g(t % (2 * N_PROP)) * N_PROP) % BIG_QP)
    assert val % P_PROP == 0
    return val // P_PROP


class TestLutMathProperties:
    @given(a=lin_a, b=lin_b, t=st.integers(0, 2 * N_PROP - 1))
    @settings(max_examples=60, deadline=None)
    def test_negacyclic_for_any_function(self, a, b, t):
        """g(t) + g(t + N) = 0 (mod Qp) regardless of f — the ring
        forces anti-periodicity, the builder must honour it."""

        def fn(x):
            return a * x + b

        g = functional_lut_g(fn, N_PROP, Q_PROP, DELTA, P_PROP, BIG_QP)
        assert (g(t) + g(t + N_PROP)) % BIG_QP == 0

    @given(a=lin_a, b=lin_b,
           t_signed=st.integers(-(N_PROP // 2) + 1, N_PROP // 2 - 1))
    @settings(max_examples=60, deadline=None)
    def test_faithful_domain_is_exact(self, a, b, t_signed):
        """Inside |t| < N/2 the bucket holds exactly
        round(f(t_signed * step) * Delta)."""

        def fn(x):
            return a * x + b

        g = functional_lut_g(fn, N_PROP, Q_PROP, DELTA, P_PROP, BIG_QP)
        expected = int(round(fn(t_signed * STEP) * DELTA))
        assert decode_bucket(g, t_signed % (2 * N_PROP)) == expected

    @given(a=cub_a, b=cub_b)
    @settings(max_examples=60, deadline=None)
    def test_odd_function_edge_is_consistent(self, a, b):
        """For odd f the anti-periodic image at the domain edge t = N/2
        agrees with f itself: -value(-N/2) == value(N/2)."""

        def fn(x):
            return a * x + b * x ** 3

        g = functional_lut_g(fn, N_PROP, Q_PROP, DELTA, P_PROP, BIG_QP)
        expected = int(round(fn((N_PROP // 2) * STEP) * DELTA))
        assert decode_bucket(g, N_PROP // 2) == expected

    @given(c=st.floats(min_value=0.5, max_value=4.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_non_odd_function_edge_clamps(self, c):
        """For a constant (non-odd) f the edge bucket holds the
        anti-periodic image -round(c * Delta), not f — the documented
        clamp behaviour."""

        def fn(x):
            return c

        g = functional_lut_g(fn, N_PROP, Q_PROP, DELTA, P_PROP, BIG_QP)
        assert decode_bucket(g, N_PROP // 2) == -int(round(c * DELTA))

    @given(slope=st.floats(min_value=0.1, max_value=1.5, allow_nan=False),
           x=st.floats(min_value=-3.5, max_value=3.5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_quantisation_error_bound(self, slope, x):
        """For Lipschitz-L f, the value decoded from x's nearest bucket
        is within L*step/2 + 1/(2*Delta) of f(x)."""

        def fn(x_):
            return slope * x_

        g = functional_lut_g(fn, N_PROP, Q_PROP, DELTA, P_PROP, BIG_QP)
        t = int(round(x / STEP))
        decoded = decode_bucket(g, t % (2 * N_PROP)) / DELTA
        bound = slope * STEP / 2 + 1 / (2 * DELTA)
        assert abs(fn(x) - decoded) <= bound + 1e-12
