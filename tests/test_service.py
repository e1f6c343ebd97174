"""Tests for the coalescing bootstrap service: batch-composition
invariance (a request's result is byte-equal no matter which other
requests it was batched with, across executors), LRU key-cache
eviction order and byte accounting, backpressure, graceful drain, and
the shared ``run_batch`` loop's trace accounting."""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.errors import ParameterError, ServiceClosedError, ServiceOverloadError
from repro.math.gadget import GadgetVector
from repro.math.modular import find_ntt_primes
from repro.math.rns import RnsBasis
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.profiling import count_ops
from repro.service import (BootstrapService, KeyCacheEntry, LruKeyCache,
                           UserKeys, pool_executor_factory)
from repro.service.key_cache import rns_poly_bytes
from repro.switching import RELU, SIGN, SwitchingKeySet
from repro.switching.pipeline import (
    BootstrapPipeline,
    BootstrapTrace,
    LocalExecutor,
    run_batch,
)
from repro.tfhe.blind_rotate import BlindRotateKey, build_test_vector
from repro.tfhe.glwe import GlweSecretKey
from repro.tfhe.lwe import LweSecretKey, lwe_encrypt

from .oracle import assert_ct_equal, assert_glwe_equal

PARAMS = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                         special_limbs=2)

#: Toy LWE-serving shape: ring dimension of the accumulator / LUT.
N_RING = 64
#: LWE dimension of the toy blind-rotate key.
N_T = 8


class _KeyBox:
    """Minimal key-set stand-in: executors only need ``.brk``."""

    def __init__(self, brk):
        self.brk = brk


@pytest.fixture(scope="module")
def lwe_stack():
    q = find_ntt_primes(28, N_RING, 1)[0]
    basis = RnsBasis([q])
    gadget = GadgetVector(q=q, base_bits=14, digits=2)
    s = Sampler(1234)
    lwe_sk = LweSecretKey.generate(N_T, s)
    glwe_sk = GlweSecretKey.generate(N_RING, 1, s)
    brk = BlindRotateKey.generate(lwe_sk, glwe_sk, basis, gadget, s)

    def g(t):
        t = t % (2 * N_RING)
        return (q // 8) * (1 if t < N_RING else -1) % q

    tv = build_test_vector(g, N_RING, basis)
    return basis, q, lwe_sk, brk, tv


@pytest.fixture(scope="module")
def ckks_stack():
    ctx = CkksContext(PARAMS.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(501))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(502))
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(503), base_bits=4,
                                   error_std=0.8)
    return ctx, sk, ev, swk


def make_lwes(lwe_stack, count, seed=42):
    _, _, lwe_sk, _, _ = lwe_stack
    s = Sampler(seed)
    return [lwe_encrypt(i * 5, lwe_sk, 2 * N_RING, s, error_std=0.5)
            for i in range(count)]


def solo_results(lwe_stack, lwes):
    """Reference: each request dispatched alone (batch of one)."""
    _, _, _, brk, tv = lwe_stack
    ex = LocalExecutor(_KeyBox(brk), tv)
    return [ex.fanout([lw], BootstrapTrace())[0] for lw in lwes]


def serve_all(lwe_stack, lwes, user_ids, **svc_kwargs):
    """Run every request through one service instance; returns results
    in submission order plus the service trace."""
    _, _, _, brk, tv = lwe_stack
    uk = UserKeys(_KeyBox(brk), tv)

    async def main():
        svc = BootstrapService(lambda uid: uk, **svc_kwargs)
        async with svc:
            results = await asyncio.gather(
                *[svc.submit(uid, lw) for uid, lw in zip(user_ids, lwes)])
        return results, svc.trace

    return asyncio.run(main())


class TestBatchCompositionInvariance:
    """The correctness gate: coalescing must be invisible in the bytes."""

    @pytest.mark.parametrize("max_batch", [1, 3, 8, 32])
    def test_any_batch_size_matches_solo(self, lwe_stack, max_batch):
        lwes = make_lwes(lwe_stack, 10)
        reference = solo_results(lwe_stack, lwes)
        got, trace = serve_all(lwe_stack, lwes, ["u"] * len(lwes),
                               max_batch=max_batch, max_delay_s=0.005)
        for ref, out in zip(reference, got):
            assert_glwe_equal(ref, out)
        assert trace.requests_completed == len(lwes)
        assert max(trace.batch_fill) <= max_batch

    def test_multi_user_shared_keys_coalesce_and_match(self, lwe_stack):
        """Users sharing one key set coalesce into common batches; each
        still gets exactly the solo-dispatch bytes."""
        lwes = make_lwes(lwe_stack, 9)
        users = [f"user-{i % 3}" for i in range(9)]
        reference = solo_results(lwe_stack, lwes)
        got, trace = serve_all(lwe_stack, lwes, users,
                               max_batch=8, max_delay_s=0.01)
        for ref, out in zip(reference, got):
            assert_glwe_equal(ref, out)
        # 3 user ids, one UserKeys object: one entry, cross-user batches.
        assert trace.key_cache_misses == 3
        assert trace.key_cache_hits == 6
        assert trace.mean_batch_fill > 1.0

    def test_wrong_dimension_lwe_fails_alone(self, lwe_stack, ckks_stack):
        """A raw LWE of the wrong dimension or modulus is refused at
        submit — before it is queued or pinned — so it cannot fail the
        requests it would have been batched with; the dimension is read
        off the key set without expanding it."""
        _, _, lwe_sk, brk, tv = lwe_stack
        good = make_lwes(lwe_stack, 2)
        s = Sampler(99)
        wrong_dim = lwe_encrypt(5, LweSecretKey.generate(N_T + 1, s),
                                2 * N_RING, s, error_std=0.5)
        wrong_q = lwe_encrypt(5, lwe_sk, 4 * N_RING, s, error_std=0.5)
        reference = solo_results(lwe_stack, good)
        uk = UserKeys(_KeyBox(brk), tv)
        ctx, _, _, swk = ckks_stack
        at_rest = SwitchingKeySet.from_material(swk.compress())
        uk_at_rest = UserKeys.from_switching(ctx, at_rest)

        async def main():
            svc = BootstrapService(
                lambda uid: uk_at_rest if uid == "at-rest" else uk,
                max_batch=8, max_delay_s=0.05)
            async with svc:
                results = await asyncio.gather(
                    svc.submit("u", good[0]), svc.submit("u", wrong_dim),
                    svc.submit("u", good[1]), svc.submit("u", wrong_q),
                    svc.submit("at-rest", wrong_dim),
                    return_exceptions=True)
                pins = [svc.cache.get(u).pins for u in ("u", "at-rest")]
            return results, pins, svc.trace

        (out0, bad0, out1, bad1, bad2), pins, trace = asyncio.run(main())
        assert_glwe_equal(reference[0], out0)
        assert_glwe_equal(reference[1], out1)
        for exc in (bad0, bad1, bad2):
            assert isinstance(exc, ParameterError) and "dimension" in str(exc)
        assert pins == [0, 0]
        assert at_rest.expansions == 0
        assert trace.requests_failed == 0
        assert (trace.requests_accepted, trace.requests_completed) == (2, 2)
        assert trace.batch_fill == {2: 1}

    def test_process_pool_executor_matches_solo(self, lwe_stack):
        lwes = make_lwes(lwe_stack, 6)
        reference = solo_results(lwe_stack, lwes)
        got, trace = serve_all(lwe_stack, lwes, ["u"] * len(lwes),
                               max_batch=6, max_delay_s=0.02,
                               executor_factory=pool_executor_factory(
                                   num_workers=2))
        for ref, out in zip(reference, got):
            assert_glwe_equal(ref, out)
        assert trace.drained  # drain also closed the pool

    def test_concurrent_tenants_share_ntt_engine_safely(self, lwe_stack):
        """NTT engines are cached process-wide per (n, q), but the service
        runs concurrent per-tenant batches on worker threads — the engine
        workspaces must be thread-local (regression: a shared butterfly
        buffer raced across tenants and corrupted transforms)."""
        import concurrent.futures

        basis, q, lwe_sk, brk, tv = lwe_stack
        gadget = GadgetVector(q=q, base_bits=14, digits=2)
        s2 = Sampler(999)
        brk2 = BlindRotateKey.generate(LweSecretKey.generate(N_T, s2),
                                       GlweSecretKey.generate(N_RING, 1, s2),
                                       basis, gadget, s2)
        lwes = make_lwes(lwe_stack, 4)
        ex_a = LocalExecutor(_KeyBox(brk), tv)
        ex_b = LocalExecutor(_KeyBox(brk2), tv)
        want_a = ex_a.fanout(lwes, BootstrapTrace())
        want_b = ex_b.fanout(lwes, BootstrapTrace())

        def hammer(ex):
            return [ex.fanout(lwes, BootstrapTrace()) for _ in range(8)]

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            runs_a = pool.submit(hammer, ex_a)
            runs_b = pool.submit(hammer, ex_b)
            for run in runs_a.result():
                for ref, out in zip(want_a, run):
                    assert_glwe_equal(ref, out)
            for run in runs_b.result():
                for ref, out in zip(want_b, run):
                    assert_glwe_equal(ref, out)

    def test_two_services_concurrent_through_shared_engine_cache(
            self, lwe_stack):
        """Two full BootstrapService instances — separate event loops on
        separate threads, distinct tenant keys — hammer the SAME
        process-wide NTT/monomial/plan caches concurrently.  Every result
        must stay bit-identical to a solo run: if the double-checked
        locks on those caches (or the thread-local engine workspaces from
        the PR-7 fix) regress, this goes red."""
        import concurrent.futures
        import threading

        basis, q, lwe_sk, brk, tv = lwe_stack
        gadget = GadgetVector(q=q, base_bits=14, digits=2)
        s2 = Sampler(4242)
        brk2 = BlindRotateKey.generate(LweSecretKey.generate(N_T, s2),
                                       GlweSecretKey.generate(N_RING, 1, s2),
                                       basis, gadget, s2)
        lwes = make_lwes(lwe_stack, 6)
        references = {}
        for name, key in (("a", brk), ("b", brk2)):
            ex = LocalExecutor(_KeyBox(key), tv)
            references[name] = [ex.fanout([lw], BootstrapTrace())[0]
                                for lw in lwes]

        barrier = threading.Barrier(2)

        def serve(key, rounds=3):
            uk = UserKeys(_KeyBox(key), tv)

            async def main():
                svc = BootstrapService(lambda uid: uk, max_batch=4,
                                       max_delay_s=0.002)
                out = []
                async with svc:
                    for _ in range(rounds):
                        out.append(await asyncio.gather(
                            *[svc.submit("tenant", lw) for lw in lwes]))
                return out

            barrier.wait(timeout=60)
            return asyncio.run(main())

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            futures = {"a": pool.submit(serve, brk),
                       "b": pool.submit(serve, brk2)}
            for name, fut in futures.items():
                for round_results in fut.result(timeout=300):
                    for ref, out in zip(references[name], round_results):
                        assert_glwe_equal(ref, out)

    @settings(max_examples=8, deadline=None)
    @given(max_batch=st.integers(min_value=1, max_value=7),
           count=st.integers(min_value=1, max_value=7),
           users=st.integers(min_value=1, max_value=3))
    def test_property_composition_invariance(self, lwe_stack, max_batch,
                                             count, users):
        """Property form: any request count, batch bound, and user
        spread produces byte-identical per-request results."""
        lwes = make_lwes(lwe_stack, count)
        reference = solo_results(lwe_stack, lwes)
        got, _ = serve_all(lwe_stack, lwes,
                           [f"u{i % users}" for i in range(count)],
                           max_batch=max_batch, max_delay_s=0.002)
        for ref, out in zip(reference, got):
            assert_glwe_equal(ref, out)


class TestCiphertextRequests:
    def test_ciphertext_request_matches_pipeline(self, ckks_stack):
        ctx, _, ev, swk = ckks_stack
        z = np.random.default_rng(7).uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(z, level=0)
        reference = BootstrapPipeline(ctx, swk).run(ct)
        uk = UserKeys.from_switching(ctx, swk)

        async def main():
            async with BootstrapService(lambda uid: uk, max_batch=ctx.n,
                                        max_delay_s=0.005) as svc:
                return await svc.submit_ciphertext("tenant", ct)

        assert_ct_equal(reference, asyncio.run(main()))

    def test_cobatched_ciphertexts_match_solo_runs(self, ckks_stack):
        """Two users' Algorithm-2 bootstraps share ONE fan-out call and
        still equal their solo pipeline runs byte for byte."""
        ctx, _, ev, swk = ckks_stack
        rng = np.random.default_rng(11)
        cts = [ev.encrypt(rng.uniform(-1, 1, ctx.slots), level=0)
               for _ in range(2)]
        pipe = BootstrapPipeline(ctx, swk)
        reference = [pipe.run(ct) for ct in cts]
        uk = UserKeys.from_switching(ctx, swk)

        async def main():
            svc = BootstrapService(lambda uid: uk, max_batch=2 * ctx.n,
                                   max_delay_s=0.05)
            async with svc:
                results = await asyncio.gather(
                    svc.submit_ciphertext("alice", cts[0]),
                    svc.submit_ciphertext("bob", cts[1]))
            return results, svc.trace

        got, trace = asyncio.run(main())
        for ref, out in zip(reference, got):
            assert_ct_equal(ref, out)
        # Both rode one coalesced batch of 2N blind rotates.
        assert trace.batch_fill == {2 * ctx.n: 1}

    def test_wrong_level_request_fails_alone(self, ckks_stack):
        """A request the pipeline cannot serve is refused at submit —
        before it is queued or pinned — so it cannot fail the requests
        it would have been batched with."""
        ctx, _, ev, swk = ckks_stack
        z = np.random.default_rng(13).uniform(-1, 1, ctx.slots)
        good, bad = ev.encrypt(z, level=0), ev.encrypt(z)
        reference = BootstrapPipeline(ctx, swk).run(good)
        uk = UserKeys.from_switching(ctx, swk)

        async def main():
            svc = BootstrapService(lambda uid: uk, max_batch=2 * ctx.n,
                                   max_delay_s=0.05)
            async with svc:
                results = await asyncio.gather(
                    svc.submit_ciphertext("alice", good),
                    svc.submit_ciphertext("bob", bad),
                    svc.submit_pbs("carol", bad, SIGN),
                    return_exceptions=True)
                pins = svc.cache.get("alice").pins
            return results, pins, svc.trace

        (out, *refused), pins, trace = asyncio.run(main())
        assert_ct_equal(reference, out)
        for exc in refused:
            assert isinstance(exc, ParameterError) and "level-0" in str(exc)
        assert pins == 0
        assert trace.requests_failed == 0
        assert (trace.requests_accepted, trace.requests_completed) == (1, 1)

    @pytest.mark.parametrize("n, limb_bits", [(8, 30), (32, 30), (16, 28)],
                             ids=["ring8", "ring32", "limbs28"])
    def test_foreign_context_request_fails_alone(self, ckks_stack, n,
                                                 limb_bits):
        """A level-0 ciphertext of another ring size or base modulus is
        refused at submit; the valid request it would have ridden with
        stays byte-equal to its solo run."""
        ctx, _, ev, swk = ckks_stack
        good = ev.encrypt(np.random.default_rng(17).uniform(-1, 1, ctx.slots),
                          level=0)
        reference = BootstrapPipeline(ctx, swk).run(good)
        other = CkksContext(make_toy_params(n=n, limbs=3, limb_bits=limb_bits,
                                            scale_bits=23,
                                            special_limbs=2).ckks, dnum=2)
        other_gen = CkksKeyGenerator(other, Sampler(71))
        bad = CkksEvaluator(other, other_gen.keyset(other_gen.secret_key()),
                            Sampler(72)).encrypt(np.zeros(other.slots),
                                                 level=0)
        uk = UserKeys.from_switching(ctx, swk)

        async def main():
            svc = BootstrapService(lambda uid: uk, max_batch=4 * ctx.n,
                                   max_delay_s=0.05)
            async with svc:
                results = await asyncio.gather(
                    svc.submit_ciphertext("alice", good),
                    svc.submit_ciphertext("bob", bad),
                    return_exceptions=True)
            return results, svc.trace

        (out, refused), trace = asyncio.run(main())
        assert isinstance(refused, ParameterError), refused
        assert "ring size" in str(refused)
        assert_ct_equal(reference, out)
        assert trace.requests_failed == 0
        assert (trace.requests_accepted, trace.requests_completed) == (1, 1)

    def test_ciphertext_requires_ctx(self, lwe_stack):
        _, _, _, brk, tv = lwe_stack
        uk = UserKeys(_KeyBox(brk), tv)  # no ctx

        async def main():
            async with BootstrapService(lambda uid: uk) as svc:
                with pytest.raises(ParameterError, match="ctx"):
                    await svc.submit_ciphertext("u", object())

        asyncio.run(main())


class _FakeExecutor:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def _fake_cache(capacity_bytes, nbytes=100):
    """A cache over synthetic UserKeys with fixed per-entry bytes."""
    boxes = {}

    def provider(uid):
        if uid not in boxes:
            uk = UserKeys.__new__(UserKeys)
            uk.keys = None
            uk.test_vector = None
            uk.ctx = None
            boxes[uid] = uk
        return boxes[uid]

    def factory(uk):
        return KeyCacheEntry(uk, _FakeExecutor(), None, nbytes)

    return LruKeyCache(provider, factory, capacity_bytes)


class TestLruKeyCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = _fake_cache(capacity_bytes=300, nbytes=100)
        for uid in "abc":
            cache.get(uid)
        cache.get("a")  # refresh a: LRU order is now b, c, a
        cache.get("d")  # evicts b
        assert cache.resident_users() == {"a", "c", "d"}
        assert cache.evictions == 1
        cache.get("e")  # evicts c
        assert cache.resident_users() == {"a", "d", "e"}

    def test_byte_accounting_and_peak(self):
        cache = _fake_cache(capacity_bytes=250, nbytes=100)
        a = cache.get("a")
        cache.get("b")
        assert cache.resident_bytes() == 200
        cache.get("c")  # 300 > 250: evict a
        assert cache.resident_bytes() == 200
        assert cache.peak_resident_bytes == 300
        assert a.executor.closed

    def test_pinned_entry_survives_eviction_pressure(self):
        cache = _fake_cache(capacity_bytes=150, nbytes=100)
        a = cache.get("a")
        a.pin()
        b = cache.get("b")  # over capacity but a is pinned: b is newest
        assert cache.resident_users() == {"a", "b"}
        c = cache.get("c")  # evicts b (unpinned), keeps pinned a
        assert cache.resident_users() == {"a", "c"}
        assert b.executor.closed and not a.executor.closed
        assert c is cache.get("c")
        a.unpin()
        cache.get("d")  # now a is evictable
        assert "a" not in cache.resident_users()
        assert a.executor.closed

    def test_evicted_while_pinned_closes_on_last_unpin(self):
        cache = _fake_cache(capacity_bytes=100, nbytes=100)
        a = cache.get("a")
        a.pin()
        a.pin()
        cache._evict(next(iter(cache._entries)))
        assert a.defunct and not a.executor.closed
        a.unpin()
        assert not a.executor.closed
        a.unpin()
        assert a.executor.closed

    def test_shared_keys_alias_one_entry(self):
        cache = _fake_cache(capacity_bytes=None, nbytes=100)
        shared = cache._provider("tenant")
        cache._provider = lambda uid: shared  # every user, same keys
        e1, e2 = cache.get("u1"), cache.get("u2")
        assert e1 is e2
        assert len(cache) == 1
        assert cache.resident_bytes() == 100
        assert cache.resident_users() == {"u1", "u2"}
        cache._evict(next(iter(cache._entries)))
        assert cache.resident_users() == set()

    def test_close_releases_everything(self):
        cache = _fake_cache(capacity_bytes=None)
        entries = [cache.get(u) for u in "abc"]
        cache.close()
        assert len(cache) == 0
        assert all(e.executor.closed for e in entries)

    def test_real_keyset_accounting_matches_resident_bytes(self, ckks_stack):
        ctx, _, _, swk = ckks_stack
        uk = UserKeys.from_switching(ctx, swk)
        assert uk.resident_bytes() == (swk.resident_bytes()
                                       + rns_poly_bytes(uk.test_vector))
        assert uk.resident_bytes() > 0


class TestBackpressureAndLifecycle:
    def test_overload_raises_typed_error(self, lwe_stack):
        _, _, _, brk, tv = lwe_stack
        uk = UserKeys(_KeyBox(brk), tv)
        lwes = make_lwes(lwe_stack, 3)

        async def main():
            # Huge delay + huge batch: requests sit queued until drain.
            svc = BootstrapService(lambda uid: uk, max_batch=64,
                                   max_delay_s=30.0, max_queue=2)
            await svc.start()
            tasks = [asyncio.ensure_future(svc.submit("u", lw))
                     for lw in lwes[:2]]
            await asyncio.sleep(0.01)
            with pytest.raises(ServiceOverloadError) as info:
                await svc.submit("u", lwes[2])
            assert info.value.retry_after > 0
            await svc.stop()  # drain waives the deadline
            results = await asyncio.gather(*tasks)
            return results, svc.trace

        results, trace = asyncio.run(main())
        reference = solo_results(lwe_stack, lwes[:2])
        for ref, out in zip(reference, results):
            assert_glwe_equal(ref, out)
        assert trace.requests_rejected == 1
        assert trace.requests_completed == 2
        assert trace.drained

    def test_submit_outside_lifecycle_raises(self, lwe_stack):
        _, _, _, brk, tv = lwe_stack
        uk = UserKeys(_KeyBox(brk), tv)
        (lwe,) = make_lwes(lwe_stack, 1)

        async def main():
            svc = BootstrapService(lambda uid: uk)
            with pytest.raises(ServiceClosedError):
                await svc.submit("u", lwe)  # not started
            await svc.start()
            await svc.stop()
            await svc.stop()  # idempotent
            with pytest.raises(ServiceClosedError):
                await svc.submit("u", lwe)  # stopped
            with pytest.raises(ServiceClosedError):
                await svc.start()  # cannot restart a stopped service

        asyncio.run(main())

    def test_bad_parameters_rejected(self, lwe_stack):
        _, _, _, brk, tv = lwe_stack
        uk = UserKeys(_KeyBox(brk), tv)
        with pytest.raises(ParameterError):
            BootstrapService(lambda uid: uk, max_batch=0)
        with pytest.raises(ParameterError):
            BootstrapService(lambda uid: uk, max_queue=0)
        with pytest.raises(ParameterError):
            BootstrapService(lambda uid: uk, max_delay_s=-1.0)

    def test_service_activity_lands_in_opstats(self, lwe_stack):
        """The service's own facts are on its trace and its key cache;
        what lands in a caller's ``count_ops`` region is the arithmetic
        its worker threads executed."""
        _, _, _, brk, tv = lwe_stack
        uk = UserKeys(_KeyBox(brk), tv)
        lwes = make_lwes(lwe_stack, 6)

        async def main():
            svc = BootstrapService(lambda uid: uk, max_batch=3,
                                   max_delay_s=0.005)
            async with svc:
                await asyncio.gather(*[svc.submit("u", lw) for lw in lwes])
            return svc

        with count_ops() as stats:
            svc = asyncio.run(main())
        trace = svc.trace
        assert trace.requests_accepted == trace.requests_completed == 6
        assert trace.coalesced_lwes == 6
        assert sum(trace.batch_fill.values()) == trace.batches
        assert (svc.cache.hits, svc.cache.misses) == (5, 1)
        assert (trace.key_cache_hits, trace.key_cache_misses) == (5, 1)
        with count_ops() as solo:
            solo_results(lwe_stack, lwes)
        assert stats.external_products == solo.external_products > 0

    def test_cancelled_requests_free_their_slots(self, lwe_stack):
        """A request cancelled while queued leaves the queue, the batch
        and the completed tally; the survivor is unaffected."""
        _, _, _, brk, tv = lwe_stack
        uk = UserKeys(_KeyBox(brk), tv)
        lwes = make_lwes(lwe_stack, 4)

        async def main():
            svc = BootstrapService(lambda uid: uk, max_batch=8,
                                   max_delay_s=0.2)
            await svc.start()
            tasks = [asyncio.ensure_future(svc.submit("u", lw))
                     for lw in lwes]
            await asyncio.sleep(0.01)  # all four queued, window open
            assert svc.queue_depth() == 4
            for task in tasks[1:]:
                task.cancel()
            await asyncio.sleep(0.01)
            depth = svc.queue_depth()
            survivor = await tasks[0]
            pins = svc.cache.get("u").pins
            await svc.stop()
            return svc.trace, depth, pins, survivor

        trace, depth, pins, survivor = asyncio.run(main())
        assert (depth, pins) == (1, 0)
        assert trace.batch_fill == {1: 1}
        assert trace.coalesced_lwes == 1
        assert trace.requests_completed == 1
        assert trace.requests_cancelled == 3
        assert trace.requests_accepted == (
            trace.requests_completed + trace.requests_failed
            + trace.requests_cancelled)
        assert_glwe_equal(solo_results(lwe_stack, lwes[:1])[0], survivor)

    def test_all_cancelled_dispatches_nothing(self, lwe_stack):
        _, _, _, brk, tv = lwe_stack
        uk = UserKeys(_KeyBox(brk), tv)
        lwes = make_lwes(lwe_stack, 3)

        async def main():
            svc = BootstrapService(lambda uid: uk, max_batch=8,
                                   max_delay_s=0.05)
            await svc.start()
            tasks = [asyncio.ensure_future(svc.submit("u", lw))
                     for lw in lwes]
            await asyncio.sleep(0.01)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await asyncio.sleep(0.1)  # past the coalescing deadline
            await asyncio.wait_for(svc.stop(), timeout=5.0)
            return svc.trace, svc.queue_depth()

        trace, depth = asyncio.run(main())
        assert depth == 0
        assert trace.batches == 0
        assert trace.requests_completed == 0
        assert trace.requests_cancelled == trace.requests_accepted == 3
        assert trace.drained


class TestRunMany:
    """``run_batch`` is the one compose -> fanout -> slice-back loop;
    the service dispatches through it."""

    def test_run_many_matches_individual_runs(self, ckks_stack):
        """A raw LWE and a ciphertext coalesced into ONE fan-out equal
        their solo runs byte for byte, and the shared trace holds the
        sums of the solo runs' counters."""
        ctx, _, ev, swk = ckks_stack
        ct = ev.encrypt(np.random.default_rng(23).uniform(-1, 1, ctx.slots),
                        level=0)
        pipe = BootstrapPipeline(ctx, swk)
        lwe = pipe.prepare(ct).lwes[3]
        solo_lwe, solo_ct, both = (BootstrapTrace() for _ in range(3))
        (ref_acc,) = run_batch(pipe.executor, [lwe], solo_lwe)
        ref_ct = pipe.run(ct, solo_ct)
        acc, out = run_batch(pipe.executor, [lwe, pipe.prepare(ct)], both,
                             pipeline=pipe)
        assert_glwe_equal(ref_acc, acc)
        assert_ct_equal(ref_ct, out)
        for name in ("num_lwe", "num_blind_rotates", "modswitch_ops",
                     "repack_keyswitches"):
            assert getattr(both, name) == \
                getattr(solo_lwe, name) + getattr(solo_ct, name)
        assert (both.num_lwe, both.modswitch_ops) == (ctx.n + 1, 2 * ctx.n)

    def test_service_batch_fills_its_trace(self, ckks_stack):
        """A coalesced raw-LWE + Algorithm-2 batch reaches the executor
        through ``run_batch``: the per-batch trace it is handed ends up
        with the whole batch's counts."""
        ctx, _, ev, swk = ckks_stack
        ct = ev.encrypt(0.3, level=0)
        lwe = BootstrapPipeline(ctx, swk).prepare(ct).lwes[0]
        traces = []

        class SpyExecutor(LocalExecutor):
            def fanout(self, lwes, trace, lut=None):
                traces.append(trace)
                return super().fanout(lwes, trace, lut=lut)

        uk = UserKeys.from_switching(ctx, swk)

        async def main():
            async with BootstrapService(
                    lambda uid: uk, max_batch=4 * ctx.n, max_delay_s=0.05,
                    executor_factory=lambda k: SpyExecutor(
                        k.keys, k.test_vector)) as svc:
                await asyncio.gather(svc.submit("a", lwe),
                                     svc.submit_ciphertext("b", ct))

        asyncio.run(main())
        (trace,) = traces
        assert trace.num_lwe == trace.num_blind_rotates == ctx.n + 1
        assert trace.modswitch_ops == 2 * ctx.n
        assert set(trace.step_seconds) == {"extract", "blind_rotate",
                                           "repack", "finish"}


class TestProgrammableBootstrapRequests:
    """submit_pbs routes through the same coalescing loop as Algorithm-2
    traffic, but batches are keyed by (LUT, scale) — one fan-out tensor
    carries exactly one test vector."""

    def _encrypt(self, ckks_stack, values, seed):
        ctx, _, ev, _ = ckks_stack
        vals = np.zeros(ctx.n // 2)
        vals[:len(values)] = values
        return ev.drop_to_level(ev.encrypt_coeffs(vals), 0)

    def test_pbs_request_matches_pipeline(self, ckks_stack):
        ctx, _, ev, swk = ckks_stack
        ct = self._encrypt(ckks_stack, [0.5, -0.9, 0.05], 3)
        reference = BootstrapPipeline(ctx, swk).run_pbs(ct, SIGN)
        uk = UserKeys.from_switching(ctx, swk)

        async def main():
            svc = BootstrapService(lambda uid: uk, max_batch=ctx.n,
                                   max_delay_s=0.005)
            async with svc:
                out = await svc.submit_pbs("tenant", ct, SIGN)
            return out, svc.trace

        got, trace = asyncio.run(main())
        assert_ct_equal(reference, got)
        assert trace.pbs_requests == 1

    def test_same_lut_requests_coalesce(self, ckks_stack):
        """Two users' sign() bootstraps share ONE fan-out batch and still
        equal their solo pipeline runs byte for byte."""
        ctx, _, ev, swk = ckks_stack
        cts = [self._encrypt(ckks_stack, [0.4, -0.6], 5),
               self._encrypt(ckks_stack, [-0.2, 0.8], 6)]
        pipe = BootstrapPipeline(ctx, swk)
        reference = [pipe.run_pbs(ct, SIGN) for ct in cts]
        uk = UserKeys.from_switching(ctx, swk)

        async def main():
            svc = BootstrapService(lambda uid: uk, max_batch=2 * ctx.n,
                                   max_delay_s=0.05)
            async with svc:
                results = await asyncio.gather(
                    svc.submit_pbs("alice", cts[0], SIGN),
                    svc.submit_pbs("bob", cts[1], SIGN))
            return results, svc.trace

        got, trace = asyncio.run(main())
        for ref, out in zip(reference, got):
            assert_ct_equal(ref, out)
        assert trace.batch_fill == {2 * ctx.n: 1}
        assert trace.pbs_requests == 2

    def test_different_luts_never_share_a_batch(self, ckks_stack):
        """sign and relu requests arrive together but dispatch as two
        separate fan-out batches — a tensor carries one test vector."""
        ctx, _, ev, swk = ckks_stack
        cts = [self._encrypt(ckks_stack, [0.4, -0.6], 7),
               self._encrypt(ckks_stack, [0.3, -0.7], 8)]
        pipe = BootstrapPipeline(ctx, swk)
        ref_sign = pipe.run_pbs(cts[0], SIGN)
        ref_relu = pipe.run_pbs(cts[1], RELU)
        uk = UserKeys.from_switching(ctx, swk)

        async def main():
            svc = BootstrapService(lambda uid: uk, max_batch=4 * ctx.n,
                                   max_delay_s=0.05)
            async with svc:
                results = await asyncio.gather(
                    svc.submit_pbs("alice", cts[0], SIGN),
                    svc.submit_pbs("bob", cts[1], RELU))
            return results, svc.trace

        got, trace = asyncio.run(main())
        assert_ct_equal(ref_sign, got[0])
        assert_ct_equal(ref_relu, got[1])
        assert trace.batch_fill == {ctx.n: 2}

    def test_mixed_algorithm2_and_pbs_split_batches(self, ckks_stack):
        """Algorithm-2 and PBS traffic from the same key group coexist
        in one service but never ride the same tensor."""
        ctx, _, ev, swk = ckks_stack
        z = np.random.default_rng(9).uniform(-1, 1, ctx.slots)
        ct_a2 = ev.encrypt(z, level=0)
        ct_pbs = self._encrypt(ckks_stack, [0.5, -0.5], 10)
        pipe = BootstrapPipeline(ctx, swk)
        ref_a2 = pipe.run(ct_a2)
        ref_pbs = pipe.run_pbs(ct_pbs, SIGN)
        uk = UserKeys.from_switching(ctx, swk)

        async def main():
            svc = BootstrapService(lambda uid: uk, max_batch=4 * ctx.n,
                                   max_delay_s=0.05)
            async with svc:
                results = await asyncio.gather(
                    svc.submit_ciphertext("alice", ct_a2),
                    svc.submit_pbs("bob", ct_pbs, SIGN))
            return results, svc.trace

        got, trace = asyncio.run(main())
        assert_ct_equal(ref_a2, got[0])
        assert_ct_equal(ref_pbs, got[1])
        assert trace.batch_fill == {ctx.n: 2}
        assert trace.pbs_requests == 1
