"""Seed+b keys: expansion bit-identity, the key set's storage states,
demote/re-expand round-trips, and the key-cache byte accounting.

The load-bearing property is *bit-identity*: a key expanded at runtime
from ``seed + b`` must be indistinguishable — limb for limb — from the
key produced at keygen, for every key type, level count and dnum.
Anything less and a re-expanded key silently computes a different
bootstrap.  Hypothesis drives the seeds and shape parameters; the
fixed-size comparisons stay exact (``tolist()`` equality, never
``allclose``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ckks import CkksContext, CkksKeyGenerator
from repro.ckks.keys import expand_ckks_switch_key
from repro.math.gadget import GadgetVector
from repro.math.modular import find_ntt_primes
from repro.math.rns import RnsBasis
from repro.math.sampling import Sampler, derive_seed, mask_stream
from repro.params import make_toy_params
from repro.service.key_cache import KeyCacheEntry, LruKeyCache
from repro.switching.keys import SwitchingKeySet, expand_switching_keys
from repro.tfhe.glwe import GlweSecretKey
from repro.tfhe.keyswitch import (
    AutomorphismKeySet,
    GlweKeySwitchKey,
    expand_glwe_keyswitch_key,
)
from repro.tfhe.lwe import LweKeySwitchKey, LweSecretKey, expand_lwe_keyswitch_key
from repro.tfhe.rgsw import expand_rgsw, rgsw_bodies, rgsw_encrypt

from .oracle import assert_keyset_equal

N = 32
Q = find_ntt_primes(28, N, 1)[0]
BASIS = RnsBasis([Q])

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def poly_eq(p, q):
    if p.domain != q.domain:
        q = q.to_eval() if p.domain == "eval" else q.to_coeff()
    return all(a.tolist() == b.tolist() for a, b in zip(p.limbs, q.limbs))


# -- derive_seed -------------------------------------------------------------


class TestDeriveSeed:
    @given(master=seeds, i=st.integers(0, 1 << 20))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_and_path_separated(self, master, i):
        assert derive_seed(master, "brk", i, "+") == \
            derive_seed(master, "brk", i, "+")
        assert derive_seed(master, "brk", i, "+") != \
            derive_seed(master, "brk", i, "-")
        assert derive_seed(master, "brk", i, "+") != \
            derive_seed(master, "auto", i, "+")

    def test_fits_in_int64(self):
        for path in [("brk", 0, "+"), ("auto", 3), ("x",)]:
            s = derive_seed(12345, *path)
            assert 0 <= s < 2**63


# -- primitive expansion bit-identity ----------------------------------------


class TestLweKeySwitchExpansion:
    @given(seed=seeds, base_bits=st.sampled_from([4, 7]))
    @settings(max_examples=10, deadline=None)
    def test_expansion_matches_keygen(self, seed, base_bits):
        gadget = GadgetVector(q=Q, base_bits=base_bits,
                              digits=-(-Q.bit_length() // base_bits))
        sk_in = LweSecretKey.generate(24, Sampler(seed + 1))
        sk_out = LweSecretKey.generate(16, Sampler(seed + 2))
        ksk = LweKeySwitchKey.generate(
            sk_in, sk_out, Q, gadget, Sampler(seed + 3), key_seed=seed)
        back = expand_lwe_keyswitch_key(ksk.mask_seed, ksk.bodies(),
                                        sk_out.dim, Q, gadget)
        for row, row2 in zip(ksk.rows, back.rows):
            for ct, ct2 in zip(row, row2):
                assert ct.a.tolist() == ct2.a.tolist()
                assert int(ct.b) == int(ct2.b)


class TestGlweKeySwitchExpansion:
    @given(seed=seeds, h=st.sampled_from([1, 2]))
    @settings(max_examples=10, deadline=None)
    def test_expansion_matches_keygen(self, seed, h):
        gadget = GadgetVector(q=Q, base_bits=7, digits=4)
        sk = GlweSecretKey.generate(N, h, Sampler(seed + 1))
        payload = np.asarray(
            [int(v) for v in np.random.default_rng(seed).integers(0, Q, N)],
            dtype=object)
        ksk = GlweKeySwitchKey.generate(
            payload, sk, BASIS, gadget, Sampler(seed + 2), key_seed=seed)
        back = expand_glwe_keyswitch_key(ksk.mask_seed, ksk.bodies(),
                                         h, BASIS, gadget)
        for row, row2 in zip(ksk.rows, back.rows):
            assert poly_eq(row.body, row2.body)
            for m1, m2 in zip(row.mask, row2.mask):
                assert poly_eq(m1, m2)


class TestRgswExpansion:
    @given(seed=seeds, m=st.sampled_from([-1, 0, 1]), h=st.sampled_from([1, 2]))
    @settings(max_examples=10, deadline=None)
    def test_expansion_matches_keygen(self, seed, m, h):
        gadget = GadgetVector(q=Q, base_bits=7, digits=4)
        sk = GlweSecretKey.generate(N, h, Sampler(seed + 1))
        ct = rgsw_encrypt(m, sk, BASIS, gadget, Sampler(seed + 2),
                          mask_rng=mask_stream(seed))
        back = expand_rgsw(mask_stream(seed), rgsw_bodies(ct), BASIS,
                           gadget, h)
        for comp, comp2 in zip(ct.rows, back.rows):
            for row, row2 in zip(comp, comp2):
                assert poly_eq(row.body, row2.body)
                for m1, m2 in zip(row.mask, row2.mask):
                    assert poly_eq(m1, m2)


class TestAutomorphismSetExpansion:
    @given(key_seed=seeds)
    @settings(max_examples=5, deadline=None)
    def test_per_exponent_streams_are_independent(self, key_seed):
        gadget = GadgetVector(q=Q, base_bits=7, digits=4)
        sk = GlweSecretKey.generate(N, 1, Sampler(7))
        exps = [3, 5, 9]
        aks = AutomorphismKeySet.generate(
            sk, exps, BASIS, gadget, Sampler(8), key_seed=key_seed)
        # Each exponent expands alone from its derived seed — the order
        # of expansion cannot matter for a streaming provider.
        for t in reversed(exps):
            ksk = aks.keys[t]
            assert ksk.mask_seed == derive_seed(key_seed, "auto", t)
            back = expand_glwe_keyswitch_key(
                ksk.mask_seed, ksk.bodies(), 1, BASIS, gadget)
            for row, row2 in zip(ksk.rows, back.rows):
                assert poly_eq(row.body, row2.body)
                for m1, m2 in zip(row.mask, row2.mask):
                    assert poly_eq(m1, m2)


# -- CKKS hybrid switch keys -------------------------------------------------


class TestCkksSwitchKeyExpansion:
    @given(mask_seed=seeds, dnum=st.sampled_from([2, 4]))
    @settings(max_examples=6, deadline=None)
    def test_expansion_matches_keygen(self, mask_seed, dnum):
        params = make_toy_params(n=16, limbs=4, limb_bits=28, scale_bits=22)
        ctx = CkksContext(params.ckks, dnum=dnum)
        gen = CkksKeyGenerator(ctx, Sampler(11))
        sk1, sk2 = gen.secret_key(), gen.secret_key()
        key = gen.switch_key(sk1, sk2, mask_seed=mask_seed)
        assert key.mask_seed == mask_seed
        back = expand_ckks_switch_key(mask_seed, key.bodies(),
                                      ctx.extended_basis)
        assert len(back.components) == len(key.components)
        for (b1, a1), (b2, a2) in zip(key.components, back.components):
            assert poly_eq(b1, b2)
            assert poly_eq(a1, a2)


# -- full switching key set: compress / expand / stream ----------------------


PARAMS = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                         special_limbs=2)


@pytest.fixture(scope="module")
def seeded_stack():
    ctx = CkksContext(PARAMS.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(501))
    sk = gen.secret_key()
    swk = SwitchingKeySet.generate(ctx, sk, base_bits=4, error_std=0.8,
                                   key_seed=424242)
    return ctx, sk, swk


class TestSwitchingKeyCompression:
    def test_compress_expand_round_trip(self, seeded_stack):
        _, _, swk = seeded_stack
        material = swk.compress()
        back = expand_switching_keys(material)
        assert_keyset_equal(swk, back)

    def test_at_rest_compression_ratio(self, seeded_stack):
        _, _, swk = seeded_stack
        material = swk.compress()
        assert swk.resident_bytes() / material.resident_bytes() >= 1.9

    def test_generated_keys_round_trip_through_material(self, seeded_stack):
        """No key seed given: the generator draws one, and the set is
        as compressible as any other — generate == from_material(compress())."""
        ctx, sk, _ = seeded_stack
        swk = SwitchingKeySet.generate(ctx, sk, Sampler(77), base_bits=4,
                                       error_std=0.8)
        back = SwitchingKeySet.from_material(swk.compress())
        assert back.resident_bytes() == swk.compress().resident_bytes()
        assert_keyset_equal(swk, back)

    def test_material_repr_redacts_seeds(self, seeded_stack):
        _, _, swk = seeded_stack
        material = swk.compress()
        text = repr(material)
        assert str(material.meta["key_seed"]) not in text


class TestStreamingKeys:
    def test_streaming_matches_eager_expansion(self, seeded_stack):
        _, _, swk = seeded_stack
        stream = SwitchingKeySet.from_material(swk.compress())
        assert_keyset_equal(swk, stream)

    def test_drop_and_reexpand_round_trip(self, seeded_stack):
        _, _, swk = seeded_stack
        stream = SwitchingKeySet.from_material(swk.compress())
        _ = stream.brk  # force expansion
        resident_full = stream.resident_bytes()
        freed = stream.drop_expanded()
        assert freed > 0
        assert stream.resident_bytes() < resident_full
        assert stream.demotions == 1
        assert_keyset_equal(swk, stream)  # re-expands on demand

    def test_generated_set_demotes_and_reexpands(self, seeded_stack):
        """The demote tier is not special to material-built sets: a
        generated set compresses itself, drops its ciphertexts and lifted
        tensors, and re-expands the same bytes."""
        ctx, sk, _ = seeded_stack
        swk, fresh = (SwitchingKeySet.generate(ctx, sk, Sampler(78),
                                               base_bits=4, error_std=0.8)
                      for _ in range(2))
        expanded = fresh.resident_bytes()
        freed = fresh.drop_expanded()
        assert freed == expanded - fresh.compress().resident_bytes() > 0
        assert fresh.resident_bytes() == expanded - freed
        assert fresh.drop_expanded() == 0 and fresh.demotions == 1
        assert_keyset_equal(swk, fresh)
        assert fresh.expansions == fresh.n_t + len(fresh.auto_keys.keys)

    def test_resident_bytes_grow_with_expansion(self, seeded_stack):
        _, _, swk = seeded_stack
        stream = SwitchingKeySet.from_material(swk.compress())
        at_rest = stream.resident_bytes()
        _ = stream.brk
        assert stream.resident_bytes() > at_rest
        assert stream.expansions > 0


# -- key-cache accounting ----------------------------------------------------


class _FakeKeySet:
    """Duck-typed stand-in: a compressed core plus droppable expansion."""

    def __init__(self, core, expanded):
        self.core = core
        self.expanded = expanded
        self.drops = 0

    def resident_bytes(self):
        return self.core + self.expanded

    def drop_expanded(self):
        freed, self.expanded = self.expanded, 0
        self.drops += 1
        return freed


def _entry_for(keys):
    class _Holder:
        pass

    holder = _Holder()
    holder.keys = keys
    return KeyCacheEntry(holder, executor=None, pipeline=None,
                         nbytes=keys.resident_bytes(),
                         nbytes_fn=keys.resident_bytes)


class TestLruKeyCacheAccounting:
    def _cache(self, sizes, capacity):
        keys = {u: _FakeKeySet(core, exp)
                for u, (core, exp) in sizes.items()}
        cache = LruKeyCache(lambda u: keys[u],
                            lambda holder_keys: _entry_for(holder_keys),
                            capacity_bytes=capacity)
        # provider returns the fake keys object directly; the factory
        # wraps it (LruKeyCache only ids the provider's return value).
        return cache, keys

    @given(st.lists(st.tuples(st.integers(0, 5),
                              st.integers(0, 300), st.integers(0, 700)),
                    min_size=1, max_size=30),
           st.integers(500, 3000))
    # A demotion pass that frees nothing but re-measures a shrunken entry.
    @example(accesses=[(1, 100, 0), (1, 300, 0), (0, 0, 0)], capacity=500)
    @settings(max_examples=30, deadline=None)
    def test_running_total_matches_recount(self, accesses, capacity):
        """The satellite fix: the running byte total must equal a full
        re-walk after any interleaving of admissions, demotions,
        evictions and size changes."""
        sizes = {u: (100 + 50 * u, 400) for u in range(6)}
        cache, keys = self._cache(sizes, capacity)
        for user, shrink, grow in accesses:
            cache.get(user)
            # Simulate a pipeline run changing the streaming footprint;
            # the cache folds the delta in on its next touch of the
            # entry (hit refresh), never by re-walking everything.
            keys[user].expanded = max(0, keys[user].expanded - shrink) + grow
            assert cache.resident_bytes() == cache.recount_bytes()
        assert cache.resident_bytes() == cache.recount_bytes()

    def test_demote_tier_runs_before_eviction(self):
        sizes = {0: (100, 900), 1: (100, 900), 2: (100, 900)}
        # Two expanded entries fit; the third only fits if the coldest
        # demotes.  Demotion must be tried before any executor is torn
        # down.
        cache, keys = self._cache(sizes, capacity=2200)
        cache.get(0)
        cache.get(1)
        cache.get(2)
        assert cache.demotions >= 1
        assert cache.evictions == 0
        assert keys[0].drops == 1  # coldest demoted, not evicted
        assert len(cache) == 3
        assert cache.resident_bytes() == cache.recount_bytes()

    def test_eviction_still_fires_when_demotion_insufficient(self):
        sizes = {u: (400, 200) for u in range(4)}
        cache, _ = self._cache(sizes, capacity=1000)
        for u in range(4):
            cache.get(u)
        assert cache.evictions >= 1
        assert cache.resident_bytes() <= 1000
        assert cache.resident_bytes() == cache.recount_bytes()

    def test_pinned_entries_never_demoted(self):
        sizes = {0: (100, 900), 1: (100, 900)}
        cache, keys = self._cache(sizes, capacity=1100)
        first = cache.get(0)
        first.pin()
        cache.get(1)
        assert keys[0].drops == 0  # pinned: left alone
        first.unpin()

    def test_generated_key_sets_demote_before_eviction(self):
        """On the real class: two generated sets, room for one expanded
        plus one at rest — the cold one demotes, nobody is evicted."""
        ctx = CkksContext(PARAMS.ckks, dnum=2)
        sk = CkksKeyGenerator(ctx, Sampler(501)).secret_key()
        keys = {u: SwitchingKeySet.generate(ctx, sk, Sampler(u), base_bits=4,
                                            error_std=0.8) for u in (0, 1)}
        expanded = keys[0].resident_bytes()
        at_rest = keys[0].compress().resident_bytes()
        cache = LruKeyCache(lambda u: keys[u], _entry_for,
                            capacity_bytes=expanded + at_rest)
        cache.get(0)
        cache.get(1)
        assert (cache.demotions, cache.evictions, len(cache)) == (1, 0, 2)
        assert keys[0].resident_bytes() == at_rest
        assert keys[1].resident_bytes() == expanded
        assert cache.resident_bytes() == cache.recount_bytes() \
            == expanded + at_rest

    def test_hit_refreshes_entry_size(self):
        sizes = {0: (100, 0)}
        cache, keys = self._cache(sizes, capacity=None)
        cache.get(0)
        assert cache.resident_bytes() == 100
        keys[0].expanded = 5000  # grew between touches
        cache.get(0)
        assert cache.resident_bytes() == 5100
        assert cache.peak_resident_bytes >= 5100
