"""Batched hybrid-keyswitch engine vs the frozen scalar reference.

Every routed operation must be bit-identical between the batched engine
and ``KeySwitcher.switch_reference`` / ``mod_down_reference`` — same
limbs, same canonical residues — at every level, for every digit-group
count, and for whole hoisted rotation sets.  Plus: the cached BConv plan
against the frozen oracle, the approximation-error bound against exact
CRT, the stacked NTT against the per-limb engines, and the profiling
counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.ckks.bootstrap import (
    ConventionalBootstrapConfig,
    ConventionalBootstrapper,
    ConventionalBootstrapTrace,
    make_bootstrappable_toy_params,
)
from repro.ckks.context import CkksContext
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import CkksKeyGenerator
from repro.ckks.keyswitch import KeySwitcher
from repro.ckks.keyswitch_engine import CkksKeyswitchEngine
from repro.ckks.linear_transform import apply_matrix
from repro.errors import ParameterError
from repro.math import ntt as ntt_mod
from repro.math.modular import find_ntt_primes, root_of_unity
from repro.math.ntt import get_ntt_engine
from repro.math.rns import (
    RnsBasis,
    RnsPoly,
    basis_convert,
    basis_convert_reference,
    get_bconv_plan,
)
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.profiling import count_ops


class ScalarKeySwitcher(KeySwitcher):
    """The scalar reference as an evaluator's switcher: assigned to
    ``ev.switcher`` it pins every routed operation — relinearise,
    rotate, conjugate, the hoisted loop — to ``switch_reference`` /
    ``mod_down_reference``."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.engine = None

    switch = KeySwitcher.switch_reference
    mod_down = KeySwitcher.mod_down_reference


def _scalar_evaluator(ctx, keys, **kwargs):
    ev = CkksEvaluator(ctx, keys, **kwargs)
    ev.switcher = ScalarKeySwitcher(ctx)
    return ev


def _same_ct(a, b):
    return a.c0 == b.c0 and a.c1 == b.c1 and a.scale == b.scale


def _rand_poly(seed, n, basis, domain="eval"):
    rng = np.random.default_rng(seed)
    limbs = [np.asarray(rng.integers(0, q, n), dtype=np.int64)
             for q in basis.moduli]
    return RnsPoly(n, basis, limbs, domain)


def _setup(n=16, limbs=4, special=4, dnum=2, rotations=(), conjugate=False,
           seed=3):
    p = make_toy_params(n=n, limbs=limbs, limb_bits=28, special_limbs=special)
    ctx = CkksContext(p.ckks, dnum=dnum)
    gen = CkksKeyGenerator(ctx, Sampler(seed=seed))
    sk = gen.secret_key()
    keys = gen.keyset(sk, rotations=list(rotations), conjugate=conjugate)
    return ctx, sk, keys


def _each_regime(monkeypatch, run):
    """Run ``run()`` with the module thresholds steering the one NTT kernel
    into each regime: the whole stack with broadcast ``%`` (and the default
    mix), with row-wise ``fast_mod_u64``, and limb by limb through the
    one-modulus engines."""
    for regime in ({"_ROW_MOD_MIN": 1 << 40}, {},
                   {"_ROW_MOD_MIN": 1}, {"_ROW_MOD_MIN": 1, "_BLOCK_MIN": 1}):
        with monkeypatch.context() as mp:
            for name, value in regime.items():
                mp.setattr(ntt_mod, name, value)
            run()


def _naive_ntt(x, q):
    """Direct O(N^2) negacyclic evaluation ``sum_j x_j psi^(j(2k+1))``."""
    n = len(x)
    psi = root_of_unity(q, 2 * n)
    return [sum(int(v) * pow(psi, j * (2 * k + 1), q) for j, v in enumerate(x)) % q
            for k in range(n)]


def _limb_stack(moduli, batch, n, seed):
    """``(L, *batch, N)`` canonical residues, each row holding 0 and q - 1."""
    rng = np.random.default_rng(seed)
    x = np.stack([rng.integers(0, q, batch + (n,)) for q in moduli])
    x = x.astype(np.int64).reshape(len(moduli), -1, n)
    x[:, 0, 0] = 0
    x[:, -1, -1] = np.asarray(moduli) - 1
    return x.reshape((len(moduli),) + batch + (n,))


def _each_stack(check):
    """Run ``check(eng, moduli, x)`` over L, batch shapes and ring sizes.

    A one-limb engine has no limb axis, so its stack is passed as ``x[0]``.
    """
    for n in (16, 32, 1024):
        primes = find_ntt_primes(24, n, 6)
        for rows in (1, 2, 4, 6):
            for batch in ((), (1,), (3,), (2, 5)):
                moduli = primes[:rows]
                check(get_ntt_engine(n, moduli), moduli,
                      _limb_stack(moduli, batch, n, seed=rows * n))


class TestStackedNtt:
    """The one engine over a limb stack: every row byte-equal to the
    one-modulus engine on that row, in every regime and both layouts."""

    def test_matches_per_limb_engines(self, monkeypatch):
        refs = {}

        def reference(eng, moduli, x):
            n = x.shape[-1]
            rows = [x[i].reshape(-1, n) for i in range(len(moduli))]
            fwd = [get_ntt_engine(n, q).forward(r) for q, r in zip(moduli, rows)]
            inv = [get_ntt_engine(n, q).inverse(r) for q, r in zip(moduli, rows)]
            if n == 16:
                assert [int(v) for v in fwd[0][0]] == _naive_ntt(rows[0][0], moduli[0])
            refs[(n, len(moduli), x.shape)] = (np.stack(fwd).reshape(x.shape),
                                               np.stack(inv).reshape(x.shape))

        def check(eng, moduli, x):
            fwd, inv = refs[(x.shape[-1], len(moduli), x.shape)]
            one = (lambda v: v[0]) if len(moduli) == 1 else (lambda v: v)
            assert one(fwd).tobytes() == eng.forward(one(x)).tobytes()
            assert one(inv).tobytes() == eng.inverse(one(x)).tobytes()
            assert np.array_equal(eng.inverse(eng.forward(one(x))), one(x))

        _each_stack(reference)
        _each_regime(monkeypatch, lambda: _each_stack(check))

    def test_multi_axis_batch(self, monkeypatch):
        """The axis-0 layout ``(L, N, *batch)`` is the last-axis layout
        with the transform axis moved, byte for byte."""

        def check(eng, moduli, x):
            if len(moduli) == 1:
                x, axis = x[0], 0  # no limb axis: (*batch, N) / (N, *batch)
            else:
                axis = 1
            x0 = np.ascontiguousarray(np.moveaxis(x, -1, axis))
            for last, axis0 in ((eng.forward, eng.forward_axis0),
                                (eng.inverse, eng.inverse_axis0)):
                want = np.ascontiguousarray(np.moveaxis(last(x), -1, axis))
                assert want.tobytes() == axis0(x0).tobytes()
            assert np.array_equal(eng.inverse_axis0(eng.forward_axis0(x0)), x0)

        _each_regime(monkeypatch, lambda: _each_stack(check))

    def test_wide_moduli_rejected(self):
        with pytest.raises(ParameterError):
            get_ntt_engine(16, [find_ntt_primes(24, 16, 1)[0], (1 << 36) - 5])


class TestBconvPlan:
    def test_plan_matches_frozen_oracle(self):
        n = 32
        primes = find_ntt_primes(24, n, 6)
        src = RnsBasis(primes[:4])
        dst = RnsBasis(primes[4:])
        poly = _rand_poly(2, n, src, domain="coeff")
        fast = basis_convert(poly, dst)
        ref = basis_convert_reference(poly, dst)
        assert fast == ref
        for x, y in zip(fast.limbs, ref.limbs):
            assert np.array_equal(np.asarray(x, dtype=np.int64),
                                  np.asarray(y, dtype=np.int64))

    def test_plan_is_cached(self):
        primes = find_ntt_primes(24, 16, 4)
        with count_ops() as stats:
            a = get_bconv_plan(primes[:2], primes[2:])
            b = get_bconv_plan(primes[:2], primes[2:])
        assert a is b
        assert stats.bconv_plan_hits >= 1

    def test_wide_fallback_matches_oracle(self):
        src = RnsBasis([(1 << 36) - 5, (1 << 36) - 17])
        dst = RnsBasis([(1 << 36) - 35])
        rng = np.random.default_rng(4)
        coeffs = [int(x) % src.product
                  for x in rng.integers(0, 2**62, 8, dtype=np.int64)]
        poly = RnsPoly.from_int_coeffs(8, src, coeffs)
        assert basis_convert(poly, dst) == basis_convert_reference(poly, dst)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**40 - 1), st.integers(2, 4))
    def test_approximation_error_bounded(self, seed, limbs_in):
        """BConv differs from the exact CRT value by k*Q with 0 <= k <= L."""
        n = 8
        primes = find_ntt_primes(24, n, limbs_in + 2)
        src = RnsBasis(primes[:limbs_in])
        dst = RnsBasis(primes[limbs_in:])
        poly = _rand_poly(seed, n, src, domain="coeff")
        exact = poly.to_int_coeffs()          # in [0, Q)
        approx = basis_convert(poly, dst)
        big_q = src.product
        for j, pj in enumerate(dst.moduli):
            got = np.asarray(approx.limbs[j], dtype=object)
            for col in range(n):
                # got = (exact + k*Q) mod p_j for some 0 <= k <= L.
                ks = [k for k in range(limbs_in + 1)
                      if (int(exact[col]) + k * big_q) % pj == int(got[col])]
                assert ks, "no k in [0, L] explains the BConv output"


class TestSwitchBitIdentity:
    @pytest.mark.parametrize("dnum", [1, 2, 3, 4])
    def test_relin_switch_all_levels(self, dnum):
        ctx, sk, keys = _setup(dnum=dnum)
        sw = KeySwitcher(ctx)
        assert sw.engine is not None
        for level in range(ctx.max_level + 1):
            basis = ctx.basis_at_level(level)
            d = _rand_poly(level + 10, ctx.n, basis)
            r0, r1 = sw.switch_reference(d, keys.relin)
            b0, b1 = sw.switch(d, keys.relin)
            assert r0 == b0 and r1 == b1

    def test_multi_chunk_inner_product(self):
        """31-bit primes with one limb per digit group: five digits at
        the top level exceed the four products a uint64 lane sums
        unreduced, so the inner product runs two chunks."""
        p = make_toy_params(n=16, limbs=5, limb_bits=31, special_limbs=2)
        ctx = CkksContext(p.ckks, dnum=5)
        gen = CkksKeyGenerator(ctx, Sampler(seed=4))
        keys = gen.keyset(gen.secret_key())
        sw = KeySwitcher(ctx)
        top = sw.engine._plan(ctx.basis_at_level(ctx.max_level))
        assert top.dnum_active > top.mac_rows
        for level in range(ctx.max_level + 1):
            d = _rand_poly(level + 50, ctx.n, ctx.basis_at_level(level))
            assert sw.switch(d, keys.relin) == \
                sw.switch_reference(d, keys.relin)

    def test_mod_down_dispatch_identity(self):
        ctx, sk, keys = _setup()
        sw = KeySwitcher(ctx)
        from repro.math.rns import concat_bases
        for level in (0, ctx.max_level):
            target = ctx.basis_at_level(level)
            ext = concat_bases(target, ctx.special_basis)
            u = _rand_poly(level + 30, ctx.n, ext)
            assert sw.mod_down(u, target) == sw.mod_down_reference(u, target)

    def test_wide_moduli_fall_back_to_reference(self):
        from repro.params import CkksParams
        from repro.math.modular import find_ntt_primes as fp
        n = 16
        wide = fp(33, n, 3)
        specials = fp(33, n, 2, skip=3)
        params = CkksParams(n=n, moduli=wide, special_moduli=specials,
                            scale_bits=26)
        ctx = CkksContext(params, dnum=2)
        sw = KeySwitcher(ctx)
        assert sw.engine is None  # scalar fallback, still correct

    def test_unknown_engine_rejected(self):
        """Which path runs is chosen from the moduli, never named: the
        constructor takes no engine argument."""
        ctx, _, _ = _setup()
        with pytest.raises(TypeError):
            KeySwitcher(ctx, engine="nope")


class TestEvaluatorBitIdentity:
    def _pair(self, ctx, keys, seed=9):
        ev_b = CkksEvaluator(ctx, keys, sampler=Sampler(seed=seed))
        ev_r = _scalar_evaluator(ctx, keys, sampler=Sampler(seed=seed))
        return ev_b, ev_r

    def test_rotate_conjugate_mul(self):
        ctx, sk, keys = _setup(n=64, limbs=4, special=2,
                               rotations=[1, 2, 3, 5], conjugate=True)
        ev_b, ev_r = self._pair(ctx, keys)
        vals = np.arange(ctx.slots) * 0.01 + 0.5
        ct_b, ct_r = ev_b.encrypt(vals), ev_r.encrypt(vals)
        assert _same_ct(ct_b, ct_r)
        for r in (1, 2, 3, 5):
            assert _same_ct(ev_b.rotate(ct_b, r), ev_r.rotate(ct_r, r))
        assert _same_ct(ev_b.conjugate(ct_b), ev_r.conjugate(ct_r))
        m_b = ev_b.mul_relin_rescale(ct_b, ct_b)
        m_r = ev_r.mul_relin_rescale(ct_r, ct_r)
        assert _same_ct(m_b, m_r)
        # At a dropped level too.
        assert _same_ct(ev_b.rotate(m_b, 2), ev_r.rotate(m_r, 2))

    @pytest.mark.parametrize("rots", [[1], [1, 2, 3], [1, 2, 3, 5, 7]])
    def test_hoisted_rotation_sets(self, rots):
        ctx, sk, keys = _setup(n=64, limbs=4, special=2,
                               rotations=rots)
        ev_b, ev_r = self._pair(ctx, keys)
        vals = np.linspace(-1, 1, ctx.slots)
        ct_b, ct_r = ev_b.encrypt(vals), ev_r.encrypt(vals)
        hb = ev_b.rotate_hoisted(ct_b, rots)
        hr = ev_r.rotate_hoisted(ct_r, rots)
        for r in rots:
            assert _same_ct(hb[r], hr[r])

    def test_hoisted_empty_set(self):
        ctx, sk, keys = _setup(n=64, limbs=4, special=2)
        ev_b, _ = self._pair(ctx, keys)
        assert ev_b.rotate_hoisted(ev_b.encrypt([0.1]), []) == {}

    def test_hoisted_values_decrypt_like_rotate(self):
        """Hoisted and plain rotation agree in value (not bitwise)."""
        ctx, sk, keys = _setup(n=64, limbs=4, special=2, rotations=[1, 3])
        ev_b, _ = self._pair(ctx, keys)
        vals = np.linspace(-1, 1, ctx.slots)
        ct = ev_b.encrypt(vals)
        hoisted = ev_b.rotate_hoisted(ct, [1, 3])
        for r in (1, 3):
            a = ev_b.decrypt(hoisted[r], sk)
            b = ev_b.decrypt(ev_b.rotate(ct, r), sk)
            assert np.allclose(a, b, atol=1e-2)


class TestBsgsAndBootstrap:
    @pytest.mark.parametrize("n", [1 << 6, 1 << 7, 1 << 8])
    def test_apply_matrix_identity(self, n):
        from repro.ckks.linear_transform import required_rotations
        p = make_toy_params(n=n, limbs=3, limb_bits=28, special_limbs=2)
        ctx = CkksContext(p.ckks, dnum=2)
        gen = CkksKeyGenerator(ctx, Sampler(seed=5))
        sk = gen.secret_key()
        keys = gen.keyset(sk, rotations=required_rotations(ctx.slots))
        ev_b = CkksEvaluator(ctx, keys, sampler=Sampler(seed=7))
        ev_r = _scalar_evaluator(ctx, keys, sampler=Sampler(seed=7))
        rng = np.random.default_rng(n)
        m = rng.normal(size=(ctx.slots, ctx.slots)) / ctx.slots
        vals = np.linspace(-1, 1, ctx.slots)
        ct_b, ct_r = ev_b.encrypt(vals), ev_r.encrypt(vals)
        out_b = apply_matrix(ev_b, ct_b, m)
        out_r = apply_matrix(ev_r, ct_r, m)
        assert _same_ct(out_b, out_r)
        got = ev_b.decrypt(out_b, sk).real
        assert np.allclose(got, m @ vals, atol=1e-2)

    def test_conventional_bootstrap_end_to_end(self):
        params = make_bootstrappable_toy_params(n=32, levels=17)
        ctx = CkksContext(params, dnum=2)
        gen = CkksKeyGenerator(ctx, Sampler(seed=11))
        sk = gen.secret_key()
        rots = ConventionalBootstrapper.required_rotation_indices(ctx)
        keys = gen.keyset(sk, rotations=rots, conjugate=True)
        cfg = ConventionalBootstrapConfig()
        ev_b = CkksEvaluator(ctx, keys, scale_rtol=5e-2)
        ev_r = _scalar_evaluator(ctx, keys, scale_rtol=5e-2)
        boot_b = ConventionalBootstrapper(ctx, keys, cfg, evaluator=ev_b)
        boot_r = ConventionalBootstrapper(ctx, keys, cfg, evaluator=ev_r)
        vals = np.linspace(-0.4, 0.4, ctx.slots)
        ct0 = ev_b.drop_to_level(ev_b.encrypt(vals), 0)
        tr_b = ConventionalBootstrapTrace()
        out_b = boot_b.bootstrap(ct0, tr_b)
        out_r = boot_r.bootstrap(ct0)
        assert out_b.c0 == out_r.c0 and out_b.c1 == out_r.c1
        # Step wall-clock breakdown is populated for every pipeline step.
        for step in ("ModRaise", "CoeffToSlot", "EvalMod", "SlotToCoeff"):
            assert tr_b.step_seconds.get(step, 0.0) > 0.0
        got = boot_b.ev.decrypt(out_b, sk).real
        assert np.allclose(got, vals, atol=0.05)


class TestProfilingCounters:
    def test_keyswitch_counters_recorded(self):
        ctx, sk, keys = _setup(n=64, limbs=4, special=2, rotations=[1, 2, 3])
        ev = CkksEvaluator(ctx, keys, sampler=Sampler(seed=1))
        ct = ev.encrypt(np.linspace(-1, 1, ctx.slots))
        with count_ops() as stats:
            ev.rotate_hoisted(ct, [1, 2, 3])
        assert stats.ks_modup_macs > 0
        assert stats.ks_moddown_macs > 0
        assert stats.ks_hoisted_rotations == 3
        assert stats.ks_ntt_saved > 0
        assert stats.bconv_plan_hits > 0

    def test_key_tensor_cached_on_key(self):
        ctx, sk, keys = _setup(n=64, limbs=4, special=2)
        eng = CkksKeyswitchEngine.for_context(ctx)
        d = _rand_poly(0, ctx.n, ctx.full_basis)
        eng.switch(d, keys.relin)
        assert len(keys.relin._eval_tensors) == 1
        eng.switch(d, keys.relin)
        assert len(keys.relin._eval_tensors) == 1

    def test_restricted_key_cached(self):
        ctx, sk, keys = _setup()
        sw = KeySwitcher(ctx)
        basis = ctx.basis_at_level(1)
        d = _rand_poly(1, ctx.n, basis)
        sw.switch_reference(d, keys.relin)
        sw.switch_reference(d, keys.relin)
        assert len(keys.relin._restricted) == 1
