"""Property tests for the batched LWE->RLWE repack engine.

The vectorized engine must be *bit-identical* to the scalar reference
recursion (``repack_reference``) for every ring size, pack width and
limb count — the engine is a performance rewrite, not an
approximation."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.math.automorphism import get_automorphism_perm
from repro.math.gadget import GadgetVector
from repro.math.modular import find_ntt_primes
from repro.math.rns import RnsBasis, RnsPoly
from repro.math.sampling import Sampler
from repro.profiling import count_ops
from repro.tfhe.glwe import GlweSecretKey, glwe_encrypt
from repro.tfhe.keyswitch import AutomorphismKeySet
from repro.tfhe.repack import repack_exponents, repack_keyswitch_count
from repro.tfhe.repack_engine import RepackEngine, repack, repack_with_counters

from .oracle import repack_reference


def _stack(n, limbs=1, limb_bits=28, base_bits=7, digits=4, seed=5):
    if limbs == 1:
        basis = RnsBasis([find_ntt_primes(limb_bits, n, 1)[0]])
    else:
        basis = RnsBasis(find_ntt_primes(limb_bits, n, limbs))
    gadget = GadgetVector(q=basis.product, base_bits=base_bits, digits=digits)
    s = Sampler(seed)
    sk = GlweSecretKey.generate(n, 1, s)
    auto = AutomorphismKeySet.generate(sk, repack_exponents(n), basis,
                                       gadget, s)
    return basis, sk, auto, s


def _encrypt_batch(n, basis, sk, s, count):
    cts = []
    for i in range(count):
        m = np.zeros(n, dtype=object)
        m[0] = 1000 * (i + 1)
        m[(7 * i + 3) % n] = 31337 + i  # garbage the pack must cancel
        cts.append(glwe_encrypt(RnsPoly.from_int_coeffs(n, basis, m), sk, s))
    return cts


def _assert_identical(got, want):
    assert got.n == want.n and got.basis == want.basis
    for g, w in zip(list(got.mask) + [got.body], list(want.mask) + [want.body]):
        gc, wc = g.to_coeff(), w.to_coeff()
        for lg, lw in zip(gc.limbs, wc.limbs):
            assert np.array_equal(np.asarray(lg), np.asarray(lw))


# ---------------------------------------------------------------------------
# Bit-identity sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,n_cts", [
    (16, 16),    # full pack, smallest ring
    (16, 1),     # pure trace (no merge levels)
    (32, 8),     # partial pack: merge tree + trace tail
    (64, 64),    # full pack, mid ring
    (128, 4),    # deep trace tail
    (256, 16),   # largest tier-1 ring
])
def test_bit_identity_single_limb(n, n_cts):
    basis, sk, auto, s = _stack(n, seed=n + n_cts)
    cts = _encrypt_batch(n, basis, sk, s, n_cts)
    _assert_identical(repack(cts, auto), repack_reference(cts, auto))


@pytest.mark.parametrize("n_cts", [4, 16])
def test_bit_identity_multi_limb(n_cts):
    n = 16
    basis, sk, auto, s = _stack(n, limbs=3, limb_bits=30, base_bits=6,
                                digits=15, seed=n_cts)
    cts = _encrypt_batch(n, basis, sk, s, n_cts)
    _assert_identical(repack(cts, auto), repack_reference(cts, auto))


def test_bit_identity_wide_modulus():
    """q >= 2^31 forces the object-dtype NTT path; the engine must fall
    back off the lazy uint64 accumulator and still match."""
    n = 16
    basis, sk, auto, s = _stack(n, limb_bits=36, base_bits=9, digits=4,
                                seed=99)
    cts = _encrypt_batch(n, basis, sk, s, 8)
    _assert_identical(repack(cts, auto), repack_reference(cts, auto))


def test_dispatcher_default_is_vectorized():
    n = 32
    basis, sk, auto, s = _stack(n, seed=3)
    cts = _encrypt_batch(n, basis, sk, s, 4)
    _assert_identical(repack(cts, auto), repack_reference(cts, auto))


# ---------------------------------------------------------------------------
# Decomposed-domain permutation identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [3, 5, 9, 17])
def test_hoisted_digits_equal_fresh_digits(t):
    """The +/- double-decompose with a signed gather reproduces the
    digits of decompose-after-permute exactly (balanced decomposition is
    elementwise but not negation-equivariant, hence the two tensors).
    The engine only decomposes after permuting; this stays as a property
    of the signed-permutation tables and the balanced gadget."""
    n = 16
    q = find_ntt_primes(28, n, 1)[0]
    gadget = GadgetVector(q=q, base_bits=7, digits=4)
    perm = get_automorphism_perm(n, t)
    rng = np.random.default_rng(t)
    x = rng.integers(0, q, n)

    permuted = np.where(perm.src_flip, (q - x[perm.src]) % q, x[perm.src])
    fresh = gadget.decompose_tensor(permuted)

    plus = gadget.decompose_tensor(x)
    minus = gadget.decompose_tensor((q - x) % q)
    hoisted = [np.where(perm.src_flip, m[perm.src], p[perm.src])
               for p, m in zip(plus, minus)]

    for f, h in zip(fresh, hoisted):
        assert np.array_equal(f, h)


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def test_keyswitch_count_formula():
    assert repack_keyswitch_count(16, 16) == 15          # full pack
    assert repack_keyswitch_count(1, 16) == 4            # pure trace
    assert repack_keyswitch_count(4, 32) == 3 + 3        # merge + trace
    assert repack_keyswitch_count(1, 2) == 1


@pytest.mark.parametrize("n_cts", [1, 4, 16, 32])
def test_engine_counters(n_cts):
    n = 32
    basis, sk, auto, s = _stack(n, seed=n_cts)
    cts = _encrypt_batch(n, basis, sk, s, n_cts)
    _, ctr = repack_with_counters(cts, auto)
    assert ctr.total_keyswitches == repack_keyswitch_count(n_cts, n)
    assert ctr.merge_keyswitches == n_cts - 1
    assert ctr.trace_keyswitches == (n // n_cts).bit_length() - 1
    merge_levels = n_cts.bit_length() - 1
    assert ctr.levels == merge_levels + ctr.trace_keyswitches
    assert ctr.ntt_calls_saved > 0


def test_reference_counters_match_vectorized():
    """The engine's executed-work counters equal the reference
    recursion's closed-form keyswitch count, on identical output."""
    n = 32
    basis, sk, auto, s = _stack(n, seed=11)
    cts = _encrypt_batch(n, basis, sk, s, 8)
    out_vec, ctr = repack_with_counters(cts, auto)
    _assert_identical(out_vec, repack_reference(cts, auto))
    assert ctr.total_keyswitches == repack_keyswitch_count(8, n)
    assert ctr.merge_keyswitches == 8 - 1
    assert ctr.levels == 3 + ctr.trace_keyswitches


def test_profiling_records_repack_levels():
    n = 16
    basis, sk, auto, s = _stack(n, seed=21)
    cts = _encrypt_batch(n, basis, sk, s, 4)
    with count_ops() as stats:
        repack(cts, auto)
    assert stats.repack_merge_keyswitches == 3
    assert stats.repack_trace_keyswitches == 2
    assert stats.repack_levels == 4  # 2 merge levels + 2 trace levels
    assert stats.repack_ntt_saved > 0
    assert sum(stats.repack_level_hist.values()) == 5


# ---------------------------------------------------------------------------
# Engine mechanics & validation
# ---------------------------------------------------------------------------

def test_engine_memoized_per_keyset():
    n = 16
    basis, sk, auto, s = _stack(n, seed=31)
    eng = RepackEngine.for_keys(auto)
    assert RepackEngine.for_keys(auto) is eng
    cts = _encrypt_batch(n, basis, sk, s, 2)
    # Repeated packs through the cached engine stay correct (key tensors
    # are lifted once and reused).
    for _ in range(2):
        _assert_identical(eng.pack(cts), repack_reference(cts, auto))


def test_non_power_of_two_rejected():
    n = 16
    basis, sk, auto, s = _stack(n, seed=43)
    cts = _encrypt_batch(n, basis, sk, s, 3)
    with pytest.raises(ParameterError):
        repack(cts, auto)


def test_too_many_cts_rejected():
    n = 16
    basis, sk, auto, s = _stack(n, seed=44)
    cts = _encrypt_batch(n, basis, sk, s, 16)
    with pytest.raises(ParameterError):
        repack(cts + cts, auto)


def test_empty_batch_rejected():
    n = 16
    basis, sk, auto, s = _stack(n, seed=45)
    with pytest.raises(ParameterError):
        repack([], auto)
