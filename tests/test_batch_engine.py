"""Tests for the vectorized batched BlindRotate engine.

The central contract (ISSUE 1): the tensor engine must be *bit-identical*
to mapping the scalar ``blind_rotate`` oracle over the batch — every limb
of every output ciphertext equal, not just decryptable to the same value.
"""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.math.gadget import GadgetVector
from repro.math.modular import find_ntt_primes
from repro.math.rns import RnsBasis
from repro.math.sampling import Sampler
from repro.tfhe.batch_engine import BatchBlindRotateEngine
from repro.tfhe.blind_rotate import (
    BlindRotateKey,
    blind_rotate,
    blind_rotate_batch,
    build_test_vector,
    get_monomial_cache,
    get_rgsw_one,
)
from repro.tfhe.glwe import GlweSecretKey
from repro.tfhe.lwe import LweCiphertext, LweSecretKey, lwe_encrypt
from repro.tfhe.rgsw import RgswCiphertext

from .oracle import blind_rotate_batch_reference

N = 32
Q = find_ntt_primes(28, N, 1)[0]
BASIS = RnsBasis([Q])
GADGET = GadgetVector(q=Q, base_bits=7, digits=4)
N_T = 16


def _sign_lut(q, n):
    def g(t):
        t = t % (2 * n)
        return (q // 8) * (1 if t < n else -1) % q
    return g


def _assert_ciphertexts_identical(a, b, msg=""):
    assert a.h == b.h
    for pa, pb in zip(list(a.mask) + [a.body], list(b.mask) + [b.body]):
        assert pa.domain == pb.domain
        for la, lb in zip(pa.limbs, pb.limbs):
            assert np.array_equal(la, lb), msg


@pytest.fixture(scope="module")
def keys():
    s = Sampler(99)
    lwe_sk = LweSecretKey.generate(N_T, s)
    glwe_sk = GlweSecretKey.generate(N, 1, s)
    brk = BlindRotateKey.generate(lwe_sk, glwe_sk, BASIS, GADGET, s)
    return lwe_sk, glwe_sk, brk


class TestBitIdentity:
    def test_matches_scalar_oracle(self, keys):
        lwe_sk, _, brk = keys
        s = Sampler(1)
        f = build_test_vector(_sign_lut(Q, N), N, BASIS)
        cts = [lwe_encrypt(i * 7, lwe_sk, 2 * N, s, error_std=0.5) for i in range(6)]
        # Edge cases: an all-zero mask (every iteration skipped) and a
        # duplicate of an existing ciphertext (shared monomials).
        cts.append(LweCiphertext(a=np.zeros(N_T, dtype=np.int64), b=5, q=2 * N))
        cts.append(cts[0])
        vec = blind_rotate_batch(f, cts, brk)
        for j, (ct, out) in enumerate(zip(cts, vec)):
            oracle = blind_rotate(f, ct, brk)
            _assert_ciphertexts_identical(out, oracle, f"ciphertext {j}")

    def test_matches_reference_batch(self, keys):
        lwe_sk, _, brk = keys
        s = Sampler(2)
        f = build_test_vector(_sign_lut(Q, N), N, BASIS)
        cts = [lwe_encrypt(i, lwe_sk, 2 * N, s, error_std=0.5) for i in range(4)]
        vec = blind_rotate_batch(f, cts, brk)
        ref = blind_rotate_batch_reference(f, cts, brk)
        for v, r in zip(vec, ref):
            _assert_ciphertexts_identical(v, r)

    @pytest.mark.parametrize("bits,limbs", [(28, 3), (36, 1), (36, 2)],
                             ids=["fast-L3", "wide-L1", "wide-L2"])
    def test_multi_limb_and_wide_moduli(self, bits, limbs):
        """Every dtype path: int64 fast, object wide, and CRT-composed RNS."""
        n = 16
        basis = RnsBasis(find_ntt_primes(bits, n, limbs))
        big_q = basis.product
        gadget = GadgetVector(q=big_q, base_bits=8, digits=3)
        s = Sampler(7)
        lwe_sk = LweSecretKey.generate(8, s)
        glwe_sk = GlweSecretKey.generate(n, 1, s)
        brk = BlindRotateKey.generate(lwe_sk, glwe_sk, basis, gadget, s)
        f = build_test_vector(_sign_lut(big_q, n), n, basis)
        cts = [lwe_encrypt(i * 3, lwe_sk, 2 * n, s, error_std=0.5) for i in range(4)]
        vec = blind_rotate_batch(f, cts, brk)
        ref = blind_rotate_batch_reference(f, cts, brk)
        for v, r in zip(vec, ref):
            _assert_ciphertexts_identical(v, r)

    def test_h2_glwe_dimension(self):
        """h = 2 exercises the non-trivial (h+1)-column tensor layout."""
        n = 16
        basis = RnsBasis(find_ntt_primes(26, n, 1))
        gadget = GadgetVector(q=basis.product, base_bits=6, digits=3)
        s = Sampler(21)
        lwe_sk = LweSecretKey.generate(6, s)
        glwe_sk = GlweSecretKey.generate(n, 2, s)
        brk = BlindRotateKey.generate(lwe_sk, glwe_sk, basis, gadget, s)
        f = build_test_vector(_sign_lut(basis.product, n), n, basis)
        cts = [lwe_encrypt(i, lwe_sk, 2 * n, s, error_std=0.5) for i in range(3)]
        vec = blind_rotate_batch(f, cts, brk)
        ref = blind_rotate_batch_reference(f, cts, brk)
        for v, r in zip(vec, ref):
            _assert_ciphertexts_identical(v, r)


class TestDispatchAndValidation:
    def test_empty_batch(self, keys):
        _, __, brk = keys
        f = build_test_vector(_sign_lut(Q, N), N, BASIS)
        assert blind_rotate_batch(f, [], brk) == []
        assert blind_rotate_batch_reference(f, [], brk) == []

    def test_incompatible_ciphertext_rejected(self, keys):
        lwe_sk, _, brk = keys
        s = Sampler(3)
        f = build_test_vector(_sign_lut(Q, N), N, BASIS)
        bad = lwe_encrypt(0, lwe_sk, 4 * N, s)  # wrong modulus
        with pytest.raises(ParameterError):
            blind_rotate_batch(f, [bad], brk)

    def test_engine_cached_per_key(self, keys):
        _, __, brk = keys
        a = BatchBlindRotateEngine.for_key(brk, N, BASIS)
        b = BatchBlindRotateEngine.for_key(brk, N, BASIS)
        assert a is b

    def test_mismatched_ring_rejected(self, keys):
        _, __, brk = keys
        other_basis = RnsBasis(find_ntt_primes(26, N, 1))
        with pytest.raises(ParameterError):
            BatchBlindRotateEngine(brk, N, other_basis)


class TestSharedCaches:
    def test_monomial_cache_shared(self):
        assert get_monomial_cache(N, BASIS) is get_monomial_cache(N, BASIS)

    def test_rgsw_one_shared(self):
        assert get_rgsw_one(1, N, BASIS, GADGET) is get_rgsw_one(1, N, BASIS, GADGET)

    def test_rgsw_one_distinct_per_gadget(self):
        other = GadgetVector(q=Q, base_bits=9, digits=3)
        assert get_rgsw_one(1, N, BASIS, GADGET) is not get_rgsw_one(1, N, BASIS, other)


class TestTensorRoundTrip:
    def test_rgsw_limb_tensor_roundtrip(self, keys):
        _, __, brk = keys
        rgsw = brk.plus[0]
        tensors = rgsw.to_limb_tensors()
        assert tensors[0].shape == ((rgsw.h + 1) * GADGET.digits, rgsw.h + 1, N)
        back = RgswCiphertext.from_limb_tensors(tensors, BASIS, GADGET)
        for comp_a, comp_b in zip(rgsw.rows, back.rows):
            for row_a, row_b in zip(comp_a, comp_b):
                _assert_ciphertexts_identical(row_a.to_eval(), row_b)

    def test_row_layout_matches_gadget_digit_order(self, keys):
        """Row c*d + k of the tensor must hold rows[c][k]."""
        _, __, brk = keys
        rgsw = brk.minus[1]
        tensors = rgsw.to_limb_tensors()
        d = GADGET.digits
        for c in range(rgsw.h + 1):
            for k in range(d):
                row = rgsw.rows[c][k].to_eval()
                for col, poly in enumerate(list(row.mask) + [row.body]):
                    assert np.array_equal(tensors[0][c * d + k, col], poly.limbs[0])


class TestGadgetTensorDecompose:
    def test_int64_matches_object(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(0, Q, size=(3, 2, 8), dtype=np.int64)
        fast = GADGET.decompose_tensor(vals)
        slow = GADGET.decompose_tensor(vals.astype(object))
        assert len(fast) == GADGET.digits
        for f, s in zip(fast, slow):
            assert f.dtype == np.int64
            assert np.array_equal(f.astype(object), s)

    def test_matches_scalar_decompose(self):
        rng = np.random.default_rng(1)
        vals = rng.integers(0, Q, size=16, dtype=np.int64)
        tensor = GADGET.decompose_tensor(vals)
        scalar = GADGET.decompose(vals.astype(object))
        for t, s in zip(tensor, scalar):
            assert np.array_equal(t.astype(object), s)
