"""Tests for BlindRotate (Algorithm 1), test vectors, extraction, repack."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.math.gadget import GadgetVector
from repro.math.modular import find_ntt_primes
from repro.math.rns import RnsBasis, RnsPoly
from repro.math.sampling import Sampler
from repro.tfhe.blind_rotate import (
    BlindRotateKey,
    blind_rotate,
    blind_rotate_batch,
    build_test_vector,
)
from repro.tfhe.extract import (
    embed_lwe,
    extract_lwe,
    extract_rns_lwe,
    rlwe_secret_as_lwe_key,
)
from repro.tfhe.glwe import GlweSecretKey, glwe_decrypt_coeffs, glwe_encrypt
from repro.tfhe.keyswitch import AutomorphismKeySet
from repro.tfhe.lwe import LweSecretKey, lwe_encrypt, lwe_phase
from repro.tfhe.repack import repack_exponents
from repro.tfhe.repack_engine import repack

N = 32
Q = find_ntt_primes(28, N, 1)[0]
BASIS = RnsBasis([Q])
GADGET = GadgetVector(q=Q, base_bits=7, digits=4)
N_T = 16


@pytest.fixture(scope="module")
def keys():
    s = Sampler(99)
    lwe_sk = LweSecretKey.generate(N_T, s)
    glwe_sk = GlweSecretKey.generate(N, 1, s)
    brk = BlindRotateKey.generate(lwe_sk, glwe_sk, BASIS, GADGET, s)
    return lwe_sk, glwe_sk, brk


class TestTestVector:
    def test_negacyclic_check_enforced(self):
        with pytest.raises(ParameterError):
            build_test_vector(lambda t: 1, N, BASIS)  # constant is not negacyclic

    def test_vector_semantics_plaintext(self):
        """const(f * X^phi) == g(phi) for every phi, checked in plaintext."""
        def g(t):
            t = t % (2 * N)
            return (Q // 8) * (1 if t < N else -1) % Q

        f = build_test_vector(g, N, BASIS)
        from repro.tfhe.glwe import _shift_rns
        for phi in range(2 * N):
            rotated = _shift_rns(f, phi)
            got = int(rotated.limbs[0][0])
            assert got == g(phi) % Q, f"phi={phi}"

    def test_linear_lut_vector(self):
        """g(t) = c*t on [0, N) extended anti-periodically."""
        def g(t):
            t = t % (2 * N)
            return (17 * t) % Q if t < N else (-17 * (t - N)) % Q

        f = build_test_vector(g, N, BASIS)
        from repro.tfhe.glwe import _shift_rns
        for phi in range(2 * N):
            got = int(_shift_rns(f, phi).limbs[0][0])
            assert got == g(phi), f"phi={phi}"


class TestBlindRotate:
    def _sign_lut(self):
        def g(t):
            t = t % (2 * N)
            return (Q // 8) * (1 if t < N else -1) % Q
        return g

    def test_rotation_matches_phase(self, keys):
        lwe_sk, glwe_sk, brk = keys
        s = Sampler(1)
        g = self._sign_lut()
        f = build_test_vector(g, N, BASIS)
        # Message in upper half-plane of Z_2N.
        m = N // 4
        ct = lwe_encrypt(m, lwe_sk, 2 * N, s, error_std=0.5)
        phi = lwe_phase(ct, lwe_sk) % (2 * N)
        acc = blind_rotate(f, ct, brk)
        const = int(glwe_decrypt_coeffs(acc, glwe_sk)[0])
        expected = g(phi)
        expected = expected - Q if expected > Q // 2 else expected
        assert abs(const - expected) < Q // 64

    @pytest.mark.parametrize("phase_target", [0, 5, N - 1, N + 3, 2 * N - 1])
    def test_various_phases(self, keys, phase_target):
        lwe_sk, glwe_sk, brk = keys
        s = Sampler(2 + phase_target)
        def g(t):
            t = t % (2 * N)
            c = Q // (8 * N)
            return (c * t) % Q if t < N else (-c * (t - N)) % Q

        f = build_test_vector(g, N, BASIS)
        ct = lwe_encrypt(phase_target, lwe_sk, 2 * N, s, error_std=0.0)
        phi = lwe_phase(ct, lwe_sk) % (2 * N)
        acc = blind_rotate(f, ct, brk)
        const = int(glwe_decrypt_coeffs(acc, glwe_sk)[0]) % Q
        assert min((const - g(phi)) % Q, (g(phi) - const) % Q) < Q // 256

    def test_wrong_modulus_rejected(self, keys):
        lwe_sk, _, brk = keys
        s = Sampler(3)
        f = build_test_vector(self._sign_lut(), N, BASIS)
        ct = lwe_encrypt(0, lwe_sk, 4 * N, s)
        with pytest.raises(ParameterError):
            blind_rotate(f, ct, brk)

    def test_batch_matches_sequential(self, keys):
        lwe_sk, glwe_sk, brk = keys
        s = Sampler(4)
        f = build_test_vector(self._sign_lut(), N, BASIS)
        cts = [lwe_encrypt(i * 7, lwe_sk, 2 * N, s, error_std=0.5) for i in range(4)]
        batch = blind_rotate_batch(f, cts, brk)
        for ct, acc_b in zip(cts, batch):
            acc_s = blind_rotate(f, ct, brk)
            got_b = int(glwe_decrypt_coeffs(acc_b, glwe_sk)[0]) % Q
            got_s = int(glwe_decrypt_coeffs(acc_s, glwe_sk)[0]) % Q
            # Same inputs, same keys -> identical ciphertexts.
            assert got_b == got_s

    def test_key_size_accounting(self, keys):
        _, __, brk = keys
        rows, cols = brk.plus[0].matrix_shape()
        expected = N_T * 2 * rows * cols * N * Q.bit_length() // 8
        assert brk.size_bytes() == expected


class TestExtract:
    def test_extract_phase_identity(self, keys):
        """Eq. 2: the LWE phase equals the RLWE phase coefficient."""
        _, glwe_sk, __ = keys
        s = Sampler(5)
        m = np.zeros(N, dtype=object)
        m[0], m[3], m[N - 1] = 1000, -2000, 3000
        ct = glwe_encrypt(RnsPoly.from_int_coeffs(N, BASIS, m), glwe_sk, s)
        rlwe_phase = glwe_decrypt_coeffs(ct, glwe_sk)
        lwe_key = rlwe_secret_as_lwe_key(glwe_sk.coeffs[0])
        for i in (0, 3, N - 1):
            lwe = extract_lwe(ct, i)
            phase = lwe_phase(lwe, lwe_key)
            assert phase == int(rlwe_phase[i]) % Q

    def test_extract_all_indices(self, keys):
        _, glwe_sk, __ = keys
        s = Sampler(6)
        rng = np.random.default_rng(0)
        m = np.asarray([int(v) for v in rng.integers(-500, 500, N)], dtype=object) * 100
        ct = glwe_encrypt(RnsPoly.from_int_coeffs(N, BASIS, m), glwe_sk, s)
        rlwe_phase = glwe_decrypt_coeffs(ct, glwe_sk)
        lwe_key = rlwe_secret_as_lwe_key(glwe_sk.coeffs[0])
        for i in range(N):
            assert lwe_phase(extract_lwe(ct, i), lwe_key) == int(rlwe_phase[i]) % Q

    def test_rns_extract_matches_single_limb(self, keys):
        _, glwe_sk, __ = keys
        s = Sampler(7)
        m = np.zeros(N, dtype=object)
        m[2] = 12345
        ct = glwe_encrypt(RnsPoly.from_int_coeffs(N, BASIS, m), glwe_sk, s)
        rns = extract_rns_lwe(ct, 2)
        single = extract_lwe(ct, 2)
        lwe_key = rlwe_secret_as_lwe_key(glwe_sk.coeffs[0])
        assert rns.phase(glwe_sk.coeffs[0]) % Q == lwe_phase(single, lwe_key)

    def test_embed_is_inverse_of_extract0(self, keys):
        _, glwe_sk, __ = keys
        s = Sampler(8)
        m = np.zeros(N, dtype=object)
        m[0] = 777
        ct = glwe_encrypt(RnsPoly.from_int_coeffs(N, BASIS, m), glwe_sk, s)
        back = embed_lwe(extract_rns_lwe(ct, 0))
        src = ct.to_coeff()
        assert np.array_equal(back.mask[0].limbs[0], src.mask[0].limbs[0])
        assert int(back.body.limbs[0][0]) == int(src.body.limbs[0][0])

    def test_index_out_of_range(self, keys):
        _, glwe_sk, __ = keys
        s = Sampler(9)
        ct = glwe_encrypt(RnsPoly.zero(N, BASIS), glwe_sk, s)
        with pytest.raises(ParameterError):
            extract_lwe(ct, N)


class TestRepack:
    def test_exponent_list(self):
        assert repack_exponents(8) == [3, 5, 9]
        assert repack_exponents(2) == [3]

    def test_repack_constant_coefficients(self, keys):
        """Pack 4 RLWE cts; coeff i*(N/4) must be 4 * v_i, garbage gone."""
        _, glwe_sk, __ = keys
        s = Sampler(10)
        values = [1000, -2000, 3000, 4000]
        cts = []
        for i, v in enumerate(values):
            m = np.zeros(N, dtype=object)
            m[0] = v
            # Deliberate garbage in other coefficients.
            m[5] = 99999 * (i + 1)
            cts.append(glwe_encrypt(RnsPoly.from_int_coeffs(N, BASIS, m), glwe_sk, s))
        keys_auto = AutomorphismKeySet.generate(
            glwe_sk, repack_exponents(N), BASIS, GADGET, s)
        packed = repack(cts, keys_auto)
        phase = glwe_decrypt_coeffs(packed, glwe_sk)
        stride = N // 4
        for i, v in enumerate(values):
            got = int(phase[i * stride])
            assert abs(got - N * v) < Q // 1024, f"slot {i}: {got} vs {N * v}"
        # Non-stride coefficients only hold noise.
        for j in range(N):
            if j % stride:
                assert abs(int(phase[j])) < Q // 1024

    def test_repack_single(self, keys):
        _, glwe_sk, __ = keys
        s = Sampler(11)
        m = np.zeros(N, dtype=object)
        m[0] = 5555
        ct = glwe_encrypt(RnsPoly.from_int_coeffs(N, BASIS, m), glwe_sk, s)
        keys_auto = AutomorphismKeySet.generate(
            glwe_sk, repack_exponents(N), BASIS, GADGET, s)
        packed = repack([ct], keys_auto)
        got = int(glwe_decrypt_coeffs(packed, glwe_sk)[0])
        assert abs(got - N * 5555) < Q // 1024

    def test_repack_full_ring(self, keys):
        """Pack N ciphertexts: every coefficient position used."""
        _, glwe_sk, __ = keys
        s = Sampler(12)
        values = [(i + 1) * 300 for i in range(N)]
        cts = []
        for v in values:
            m = np.zeros(N, dtype=object)
            m[0] = v
            cts.append(glwe_encrypt(RnsPoly.from_int_coeffs(N, BASIS, m), glwe_sk, s))
        keys_auto = AutomorphismKeySet.generate(
            glwe_sk, repack_exponents(N), BASIS, GADGET, s)
        packed = repack(cts, keys_auto)
        phase = glwe_decrypt_coeffs(packed, glwe_sk)
        for i, v in enumerate(values):
            assert abs(int(phase[i]) - N * v) < Q // 256

    def test_non_power_of_two_rejected(self, keys):
        _, glwe_sk, __ = keys
        s = Sampler(13)
        ct = glwe_encrypt(RnsPoly.zero(N, BASIS), glwe_sk, s)
        keys_auto = AutomorphismKeySet.generate(glwe_sk, [3], BASIS, GADGET, s)
        with pytest.raises(ParameterError):
            repack([ct, ct, ct], keys_auto)
