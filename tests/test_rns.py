"""Tests for RNS polynomials, rescaling, and fast basis conversion."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.errors import ParameterError
from repro.math.modular import find_ntt_primes, mac_rows
from repro.math.rns import (
    RnsBasis,
    RnsPoly,
    basis_convert,
    basis_convert_reference,
    concat_bases,
    get_bconv_plan,
)

from .oracle import naive_negacyclic_mul

N = 16
PRIMES = find_ntt_primes(22, N, 6)
BASIS = RnsBasis(PRIMES[:4])
AUX = RnsBasis(PRIMES[4:6])


def rand_rns(seed, basis=BASIS, n=N):
    rng = np.random.default_rng(seed)
    big_q = basis.product
    coeffs = np.asarray([int(x) for x in rng.integers(0, 2**60, n)], dtype=object) % big_q
    return RnsPoly.from_int_coeffs(n, basis, coeffs)


class TestBasis:
    def test_duplicate_moduli_rejected(self):
        with pytest.raises(ParameterError):
            RnsBasis([17, 17])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            RnsBasis([])

    def test_product(self):
        b = RnsBasis([3, 5, 7])
        assert b.product == 105

    def test_prefix(self):
        assert BASIS.prefix(2).moduli == PRIMES[:2]

    def test_concat(self):
        c = concat_bases(BASIS, AUX)
        assert c.moduli == PRIMES[:6]


class TestRnsPolyRoundtrip:
    def test_int_coeff_roundtrip(self):
        p = rand_rns(0)
        back = RnsPoly.from_int_coeffs(N, BASIS, p.to_int_coeffs())
        assert p == back

    def test_centered_roundtrip(self):
        p = rand_rns(1)
        c = p.to_centered_int_coeffs()
        back = RnsPoly.from_int_coeffs(N, BASIS, c)
        assert p == back

    def test_domain_roundtrip(self):
        p = rand_rns(2)
        assert p.to_eval().to_coeff() == p


class TestRnsArithmetic:
    def test_add_matches_bigint(self):
        a, b = rand_rns(3), rand_rns(4)
        got = (a + b).to_int_coeffs()
        want = (a.to_int_coeffs() + b.to_int_coeffs()) % BASIS.product
        assert list(got) == list(want)

    def test_sub_neg_consistency(self):
        a, b = rand_rns(5), rand_rns(6)
        assert (a - b) == (a + (-b))

    def test_mul_matches_bigint_convolution(self):
        a, b = rand_rns(7), rand_rns(8)
        got = (a * b).to_int_coeffs()
        want = naive_negacyclic_mul(a.to_int_coeffs(), b.to_int_coeffs(), BASIS.product)
        assert [int(v) for v in got] == [int(v) for v in want]

    def test_scalar_mul(self):
        a = rand_rns(9)
        assert (a * 3) == (a + a + a)

    def test_basis_mismatch_rejected(self):
        a = rand_rns(10)
        b = rand_rns(11, basis=BASIS.prefix(2))
        with pytest.raises(ParameterError):
            _ = a + b

    def test_automorphism_limbwise_consistent(self):
        a = rand_rns(12)
        t = 5
        got = a.automorphism(t).to_int_coeffs()
        # Reference: automorphism on the composed big-int polynomial.
        # Compose manually: apply index map on big-int coefficients.
        n = N
        coeffs = a.to_int_coeffs()
        big_q = BASIS.product
        idx = (np.arange(n) * t) % (2 * n)
        ref = np.zeros(n, dtype=object)
        ref[idx % n] = np.where(idx >= n, (-coeffs) % big_q, coeffs)
        assert list(got) == list(ref)


class TestRescale:
    def test_rescale_divides_by_last_prime(self):
        """rescale(x) must equal round(x / q_last) up to +-1 (RNS rounding)."""
        a = rand_rns(13)
        q_last = BASIS.moduli[-1]
        scaled = a.rescale_last_limb()
        got = scaled.to_centered_int_coeffs()
        want = a.to_centered_int_coeffs()
        for g, w in zip(got, want):
            assert abs(int(g) * q_last - int(w)) <= q_last // 2 + q_last, (g, w)

    def test_rescale_exact_on_multiples(self):
        """If x is an exact multiple of q_last, rescale is exact division."""
        q_last = BASIS.moduli[-1]
        small_q = BASIS.prefix(3).product
        rng = np.random.default_rng(14)
        base = np.asarray([int(v) for v in rng.integers(0, 10**6, N)], dtype=object)
        a = RnsPoly.from_int_coeffs(N, BASIS, base * q_last)
        got = a.rescale_last_limb().to_int_coeffs()
        assert list(got) == list(base % small_q)

    def test_rescale_single_limb_rejected(self):
        a = rand_rns(15, basis=BASIS.prefix(1))
        with pytest.raises(ParameterError):
            a.rescale_last_limb()

    def test_drop_limb_preserves_prefix_residues(self):
        a = rand_rns(16)
        d = a.drop_last_limb()
        assert len(d.basis) == 3
        for x, y in zip(d.limbs, a.to_coeff().limbs[:3]):
            assert np.array_equal(x, y)


class TestBasisConvert:
    def test_bconv_error_is_small_multiple_of_q(self):
        """Approximate BConv returns x + k*Q for small k >= 0 (HPS bound k < L)."""
        a = rand_rns(17)
        big_q = BASIS.product
        converted = basis_convert(a, AUX)
        x = a.to_int_coeffs()
        got = converted.to_int_coeffs()
        aux_q = AUX.product
        for xi, gi in zip(x, got):
            diff = (int(gi) - int(xi)) % aux_q
            # diff must be k*Q mod aux_q for 0 <= k < L
            candidates = [(k * big_q) % aux_q for k in range(len(BASIS) + 1)]
            assert diff in candidates, f"BConv error not a small multiple of Q: {diff}"

    def test_bconv_exact_for_zero(self):
        """Zero converts exactly — every scaled residue is zero."""
        a = RnsPoly.zero(N, BASIS)
        got = basis_convert(a, AUX).to_int_coeffs()
        assert all(int(v) == 0 for v in got)

    def test_chunked_mac_bit_identical_over_many_wide_limbs(self):
        """Nine 31-bit source limbs overflow one uint64 lane (mac_rows is
        4 there), so the conversion runs in several chunks; every chunk
        drains mod its own 28-bit p_j and the result equals the exact
        object-lane oracle, including at every residue's maximum."""
        src = RnsBasis(find_ntt_primes(31, N, 9))
        dst = RnsBasis(find_ntt_primes(28, N, 3))
        assert get_bconv_plan(src.moduli, dst.moduli).fast
        assert len(src) > 2 * mac_rows(max(src.moduli))
        top = RnsPoly(N, src, [np.full(N, q - 1, dtype=np.int64)
                               for q in src.moduli])
        for a in (rand_rns(23, src), top):
            got = basis_convert(a, dst)
            want = basis_convert_reference(a, dst)
            assert all(np.array_equal(x, y)
                       for x, y in zip(got.limbs, want.limbs))

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_bconv_property(self, seed):
        rng = np.random.default_rng(seed)
        vals = np.asarray([int(v) for v in rng.integers(0, 2**40, N)], dtype=object)
        vals = vals % BASIS.product
        a = RnsPoly.from_int_coeffs(N, BASIS, vals)
        got = basis_convert(a, AUX).to_int_coeffs()
        aux_q = AUX.product
        for xi, gi in zip(vals, got):
            diff = (int(gi) - int(xi)) % aux_q
            ks = [(k * BASIS.product) % aux_q for k in range(len(BASIS) + 1)]
            assert diff in ks
