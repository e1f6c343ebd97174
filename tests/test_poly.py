"""Tests for RingPoly: ring arithmetic, rotation, automorphism."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.errors import ParameterError
from repro.math.modular import find_ntt_primes
from repro.math.poly import COEFF, EVAL, RingPoly

from .oracle import naive_negacyclic_mul

N = 32
Q = find_ntt_primes(26, N, 1)[0]


def rand_poly(seed, n=N, q=Q):
    rng = np.random.default_rng(seed)
    return RingPoly(n, q, rng.integers(0, q, n))


class TestConstruction:
    def test_zero(self):
        z = RingPoly.zero(N, Q)
        assert all(int(c) == 0 for c in z.data)

    def test_constant(self):
        c = RingPoly.constant(N, Q, 7)
        assert int(c.data[0]) == 7
        assert all(int(v) == 0 for v in c.data[1:])

    def test_negative_inputs_are_reduced(self):
        p = RingPoly(N, Q, [-1] * N)
        assert all(int(v) == Q - 1 for v in p.data)

    def test_wrong_length_rejected(self):
        with pytest.raises(ParameterError):
            RingPoly(N, Q, [1, 2, 3])

    def test_bad_domain_rejected(self):
        with pytest.raises(ParameterError):
            RingPoly(N, Q, [0] * N, domain="fourier")

    def test_monomial_wraps_negacyclically(self):
        # X^N == -1, X^(2N) == 1.
        assert RingPoly.monomial(N, Q, N) == RingPoly.constant(N, Q, -1)
        assert RingPoly.monomial(N, Q, 2 * N) == RingPoly.constant(N, Q, 1)
        assert RingPoly.monomial(N, Q, -1) == RingPoly.monomial(N, Q, 2 * N - 1)


class TestArithmetic:
    def test_add_commutes(self):
        a, b = rand_poly(1), rand_poly(2)
        assert a + b == b + a

    def test_sub_is_add_neg(self):
        a, b = rand_poly(3), rand_poly(4)
        assert a - b == a + (-b)

    def test_mul_matches_schoolbook(self):
        a, b = rand_poly(5), rand_poly(6)
        prod = (a * b).to_coeff()
        ref = naive_negacyclic_mul(a.data, b.data, Q)
        assert [int(v) for v in prod.data] == [int(v) for v in ref]

    def test_scalar_mul(self):
        a = rand_poly(7)
        assert (a * 3) == a + a + a
        assert (3 * a) == a * 3

    def test_mixed_domain_add(self):
        a, b = rand_poly(8), rand_poly(9).to_eval()
        assert (a + b) == (a + b.to_coeff())

    def test_ring_mismatch_rejected(self):
        a = rand_poly(10)
        other_q = find_ntt_primes(26, N, 1, skip=1)[0]
        b = RingPoly(N, other_q, [0] * N)
        with pytest.raises(ParameterError):
            _ = a + b

    def test_distributivity(self):
        a, b, c = rand_poly(11), rand_poly(12), rand_poly(13)
        assert a * (b + c) == a * b + a * c


class TestDomains:
    def test_roundtrip(self):
        a = rand_poly(14)
        assert a.to_eval().to_coeff() == a

    def test_domain_flags(self):
        a = rand_poly(15)
        assert a.domain == COEFF
        assert a.to_eval().domain == EVAL


class TestNegacyclicShift:
    def test_shift_matches_monomial_mult(self):
        a = rand_poly(16)
        for k in (0, 1, 5, N - 1, N, N + 3, 2 * N - 1):
            shifted = a.negacyclic_shift(k)
            mono = RingPoly.monomial(N, Q, k)
            assert shifted == a * mono, f"k={k}"

    def test_shift_by_2n_is_identity(self):
        a = rand_poly(17)
        assert a.negacyclic_shift(2 * N) == a

    def test_shift_by_n_negates(self):
        a = rand_poly(18)
        assert a.negacyclic_shift(N) == -a

    @given(st.integers(-100, 100))
    @settings(max_examples=30, deadline=None)
    def test_shift_composes_additively(self, k):
        a = rand_poly(19)
        assert a.negacyclic_shift(k).negacyclic_shift(5) == a.negacyclic_shift(k + 5)


class TestAutomorphism:
    def test_identity_automorphism(self):
        a = rand_poly(20)
        assert a.automorphism(1) == a

    def test_even_exponent_rejected(self):
        with pytest.raises(ParameterError):
            rand_poly(21).automorphism(2)

    def test_automorphism_is_ring_homomorphism(self):
        a, b = rand_poly(22), rand_poly(23)
        t = 5
        lhs = (a * b).automorphism(t)
        rhs = a.automorphism(t) * b.automorphism(t)
        assert lhs == rhs

    def test_automorphism_composition(self):
        a = rand_poly(24)
        # phi_s(phi_t(a)) == phi_{st mod 2N}(a)
        s, t = 5, 7
        assert a.automorphism(t).automorphism(s) == a.automorphism((s * t) % (2 * N))

    def test_conjugation_exponent(self):
        """X -> X^(2N-1) is the CKKS Conjugate map; applying twice is identity."""
        a = rand_poly(25)
        conj = a.automorphism(2 * N - 1)
        assert conj.automorphism(2 * N - 1) == a

    def test_automorphism_on_monomial(self):
        t = 5
        mono = RingPoly.monomial(N, Q, 3)
        assert mono.automorphism(t) == RingPoly.monomial(N, Q, 3 * t)


class TestCentered:
    def test_centered_bounds(self):
        a = rand_poly(26)
        c = a.centered()
        assert all(-Q // 2 <= int(v) <= Q // 2 for v in c)
