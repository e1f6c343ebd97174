"""Tests for gadget decomposition."""

from math import prod

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.errors import ParameterError
from repro.math.gadget import GadgetVector, ResidueDecomposer
from repro.math.modular import crt_compose, find_ntt_primes

from .oracle import exact_digits

Q = find_ntt_primes(28, 16, 1)[0]

#: Six primes per width: 28/30/31-bit take the fixed-width path, 36-bit
#: the wide (big-int) one.
PRIMES = {bits: find_ntt_primes(bits, 16, 6) for bits in (28, 30, 31, 36)}


class TestGadgetVector:
    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterError):
            GadgetVector(q=Q, base_bits=0, digits=2)
        with pytest.raises(ParameterError):
            GadgetVector(q=Q, base_bits=20, digits=3)  # 60 bits > 28

    def test_factors_descending(self):
        g = GadgetVector(q=Q, base_bits=9, digits=3)
        f = g.factors()
        assert f == sorted(f, reverse=True)
        assert all(x > 0 for x in f)

    def test_recompose_error_bound(self):
        g = GadgetVector(q=Q, base_bits=9, digits=3)
        rng = np.random.default_rng(0)
        vals = np.asarray([int(v) for v in rng.integers(0, Q, 64)], dtype=object)
        digits = g.decompose(vals)
        back = g.recompose(digits)
        half = Q // 2
        for v, b in zip(vals, back):
            diff = (int(b) - int(v)) % Q
            diff = diff - Q if diff > half else diff
            assert abs(diff) <= g.max_error(), (v, b, diff)

    def test_digits_are_balanced(self):
        g = GadgetVector(q=Q, base_bits=8, digits=3)
        rng = np.random.default_rng(1)
        vals = np.asarray([int(v) for v in rng.integers(0, Q, 128)], dtype=object)
        digits = g.decompose(vals)
        half_b = g.base // 2
        # Low digits strictly balanced; the top digit may carry one extra.
        for d in digits[1:]:
            assert all(-half_b <= int(x) <= half_b for x in d)
        assert all(-half_b - 1 <= int(x) <= half_b + 1 for x in digits[0])

    def test_full_precision_gadget_is_exact(self):
        """When digits*base_bits covers log q, recomposition is exact."""
        q = 2**20 + 7  # not prime but gadget doesn't care; bit_length = 21
        g = GadgetVector(q=q, base_bits=7, digits=3)
        vals = np.asarray([0, 1, q - 1, q // 2, 12345], dtype=object)
        back = g.recompose(g.decompose(vals))
        assert list(back) == [int(v) % q for v in vals]

    def test_digit_count_mismatch_rejected(self):
        g = GadgetVector(q=Q, base_bits=9, digits=3)
        with pytest.raises(ParameterError):
            g.recompose([np.zeros(4, dtype=object)] * 2)

    @given(st.integers(0, 2**27))
    @settings(max_examples=100)
    def test_scalar_roundtrip_property(self, v):
        g = GadgetVector(q=Q, base_bits=9, digits=3)
        vals = np.asarray([v % Q], dtype=object)
        back = int(g.recompose(g.decompose(vals))[0])
        diff = (back - (v % Q)) % Q
        diff = diff - Q if diff > Q // 2 else diff
        assert abs(diff) <= g.max_error()


class TestExactDigits:
    def test_reconstruction(self):
        vals = np.asarray([0, 1, 255, 256, 65535], dtype=object)
        digits = exact_digits(vals, 256, 2)
        recon = digits[0] + digits[1] * 256
        assert list(recon) == list(vals)

    def test_digit_range(self):
        vals = np.asarray([123456789], dtype=object)
        for d in exact_digits(vals, 1 << 10, 3):
            assert 0 <= int(d[0]) < (1 << 10)


def _composed_digits(gadget, moduli, residues):
    """The reference: big-int CRT compose, then ``decompose_tensor``."""
    big = crt_compose(np.stack([r.astype(object) for r in residues]), moduli)
    return np.stack(gadget.decompose_tensor(big), axis=-1)


@st.composite
def residue_cases(draw):
    """A basis of 1-6 limbs, a gadget over its product (exact whenever
    ``base_bits`` divides ``log Q`` and the full digit count is drawn),
    and values including 0, 1, Q - 1, floor(Q/2) and floor(Q/2) +- 1."""
    moduli = PRIMES[draw(st.sampled_from(sorted(PRIMES)))]
    moduli = moduli[:draw(st.integers(1, 6))]
    q = prod(moduli)
    base_bits = draw(st.sampled_from(
        [b for b in (1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 24, 30, 31)
         if b <= q.bit_length()]))
    most = q.bit_length() // base_bits
    digits = draw(st.one_of(st.just(most), st.integers(1, most)))
    half = q // 2
    values = [0, 1, q - 1, half - 1, half, half + 1]
    values += draw(st.lists(st.integers(0, q - 1), max_size=10))
    return GadgetVector(q=q, base_bits=base_bits, digits=digits), moduli, values


class TestDecomposeResidues:
    @given(residue_cases())
    @settings(max_examples=300, deadline=None)
    @example((GadgetVector(q=prod(PRIMES[30][:4]), base_bits=4, digits=30),
              PRIMES[30][:4], [0, 1, prod(PRIMES[30][:4]) - 1]))
    def test_bit_equal_to_compose_then_decompose(self, case):
        gadget, moduli, values = case
        vals = np.asarray(values, dtype=object)
        residues = [np.mod(vals, q).astype(np.int64) for q in moduli]
        got = gadget.decompose_residues(residues, moduli)
        want = _composed_digits(gadget, moduli, residues)
        assert got.shape == vals.shape + (gadget.digits,)
        assert [int(x) for x in got.ravel()] == [int(x) for x in want.ravel()]

    @pytest.mark.parametrize("base_bits,digits", [(4, 30), (7, 10), (9, 13)])
    def test_fixed_width_keeps_shape_and_int64(self, base_bits, digits):
        """A 4 x 30-bit basis takes the fixed-width path: int64 digits on
        a new last axis of the (N, batch, h+1) residue shape."""
        moduli = PRIMES[30][:4]
        gadget = GadgetVector(q=prod(moduli), base_bits=base_bits,
                              digits=digits)
        dec = ResidueDecomposer(gadget, moduli)
        assert dec.fixed
        rng = np.random.default_rng(base_bits)
        residues = [rng.integers(0, q, (8, 3, 2)) for q in moduli]
        got = dec(residues)
        assert got.dtype == np.int64 and got.shape == (8, 3, 2, digits)
        assert np.array_equal(got, _composed_digits(gadget, moduli, residues))

    def test_one_limb_is_decompose_tensor(self):
        gadget = GadgetVector(q=Q, base_bits=9, digits=3)
        x = np.random.default_rng(3).integers(0, Q, (16, 4))
        got = gadget.decompose_residues([x], [Q])
        assert got.dtype == np.int64
        assert np.array_equal(got, np.stack(gadget.decompose_tensor(x), axis=-1))

    def test_gadget_must_span_the_basis(self):
        moduli = PRIMES[30][:2]
        with pytest.raises(ParameterError):
            ResidueDecomposer(GadgetVector(q=moduli[0], base_bits=4,
                                           digits=7), moduli)
