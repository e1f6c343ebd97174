"""Tests for the exact float64-FFT product kernel (``repro.math.fourier``).

The contract: whatever the ring size, limb width, gadget and input signs,
the kernel's rounded, recombined product is bit-equal to the same
external-product step run per limb in the NTT domain.
"""

from math import prod

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.errors import FourierRoundingError, ParameterError
from repro.math.fourier import RESIDUAL_LIMIT, get_fft, signed_pieces, split_plan
from repro.math.gadget import GadgetVector
from repro.math.modular import find_ntt_primes, matmul_mod
from repro.math.ntt import get_ntt_engine
from repro.math.rns import RnsBasis
from repro.math.sampling import Sampler
from repro.tfhe import batch_engine
from repro.tfhe.blind_rotate import BlindRotateKey, build_test_vector, get_monomial_cache
from repro.tfhe.glwe import GlweSecretKey
from repro.tfhe.lwe import LweSecretKey, lwe_encrypt

#: Two primes per width, NTT-friendly up to N = 1024: 28/30/31-bit limbs
#: run the int64 NTT reference, 36-bit ones its object lane.
PRIMES = {bits: find_ntt_primes(bits, 1024, 2) for bits in (28, 30, 31, 36)}
COLS = 2


def _reference(digits, keys, a_vals, addends, moduli):
    """Per limb: forward_axis0 of digits and key, matmul_mod, the
    eval-domain X^a - 1 factors, inverse_axis0, plus the addend."""
    n = digits.shape[0]
    out = []
    # lazy-bound: matmul_mod takes the canonical eval-domain residues the
    # forward transforms return.
    for key, add, q in zip(keys, addends, moduli):
        ntt = get_ntt_engine(n, q)
        mono = get_monomial_cache(n, RnsBasis([q]))
        d_eval = ntt.forward_axis0(np.mod(digits, q))
        k_eval = ntt.forward_axis0(key)
        ep = matmul_mod(d_eval, k_eval, q)
        m_p = np.stack([mono.monomial_minus_one(int(a))[0] for a in a_vals], axis=1)
        m_m = np.stack([mono.monomial_minus_one(2 * n - int(a))[0] for a in a_vals],
                       axis=1)
        terms = np.mod(ep[..., :COLS] * m_p[..., None]
                       + ep[..., COLS:] * m_m[..., None], q)
        out.append(np.mod(ntt.inverse_axis0(terms) + add, q).astype(np.int64))
    return out


def _kernel(digits, keys, a_vals, addends, moduli, max_digit):
    """The same step through one FFT of the digits for every limb."""
    n, batch, rows = digits.shape
    fft = get_fft(n)
    width, pieces = split_plan(n, rows, max_digit, max(moduli))
    spec = np.stack([fft.forward(signed_pieces(k, q, width, pieces))
                     for k, q in zip(keys, moduli)], axis=-2)
    spec = spec.reshape(n // 2, rows, -1)
    prod_ = np.matmul(fft.forward(digits), spec)
    half = prod_.shape[-1] // 2
    terms = prod_[..., :half] * fft.monomial_minus_one(a_vals)[..., None]
    terms += prod_[..., half:] * fft.monomial_minus_one(2 * n - a_vals)[..., None]
    # lazy-bound: |digit| <= max_digit over `rows` rows and key pieces
    # from split_plan(n, rows, max_digit, max q): its proof covers this
    # product, two halves each scaled by X^a - 1.
    return fft.round_to_residues(
        terms.reshape(n // 2, batch, COLS, len(moduli), pieces),
        moduli, width, addends)


@st.composite
def products(draw):
    """A ring size, 1-2 limbs of one width, an exact or inexact gadget
    over their product, and either decomposed random residues or
    worst-sign inputs (every digit +max, every key at floor(q/2))."""
    n = draw(st.sampled_from([16, 32, 1024]))
    moduli = PRIMES[draw(st.sampled_from(sorted(PRIMES)))]
    moduli = moduli[:draw(st.integers(1, 2))]
    big_q = prod(moduli)
    logq = big_q.bit_length()
    base_bits = draw(st.sampled_from(
        [b for b in (4, 7, 9, 12, 14) if b <= logq]))
    most = min(logq // base_bits, 3 if n == 1024 else 8)
    digits_count = draw(st.one_of(st.just(logq // base_bits),
                                  st.integers(1, most)))
    if n == 1024:
        digits_count = min(digits_count, most)
    gadget = GadgetVector(q=big_q, base_bits=base_bits, digits=digits_count)
    worst = draw(st.booleans())
    batch = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    a_vals = np.array(draw(st.lists(st.integers(0, 2 * n - 1),
                                    min_size=batch, max_size=batch)))
    return n, moduli, gadget, worst, batch, seed, a_vals


class TestBitIdentity:
    @given(products())
    @settings(max_examples=40, deadline=None)
    @example((1024, PRIMES[28][:1], GadgetVector(q=PRIMES[28][0], base_bits=14,
                                                 digits=2),
              True, 2, 0, np.array([1, 2047])))
    @example((32, PRIMES[30][:2], GadgetVector(q=prod(PRIMES[30][:2]),
                                               base_bits=4, digits=15),
              True, 3, 1, np.array([0, 5, 63])))
    @example((16, PRIMES[36][:2], GadgetVector(q=prod(PRIMES[36][:2]),
                                               base_bits=9, digits=3),
              True, 1, 2, np.array([17])))
    def test_matches_ntt_external_product(self, case):
        n, moduli, gadget, worst, batch, seed, a_vals = case
        rng = np.random.default_rng(seed)
        rows = COLS * gadget.digits
        max_digit = gadget.base // 2 + 1
        if worst:
            digits = np.full((n, batch, rows), max_digit, dtype=np.int64)
            keys = [np.full((n, rows, 2 * COLS), q // 2, dtype=np.int64)
                    for q in moduli]
        else:
            acc = [rng.integers(0, q, (n, batch, COLS)) for q in moduli]
            digits = np.asarray(gadget.decompose_residues(acc, moduli),
                                dtype=np.int64).reshape(n, batch, rows)
            keys = [rng.integers(0, q, (n, rows, 2 * COLS)) for q in moduli]
        assert np.abs(digits).max() <= max_digit
        addends = [rng.integers(0, q, (n, batch, COLS)) for q in moduli]
        got = _kernel(digits, keys, a_vals, addends, moduli, max_digit)
        want = _reference(digits, keys, a_vals, addends, moduli)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)


class TestMonomialSpectra:
    def test_every_rotation_round_trips_at_n1024(self):
        """X^a - 1 for every a in [0, 2N): the spectrum, inverted and
        rounded, is the signed rotation itself."""
        n = 1024
        fft = get_fft(n)
        q = PRIMES[31][0]
        a = np.arange(2 * n)
        spec = fft.monomial_minus_one(a)
        # lazy-bound: one piece, coefficients in {-2, -1, 0, 1}: far
        # inside split_plan's bound for a single row.
        got = fft.round_to_residues(spec[..., None, None], [q], 31,
                                    [np.zeros((n, 2 * n), dtype=np.int64)])[0]
        want = np.zeros((n, 2 * n), dtype=np.int64)
        want[a % n, a] = np.where(a < n, 1, q - 1)
        want[0] = (want[0] + q - 1) % q
        assert np.array_equal(got, want)


class TestRecombination:
    def test_wide_pieces_reduce_between_horner_steps(self):
        """Four 24-bit-shifted pieces of 40-bit products would pass 2^61
        unreduced: the fold reduces the lanes between steps and still
        returns the exact sum mod each 36-bit limb."""
        n, width = 16, 24
        moduli = PRIMES[36]
        rng = np.random.default_rng(0)
        c = rng.integers(-(1 << 40), 1 << 40, (n, 3, len(moduli), 4))
        add = [rng.integers(0, q, (n, 3)) for q in moduli]
        fft = get_fft(n)
        # lazy-bound: integer inputs below 2^41 round-trip far inside
        # RESIDUAL_LIMIT at n = 16; the fold tracks its own lane bound.
        got = fft.round_to_residues(fft.forward(c), moduli, width, add)
        for li, q in enumerate(moduli):
            want = [[(sum(int(c[j, b, li, t]) << (t * width) for t in range(4))
                      + int(add[li][j, b])) % q for b in range(3)]
                    for j in range(n)]
            assert got[li].tolist() == want


class TestResidualGuard:
    def test_too_wide_split_raises(self, monkeypatch):
        """One full-width piece at N = 1024 with 15-bit digits leaves
        residuals spread over [0, 1/2]: the guard refuses the product."""
        n = 1024
        q = PRIMES[31][0]
        basis = RnsBasis([q])
        gadget = GadgetVector(q=q, base_bits=15, digits=2)
        s = Sampler(5)
        lwe_sk = LweSecretKey.generate(2, s)
        glwe_sk = GlweSecretKey.generate(n, 1, s)
        brk = BlindRotateKey.generate(lwe_sk, glwe_sk, basis, gadget, s)
        f = build_test_vector(
            lambda t: (q // 3) * (1 if t % (2 * n) < n else -1) % q, n, basis)
        cts = [lwe_encrypt(i * 97, lwe_sk, 2 * n, s, error_std=0.5)
               for i in range(4)]
        assert batch_engine.BatchBlindRotateEngine(brk, n, basis).pieces > 1
        monkeypatch.setattr(batch_engine, "split_plan",
                            lambda n_, rows, digit, q_: (q_.bit_length(), 1))
        engine = batch_engine.BatchBlindRotateEngine(brk, n, basis)
        with pytest.raises(FourierRoundingError) as err:
            engine.rotate_batch(f, cts)
        assert err.value.residual > RESIDUAL_LIMIT


class TestSplitPlan:
    def test_benchmark_shapes(self):
        """The 4 x 30-bit, 60-row Algorithm-2 shape takes two 15-bit
        pieces; the N = 1024, 14-bit-digit LWE shape three 10-bit ones."""
        assert split_plan(32, 60, 9, PRIMES[30][0]) == (15, 2)
        assert split_plan(1024, 4, 2 ** 13 + 1, PRIMES[28][0]) == (10, 3)

    def test_pieces_are_balanced_and_exact(self):
        q = PRIMES[36][0]
        width, pieces = split_plan(16, 6, 129, q)
        vals = np.array([0, 1, q // 2, q // 2 + 1, q - 1])
        got = signed_pieces(vals, q, width, pieces)
        assert np.abs(got).max() <= 1 << (width - 1)
        centred = np.where(vals > q // 2, vals - q, vals)
        assert [sum(int(p) << (t * width) for t, p in enumerate(row))
                for row in got] == centred.tolist()

    def test_no_split_raises(self):
        with pytest.raises(ParameterError):
            split_plan(1 << 30, 1 << 10, 1 << 29, PRIMES[31][0])
