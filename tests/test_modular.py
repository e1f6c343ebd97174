"""Unit and property tests for repro.math.modular."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.math.modular import (
    ModulusEngine,
    barrett_precompute,
    crt_compose,
    crt_decompose,
    find_ntt_primes,
    is_prime,
    mac_rows,
    matmul_mod,
    primitive_root,
    reduce_mod,
    root_of_unity,
)


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 97, 7681, 12289):
            assert is_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 91, 561, 1105, 7680):
            assert not is_prime(c)

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat pseudoprimes that fool weak tests.
        for c in (561, 41041, 825265, 321197185):
            assert not is_prime(c)

    def test_large_ntt_prime(self):
        # A known 36-bit NTT-friendly prime for N=2^13.
        primes = find_ntt_primes(36, 1 << 13, 1)
        assert is_prime(primes[0])


class TestNttPrimes:
    def test_congruence_condition(self):
        n = 256
        for p in find_ntt_primes(28, n, 5):
            assert p % (2 * n) == 1

    def test_primes_distinct_and_descending(self):
        primes = find_ntt_primes(30, 128, 6)
        assert len(set(primes)) == 6
        assert primes == sorted(primes, reverse=True)

    def test_skip_produces_disjoint_sets(self):
        a = find_ntt_primes(28, 64, 3)
        b = find_ntt_primes(28, 64, 3, skip=3)
        assert not set(a) & set(b)

    def test_bit_length(self):
        for p in find_ntt_primes(36, 1 << 13, 3):
            assert p.bit_length() == 36


class TestRoots:
    def test_primitive_root_order(self):
        q = find_ntt_primes(20, 64, 1)[0]
        g = primitive_root(q)
        # g^((q-1)/f) != 1 for every prime factor f was checked internally;
        # sanity: g^(q-1) == 1 and g^((q-1)/2) == q-1.
        assert pow(g, q - 1, q) == 1
        assert pow(g, (q - 1) // 2, q) == q - 1

    def test_root_of_unity_has_exact_order(self):
        n = 128
        q = find_ntt_primes(24, n, 1)[0]
        w = root_of_unity(q, 2 * n)
        assert pow(w, 2 * n, q) == 1
        assert pow(w, n, q) == q - 1  # primitive 2n-th root: w^n = -1


class TestBarrett:
    @given(st.integers(min_value=0))
    @settings(max_examples=200)
    def test_barrett_matches_mod(self, seed):
        q = 2**36 - 2**20 + 1 if is_prime(2**36 - 2**20 + 1) else find_ntt_primes(36, 8, 1)[0]
        bc = barrett_precompute(q)
        x = seed % (q * q)
        assert bc.reduce(x) == x % q

    def test_barrett_edge_cases(self):
        q = find_ntt_primes(30, 8, 1)[0]
        bc = barrett_precompute(q)
        for x in (0, 1, q - 1, q, q + 1, q * q - 1):
            assert bc.reduce(x) == x % q


@pytest.fixture(params=[find_ntt_primes(28, 64, 1)[0], find_ntt_primes(36, 64, 1)[0]],
                ids=["fast-28bit", "wide-36bit"])
def engine(request):
    return ModulusEngine(request.param)


class TestModulusEngine:
    def test_path_selection(self):
        assert ModulusEngine(find_ntt_primes(28, 64, 1)[0]).fast
        assert not ModulusEngine(find_ntt_primes(36, 64, 1)[0]).fast

    def test_add_sub_roundtrip(self, engine):
        rng = np.random.default_rng(0)
        a = engine.asarray(rng.integers(0, 2**27, 100))
        b = engine.asarray(rng.integers(0, 2**27, 100))
        s = engine.add(a, b)
        assert np.array_equal(engine.sub(s, b), a)

    def test_mul_matches_python(self, engine):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2**27, 50)
        b = rng.integers(0, 2**27, 50)
        got = engine.mul(engine.asarray(a), engine.asarray(b))
        want = [(int(x) * int(y)) % engine.q for x, y in zip(a, b)]
        assert [int(v) for v in got] == want

    def test_neg(self, engine):
        a = engine.asarray([0, 1, 2, engine.q - 1])
        n = engine.neg(a)
        assert int(n[0]) == 0
        assert int(n[1]) == engine.q - 1
        assert int(n[3]) == 1

    def test_mac(self, engine):
        acc = engine.asarray([5, 6])
        a = engine.asarray([2, 3])
        got = engine.mac(acc, a, 7)
        assert [int(v) for v in got] == [(5 + 14) % engine.q, (6 + 21) % engine.q]

    def test_inverse(self, engine):
        for a in (1, 2, 12345, engine.q - 1):
            assert a * engine.inv(a) % engine.q == 1

    def test_inverse_of_zero_raises(self, engine):
        with pytest.raises(ZeroDivisionError):
            engine.inv(0)

    def test_centered_range(self, engine):
        a = engine.asarray(np.arange(0, 64))
        c = engine.centered(a)
        assert all(-engine.q // 2 <= int(v) <= engine.q // 2 for v in c)

    def test_centered_roundtrip(self, engine):
        vals = [0, 1, engine.q - 1, engine.q // 2, engine.q // 2 + 1]
        a = engine.asarray(vals)
        c = engine.centered(a)
        back = engine.reduce(np.asarray(c, dtype=object))
        assert [int(v) for v in back] == vals


class TestCrt:
    @given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_compose_decompose_roundtrip(self, values):
        moduli = find_ntt_primes(20, 8, 4)
        big_q = 1
        for q in moduli:
            big_q *= q
        vals = np.asarray([v % big_q for v in values], dtype=object)
        residues = crt_decompose(vals, moduli)
        back = crt_compose(residues, moduli)
        assert list(back) == list(vals)

    def test_compose_single_modulus(self):
        moduli = [97]
        residues = crt_decompose(np.asarray([5, 96], dtype=object), moduli)
        assert list(crt_compose(residues, moduli)) == [5, 96]


#: The kernel's lanes: 28-bit (one chunk up to 256 rows), 30-bit (16),
#: the largest NTT prime below 2^31 (4, so most row counts take several
#: chunks) and a 36-bit object lane.
MAC_MODULI = [find_ntt_primes(28, 16, 1)[0], find_ntt_primes(30, 16, 1)[0],
              find_ntt_primes(31, 16, 1)[0], 68719474049]


def _matmul_reference(a, b, q):
    """Python-int ``(a @ b) mod q`` over the last two axes."""
    out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=object)
    for idx in np.ndindex(*a.shape[:-2]):
        for m in range(a.shape[-2]):
            for p in range(b.shape[-1]):
                out[idx + (m, p)] = sum(
                    int(a[idx + (m, k)]) * int(b[(k, p)] if b.ndim == 2
                                               else b[idx + (k, p)])
                    for k in range(a.shape[-1])) % q
    return out


class TestLazyReduction:
    """The one external-product MAC: ``matmul_mod`` reduces once per chunk
    of ``mac_rows(q)`` rows."""

    @settings(max_examples=60, deadline=None)
    @given(q=st.sampled_from(MAC_MODULI), rows=st.integers(1, 64),
           batch=st.sampled_from([(), (2,)]), shared_b=st.booleans(),
           fill=st.sampled_from(["random", "zero", "max", "mixed"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matmul_mod_matches_python_ints(self, q, rows, batch, shared_b,
                                            fill, seed):
        # lazy-bound: matmul_mod sizes its chunks with mac_rows(q).
        eng = ModulusEngine(q)
        rng = np.random.default_rng(seed)

        def operand(shape):
            vals = rng.integers(0, min(q, 1 << 62), size=shape, dtype=np.int64)
            if fill == "zero":
                vals[...] = 0
            elif fill == "max":
                vals[...] = q - 1 if q < (1 << 62) else 0
            elif fill == "mixed":
                pick = rng.integers(0, 3, size=shape)
                vals = np.where(pick == 0, 0, vals)
                vals = np.where(pick == 1, q - 1, vals)
            return eng.asarray(vals)

        a = operand(batch + (3, rows))
        b = operand((rows, 2) if shared_b else batch + (rows, 2))
        got = matmul_mod(a, b, q)
        assert got.dtype == eng.dtype
        assert got.shape == batch + (3, 2)
        assert np.array_equal(np.asarray(got, dtype=object),
                              _matmul_reference(a, b, q))

    @pytest.mark.parametrize("q", [97, 1073741441, 68719474049])
    def test_lazy_mac_sum_matches_naive(self, q):
        """The per-coefficient MAC of the external product (5 rows summed
        per output coefficient) as a batched ``matmul_mod``."""
        # lazy-bound: 5 contraction terms, within mac_rows(q) on fast lanes.
        eng = ModulusEngine(q)
        rng = np.random.default_rng(0)
        a = eng.asarray(rng.integers(0, min(q, 1 << 62), size=(3, 5, 4), dtype=np.int64))
        b = eng.asarray(rng.integers(0, min(q, 1 << 62), size=(3, 5, 4), dtype=np.int64))
        # (3, 4, 1, 5) @ (3, 4, 5, 1): contract the row axis per coefficient.
        got = matmul_mod(a.transpose(0, 2, 1)[:, :, None, :],
                         b.transpose(0, 2, 1)[..., None], q)[..., 0, 0]
        want = np.zeros((3, 4), dtype=object)
        for i in range(3):
            for r in range(5):
                for j in range(4):
                    want[i, j] = (want[i, j] + int(a[i, r, j]) * int(b[i, r, j])) % q
        assert np.array_equal(got.astype(object), want)

    def test_lazy_mac_sum_broadcasts(self):
        """A batch of digit vectors against one shared key: the key
        operand broadcasts over the batch axis."""
        # lazy-bound: 3 contraction terms, within mac_rows(q).
        q = 97
        eng = ModulusEngine(q)
        rng = np.random.default_rng(1)
        digits = eng.asarray(rng.integers(0, q, size=(2, 3, 1, 4)))
        key = eng.asarray(rng.integers(0, q, size=(3, 2, 4)))
        # (2, 4, 1, 3) @ (4, 3, 2) -> (2, 4, 1, 2)
        got = matmul_mod(digits[:, :, 0, :].transpose(0, 2, 1)[:, :, None, :],
                         key.transpose(2, 0, 1), q)
        assert got.shape == (2, 4, 1, 2)
        for bi in range(2):
            for c in range(2):
                for j in range(4):
                    want = sum(int(digits[bi, r, 0, j]) * int(key[r, c, j])
                               for r in range(3)) % q
                    assert int(got[bi, j, 0, c]) == want

    @pytest.mark.parametrize("q", MAC_MODULI[:3])
    def test_chunk_rows_are_the_largest_that_fit(self, q):
        r = mac_rows(q)
        assert r * (q - 1) ** 2 + (q - 1) <= (1 << 64) - 1
        assert (r + 1) * (q - 1) ** 2 + (q - 1) > (1 << 64) - 1
        assert r >= 4

    def test_workspace_contents_do_not_leak(self):
        """A dirty caller-owned workspace gives the same residues as none."""
        # lazy-bound: matmul_mod sizes its chunks with mac_rows(q).
        q = MAC_MODULI[2]
        eng = ModulusEngine(q)
        rng = np.random.default_rng(3)
        a = eng.asarray(rng.integers(0, q, size=(4, 2, 9), dtype=np.int64))
        b = eng.asarray(rng.integers(0, q, size=(4, 9, 5), dtype=np.int64))
        div = np.full((4, 2, 5), (1 << 64) - 1, dtype=np.uint64)
        assert np.array_equal(matmul_mod(a, b, q, div), matmul_mod(a, b, q))

    def test_reduce_mod_both_lanes(self):
        for q in MAC_MODULI:
            eng = ModulusEngine(q)
            x = eng.asarray([0, 1, q - 1])
            x = x + x * (q - 1) + q  # non-negative, below 2^64 on both lanes
            want = [int(v) % q for v in x]
            assert [int(v) for v in reduce_mod(x, q)] == want

    def test_fast_path_no_overflow_at_31_bit_bound(self):
        """Accumulating many products of q - 1 must stay exact."""
        # lazy-bound: 4096 rows of (q - 1)^2 take 256 and 1024 chunks.
        for q in MAC_MODULI[1:3]:
            big = np.full((1, 4096), q - 1, dtype=np.int64)
            got = matmul_mod(big, big.T.copy(), q)
            assert got.tolist() == [[4096 * pow(q - 1, 2, q) % q]]
