"""BlindRotate (paper Algorithm 1) and programmable bootstrapping.

``BlindRotate(f, brk, (a, b))`` homomorphically computes
``ACC = f * X^(b + <a, s>)`` — the accumulator ends up holding the test
polynomial rotated by the *phase* of the input LWE ciphertext, so its
constant coefficient is ``f`` "evaluated" at the phase.  Because distinct
LWE ciphertexts share no data, HEAP schedules many BlindRotates in
parallel and fetches each ``brk_i`` exactly once for the whole batch
(Section IV-E); :func:`blind_rotate_batch` mirrors that schedule.

The per-iteration update implements the ternary-secret form of
Algorithm 1::

    ACC <- ACC x ( RGSW(1) + (X^{a_i} - 1) RGSW(s_i^+) + (X^{-a_i} - 1) RGSW(s_i^-) )

where ``s_i^+ = [s_i = 1]`` and ``s_i^- = [s_i = -1]``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from ..math.gadget import GadgetVector
from ..math.ntt import get_ntt_engine
from ..math.rns import RnsBasis, RnsPoly
from ..math.sampling import Sampler, derive_seed, mask_stream
from .glwe import GlweCiphertext, GlweSecretKey
from .lwe import LweCiphertext, LweSecretKey
from .rgsw import RgswCiphertext, external_product, rgsw_encrypt, rgsw_trivial


@dataclass
class BlindRotateKey:
    """``brk = { RGSW(s_i^+), RGSW(s_i^-) }`` for every LWE secret digit."""

    plus: List[RgswCiphertext]
    minus: List[RgswCiphertext]
    gadget: GadgetVector
    h: int
    #: Per-entry ``(plus, minus)`` mask seeds
    #: (``derive_seed(key_seed, "brk", i, sign)``) — what the process-pool
    #: publisher ships next to the bodies.  Empty only on a hand-assembled
    #: key (the pool worker's header), which cannot be published.
    mask_seeds: List[Tuple[int, int]] = field(
        default_factory=list, repr=False, compare=False)

    @classmethod
    def generate(cls, lwe_sk: LweSecretKey, glwe_sk: GlweSecretKey,
                 basis: RnsBasis, gadget: GadgetVector, sampler: Sampler,
                 error_std: Optional[float] = None,
                 key_seed: Optional[int] = None) -> "BlindRotateKey":
        """Entry ``i``'s two RGSW encryptions stream their masks from
        ``derive_seed(key_seed, "brk", i, "+"/"-")`` (``key_seed`` drawn
        from ``sampler`` when not given), so the at-rest/wire form is the
        body polynomials plus ``2 n_t`` seeds — half the §III-C brk bytes
        at ``h = 1``.  Errors come from ``sampler``."""
        if key_seed is None:
            key_seed = sampler.draw_seed()
        plus, minus = [], []
        seeds: List[Tuple[int, int]] = []
        for i, s in enumerate(lwe_sk.coeffs):
            s = int(s)
            sp = derive_seed(key_seed, "brk", i, "+")
            sm = derive_seed(key_seed, "brk", i, "-")
            plus.append(rgsw_encrypt(1 if s == 1 else 0, glwe_sk, basis, gadget,
                                     sampler, error_std, mask_stream(sp)))
            minus.append(rgsw_encrypt(1 if s == -1 else 0, glwe_sk, basis, gadget,
                                      sampler, error_std, mask_stream(sm)))
            seeds.append((sp, sm))
        return cls(plus=plus, minus=minus, gadget=gadget, h=glwe_sk.h,
                   mask_seeds=seeds)

    @property
    def n_t(self) -> int:
        return len(self.plus)

    def size_bytes(self) -> int:
        """Paper accounting: n_t keys x 2 RGSW, each ``(h+1)d x (h+1)``
        degree N-1 polynomials at ceil(log Q) bits per coefficient."""
        sample = self.plus[0]
        rows, cols = sample.matrix_shape()
        bits = sum(q.bit_length() for q in sample.basis.moduli)
        per_rgsw = rows * cols * sample.n * bits // 8
        return self.n_t * 2 * per_rgsw


class MonomialCache:
    """Evaluation-domain monomials ``X^a`` per limb, built by repeated
    squaring from the transform of ``X`` (no NTT per rotation step)."""

    #: Largest ``2N * N`` dense-table size (elements, per limb) we are
    #: willing to hold; 2^21 is 16 MiB of int64 at N = 1024.
    _DENSE_LIMIT = 1 << 21

    def __init__(self, n: int, basis: RnsBasis):
        self.n = n
        self.basis = basis
        self._x_eval = []
        for q in basis.moduli:
            eng = get_ntt_engine(n, q)
            x = eng.mod.zeros(n)
            x[1] = 1
            self._x_eval.append(eng.forward(x))
        self._cache: Dict[int, List[np.ndarray]] = {}
        self._plain_cache: Dict[int, List[np.ndarray]] = {}
        self._dense: Optional[List[np.ndarray]] = None
        # The instance is shared process-wide via get_monomial_cache; the
        # per-entry caches are race-benign (idempotent build, atomic dict
        # store), but the dense table is expensive enough that concurrent
        # tenants should build it once, not once each.
        self._dense_lock = threading.Lock()

    def monomial(self, a: int) -> List[np.ndarray]:
        """Per-limb eval vectors of ``X^a`` with ``a`` taken mod 2N.

        The repack engine multiplies odd-branch ciphertexts by plain
        ``X^(N/l)`` shifts; caching the eval vector makes that a pointwise
        multiply with no NTT and no pow-chain after the first use.
        """
        a = a % (2 * self.n)
        vecs = self._plain_cache.get(a)
        if vecs is None:
            vecs = []
            for q, x_eval in zip(self.basis.moduli, self._x_eval):
                eng = get_ntt_engine(self.n, q)
                vecs.append(eng.mod.pow_vec(x_eval, a))
            self._plain_cache[a] = vecs
        return vecs

    def monomial_minus_one(self, a: int) -> List[np.ndarray]:
        """Per-limb eval vectors of ``X^a - 1`` with ``a`` taken mod 2N."""
        a = a % (2 * self.n)
        vecs = self._cache.get(a)
        if vecs is None:
            vecs = []
            for q, x_eval in zip(self.basis.moduli, self._x_eval):
                eng = get_ntt_engine(self.n, q)
                mono = eng.mod.pow_vec(x_eval, a)
                vecs.append(eng.mod.sub(mono, eng.mod.zeros(self.n) + 1))
            self._cache[a] = vecs
        return vecs

    def minus_one_matrix(self, a_vals: np.ndarray) -> Optional[List[np.ndarray]]:
        """Per-limb ``(N, len(a_vals))`` matrices of ``X^a - 1`` columns.

        Backed by a dense ``(N, 2N)`` table per limb so a whole batch of
        rotation amounts is one column gather; the table is filled once by
        running products ``X^(a+1) = X^a * X`` in the evaluation domain —
        the same modular arithmetic as :meth:`monomial_minus_one`, so the
        two paths agree bit-for-bit.  Returns ``None`` (callers fall back
        to stacking :meth:`monomial_minus_one` vectors) when the table
        would outgrow ``_DENSE_LIMIT``.
        """
        two_n = 2 * self.n
        if two_n * self.n > self._DENSE_LIMIT:
            return None
        if self._dense is None:
            with self._dense_lock:
                if self._dense is None:
                    dense = []
                    for q, x_eval in zip(self.basis.moduli, self._x_eval):
                        eng = get_ntt_engine(self.n, q)
                        rows = eng.mod.zeros((two_n, self.n))
                        rows[0] = 1  # X^0
                        for a in range(1, two_n):
                            rows[a] = eng.mod.mul(rows[a - 1], x_eval)
                        rows = eng.mod.sub(rows, eng.mod.zeros(self.n) + 1)
                        # Column-major gathers want (N, 2N) contiguous
                        # columns.
                        dense.append(np.ascontiguousarray(rows.T))
                    self._dense = dense
        return [d[:, a_vals] for d in self._dense]


#: Process-wide caches: twiddle-style state that every BlindRotate over the
#: same ``(N, moduli)`` ring can share.  Building a MonomialCache costs one
#: NTT per limb and each ``X^a - 1`` entry a pow-chain; rebuilding them per
#: call (the seed behaviour) wasted that work on every batch.
_MONO_CACHE: Dict[Tuple[int, Tuple[int, ...]], MonomialCache] = {}
_RGSW_ONE_CACHE: Dict[Tuple[int, int, Tuple[int, ...], GadgetVector], RgswCiphertext] = {}
_SHARED_CACHE_LOCK = threading.Lock()


def get_monomial_cache(n: int, basis: RnsBasis) -> MonomialCache:
    """Shared :class:`MonomialCache` for ``(n, basis.moduli)``.

    Lock-free hit, double-checked miss: two tenants racing on a cold
    ring must share one cache (its expensive lazy ``_dense`` table is
    guarded by a per-instance lock).
    """
    key = (n, tuple(basis.moduli))
    cache = _MONO_CACHE.get(key)
    if cache is None:
        with _SHARED_CACHE_LOCK:
            cache = _MONO_CACHE.get(key)
            if cache is None:
                cache = MonomialCache(n, basis)
                _MONO_CACHE[key] = cache
    return cache


def get_rgsw_one(h: int, n: int, basis: RnsBasis, gadget: GadgetVector) -> RgswCiphertext:
    """Shared ``rgsw_trivial(1, ...)`` — safe because RGSW ops never mutate."""
    key = (h, n, tuple(basis.moduli), gadget)
    one = _RGSW_ONE_CACHE.get(key)
    if one is None:
        with _SHARED_CACHE_LOCK:
            one = _RGSW_ONE_CACHE.get(key)
            if one is None:
                one = rgsw_trivial(1, h, n, basis, gadget)
                _RGSW_ONE_CACHE[key] = one
    return one


def build_test_vector(g: Callable[[int], int], n: int, basis: RnsBasis) -> RnsPoly:
    """Test polynomial ``f`` with ``const(f * X^phi) = g(phi)`` for all
    ``phi in [0, 2N)``.

    ``g`` must be negacyclic: ``g(t + N) = -g(t) (mod Q)``; we verify this
    and raise otherwise, because a violated constraint silently corrupts
    every bootstrap that uses the vector.
    """
    big_q = basis.product
    for t in range(n):
        if (g(t) + g(t + n)) % big_q != 0:
            raise ParameterError(
                f"test function is not negacyclic at t={t}: g(t)={g(t)}, g(t+N)={g(t + n)}"
            )
    coeffs = np.zeros(n, dtype=object)
    coeffs[0] = g(0) % big_q
    for j in range(1, n):
        coeffs[j] = g(2 * n - j) % big_q
    return RnsPoly.from_int_coeffs(n, basis, coeffs)


def blind_rotate(test_vector: RnsPoly, ct: LweCiphertext, brk: BlindRotateKey,
                 cache: Optional[MonomialCache] = None) -> GlweCiphertext:
    """Algorithm 1: rotate ``test_vector`` by the encrypted phase of ``ct``.

    ``ct`` must already be modulus-switched to ``2N``.
    """
    n = test_vector.n
    if ct.q != 2 * n:
        raise ParameterError(f"LWE ciphertext must be mod 2N={2 * n}, got {ct.q}")
    if ct.dim != brk.n_t:
        raise ParameterError("LWE dimension does not match blind-rotate key")
    basis = test_vector.basis
    cache = cache or get_monomial_cache(n, basis)
    acc = GlweCiphertext.trivial(
        _shift(test_vector, int(ct.b)).to_eval(), h=brk.h
    )
    one = get_rgsw_one(brk.h, n, basis, brk.gadget)
    for i in range(ct.dim):
        a_i = int(ct.a[i]) % (2 * n)
        if a_i == 0:
            continue
        combined = one
        combined = combined + brk.plus[i].mul_eval_vector(cache.monomial_minus_one(a_i))
        combined = combined + brk.minus[i].mul_eval_vector(
            cache.monomial_minus_one((2 * n - a_i) % (2 * n))
        )
        acc = external_product(combined, acc)
    return acc


def blind_rotate_batch(test_vector: RnsPoly, cts: Sequence[LweCiphertext],
                       brk: BlindRotateKey) -> List[GlweCiphertext]:
    """BlindRotate a batch, iterating keys in the outer loop.

    This is the paper's optimised schedule (Section IV-E): all
    accumulators advance together through iteration ``i`` so ``brk_i`` is
    fetched once per batch instead of once per ciphertext — the source of
    the claimed memory-traffic reduction.  It runs on
    :mod:`repro.tfhe.batch_engine`'s structure-of-arrays tensor engine:
    the whole batch advances through each iteration as dense numpy
    tensors, with the batch dimension inside every NTT butterfly and
    external-product MAC.

    Bit-identical to mapping :func:`blind_rotate` over the batch and to
    the brk_i-outer scalar schedule in ``tests/oracle.py``.
    """
    from .batch_engine import BatchBlindRotateEngine

    if not cts:
        return []
    engine = BatchBlindRotateEngine.for_key(brk, test_vector.n, test_vector.basis)
    return engine.rotate_batch(test_vector, cts)


def _shift(poly: RnsPoly, k: int) -> RnsPoly:
    """``poly * X^k`` on an RnsPoly (coefficient domain)."""
    from .glwe import _shift_rns

    return _shift_rns(poly, k)
