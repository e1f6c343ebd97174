"""Vectorized batched BlindRotate: structure-of-arrays tensors end to end.

:func:`blind_rotate_batch` realises HEAP's Section IV-E schedule — all
accumulators advance together through iteration ``i`` so each ``brk_i`` is
fetched once per batch — but the reference implementation walks that
schedule with nested Python loops over per-ciphertext ``GlweCiphertext``
objects.  This module executes it on dense tensors, in the coefficient
domain, on the exact float64 FFT of :mod:`repro.math.fourier`:

* **Accumulators** are one int64 ``(N, batch, h+1)`` array of canonical
  coefficient residues per limb.
* **Keys** are one complex spectrum ``(n_t, N/2, (h+1)d, 2(h+1) L p)``:
  row ``r = c*d + k`` of the RGSW matrix (paper Section II-B); columns
  over the ``s+``/``s-`` halves, GLWE components, ``L`` limbs and the
  ``p`` balanced pieces of each centred key coefficient
  (:func:`~repro.math.fourier.split_plan`).
* **One external product per iteration**: the accumulators are
  decomposed straight from their residues
  (:class:`~repro.math.gadget.ResidueDecomposer`), the digits take one
  FFT for every limb and one complex ``matmul`` per frequency against
  the key spectrum; the factors of ``ACC x (RGSW(1) + (X^a-1) brk+ +
  (X^-a-1) brk-)`` scale the two halves as spectra, one inverse FFT and
  a guarded rounding give the exact integers, recombined per limb with
  ``RGSW(1)``'s term — the accumulator itself for an exact gadget, else
  the digit recomposition.  No NTT runs inside the loop.
* **Export** is one batched forward NTT per limb: evaluation-domain GLWE
  ciphertexts, as the scalar oracle returns them.

The engine is **bit-identical** to mapping the scalar
:func:`repro.tfhe.blind_rotate.blind_rotate` oracle over the batch
(``tests/test_batch_engine.py``): the float path returns the exact
integer products (proved at ``split_plan``, checked at run time), and
modular arithmetic is exact, so reordering it changes no residue.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from ..math.fourier import get_fft, signed_pieces, split_plan
from ..math.gadget import ResidueDecomposer
from ..math.modular import matmul_mod
from ..math.ntt import get_ntt_engine
from ..math.rns import RnsBasis, RnsPoly
from ..profiling import record_external_product
from .blind_rotate import BlindRotateKey
from .glwe import GlweCiphertext, _shift_rns
from .lwe import LweCiphertext


class BatchBlindRotateEngine:
    """Dense-tensor BlindRotate executor bound to one key and one ring.

    Construction lifts the blind-rotate key into its FFT spectrum (one
    pass over ``n_t * 2`` RGSW matrices, one inverse NTT per limb, one
    FFT of the split key); :meth:`for_key` memoises the engine on the key
    object so repeated batches — e.g. the ``N`` fan-outs of every
    scheme-switching bootstrap — pay the lift exactly once.
    """

    def __init__(self, brk: BlindRotateKey, n: int, basis: RnsBasis,
                 key_pm: Optional[List[np.ndarray]] = None):
        self.n = n
        self.basis = basis
        self.h = brk.h
        self.gadget = brk.gadget
        self.d = brk.gadget.digits
        self.cols = self.h + 1
        self.rows = self.cols * self.d
        self.engines = basis.engines
        self.ntts = [get_ntt_engine(n, q) for q in basis.moduli]
        self.fft = get_fft(n)
        # Balanced digits reach B/2 + 1 in magnitude (the top digit
        # absorbs the final carry).
        self.width, self.pieces = split_plan(
            n, self.rows, self.gadget.base // 2 + 1, max(basis.moduli))
        # Only the key's spectrum is kept.  A pool worker that expanded
        # the key itself passes one (n_t, N, rows, 2*cols) eval-domain
        # stack per limb (columns [0, cols) hold brk+, [cols, 2*cols)
        # brk-); ``brk`` then only supplies ``gadget`` and ``h`` and needs
        # no RGSW entries.  Otherwise the RGSW entries are lifted one at
        # a time, so no whole eval-domain stack is ever resident.
        if key_pm is not None:
            n_t = key_pm[0].shape[0]
            expected = (n_t, n, self.rows, 2 * self.cols)
            for li, tensor in enumerate(key_pm):
                if tuple(tensor.shape) != expected:
                    raise ParameterError(
                        f"pre-lifted key tensor for limb {li} has shape "
                        f"{tuple(tensor.shape)}, expected {expected}")
            entries = ([stack[i] for stack in key_pm] for i in range(n_t))
        else:
            sample = brk.plus[0]
            if sample.n != n or tuple(sample.basis.moduli) != tuple(basis.moduli):
                raise ParameterError("blind-rotate key does not match the requested ring")
            n_t, entries = brk.n_t, self._lift(brk.plus, brk.minus)
        self.n_t = n_t
        self.key_spectrum = self._spectrum(entries)
        self._digits = ResidueDecomposer(self.gadget, basis.moduli)
        # RGSW(1) never needs a tensor: its rows are the gadget factors as
        # constants, so its term is the digit recomposition below (one
        # (d, 1) column per limb, the right operand of a matmul).
        self.g_mod = [e.asarray(self.gadget.factors())[:, None]
                      for e in self.engines]
        # When the gadget covers every bit of q (shift = 0) decomposition
        # is exact, so the recomposition equals the accumulator itself and
        # the RGSW(1) term needs no contraction at all.
        self._exact_gadget = (
            self.gadget.q.bit_length() == self.d * self.gadget.base_bits)

    # -- construction ---------------------------------------------------------

    #: Guards the lazy per-key engine caches: the service drives one key
    #: from several worker threads, and two tenants racing on a cold key
    #: must not each lift the (large) tensor form or publish separate
    #: caches onto the key object.
    _FOR_KEY_LOCK = threading.Lock()

    @classmethod
    def for_key(cls, brk: BlindRotateKey, n: int,
                basis: RnsBasis) -> "BatchBlindRotateEngine":
        """Engine cached on the key (keyed by ``(n, moduli)``).

        Lock-free on a hit; the miss path double-checks under a class
        lock so concurrent callers converge on one engine per key.
        """
        key = (n, tuple(basis.moduli))
        cache: Optional[Dict[Tuple[int, Tuple[int, ...]],
                             "BatchBlindRotateEngine"]]
        cache = getattr(brk, "_batch_engines", None)
        if cache is not None:
            engine = cache.get(key)
            if engine is not None:
                return engine
        with cls._FOR_KEY_LOCK:
            cache = getattr(brk, "_batch_engines", None)
            if cache is None:
                cache = {}
                brk._batch_engines = cache
            engine = cache.get(key)
            if engine is None:
                engine = cls(brk, n, basis)
                cache[key] = engine
                # Account the key spectrum in the process-wide key
                # registry (ARK-style reuse bookkeeping): the key
                # cache's demote tier drops the engine with the key, and
                # the registry's byte totals price the lift.  on_drop
                # keeps the per-key engine cache consistent without
                # strongly capturing the key.
                from ..keyreg import get_key_registry

                get_key_registry().register(
                    brk, "brk_lift", key, engine.key_spectrum,
                    on_drop=lambda o, _k=key: getattr(
                        o, "_batch_engines", {}).pop(_k, None))
        return engine

    def _lift(self, plus, minus) -> Iterator[List[np.ndarray]]:
        """Entry by entry, one ``(N, rows, 2*cols)`` eval-domain tensor
        per limb: brk+ columns, then brk-."""
        for rp, rm in zip(plus, minus):
            yield [np.concatenate([np.moveaxis(p, 2, 0), np.moveaxis(m, 2, 0)],
                                  axis=2)
                   for p, m in zip(rp.to_limb_tensors(), rm.to_limb_tensors())]

    def _spectrum(self, entries: Iterable[List[np.ndarray]]) -> np.ndarray:
        """The FFT spectrum of the centred, split key, ``(n_t, N/2, rows,
        2 cols L p)``: per entry and limb, one inverse NTT and one FFT of
        the pieces.  Entry by entry, not one call per limb stack: the NTT
        engines keep a workspace per batch width for good, and a
        stack-wide one would outweigh the spectrum."""
        spec = np.empty((self.n_t, self.n // 2, self.rows, 2 * self.cols,
                         len(self.engines), self.pieces), dtype=np.complex128)
        for i, limbs in enumerate(entries):
            for li, (eng, x) in enumerate(zip(self.ntts, limbs)):
                spec[i, ..., li, :] = self.fft.forward(signed_pieces(
                    eng.inverse_axis0(x), eng.q, self.width, self.pieces))
        return spec.reshape(self.n_t, self.n // 2, self.rows, -1)

    # -- execution ------------------------------------------------------------

    def rotate_batch(self, test_vector: RnsPoly,
                     cts: Sequence[LweCiphertext]) -> List[GlweCiphertext]:
        """BlindRotate every ciphertext of the batch through the tensors."""
        n = self.n
        two_n = 2 * n
        if test_vector.n != n or tuple(test_vector.basis.moduli) != tuple(self.basis.moduli):
            raise ParameterError("test vector does not match the engine's ring")
        for ct in cts:
            if ct.q != two_n or ct.dim != self.n_t:
                raise ParameterError("batch contains an incompatible LWE ciphertext")
        batch = len(cts)
        if batch == 0:
            return []

        acc = self._initial_accumulators(test_vector, cts)
        # (batch, n_t) rotation amounts, already folded into [0, 2N).
        a_mat = np.array([[int(ct.a[i]) % two_n for i in range(self.n_t)]
                          for ct in cts], dtype=np.int64)
        moduli = self.basis.moduli
        half_cols = self.key_spectrum.shape[-1] // 2

        for i in range(self.n_t):
            sel = np.flatnonzero(a_mat[:, i])
            if sel.size == 0:
                continue
            # The common case is every rotation amount nonzero: basic
            # slicing then keeps the gather/scatter below as views instead
            # of fancy-index copies of the whole accumulator stack.
            idx = slice(None) if sel.size == batch else sel
            bsel = int(sel.size)
            record_external_product(bsel)
            # (N, bsel, h+1, d): component-major, digit k matching
            # factors()[k], so flattening the last two axes gives the
            # r = c*d + k row order of the key spectrum.
            digits = self._digits([a[:, idx, :] for a in acc])
            spec = self.fft.forward(digits).reshape(n // 2, bsel, self.rows)
            prod = np.matmul(spec, self.key_spectrum[i])
            a_vals = a_mat[idx, i]
            terms = prod[..., :half_cols] * self.fft.monomial_minus_one(a_vals)[..., None]
            terms += (prod[..., half_cols:]
                      * self.fft.monomial_minus_one(two_n - a_vals)[..., None])
            if self._exact_gadget:
                # Exact decomposition: sum_k d_k g_k == ACC mod q, so
                # the RGSW(1) term is the accumulator unchanged.
                ones = [a[:, idx, :] for a in acc]
            else:
                # recomp = sum_k d_k g_k: the RGSW(1) term.
                ones = [matmul_mod(np.where(digits < 0, digits + e.q, digits),
                                   g, e.q)[..., 0]
                        for e, g in zip(self.engines, self.g_mod)]
            # lazy-bound: the digits are balanced (|digit| <= B/2 + 1),
            # the contraction runs over self.rows rows per key half, and
            # the key pieces come from split_plan(N, rows, B/2 + 1,
            # max q), whose proof bounds the rounding error and the int64
            # lanes of exactly this product (two halves, each scaled by
            # X^a - 1).  matmul_mod's operands are canonical residues.
            ep = self.fft.round_to_residues(
                terms.reshape(n // 2, bsel, self.cols, len(moduli), self.pieces),
                moduli, self.width, ones)
            for a, limb in zip(acc, ep):
                a[:, idx, :] = limb
        return self._export(acc, batch)

    # -- stages ---------------------------------------------------------------

    def _initial_accumulators(self, test_vector: RnsPoly,
                              cts: Sequence[LweCiphertext]) -> List[np.ndarray]:
        """``ACC_j = (0, .., 0, f * X^{b_j})`` as coefficient limb tensors."""
        shifted = [_shift_rns(test_vector, int(ct.b)) for ct in cts]
        acc = []
        for li in range(len(self.engines)):
            a = np.zeros((self.n, len(cts), self.cols), dtype=np.int64)
            a[:, :, self.h] = np.stack([s.limbs[li] for s in shifted], axis=1)
            acc.append(a)
        return acc

    def _export(self, acc: List[np.ndarray], batch: int) -> List[GlweCiphertext]:
        """One batched forward NTT per limb, split into GLWE objects."""
        evals = [eng.forward_axis0(e.asarray(a))
                 for e, eng, a in zip(self.engines, self.ntts, acc)]
        results = []
        for j in range(batch):
            polys = [RnsPoly(self.n, self.basis,
                             [np.ascontiguousarray(ev[:, j, c]) for ev in evals],
                             "eval")
                     for c in range(self.cols)]
            results.append(GlweCiphertext(mask=polys[:self.h], body=polys[self.h]))
        return results
