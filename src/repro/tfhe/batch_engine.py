"""Vectorized batched BlindRotate: structure-of-arrays tensors end to end.

:func:`blind_rotate_batch` realises HEAP's Section IV-E schedule — all
accumulators advance together through iteration ``i`` so each ``brk_i`` is
fetched once per batch — but the reference implementation walks that
schedule with nested Python loops over per-ciphertext ``GlweCiphertext``
objects.  The batch dimension never reaches numpy, so the software spends
its time in object plumbing rather than butterflies and MACs.

This module executes the same schedule on dense tensors instead:

* **Accumulators** live as one array per limb of shape ``(N, batch, h+1)``
  (equivalently a single ``(batch, h+1, L, N)`` stack, kept limb-major and
  *coefficient/slot-major* so each prime's arithmetic is contiguous and
  the stacked NTTs run transform-axis-first without transpose copies).
* **Keys** are pre-lifted once per ``(N, moduli)`` ring into evaluation-
  domain tensors of shape ``(n_t, N, (h+1)*d, 2*(h+1))`` per limb — row
  ``r = c*d + k`` is the GLWE row for component ``c``, digit ``k``, the
  exact ``((h+1)d, h+1)`` matrix of paper Section II-B, with the ``s+``
  and ``s-`` key halves stacked along the column axis so one contraction
  serves both.
* **Gadget decomposition + external-product MAC** are fused: the whole
  selected sub-batch is inverse-transformed in one NTT call per limb,
  decomposed straight from those residues in word-size arithmetic
  (:class:`~repro.math.gadget.ResidueDecomposer`; no big integer is
  built), forward-transformed again, and contracted against the key
  tensor.  The Algorithm-1 update
  ``ACC x (RGSW(1) + (X^a-1) brk+ + (X^-a-1) brk-)`` is *distributed*:
  ``RGSW(1)``'s rows are the constant gadget factors in the evaluation
  domain, so its term is just the digit recomposition, and the monomial
  factors scale the two key contractions after the row sum — exact
  modular algebra, no ``combined`` tensor ever materialises.
* Each contraction is one :func:`~repro.math.modular.matmul_mod` per
  limb: on the int64 fast path uint64 ``np.matmul`` over chunks of as
  many digit rows as a lane can sum unreduced (one chunk for a few rows,
  several for the 60-row raised basis), reduced once per chunk, and the
  monomial-scaled terms drain with one more reduction — the software
  analogue of the paper's 512 modular units all busy on one BlindRotate
  wavefront, lazy Barrett reduction included.

The engine is **bit-identical** to mapping the scalar
:func:`repro.tfhe.blind_rotate.blind_rotate` oracle over the batch
(``tests/test_batch_engine.py`` asserts equality of every limb of every
output ciphertext): modular addition is exact, associative and
distributive, so reordering the MAC accumulation and fusing reductions
cannot change any canonical residue.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from ..math.gadget import ResidueDecomposer
from ..math.modular import matmul_mod, reduce_mod
from ..math.ntt import get_ntt_engine
from ..math.rns import RnsBasis, RnsPoly
from ..profiling import record_external_product
from .blind_rotate import BlindRotateKey, get_monomial_cache
from .glwe import GlweCiphertext, _shift_rns
from .lwe import LweCiphertext


class BatchBlindRotateEngine:
    """Dense-tensor BlindRotate executor bound to one key and one ring.

    Construction lifts the blind-rotate key into its tensor form (one pass
    over ``n_t * 2`` RGSW matrices); :meth:`for_key` memoises the engine on
    the key object so repeated batches — e.g. the ``N`` fan-outs of every
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
        self.mono = get_monomial_cache(n, basis)
        # One (n_t, N, rows, 2*cols) eval-domain stack per limb: columns
        # [0, cols) hold brk+, [cols, 2*cols) hold brk-.  A caller that
        # already holds the lifted tensors — a pool worker viewing them
        # zero-copy in shared memory — passes them in and skips the lift;
        # ``brk`` then only supplies ``gadget`` and ``h`` and needs no
        # RGSW entries.
        if key_pm is not None:
            expected = (key_pm[0].shape[0], n, self.rows, 2 * self.cols)
            for li, tensor in enumerate(key_pm):
                if tuple(tensor.shape) != expected:
                    raise ParameterError(
                        f"pre-lifted key tensor for limb {li} has shape "
                        f"{tuple(tensor.shape)}, expected {expected}")
            self.key_pm = list(key_pm)
        else:
            sample = brk.plus[0]
            if sample.n != n or tuple(sample.basis.moduli) != tuple(basis.moduli):
                raise ParameterError("blind-rotate key does not match the requested ring")
            self.key_pm = self._lift(brk.plus, brk.minus)
        self.n_t = self.key_pm[0].shape[0]
        self._digits = ResidueDecomposer(self.gadget, basis.moduli)
        # RGSW(1) never needs a tensor: its rows are the gadget factors as
        # constants, so its MAC term is the digit recomposition below (one
        # (d, 1) column per limb, the right operand of a matmul).
        self.g_mod = [e.asarray(self.gadget.factors())[:, None]
                      for e in self.engines]
        # When the gadget covers every bit of q (shift = 0) decomposition
        # is exact, so the recomposition equals the accumulator itself and
        # the RGSW(1) term needs no contraction at all.
        self._exact_gadget = (
            self.gadget.q.bit_length() == self.d * self.gadget.base_bits)
        #: Quotient workspaces for the drain reductions, keyed by shape —
        #: the i-loop reuses them so the fast floordiv-based reduction
        #: allocates nothing steady-state.  Thread-local because the
        #: engine is cached on the key and the bootstrap service may
        #: drive one key from several worker threads.
        self._quot_bufs = threading.local()

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
                # Account the lifted tensor stack in the process-wide key
                # registry (ARK-style reuse bookkeeping): the key
                # cache's demote tier drops the engine with the key, and
                # the registry's byte totals price the lift.  on_drop
                # keeps the per-key engine cache consistent without
                # strongly capturing the key.
                from ..keyreg import get_key_registry

                get_key_registry().register(
                    brk, "brk_lift", key, engine.key_pm,
                    on_drop=lambda o, _k=key: getattr(
                        o, "_batch_engines", {}).pop(_k, None))
        return engine

    def _lift(self, plus, minus) -> List[np.ndarray]:
        n_t = len(plus)
        tensors = [e.zeros((n_t, self.n, self.rows, 2 * self.cols))
                   for e in self.engines]
        for i, (rp, rm) in enumerate(zip(plus, minus)):
            for li, limb in enumerate(rp.to_limb_tensors()):
                tensors[li][i, :, :, :self.cols] = np.moveaxis(limb, 2, 0)
            for li, limb in enumerate(rm.to_limb_tensors()):
                tensors[li][i, :, :, self.cols:] = np.moveaxis(limb, 2, 0)
        return tensors

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

        for i in range(self.n_t):
            sel = np.flatnonzero(a_mat[:, i])
            if sel.size == 0:
                continue
            # The common case is every rotation amount nonzero: basic
            # slicing then keeps the gather/scatter below as views instead
            # of fancy-index copies of the whole accumulator stack.
            idx = slice(None) if sel.size == batch else sel
            record_external_product(int(sel.size))
            digits = self._decompose(acc, idx, sel.size)
            a_vals = a_mat[idx, i]
            # (N, bsel) monomial matrices per limb: one dense-table column
            # gather when the ring is small enough, else stacked cache hits.
            mats_p = self.mono.minus_one_matrix(a_vals)
            if mats_p is not None:
                mats_m = self.mono.minus_one_matrix(two_n - a_vals)
            else:
                mono_p = [self.mono.monomial_minus_one(int(a)) for a in a_vals]
                mono_m = [self.mono.monomial_minus_one(two_n - int(a))
                          for a in a_vals]
                mats_p = [np.stack([m[li] for m in mono_p], axis=1)
                          for li in range(len(self.engines))]
                mats_m = [np.stack([m[li] for m in mono_m], axis=1)
                          for li in range(len(self.engines))]
            cols = self.cols
            for li, e in enumerate(self.engines):
                # lazy-bound: matmul_mod (math/modular.py) returns
                # canonical residues, so after the monomial scaling the
                # three-term drain is below 2(q - 1)^2 + q < 2^63 for
                # every fast modulus, whatever the row count.
                ep = matmul_mod(digits[li], self.key_pm[li][i], e.q,
                                self._quot((n, sel.size, 2 * cols)))
                ep[..., :cols] *= mats_p[li][:, :, None]
                ep[..., cols:] *= mats_m[li][:, :, None]
                if self._exact_gadget:
                    # Exact decomposition: sum_k d_k g_k == ACC mod q,
                    # so the RGSW(1) term is the accumulator unchanged.
                    out = ep[..., :cols] + ep[..., cols:]
                    out += acc[li][:, idx, :]
                else:
                    # recomp = sum_k digits[c*d+k] * g_k: the RGSW(1) term.
                    dv4 = digits[li].reshape(n, sel.size, cols, self.d)
                    out = matmul_mod(dv4, self.g_mod[li], e.q)[..., 0]
                    out += ep[..., :cols]
                    out += ep[..., cols:]
                acc[li][:, idx, :] = reduce_mod(out, e.q, self._quot(out.shape))
        return self._export(acc, batch)

    def _quot(self, shape: Tuple[int, ...]) -> np.ndarray:
        cache: Dict[Tuple[int, ...], np.ndarray]
        cache = getattr(self._quot_bufs, "bufs", None)
        if cache is None:
            cache = self._quot_bufs.bufs = {}
        buf = cache.get(shape)
        if buf is None:
            buf = np.empty(shape, dtype=np.uint64)
            cache[shape] = buf
        return buf

    # -- stages ---------------------------------------------------------------

    def _initial_accumulators(self, test_vector: RnsPoly,
                              cts: Sequence[LweCiphertext]) -> List[np.ndarray]:
        """``ACC_j = (0, .., 0, f * X^{b_j})`` as eval-domain limb tensors."""
        shifted = [_shift_rns(test_vector, int(ct.b)) for ct in cts]
        acc = []
        for li, (e, eng) in enumerate(zip(self.engines, self.ntts)):
            stack = np.stack([s.limbs[li] for s in shifted], axis=1)  # (N, batch)
            a = e.zeros((self.n, len(cts), self.cols))
            a[:, :, self.h] = eng.forward_axis0(stack)
            acc.append(a)
        return acc

    def _decompose(self, acc: List[np.ndarray], idx, bsel: int) -> List[np.ndarray]:
        """Gadget-decompose the selected accumulators into digit tensors.

        ``idx`` selects the batch axis (``slice(None)`` for the whole batch,
        else an index array).  Returns one eval-domain ``(N, bsel, (h+1)*d)``
        tensor per limb, with row ``r = c*d + k`` matching the key tensors'
        layout.
        """
        coeff = [eng.inverse_axis0(acc[li][:, idx, :])
                 for li, eng in enumerate(self.ntts)]  # (N, bsel, h+1) each
        # (N, bsel, h+1, d): component-major, digit k matching factors()[k],
        # so flattening the last two axes gives the r = c*d + k row order.
        digit_stack = self._digits(coeff)
        out = []
        for e, eng in zip(self.engines, self.ntts):
            if e.fast and digit_stack.dtype == np.int64:
                # Balanced digits satisfy |digit| <= q, so one shift puts
                # them in [0, 2q] — no reduction needed here, because the
                # forward twist multiplies by psi < q and reduces, and
                # 2q * (q-1) fits int64 for every fast (q < 2^31) modulus.
                # Bit-identical to e.asarray + forward on canonical input.
                reduced = digit_stack + e.q
            else:
                reduced = e.asarray(digit_stack)
            out.append(eng.forward_axis0(reduced).reshape(self.n, bsel, self.rows))
        return out

    def _export(self, acc: List[np.ndarray], batch: int) -> List[GlweCiphertext]:
        results = []
        for j in range(batch):
            polys = [RnsPoly(self.n, self.basis,
                             [np.ascontiguousarray(acc[li][:, j, c])
                              for li in range(len(self.basis))],
                             "eval")
                     for c in range(self.cols)]
            results.append(GlweCiphertext(mask=polys[:self.h], body=polys[self.h]))
        return results
