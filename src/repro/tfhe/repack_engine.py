"""Vectorized LWE -> RLWE repacking: level-batched keyswitches on tensors.

The scalar oracle in ``tests/oracle.py`` walks Chen et al.'s
merge+trace recursion one keyswitch at a time: ``n - 1`` merge nodes plus
``log2(N/n)`` trace folds, each doing an object-dtype big-int gadget
decompose, ``d`` one-row NTTs, a body lift, and two alignment transforms
of domain thrash.  After PR 1 vectorized BlindRotate this scalar chain is
the bootstrap's dominant hot path.

This module executes the same arithmetic level-synchronously:

* **Level batching.**  Every merge node at recursion level ``k`` uses the
  *same* automorphism exponent ``t = 2^(k+1) + 1`` — unrolling the
  recursion breadth-first, level ``k`` pairs ``state[r]`` with
  ``state[r + m/2]`` (``m`` entries remaining) and all ``m/2`` keyswitches
  run as one structure-of-arrays pass: per limb the state is a single
  ``(N, m, 2)`` eval-domain tensor (``[..., 0]`` mask, ``[..., 1]``
  body), the automorphism key is lifted once into an ``(N, d, 2)`` tensor,
  and the digit MAC is one batched ``matmul`` per limb.
* **Eval-domain automorphisms.**  NTT slot ``k`` holds the evaluation at
  ``psi^(2k+1)``, so ``X -> X^t`` is the *sign-free* slot gather
  ``out[k] = in[(t*(2k+1) mod 2N - 1)/2]`` — the state never leaves the
  evaluation domain for the permutation (the reference pays coefficient
  round-trips).  Tables come from :mod:`repro.math.automorphism`.
* **Decompose after permute.**  Each level's mask is gathered in the
  evaluation domain, inverse-transformed and gadget-decomposed once.
  Every mask feeds exactly *one* automorphism per level, so there is no
  decomposition to hoist across exponents (as ARK does for rotations).
* **Trace phase** ``ct <- ct + phi_{l+1}(ct)`` reuses the identical
  keyswitch machinery with a batch of one, still stacked across limbs.

Bit-identity with the scalar oracle holds because every step is exact
modular arithmetic on canonical residues — monomial multiply, add/sub,
slot gather, decomposition and MAC are all value-preserving reorderings
of the reference's operations, and the NTT is an exact bijection
(``tests/test_repack_engine.py`` asserts equality limb by limb).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from ..math.automorphism import get_automorphism_perm
from ..math.modular import crt_compose
from ..math.ntt import get_ntt_engine
from ..profiling import record_mul, record_repack_level
from .blind_rotate import get_monomial_cache
from .glwe import GlweCiphertext
from .keyswitch import AutomorphismKeySet
from .repack import RepackCounters, _validate

_U64_MAX = (1 << 64) - 1


class RepackEngine:
    """Dense-tensor repack executor bound to one automorphism key set.

    Construction is cheap (key tensors are lifted lazily, once per
    exponent, on first use); :meth:`for_keys` memoises the engine on the
    key-set object so every bootstrap against the same keys shares the
    lifted tensors and permutation tables.
    """

    def __init__(self, keys: AutomorphismKeySet):
        if not keys.keys:
            raise ParameterError("automorphism key set is empty")
        self.keys = keys
        sample = next(iter(keys.keys.values()))
        row0 = sample.rows[0]
        if row0.h != 1:
            raise ParameterError("repack engine expects RLWE (h=1) keys")
        self.n = row0.n
        self.basis = row0.basis
        self.engines = self.basis.engines
        self.ntts = [get_ntt_engine(self.n, q) for q in self.basis.moduli]
        self.mono = get_monomial_cache(self.n, self.basis)
        self.gadget = sample.gadget
        self.d = self.gadget.digits
        # Whether the fused matmul may defer every reduction to the drain:
        # the d-term digit*key row sum plus the body and the merge addend
        # must fit in a uint64 lane.
        self._lazy = [e.fast and self.d * (e.q - 1) ** 2 + 2 * (e.q - 1) <= _U64_MAX
                      for e in self.engines]
        self._keys_lifted = {}
        #: Counters of the most recent :meth:`pack` call.
        self.last_counters: Optional[RepackCounters] = None

    @classmethod
    def for_keys(cls, keys: AutomorphismKeySet) -> "RepackEngine":
        """Engine cached on the key-set object."""
        engine = getattr(keys, "_repack_engine", None)
        if engine is None:
            engine = cls(keys)
            keys._repack_engine = engine
        return engine

    # -- construction ---------------------------------------------------------

    def _key_tensor(self, t: int) -> List[np.ndarray]:
        """Per-limb ``(N, d, 2)`` eval tensors of the exponent-``t`` key
        (column 0 the row masks, column 1 the row bodies).

        Lifted through the process-wide key registry (owner: the key
        set), so merge and trace levels share one tensor per
        exponent, the bytes are accounted centrally, and demoting a
        key set to seed+``b`` form drops its lifted tensors too.
        ``_keys_lifted`` mirrors the registry for cheap engine-local
        lookups and is kept consistent by the registry's drop hook.
        """
        cached = self._keys_lifted.get(t)
        if cached is not None:
            return cached

        def build() -> List[np.ndarray]:
            ksk = self.keys.key_for(t)
            if ksk.gadget != self.gadget:
                raise ParameterError("automorphism keys disagree on the gadget")
            lifted = [e.zeros((self.n, self.d, 2)) for e in self.engines]
            for k, row in enumerate(ksk.rows):
                row = row.to_eval()
                for li in range(len(self.engines)):
                    lifted[li][:, k, 0] = row.mask[0].limbs[li]
                    lifted[li][:, k, 1] = row.body.limbs[li]
            return lifted

        from ..keyreg import get_key_registry

        cached = get_key_registry().get_or_build(
            self.keys, "repack_lift", t, build,
            on_drop=lambda o, _t=t: getattr(
                o, "_repack_engine", None) is not None
            and o._repack_engine._keys_lifted.pop(_t, None))
        self._keys_lifted[t] = cached
        return cached

    # -- execution ------------------------------------------------------------

    def pack(self, cts: Sequence[GlweCiphertext]) -> GlweCiphertext:
        """Pack the batch into one RLWE ciphertext (eval domain)."""
        n_cts = len(cts)
        if n_cts & (n_cts - 1) or n_cts == 0:
            raise ParameterError("repack needs a power-of-two ciphertext count")
        if n_cts > self.n:
            raise ParameterError("cannot pack more ciphertexts than ring coefficients")
        for ct in cts:
            if (ct.h != 1 or ct.n != self.n
                    or ct.basis.moduli != self.basis.moduli):
                raise ParameterError("repack inputs must be matching RLWE ciphertexts")
        counters = RepackCounters()
        n_limbs = len(self.engines)

        state = self._load(cts)
        level = 0
        m = n_cts
        while m > 1:
            p = m // 2
            l_block = 2 * n_cts // m
            s = self.n // l_block
            t = l_block + 1
            mono = self.mono.monomial(s)
            addend, v_mask, v_body = [], [], []
            for li, e in enumerate(self.engines):
                even = state[li][:, :p, :]
                odd = state[li][:, p:, :]
                shifted = e.mul(odd, mono[li][:, None, None])
                addend.append(e.add(even, shifted))
                v = e.sub(even, shifted)
                v_mask.append(v[:, :, 0])
                v_body.append(v[:, :, 1])
            record_mul(self.n * p * 2 * n_limbs)
            state = self._keyswitch(v_mask, v_body, t, addend)
            saved = self._ntt_calls_saved(p, n_limbs)
            counters.merge_keyswitches += p
            counters.levels += 1
            counters.ntt_calls_saved += saved
            record_repack_level(level, p, phase="merge", ntt_saved=saved)
            m = p
            level += 1

        l_sub = 2 * n_cts
        while l_sub <= self.n:
            t = l_sub + 1
            mask = [st[:, :, 0] for st in state]
            body = [st[:, :, 1] for st in state]
            state = self._keyswitch(mask, body, t, state)
            saved = self._ntt_calls_saved(1, n_limbs)
            counters.trace_keyswitches += 1
            counters.levels += 1
            counters.ntt_calls_saved += saved
            record_repack_level(level, 1, phase="trace", ntt_saved=saved)
            l_sub *= 2
            level += 1

        self.last_counters = counters
        return self._export(state)

    # -- stages ---------------------------------------------------------------

    def _load(self, cts: Sequence[GlweCiphertext]) -> List[np.ndarray]:
        """Stack the batch into per-limb ``(N, n_cts, 2)`` eval tensors."""
        lifted = [ct.to_eval() for ct in cts]
        state = []
        for li, e in enumerate(self.engines):
            st = e.zeros((self.n, len(cts), 2))
            for j, ct in enumerate(lifted):
                st[:, j, 0] = ct.mask[0].limbs[li]
                st[:, j, 1] = ct.body.limbs[li]
            state.append(st)
        return state

    def _keyswitch(self, mask_eval: List[np.ndarray], body_eval: List[np.ndarray],
                   t: int, addend: List[np.ndarray]) -> List[np.ndarray]:
        """``addend + KS_t(phi_t(mask, body))`` for a whole level at once.

        ``mask_eval``/``body_eval`` are per-limb ``(N, p)`` eval tensors of
        the keyswitch input *before* the automorphism; ``addend`` is the
        per-limb ``(N, p, 2)`` tensor the keyswitched result folds onto
        (``u`` in the merge phase, the state itself in the trace phase).
        """
        perm = get_automorphism_perm(self.n, t)
        key_t = self._key_tensor(t)
        # The body needs no keyswitch: permute its eval slots (sign-free).
        body_perm = [b[perm.eval_src] for b in body_eval]
        big = self._compose([eng.inverse_axis0(m[perm.eval_src])
                             for eng, m in zip(self.ntts, mask_eval)])
        digit_stack = np.stack(self.gadget.decompose_tensor(big), axis=2)
        out = []
        for li, (e, eng) in enumerate(zip(self.engines, self.ntts)):
            if e.fast and digit_stack.dtype == np.int64:
                # Balanced digits satisfy |digit| <= q, so one shift puts
                # them in [0, 2q] and the forward twist's reduction
                # canonicalises — same trick as the blind-rotate engine.
                reduced = digit_stack + e.q
            else:
                reduced = e.asarray(digit_stack)
            digits = eng.forward_axis0(reduced)            # (N, p, d)
            if self._lazy[li]:
                # lazy-bound: d * (q - 1)^2 + 2 * (q - 1) <= 2^64 - 1 is
                # checked per limb in __init__ (self._lazy gates this
                # branch): the d-term row sum plus the body and merge
                # addends all drain in one reduction.
                qu = np.uint64(e.q)
                acc = np.matmul(digits.view(np.uint64), key_t[li].view(np.uint64))
                acc[:, :, 1] += body_perm[li].view(np.uint64)
                acc += addend[li].view(np.uint64)
                acc %= qu
                out.append(acc.view(np.int64))
            else:
                ep = e.lazy_mac_sum(digits[:, :, :, None],
                                    key_t[li][:, None, :, :], axis=2)
                res = e.add(ep, addend[li])
                res[:, :, 1] = e.add(res[:, :, 1], body_perm[li])
                out.append(res)
        return out

    def _compose(self, coeff: List[np.ndarray]) -> np.ndarray:
        """Big-int ``[0, Q)`` view of per-limb coefficient tensors (the
        single-limb residues already *are* those integers)."""
        if len(self.basis) == 1:
            return coeff[0]
        stack = np.stack([np.asarray(c, dtype=object) for c in coeff])  # heaplint: disable=HL001 CRT compose needs exact big ints on the wide-modulus path
        return crt_compose(stack, self.basis.moduli)

    def _ntt_calls_saved(self, p: int, n_limbs: int) -> int:
        """NTT *invocations* avoided at one level versus the reference.

        Per keyswitch per limb the scalar path issues one call per
        polynomial: the digit forwards (``d``), the body lift, the mask
        inverse and one alignment inverse — ``d + 3`` calls; the engine
        issues two stacked calls per level per limb regardless of ``p``.
        """
        return n_limbs * (p * (self.d + 3) - 2)

    def _export(self, state: List[np.ndarray]) -> GlweCiphertext:
        from ..math.rns import RnsPoly

        n_limbs = len(self.basis)
        mask = RnsPoly(self.n, self.basis,
                       [np.ascontiguousarray(state[li][:, 0, 0])
                        for li in range(n_limbs)], "eval")
        body = RnsPoly(self.n, self.basis,
                       [np.ascontiguousarray(state[li][:, 0, 1])
                        for li in range(n_limbs)], "eval")
        return GlweCiphertext(mask=[mask], body=body)


def repack_with_counters(
        cts: Sequence[GlweCiphertext],
        keys: AutomorphismKeySet) -> Tuple[GlweCiphertext, RepackCounters]:
    """:func:`repack` plus the executed-work counters (the bootstrap trace
    reads its true keyswitch counts from here)."""
    _validate(cts)
    eng = RepackEngine.for_keys(keys)
    out = eng.pack(cts)
    return out, eng.last_counters


def repack(cts: Sequence[GlweCiphertext],
           keys: AutomorphismKeySet) -> GlweCiphertext:
    """Pack ``n`` RLWE ciphertexts (constant-coefficient payloads) into one.

    Output phase coefficient ``i * (N / n)`` equals ``N * v_i`` where
    ``v_i`` is input ``i``'s constant phase coefficient; every other
    coefficient is exactly cancelled (up to key-switch noise).

    All keyswitches of one recursion level run as a single SoA pass and
    automorphisms are eval-domain slot gathers.  Bit-identical to the
    scalar recursion in ``tests/oracle.py``.
    """
    return repack_with_counters(cts, keys)[0]
