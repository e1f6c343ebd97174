"""The n_t-dimension (LWE-keyswitched) scheme-switching bootstrap.

:mod:`repro.switching.pipeline` follows Algorithm 2 *as printed*: it
extracts dimension-``N`` LWE ciphertexts and blind-rotates with ``N``
iterations.  The paper's key-size story, however, is built on
``n_t = 500``: extracted ciphertexts are key-switched down to an
``n_t``-dimension key before blind rotation, so the blind-rotate key has
only ``n_t`` entries (the 1.76 GB figure).  This module implements that
full pipeline functionally:

1. Extract LWE_i (dim N, mod q, key = CKKS secret coefficients) for
   every coefficient ``i``  (Eq. 2).
2. LWE key switch to ``s_t`` (dim n_t, mod q) — the paper's
   "vector of h*N*d LWE ciphertexts" key.
3. Per-LWE modulus switch (Algorithm 2 steps 1-2 applied to each LWE):
   ``ct'_i = [2N ct_i]_q`` and ``ct_ms,i = (2N ct_i - ct'_i)/q`` over
   ``Z_2N``.
4. BlindRotate every ``ct_ms,i`` with the ``n_t``-entry key (RGSW
   encryptions of ``s_t`` digits *under the CKKS secret*), producing RLWE
   ciphertexts under ``s`` encrypting ``q*(J_i - K'_i)``.
5. The companion term ``phi(ct'_i)`` now lives under ``s_t``, so it is
   embedded into the ring ``R_Qp`` under the padded key ``s_t(X)``,
   packed, and ring-key-switched ``s_t(X) -> s`` once.
6. Pack the blind-rotate outputs, add the companion, multiply by
   ``(p-1) / (2N * N)`` — exact because the switching prime is chosen
   with ``p = 1 (mod 2 N^2)``, absorbing the repack's ``N`` factor — and
   rescale by ``p``.

Correctness algebra per coefficient (cf. the base module's docstring):
``N*q*(J_i - K'_i) + N*([2N M_i]_q + q K'_i) = N * 2N * M_i`` where
``M_i = m_i + e + e_ks`` is the key-switched phase; dividing by
``2 N^2`` and rescaling leaves ``m_i`` (plus key-switch noise — the price
of the smaller key).
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from typing import List, Optional

import numpy as np

from ..ckks.ciphertext import CkksCiphertext
from ..ckks.context import CkksContext
from ..ckks.keys import SecretKey
from ..errors import ParameterError
from ..math.gadget import GadgetVector
from ..math.modular import find_ntt_primes
from ..math.rns import RnsBasis, concat_bases
from ..math.sampling import Sampler
from ..params import CkksParams
from ..tfhe import repack_with_counters
from ..tfhe.blind_rotate import BlindRotateKey, blind_rotate_batch
from ..tfhe.extract import (RnsLweCiphertext, embed_lwe, extraction_vector,
                            rlwe_secret_as_lwe_key)
from ..tfhe.glwe import GlweCiphertext, GlweSecretKey
from ..tfhe.keyswitch import AutomorphismKeySet, GlweKeySwitchKey, glwe_keyswitch
from ..tfhe.lwe import LweCiphertext, LweKeySwitchKey, LweSecretKey, lwe_keyswitch
from ..tfhe.repack import repack_exponents
from .pipeline import BootstrapTrace, build_switching_test_vector


def make_keyswitched_toy_params(n: int = 16, limbs: int = 3,
                                limb_bits: int = 30, scale_bits: int = 23,
                                special_limbs: int = 2) -> CkksParams:
    """Toy CKKS parameters whose first special prime satisfies
    ``p = 1 (mod 2 N^2)`` so the keyswitched pipeline's final division by
    ``2 N^2`` is exact."""
    primes = find_ntt_primes(limb_bits, n, limbs)
    # The switching prime needs the stronger congruence (a prime = 1 mod
    # 2N^2 is automatically NTT-friendly for the ring); skip collisions
    # with the limb chain.
    skip = 0
    while True:
        strong = find_ntt_primes(limb_bits, n * n, 1, skip=skip)
        if strong[0] not in primes:
            break
        skip += 1
    ordinary = [p for p in
                find_ntt_primes(limb_bits, n, limbs + special_limbs + 2)
                if p not in primes and p != strong[0]][: special_limbs - 1]
    return CkksParams(n=n, moduli=primes,
                      special_moduli=strong + ordinary, scale_bits=scale_bits)


@dataclass
class KeySwitchedKeySet:
    """All key material for the n_t pipeline."""

    lwe_ksk: LweKeySwitchKey            # s coeffs (dim N) -> s_t (dim n_t), mod q
    brk: BlindRotateKey                 # n_t RGSW pairs of s_t digits, under s
    auto_keys_s: AutomorphismKeySet     # repack keys under s (ring)
    auto_keys_st: AutomorphismKeySet    # repack keys under padded s_t(X)
    ring_ksk: GlweKeySwitchKey          # s_t(X) -> s over Qp
    raised_basis: RnsBasis
    gadget: GadgetVector
    s_t: LweSecretKey
    glwe_sk_ref: GlweSecretKey

    @classmethod
    def generate(cls, ctx: CkksContext, sk: SecretKey, n_t: int,
                 sampler: Optional[Sampler] = None,
                 base_bits: int = 4,
                 lwe_ks_base_bits: int = 7,
                 error_std: float = 0.8) -> "KeySwitchedKeySet":
        if n_t > ctx.n:
            raise ParameterError("n_t cannot exceed the ring dimension")
        sampler = sampler or Sampler()
        n = ctx.n
        q = ctx.full_basis.moduli[0]
        p = ctx.special_basis.moduli[0]
        if (p - 1) % (2 * n * n):
            raise ParameterError(
                "keyswitched pipeline needs p = 1 (mod 2N^2); build params "
                "with make_keyswitched_toy_params")
        raised = concat_bases(ctx.full_basis, RnsBasis([p]))
        total_bits = raised.product.bit_length()
        gadget = GadgetVector(q=raised.product, base_bits=base_bits,
                              digits=max(1, total_bits // base_bits))

        # The small LWE secret and the dimension switch to it.
        s_t = LweSecretKey.generate(n_t, sampler)
        lwe_gadget = GadgetVector(q=q, base_bits=lwe_ks_base_bits,
                                  digits=max(1, (q.bit_length() - 1)
                                             // lwe_ks_base_bits))
        lwe_ksk = LweKeySwitchKey.generate(
            rlwe_secret_as_lwe_key(np.asarray(sk.coeffs, dtype=object)),
            s_t, q, lwe_gadget, sampler)

        # Blind-rotate keys: s_t digits encrypted under the CKKS secret.
        glwe_sk = GlweSecretKey(coeffs=[np.asarray(sk.coeffs, dtype=object)], n=n)
        brk = BlindRotateKey.generate(s_t, glwe_sk, raised, gadget, sampler,
                                      error_std=error_std)

        # Repack keys under s (for the blind-rotate outputs).
        auto_s = AutomorphismKeySet.generate(glwe_sk, repack_exponents(n),
                                             raised, gadget, sampler, error_std)
        # Repack keys under the padded s_t ring key (for the companions).
        st_coeffs = np.zeros(n, dtype=object)
        st_coeffs[:n_t] = s_t.coeffs
        st_poly_key = GlweSecretKey(coeffs=[st_coeffs], n=n)
        auto_st = AutomorphismKeySet.generate(st_poly_key, repack_exponents(n),
                                              raised, gadget, sampler, error_std)
        # One ring key switch s_t(X) -> s.
        ring_ksk = GlweKeySwitchKey.generate(st_coeffs, glwe_sk, raised,
                                             gadget, sampler, error_std)
        return cls(lwe_ksk=lwe_ksk, brk=brk, auto_keys_s=auto_s,
                   auto_keys_st=auto_st, ring_ksk=ring_ksk,
                   raised_basis=raised, gadget=gadget, s_t=s_t,
                   glwe_sk_ref=glwe_sk)


class KeySwitchedBootstrapper:
    """Algorithm 2 with the paper's n_t-dimension blind rotation."""

    def __init__(self, ctx: CkksContext, keys: KeySwitchedKeySet):
        self.ctx = ctx
        self.keys = keys
        self.raised_basis = keys.raised_basis
        # The Algorithm-2 LUT *without* the ``N^{-1}`` fold — the repack
        # factor is divided out exactly at the end.
        self._test_vector = build_switching_test_vector(
            ctx.n, ctx.full_basis.moduli[0], self.raised_basis,
            fold_n_inv=False)

    def bootstrap(self, ct: CkksCiphertext,
                  trace: Optional[BootstrapTrace] = None) -> CkksCiphertext:
        if ct.level != 0:
            raise ParameterError("expects a level-0 ciphertext")
        n = self.ctx.n
        two_n = 2 * n
        q = ct.basis.moduli[0]
        trace = trace if trace is not None else BootstrapTrace()
        trace.reset()  # one trace records exactly one run (see BootstrapTrace)
        t0 = time.perf_counter()

        # Step 0: Extract + LWE key switch down to n_t.
        big_lwes = self._extract_all(ct, q)
        small_lwes = [lwe_keyswitch(lwe, self.keys.lwe_ksk) for lwe in big_lwes]
        trace.num_lwe = len(small_lwes)

        # Steps 1-2 per LWE: ct'_i and ct_ms,i.
        companions: List[GlweCiphertext] = []
        switched: List[LweCiphertext] = []
        for lwe in small_lwes:
            a = np.asarray(lwe.a, dtype=object)
            b = int(lwe.b)
            a_p, b_p = (two_n * a) % q, (two_n * b) % q
            a_ms = ((two_n * a - a_p) // q) % two_n
            b_ms = ((two_n * b - b_p) // q) % two_n
            switched.append(LweCiphertext(a=a_ms.astype(np.int64), b=int(b_ms),
                                          q=two_n))
            companions.append(self._embed_companion(a_p, b_p))
        trace.modswitch_ops = 2 * n
        t1 = time.perf_counter()

        # Step 3: n_t-iteration BlindRotates under s + repack.
        accs = blind_rotate_batch(self._test_vector, switched, self.keys.brk)
        trace.num_blind_rotates = len(accs)
        t2 = time.perf_counter()
        packed_kq, ctr_s = repack_with_counters(accs, self.keys.auto_keys_s)

        # Companion: pack under s_t(X), then one ring key switch to s.
        packed_comp_st, ctr_st = repack_with_counters(
            companions, self.keys.auto_keys_st)
        packed_comp = glwe_keyswitch(packed_comp_st.mask[0], packed_comp_st.body,
                                     self.keys.ring_ksk)
        trace.repack_merge_keyswitches = (ctr_s.merge_keyswitches
                                          + ctr_st.merge_keyswitches)
        trace.repack_trace_keyswitches = (ctr_s.trace_keyswitches
                                          + ctr_st.trace_keyswitches)
        # +1 for the final s_t(X) -> s ring key switch.
        trace.repack_keyswitches = (ctr_s.total_keyswitches
                                    + ctr_st.total_keyswitches + 1)
        t3 = time.perf_counter()

        # Steps 4-5: add, divide by 2N * N exactly, rescale by p.
        ct_dprime = packed_kq + packed_comp
        p = self.raised_basis.moduli[-1]
        w = (p - 1) // (two_n * n)
        body = (ct_dprime.body * w).rescale_last_limb().to_eval()
        mask = (ct_dprime.mask[0] * w).rescale_last_limb().to_eval()
        t4 = time.perf_counter()
        trace.step_seconds = {"extract": t1 - t0, "blind_rotate": t2 - t1,
                              "repack": t3 - t2, "finish": t4 - t3}
        return CkksCiphertext(c0=body, c1=mask, scale=ct.scale)

    # -- helpers --------------------------------------------------------------------

    def _extract_all(self, ct: CkksCiphertext, q: int) -> List[LweCiphertext]:
        c0 = ct.c0.to_coeff().limbs[0]
        c1 = ct.c1.to_coeff().limbs[0]
        return [LweCiphertext(a=extraction_vector(c1, i, q), b=int(c0[i]), q=q)
                for i in range(self.ctx.n)]

    def _embed_companion(self, a_p: np.ndarray, b_p: int) -> GlweCiphertext:
        """Embed the mod-q LWE ``ct'_i`` (dim n_t, key s_t) as an RLWE over
        the raised basis under the padded ring key ``s_t(X)``: constant
        phase coefficient = phi(ct'_i) exactly (values are in [0, q) and
        embed exactly into the larger modulus)."""
        n = self.ctx.n
        padded = np.zeros(n, dtype=object)
        padded[: len(a_p)] = a_p
        rns = RnsLweCiphertext(
            a=[np.mod(padded, qi) for qi in self.raised_basis.moduli],
            b=[int(b_p) % qi for qi in self.raised_basis.moduli],
            basis=self.raised_basis,
        )
        return embed_lwe(rns)
