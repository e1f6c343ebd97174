"""GLWE (RLWE) key switching via gadget decomposition.

The paper (Section VII-A) describes the TFHE KeySwitch as "Decomposition
+ ExternalProduct with the evaluation keys" — exactly what this module
does.  The primary client is the automorphism evaluation needed by the
LWE-to-RLWE repacking (Chen et al. [11]): applying ``X -> X^t`` to a
ciphertext leaves it encrypted under ``s(X^t)``, and a
:class:`GlweKeySwitchKey` for payload ``s(X^t)`` brings it back under
``s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import KeyError_, ParameterError
from ..math.automorphism import get_automorphism_perm
from ..math.gadget import GadgetVector
from ..math.rns import RnsBasis, RnsPoly
from ..math.sampling import Sampler, derive_seed, mask_stream
from .glwe import GlweCiphertext, GlweSecretKey, draw_uniform_masks, glwe_encrypt


@dataclass
class GlweKeySwitchKey:
    """Digit-wise encryptions of ``g_k * payload`` under the target key."""

    rows: List[GlweCiphertext]
    gadget: GadgetVector
    #: Seed of the one mask stream every row's uniform masks came from.
    mask_seed: int = field(repr=False, compare=False)

    @classmethod
    def generate(cls, payload_coeffs: np.ndarray, sk_dst: GlweSecretKey,
                 basis: RnsBasis, gadget: GadgetVector, sampler: Sampler,
                 error_std: Optional[float] = None,
                 key_seed: Optional[int] = None) -> "GlweKeySwitchKey":
        """Every row's uniform masks come from ``mask_stream(key_seed)``
        (digit order, then :func:`~repro.tfhe.glwe.draw_uniform_masks`
        order within the row; ``key_seed`` drawn from ``sampler`` when
        not given), so only the ``d`` bodies plus the seed need to be
        stored.  Errors come from ``sampler``."""
        if key_seed is None:
            key_seed = sampler.draw_seed()
        mask_rng = mask_stream(key_seed)
        n = sk_dst.n
        rows = []
        for g in gadget.factors():
            msg = RnsPoly.from_int_coeffs(
                n, basis, (np.asarray(payload_coeffs, dtype=object) * g) % basis.product
            )
            rows.append(glwe_encrypt(msg, sk_dst, sampler, error_std, mask_rng))
        return cls(rows=rows, gadget=gadget, mask_seed=key_seed)

    def bodies(self) -> List[RnsPoly]:
        """Stored half of the seed+``b`` form, digit order."""
        return [row.body for row in self.rows]


def expand_glwe_keyswitch_key(mask_seed: int, bodies: List[RnsPoly], h: int,
                              basis: RnsBasis,
                              gadget: GadgetVector) -> GlweKeySwitchKey:
    """Rebuild a key-switch key bit-identically from seed + bodies."""
    if len(bodies) != gadget.digits:
        raise ParameterError("key-switch body count does not match gadget digits")
    n = bodies[0].n
    mask_rng = mask_stream(mask_seed)
    rows = [GlweCiphertext(mask=draw_uniform_masks(mask_rng, h, n, basis), body=b)
            for b in bodies]
    return GlweKeySwitchKey(rows=rows, gadget=gadget, mask_seed=mask_seed)


def glwe_keyswitch(d: RnsPoly, body: RnsPoly, ksk: GlweKeySwitchKey) -> GlweCiphertext:
    """Rebase ``(d, body)`` where the phase is ``body + d * payload``.

    Decomposes ``d`` into gadget digits and MACs against the key rows;
    output decrypts (under the key's target secret) to
    ``body + d * payload`` plus decomposition noise.
    """
    basis = d.basis
    n = d.n
    coeffs = d.to_coeff().to_int_coeffs()
    digit_vecs = ksk.gadget.decompose(coeffs)
    acc = GlweCiphertext.trivial(body.to_eval(), h=ksk.rows[0].h)
    for dv, row in zip(digit_vecs, ksk.rows):
        digit_poly = RnsPoly.from_int_coeffs(n, basis, dv).to_eval()
        acc = acc + row.mul_poly(digit_poly)
    return acc


@dataclass
class AutomorphismKeySet:
    """Key-switch keys for a set of automorphism exponents ``t``."""

    keys: Dict[int, GlweKeySwitchKey]

    @classmethod
    def generate(cls, sk: GlweSecretKey, exponents: List[int], basis: RnsBasis,
                 gadget: GadgetVector, sampler: Sampler,
                 error_std: Optional[float] = None,
                 key_seed: Optional[int] = None) -> "AutomorphismKeySet":
        """Exponent ``t``'s masks stream from
        ``derive_seed(key_seed, "auto", t)`` (``key_seed`` drawn from
        ``sampler`` when not given) — each key expands independently,
        which is what lets a key set materialise exactly the exponents a
        workload touches."""
        if sk.h != 1:
            raise ParameterError("automorphism keys assume an RLWE (h=1) key")
        if key_seed is None:
            key_seed = sampler.draw_seed()
        keys = {}
        for t in sorted(set(exponents)):
            rotated = _int_automorphism(sk.coeffs[0], t)
            keys[t] = GlweKeySwitchKey.generate(
                rotated, sk, basis, gadget, sampler, error_std,
                key_seed=derive_seed(key_seed, "auto", t))
        return cls(keys=keys)

    def key_for(self, t: int) -> GlweKeySwitchKey:
        key = self.keys.get(t)
        if key is None:
            raise KeyError_(f"missing automorphism key for exponent {t}")
        return key


def _int_automorphism(coeffs: np.ndarray, t: int) -> np.ndarray:
    """``X -> X^t`` on exact integer coefficients as one signed gather.

    The seed walked the ``n`` coefficients in a Python loop; the cached
    :class:`~repro.math.automorphism.AutomorphismPerm` (shared with
    :meth:`RnsPoly.automorphism` and the repack engine) turns it into a
    fancy-index gather plus a sign select.  Raises for even ``t`` (not a
    ring automorphism), exactly as before.
    """
    coeffs = np.asarray(coeffs, dtype=object)
    perm = get_automorphism_perm(len(coeffs), t)
    picked = coeffs[perm.src]
    return np.where(perm.src_flip, -picked, picked)
