"""Sample extraction (paper Eq. 2) and its inverse embedding.

``extract_lwe(ct, i)`` turns an RLWE ciphertext into the LWE encryption
of its ``i``-th phase coefficient under the key formed by the RLWE
secret's coefficient vector:

    a^(i) = (a_i, a_{i-1}, ..., a_0, -a_{N-1}, ..., -a_{i+1})

``embed_lwe`` is the inverse map used before repacking: it produces an
RLWE ciphertext whose constant phase coefficient equals the LWE phase
(the other coefficients are uncontrolled).  For multi-limb rings an
"RNS-LWE" ciphertext (one residue row per limb) is returned by
:func:`extract_rns_lwe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import ParameterError
from ..math.rns import RnsBasis, RnsPoly
from .glwe import GlweCiphertext
from .lwe import LweCiphertext, LweSecretKey


def extract_lwe(ct: GlweCiphertext, index: int = 0) -> LweCiphertext:
    """Extract coefficient ``index`` from a single-limb RLWE ciphertext."""
    if ct.h != 1:
        raise ParameterError("extraction expects an RLWE (h=1) ciphertext")
    if len(ct.basis) != 1:
        raise ParameterError("use extract_rns_lwe for multi-limb ciphertexts")
    q = ct.basis.moduli[0]
    src = ct.to_coeff()
    a_vec = extraction_vector(src.mask[0].limbs[0], index, q)
    b = int(src.body.limbs[0][index])
    return LweCiphertext(a=src.mask[0].basis.engines[0].asarray(a_vec), b=b, q=q)


@dataclass
class RnsLweCiphertext:
    """LWE ciphertext whose components live in RNS (one row per limb)."""

    a: List[np.ndarray]   # per-limb residue vectors, length N each
    b: List[int]          # per-limb body residue
    basis: RnsBasis

    @property
    def dim(self) -> int:
        return len(self.a[0])

    def phase(self, sk_coeffs: np.ndarray) -> int:
        """Centred big-int phase given the RLWE secret's coefficients."""
        from ..math.modular import crt_compose

        residues = []
        for a_row, b_val, q in zip(self.a, self.b, self.basis.moduli):
            inner = int(np.dot(np.asarray(a_row, dtype=object), sk_coeffs))
            residues.append((b_val + inner) % q)
        stacked = np.asarray(residues, dtype=object).reshape(len(self.basis), 1)
        val = int(crt_compose(stacked, self.basis.moduli)[0])
        big_q = self.basis.product
        return val - big_q if val > big_q // 2 else val


def extract_rns_lwe(ct: GlweCiphertext, index: int = 0) -> RnsLweCiphertext:
    """Eq. 2 extraction from a multi-limb RLWE ciphertext."""
    if ct.h != 1:
        raise ParameterError("extraction expects an RLWE (h=1) ciphertext")
    src = ct.to_coeff()
    a_rows, b_vals = [], []
    for limb_a, limb_b, q in zip(src.mask[0].limbs, src.body.limbs, src.basis.moduli):
        a_rows.append(extraction_vector(limb_a, index, q))
        b_vals.append(int(limb_b[index]))
    return RnsLweCiphertext(a=a_rows, b=b_vals, basis=src.basis)


def embed_lwe(ct: RnsLweCiphertext) -> GlweCiphertext:
    """Inverse of index-0 extraction: RLWE whose constant phase coefficient
    equals the LWE phase.  ``embed_lwe(extract_rns_lwe(ct, 0))``
    reproduces ``ct`` exactly (tests assert this)."""
    n = ct.dim
    limbs_a, limbs_b = [], []
    for a_row, b_val, (e, q) in zip(ct.a, ct.b, zip(ct.basis.engines, ct.basis.moduli)):
        poly = e.zeros(n)
        poly[0] = a_row[0]
        # A_{N-k} = -a_k for k >= 1.
        tail = np.asarray(a_row[1:], dtype=object)
        poly[1:] = np.where(tail == 0, tail, q - tail)[::-1]
        limbs_a.append(poly)
        body = e.zeros(n)
        body[0] = b_val % q
        limbs_b.append(body)
    mask = RnsPoly(n, ct.basis, limbs_a, "coeff")
    body = RnsPoly(n, ct.basis, limbs_b, "coeff")
    return GlweCiphertext(mask=[mask], body=body)


def rlwe_secret_as_lwe_key(sk_coeffs: np.ndarray) -> LweSecretKey:
    """The dimension-``N`` LWE key an extracted ciphertext decrypts under."""
    return LweSecretKey(coeffs=np.asarray(sk_coeffs, dtype=object))


def extraction_vector(a_limb: np.ndarray, index: int, q: int) -> np.ndarray:
    """Build ``a^(i)`` of Eq. 2 from one limb of the mask polynomial."""
    n = len(a_limb)
    if not 0 <= index < n:
        raise ParameterError(f"coefficient index {index} out of range")
    a = np.asarray(a_limb, dtype=object)
    head = a[: index + 1][::-1]                       # a_i, a_{i-1}, ..., a_0
    tail = a[index + 1:][::-1]                        # a_{N-1}, ..., a_{i+1}
    neg_tail = np.where(tail == 0, tail, q - tail)
    return np.concatenate([head, neg_tail])
