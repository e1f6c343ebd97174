"""RGSW/GGSW ciphertexts, the external product, CMux and InternalProduct.

An RGSW ciphertext is the ``(h+1)*d x (h+1)`` matrix of degree-``N-1``
polynomials from paper Section II-B: for each target component
``c in [0, h]`` and gadget digit ``k in [0, d)`` it stores a GLWE row
whose phase is ``g_k * m * s_c`` (mask rows) or ``g_k * m`` (body rows).

The **external product** ``RGSW(m) x GLWE(mu) -> GLWE(m * mu)`` gadget-
decomposes every GLWE component and MAC-accumulates the digits against
the rows — precisely the workload of HEAP's external-product unit
(Section IV-A): integer multiply, lazy accumulate, one reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ParameterError
from ..math.gadget import GadgetVector
from ..math.rns import RnsBasis, RnsPoly
from ..math.sampling import Sampler
from ..profiling import record_external_product
from .glwe import GlweCiphertext, GlweSecretKey, draw_uniform_masks, glwe_encrypt


@dataclass
class RgswCiphertext:
    """Rows indexed ``rows[c][k]``: component ``c`` (``h`` = body), digit ``k``."""

    rows: List[List[GlweCiphertext]]
    gadget: GadgetVector

    @property
    def h(self) -> int:
        return len(self.rows) - 1

    @property
    def basis(self) -> RnsBasis:
        return self.rows[0][0].basis

    @property
    def n(self) -> int:
        return self.rows[0][0].n

    def matrix_shape(self):
        """Paper shape ``((h+1)*d, h+1)``."""
        d = self.gadget.digits
        return ((self.h + 1) * d, self.h + 1)

    # -- linear structure (used by the BlindRotate combined key) -------------------

    def __add__(self, other: "RgswCiphertext") -> "RgswCiphertext":
        if self.matrix_shape() != other.matrix_shape():
            raise ParameterError("RGSW shape mismatch")
        return RgswCiphertext(
            rows=[[x + y for x, y in zip(rs, ro)] for rs, ro in zip(self.rows, other.rows)],
            gadget=self.gadget,
        )

    def mul_eval_vector(self, eval_vecs: List[np.ndarray]) -> "RgswCiphertext":
        """Multiply every row polynomial pointwise by per-limb evaluation
        vectors — e.g. the transform of ``X^a - 1``.  Rows must be in the
        evaluation domain."""
        def scale_poly(p: RnsPoly) -> RnsPoly:
            p = p.to_eval()
            limbs = [e.mul(limb, v) for e, limb, v in zip(p.basis.engines, p.limbs, eval_vecs)]
            return RnsPoly(p.n, p.basis, limbs, "eval")

        return RgswCiphertext(
            rows=[[GlweCiphertext(mask=[scale_poly(a) for a in row.mask],
                                  body=scale_poly(row.body))
                   for row in comp] for comp in self.rows],
            gadget=self.gadget,
        )

    # -- dense tensor export (batched blind-rotate engine) --------------------

    def to_limb_tensors(self) -> List[np.ndarray]:
        """Export the RGSW matrix as one dense evaluation-domain tensor per
        limb, shape ``((h+1)*d, h+1, N)``.

        Row ``r = c*d + k`` holds the GLWE row for component ``c``, digit
        ``k`` — the same flattening the batched engine uses for its
        decomposed-digit tensors, so the external-product MAC becomes a
        single contraction over ``r``.  Column ``h`` is the body.
        """
        n = self.n
        basis = self.basis
        d = self.gadget.digits
        r_dim, c_dim = self.matrix_shape()
        out = [e.zeros((r_dim, c_dim, n)) for e in basis.engines]
        for c, comp in enumerate(self.rows):
            for k, row in enumerate(comp):
                row = row.to_eval()
                r = c * d + k
                for col, poly in enumerate(list(row.mask) + [row.body]):
                    for li, limb in enumerate(poly.limbs):
                        out[li][r, col] = limb
        return out

    @classmethod
    def from_limb_tensors(cls, tensors: List[np.ndarray], basis: RnsBasis,
                          gadget: GadgetVector) -> "RgswCiphertext":
        """Inverse of :meth:`to_limb_tensors` (evaluation domain)."""
        r_dim, c_dim, n = tensors[0].shape
        d = gadget.digits
        if r_dim != c_dim * d:
            raise ParameterError("tensor row count does not match gadget digits")
        h = c_dim - 1
        rows: List[List[GlweCiphertext]] = []
        for c in range(c_dim):
            comp_rows = []
            for k in range(d):
                r = c * d + k
                polys = [RnsPoly(n, basis, [t[r, col].copy() for t in tensors], "eval")
                         for col in range(c_dim)]
                comp_rows.append(GlweCiphertext(mask=polys[:h], body=polys[h]))
            rows.append(comp_rows)
        return cls(rows=rows, gadget=gadget)


def rgsw_encrypt(m: int, sk: GlweSecretKey, basis: RnsBasis,
                 gadget: GadgetVector, sampler: Sampler,
                 error_std: Optional[float] = None,
                 mask_rng: Optional[Sampler] = None) -> RgswCiphertext:
    """Encrypt a small integer (typically a secret-key digit in {-1,0,1}).

    Every mask polynomial is a uniform draw from ``mask_rng`` (default:
    ``sampler``; row order ``c`` outer, digit ``k`` inner, the draw order
    of :func:`~repro.tfhe.glwe.draw_uniform_masks` within a row) and the
    *body* absorbs the payload — phase ``g_k * m * s_c`` for mask rows
    (``c < h``), ``g_k * m`` for the body row.  With a replayable mask
    stream only the ``(h+1)d`` body polynomials plus the stream's seed
    need storing — a ``(h+1)``-fold compression of the at-rest key
    (:func:`expand_rgsw`).
    """
    n = sk.n
    h = sk.h
    s_polys = sk.on_basis(basis)
    rows: List[List[GlweCiphertext]] = []
    factors = gadget.factors()
    for c in range(h + 1):
        comp_rows = []
        for g in factors:
            payload = (int(m) * g) % basis.product
            const = RnsPoly.from_int_coeffs(n, basis, _constant_vec(n, payload)).to_eval()
            msg = const * s_polys[c] if c < h else const
            comp_rows.append(glwe_encrypt(msg, sk, sampler, error_std, mask_rng))
        rows.append(comp_rows)
    return RgswCiphertext(rows=rows, gadget=gadget)


def rgsw_bodies(rgsw: RgswCiphertext) -> List[RnsPoly]:
    """Flat body list of an RGSW, row order ``r = c*d + k`` (the stored
    half of the seed+``b`` at-rest form)."""
    return [row.body for comp in rgsw.rows for row in comp]


def expand_rgsw(mask_rng: Sampler, bodies: List[RnsPoly], basis: RnsBasis,
                gadget: GadgetVector, h: int) -> RgswCiphertext:
    """Rebuild an RGSW from its mask stream and stored bodies.

    Replays exactly the draws :func:`rgsw_encrypt` made, so the
    result is bit-identical to the ciphertext produced at keygen.  Pure
    PRNG replay — masks are sampled directly in the evaluation domain, so
    expansion costs no NTTs.
    """
    d = gadget.digits
    if len(bodies) != (h + 1) * d:
        raise ParameterError("RGSW body count does not match gadget digits")
    n = bodies[0].n
    rows: List[List[GlweCiphertext]] = []
    for c in range(h + 1):
        comp_rows = []
        for k in range(d):
            mask = draw_uniform_masks(mask_rng, h, n, basis)
            comp_rows.append(GlweCiphertext(mask=mask, body=bodies[c * d + k]))
        rows.append(comp_rows)
    return RgswCiphertext(rows=rows, gadget=gadget)


def rgsw_trivial(m: int, h: int, n: int, basis: RnsBasis,
                 gadget: GadgetVector) -> RgswCiphertext:
    """Noiseless RGSW of a public constant — ``RGSW(1)`` in Algorithm 1."""
    rows: List[List[GlweCiphertext]] = []
    for c in range(h + 1):
        comp_rows = []
        for g in gadget.factors():
            payload = (int(m) * g) % basis.product
            bump = RnsPoly.from_int_coeffs(n, basis, _constant_vec(n, payload)).to_eval()
            zero = RnsPoly.zero(n, basis, "eval")
            mask = [bump.copy() if i == c else zero.copy() for i in range(h)]
            body = bump.copy() if c == h else zero.copy()
            comp_rows.append(GlweCiphertext(mask=mask, body=body))
        rows.append(comp_rows)
    return RgswCiphertext(rows=rows, gadget=gadget)


def external_product(rgsw: RgswCiphertext, glwe: GlweCiphertext) -> GlweCiphertext:
    """``RGSW(m) x GLWE(mu) -> GLWE(m * mu)``.

    Decompose-NTT-MAC, the exact sub-operation sequence of the paper's
    BlindRotate datapath (Section IV-E): rotation and decompose happen on
    coefficients, the products in the evaluation domain.
    """
    if rgsw.h != glwe.h or rgsw.basis.moduli != glwe.basis.moduli:
        raise ParameterError("external product operand mismatch")
    record_external_product(1)
    basis = glwe.basis
    n = glwe.n
    h = glwe.h
    gadget = rgsw.gadget
    components = list(glwe.mask) + [glwe.body]
    acc: Optional[GlweCiphertext] = None
    for c in range(h + 1):
        coeffs = components[c].to_int_coeffs()  # big-int, in [0, Q)
        digit_vecs = gadget.decompose(coeffs)
        for k, dv in enumerate(digit_vecs):
            digit_poly = RnsPoly.from_int_coeffs(n, basis, dv).to_eval()
            term = rgsw.rows[c][k].mul_poly(digit_poly)
            acc = term if acc is None else acc + term
    return acc


def cmux(selector: RgswCiphertext, ct_false: GlweCiphertext,
         ct_true: GlweCiphertext) -> GlweCiphertext:
    """``CMux``: returns ``ct_true`` if the RGSW encrypts 1, else ``ct_false``.

    Mapped via "simple multiplication, addition, and subtraction"
    (Section VII-A): ``d0 + RGSW(c) x (d1 - d0)``.
    """
    return ct_false + external_product(selector, ct_true - ct_false)


def internal_product(a: RgswCiphertext, b: RgswCiphertext) -> RgswCiphertext:
    """``GGSW x GGSW`` as a list of independent external products.

    Section VII-A: view ``b`` as a list of GLWE rows, externally multiply
    each by ``a``, and reassemble — yields (approximately)
    ``RGSW(m_a * m_b)``.
    """
    if a.matrix_shape() != b.matrix_shape():
        raise ParameterError("internal product shape mismatch")
    rows = [[external_product(a, row) for row in comp] for comp in b.rows]
    return RgswCiphertext(rows=rows, gadget=b.gadget)


def _constant_vec(n: int, value: int) -> np.ndarray:
    out = np.zeros(n, dtype=object)
    out[0] = value
    return out
