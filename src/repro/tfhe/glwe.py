"""GLWE ciphertexts over an (optionally multi-limb) polynomial ring.

GLWE generalises LWE and RLWE (paper footnote 1): a ciphertext is
``(a_1 .. a_h, b)`` with ``h`` mask polynomials, decrypting through the
phase ``b + sum_i a_i * s_i``.  The paper uses ``h = 1`` (plain RLWE) for
the accumulator; we keep ``h`` generic since the key-size audit of
Section III-C scales with it.

Polynomials are :class:`~repro.math.rns.RnsPoly` so the same class covers
the single-limb standalone-TFHE case and the ``R_{Qp}`` accumulator of
the scheme-switching bootstrap (Algorithm 2 works modulo the full
``Q * p``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ParameterError
from ..math.rns import RnsBasis, RnsPoly
from ..math.sampling import Sampler


@dataclass
class GlweSecretKey:
    """``h`` ternary secret polynomials, stored as exact integer vectors."""

    coeffs: List[np.ndarray]  # h arrays of length n, entries in {-1,0,1}
    n: int

    @property
    def h(self) -> int:
        return len(self.coeffs)

    @classmethod
    def generate(cls, n: int, h: int, sampler: Sampler) -> "GlweSecretKey":
        return cls(coeffs=[sampler.ternary(n).astype(object) for _ in range(h)], n=n)

    def on_basis(self, basis: RnsBasis) -> List[RnsPoly]:
        return [RnsPoly.from_int_coeffs(self.n, basis, c).to_eval() for c in self.coeffs]

    def __repr__(self) -> str:
        """Redacted: structure only, never the coefficient payload."""
        return f"GlweSecretKey(h={self.h}, n={self.n}, coeffs=<redacted>)"


@dataclass
class GlweCiphertext:
    """``(mask[0..h-1], body)`` with phase ``body + sum mask_i * s_i``."""

    mask: List[RnsPoly]
    body: RnsPoly

    @property
    def h(self) -> int:
        return len(self.mask)

    @property
    def n(self) -> int:
        return self.body.n

    @property
    def basis(self) -> RnsBasis:
        return self.body.basis

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "GlweCiphertext") -> "GlweCiphertext":
        self._check(other)
        return GlweCiphertext(
            mask=[x + y for x, y in zip(self.mask, other.mask)],
            body=self.body + other.body,
        )

    def __sub__(self, other: "GlweCiphertext") -> "GlweCiphertext":
        self._check(other)
        return GlweCiphertext(
            mask=[x - y for x, y in zip(self.mask, other.mask)],
            body=self.body - other.body,
        )

    def __neg__(self) -> "GlweCiphertext":
        return GlweCiphertext(mask=[-x for x in self.mask], body=-self.body)

    def mul_poly(self, p: RnsPoly) -> "GlweCiphertext":
        """Multiply every component by a (public) ring element."""
        return GlweCiphertext(mask=[x * p for x in self.mask], body=self.body * p)

    def negacyclic_shift(self, k: int) -> "GlweCiphertext":
        """Multiply by the monomial ``X^k`` (the paper's rotation unit)."""
        return GlweCiphertext(
            mask=[_shift_rns(x, k) for x in self.mask],
            body=_shift_rns(self.body, k),
        )

    def automorphism(self, t: int) -> "GlweCiphertext":
        """Component-wise ``X -> X^t`` (changes the effective key!)."""
        return GlweCiphertext(
            mask=[x.automorphism(t) for x in self.mask],
            body=self.body.automorphism(t),
        )

    def to_eval(self) -> "GlweCiphertext":
        return GlweCiphertext([x.to_eval() for x in self.mask], self.body.to_eval())

    def to_coeff(self) -> "GlweCiphertext":
        return GlweCiphertext([x.to_coeff() for x in self.mask], self.body.to_coeff())

    def copy(self) -> "GlweCiphertext":
        return GlweCiphertext([x.copy() for x in self.mask], self.body.copy())

    def _check(self, other: "GlweCiphertext") -> None:
        if self.h != other.h or self.basis.moduli != other.basis.moduli:
            raise ParameterError("GLWE ciphertext mismatch")

    @classmethod
    def trivial(cls, message: RnsPoly, h: int) -> "GlweCiphertext":
        """Noiseless public ciphertext ``(0, .., 0, m)`` — e.g. the initial
        accumulator ``ACC = (0, f * X^b)`` of Algorithm 1."""
        return cls(mask=[RnsPoly.zero(message.n, message.basis, message.domain)
                         for _ in range(h)],
                   body=message.copy())


def draw_uniform_masks(mask_rng: Sampler, h: int, n: int,
                       basis: RnsBasis) -> List[RnsPoly]:
    """Draw the ``h`` uniform mask polynomials of one GLWE row.

    This is THE canonical draw order of the key schedule: mask
    polynomials in component order, limbs in basis order, every limb one
    ``uniform(n, q)`` call, interpreted directly as evaluation-domain
    residues.  :func:`glwe_encrypt` consumes it at keygen and every
    expansion path (re-expansion from seed+``b`` material, the
    process-pool workers) replays it bit-identically from the stored seed.
    """
    masks = []
    for _ in range(h):
        limbs = [e.asarray(mask_rng.uniform(n, q))
                 for e, q in zip(basis.engines, basis.moduli)]
        masks.append(RnsPoly(n, basis, limbs, "eval"))
    return masks


def glwe_encrypt(message: RnsPoly, sk: GlweSecretKey, sampler: Sampler,
                 error_std: Optional[float] = None,
                 mask_rng: Optional[Sampler] = None) -> GlweCiphertext:
    """Encrypt a ring element: ``body = m + e - sum a_i s_i``.

    The uniform ``a``-halves come from ``mask_rng`` — ``sampler`` itself
    unless the caller passes a replayable
    :func:`~repro.math.sampling.mask_stream`, in which case only the body
    and the stream's seed need storing: the masks are recomputed on
    demand by replaying the stream.  The Gaussian error always comes
    from ``sampler``.
    """
    basis = message.basis
    n = message.n
    mask = draw_uniform_masks(sampler if mask_rng is None else mask_rng,
                              sk.h, n, basis)
    acc = RnsPoly.zero(n, basis, "eval")
    for a, s in zip(mask, sk.on_basis(basis)):
        acc = acc + a * s
    e_poly = RnsPoly.from_int_coeffs(n, basis, sampler.gaussian(n, error_std).astype(object))
    body = message.to_eval() + e_poly.to_eval() - acc
    return GlweCiphertext(mask=mask, body=body)


def glwe_phase(ct: GlweCiphertext, sk: GlweSecretKey) -> RnsPoly:
    """``body + sum mask_i * s_i`` = message + noise."""
    s_polys = sk.on_basis(ct.basis)
    acc = ct.body.to_eval()
    for a, s in zip(ct.mask, s_polys):
        acc = acc + a * s
    return acc


def glwe_decrypt_coeffs(ct: GlweCiphertext, sk: GlweSecretKey) -> np.ndarray:
    """Centred big-int coefficients of the phase."""
    return glwe_phase(ct, sk).to_centered_int_coeffs()


def _shift_rns(poly: RnsPoly, k: int) -> RnsPoly:
    """Negacyclic shift of an RnsPoly by ``X^k`` limb-wise."""
    src = poly.to_coeff()
    n = src.n
    k = k % (2 * n)
    sign_flip = k >= n
    k = k % n
    limbs = []
    for e, limb in zip(src.basis.engines, src.limbs):
        rolled = np.roll(limb, k)
        if k:
            rolled = rolled.copy()
            head = rolled[:k]
            rolled[:k] = np.where(head == 0, head, e.q - head)
        if sign_flip:
            rolled = np.where(rolled == 0, rolled, e.q - rolled)
        limbs.append(rolled)
    return RnsPoly(n, src.basis, limbs, "coeff")
