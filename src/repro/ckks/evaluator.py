"""The CKKS evaluator: encryption, decryption and homomorphic operations.

Implements the primitive operation set of paper Section II-A — ``PtAdd``,
``Add``, ``PtMult``, ``Mult`` (with relinearisation), ``Rescale``,
``Rotate`` and ``Conjugate`` — over the RNS representation, using the
hybrid key switcher for everything that changes the effective secret.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..errors import LevelError, NoiseBudgetExceeded, ParameterError, ScaleMismatchError
from ..math.rns import RnsPoly
from ..math.sampling import Sampler
from .ciphertext import CkksCiphertext
from .context import CkksContext
from .keys import KeySet, SecretKey
from .keyswitch import KeySwitcher

#: Relative tolerance when checking that two scales match.
_SCALE_RTOL = 1e-9


class CkksEvaluator:
    """Stateless-ish operation dispatcher bound to a context and key set."""

    def __init__(self, context: CkksContext, keys: KeySet,
                 sampler: Optional[Sampler] = None,
                 scale_rtol: float = _SCALE_RTOL):
        self.ctx = context
        self.keys = keys
        self.switcher = KeySwitcher(context)
        self.sampler = sampler or Sampler()
        # Relative tolerance for combining scales.  The conventional
        # bootstrapper runs with a loose tolerance and near-Delta primes
        # (fixed-point style); normal use keeps the strict default.
        self.scale_rtol = scale_rtol

    # -- encryption / decryption -------------------------------------------------------

    def encrypt(self, values, scale: Optional[float] = None,
                level: Optional[int] = None) -> CkksCiphertext:
        """Public-key encryption of a slot vector."""
        delta = scale or self.ctx.params.scale
        lvl = self.ctx.max_level if level is None else level
        basis = self.ctx.basis_at_level(lvl)
        n = self.ctx.n
        m = self.ctx.encoder.encode(values, delta)
        m_poly = RnsPoly.from_int_coeffs(n, basis, m).to_eval()
        pk_b = self._restrict(self.keys.public.b, basis)
        pk_a = self._restrict(self.keys.public.a, basis)
        u = RnsPoly.from_int_coeffs(n, basis, self.sampler.ternary(n).astype(object)).to_eval()
        e0 = RnsPoly.from_int_coeffs(n, basis, self.sampler.gaussian(n).astype(object)).to_eval()
        e1 = RnsPoly.from_int_coeffs(n, basis, self.sampler.gaussian(n).astype(object)).to_eval()
        return CkksCiphertext(c0=pk_b * u + e0 + m_poly, c1=pk_a * u + e1, scale=delta)

    def decrypt(self, ct: CkksCiphertext, sk: SecretKey) -> np.ndarray:
        """Decrypt and decode to complex slots."""
        coeffs = self.decrypt_to_coeffs(ct, sk)
        return self.ctx.encoder.decode(coeffs, ct.scale)

    def decrypt_to_coeffs(self, ct: CkksCiphertext, sk: SecretKey) -> np.ndarray:
        """Raw phase ``c0 + c1*s`` as centred big-int coefficients."""
        s = sk.on_basis(ct.n, ct.basis)
        phase = ct.c0 + ct.c1 * s
        return phase.to_centered_int_coeffs()

    def encrypt_coeffs(self, values, scale: Optional[float] = None,
                       level: Optional[int] = None) -> CkksCiphertext:
        """Encrypt *coefficient-packed* real values: coefficient ``i`` of
        the plaintext polynomial is ``round(Delta * values[i])`` — no
        canonical embedding.  This is the packing the scheme-switching
        LUT path (Pegasus-style) operates on: the TFHE side sees one
        value per extracted coefficient."""
        delta = scale or self.ctx.params.scale
        lvl = self.ctx.max_level if level is None else level
        basis = self.ctx.basis_at_level(lvl)
        n = self.ctx.n
        vals = np.zeros(n)
        arr = np.asarray(values, dtype=np.float64).ravel()
        if len(arr) > n:
            raise ParameterError(f"too many values for {n} coefficients")
        vals[: len(arr)] = arr
        m = np.asarray([int(round(v * delta)) for v in vals], dtype=object)
        m_poly = RnsPoly.from_int_coeffs(n, basis, m).to_eval()
        pk_b = self._restrict(self.keys.public.b, basis)
        pk_a = self._restrict(self.keys.public.a, basis)
        u = RnsPoly.from_int_coeffs(n, basis, self.sampler.ternary(n).astype(object)).to_eval()
        e0 = RnsPoly.from_int_coeffs(n, basis, self.sampler.gaussian(n).astype(object)).to_eval()
        e1 = RnsPoly.from_int_coeffs(n, basis, self.sampler.gaussian(n).astype(object)).to_eval()
        return CkksCiphertext(c0=pk_b * u + e0 + m_poly, c1=pk_a * u + e1, scale=delta)

    def decrypt_coeffs_scaled(self, ct: CkksCiphertext, sk: SecretKey) -> np.ndarray:
        """Inverse of :meth:`encrypt_coeffs`: coefficients over the scale."""
        coeffs = self.decrypt_to_coeffs(ct, sk)
        return np.asarray([float(c) for c in coeffs]) / ct.scale

    def noise_bits(self, ct: CkksCiphertext, sk: SecretKey, expected) -> float:
        """log2 of the worst slot error against ``expected`` values.

        A diagnostic for tests and noise studies; pair with
        :meth:`check_noise_budget` to fail fast on drowned messages.
        """
        got = self.decrypt(ct, sk)
        z = self.ctx.encoder._to_slot_vector(expected)
        err = float(np.max(np.abs(got - z)))
        return math.log2(err) if err > 0 else float("-inf")

    def check_noise_budget(self, ct: CkksCiphertext, sk: SecretKey, expected,
                           max_error: float = 0.5) -> None:
        """Raise :class:`NoiseBudgetExceeded` if decryption error passed
        ``max_error`` — the correctness bound is gone and the ciphertext
        should have been bootstrapped earlier."""
        got = self.decrypt(ct, sk)
        z = self.ctx.encoder._to_slot_vector(expected)
        err = float(np.max(np.abs(got - z)))
        if err > max_error:
            raise NoiseBudgetExceeded(
                f"slot error {err:.4g} exceeds the budget {max_error:.4g}")

    # -- plaintext operand helpers -------------------------------------------------------

    def encode_plain(self, values, ct: CkksCiphertext,
                     scale: Optional[float] = None) -> RnsPoly:
        """Encode values over a ciphertext's basis for PtAdd/PtMult."""
        delta = ct.scale if scale is None else scale
        m = self.ctx.encoder.encode(values, delta)
        return RnsPoly.from_int_coeffs(ct.n, ct.basis, m).to_eval()

    # -- additive ops ---------------------------------------------------------------------

    def add(self, a: CkksCiphertext, b: CkksCiphertext) -> CkksCiphertext:
        a, b = self._align(a, b)
        return CkksCiphertext(a.c0 + b.c0, a.c1 + b.c1, a.scale)

    def sub(self, a: CkksCiphertext, b: CkksCiphertext) -> CkksCiphertext:
        a, b = self._align(a, b)
        return CkksCiphertext(a.c0 - b.c0, a.c1 - b.c1, a.scale)

    def negate(self, a: CkksCiphertext) -> CkksCiphertext:
        return CkksCiphertext(-a.c0, -a.c1, a.scale)

    def add_plain(self, ct: CkksCiphertext, values) -> CkksCiphertext:
        m = self.encode_plain(values, ct)
        return CkksCiphertext(ct.c0 + m, ct.c1, ct.scale)

    def sub_plain(self, ct: CkksCiphertext, values) -> CkksCiphertext:
        m = self.encode_plain(values, ct)
        return CkksCiphertext(ct.c0 - m, ct.c1, ct.scale)

    # -- multiplicative ops ------------------------------------------------------------------

    def mul_plain(self, ct: CkksCiphertext, values,
                  scale: Optional[float] = None) -> CkksCiphertext:
        """PtMult: multiply by an encoded plaintext; scale multiplies."""
        delta = scale or self.ctx.params.scale
        m = self.encode_plain(values, ct, scale=delta)
        return CkksCiphertext(ct.c0 * m, ct.c1 * m, ct.scale * delta)

    def mul_scalar_int(self, ct: CkksCiphertext, k: int) -> CkksCiphertext:
        """Exact integer scalar multiply (no scale change, no level use)."""
        return CkksCiphertext(ct.c0 * k, ct.c1 * k, ct.scale)

    def multiply(self, a: CkksCiphertext, b: CkksCiphertext,
                 relinearize: bool = True) -> CkksCiphertext:
        """Mult: tensor + relinearisation (scale becomes ``Delta^2``)."""
        a, b = self._align(a, b)
        d0 = a.c0 * b.c0
        d1 = a.c0 * b.c1 + a.c1 * b.c0
        d2 = a.c1 * b.c1
        out_scale = a.scale * b.scale
        if not relinearize:
            raise ParameterError("non-relinearised ciphertexts are not supported")
        if self.keys.relin is None:
            raise ParameterError("key set has no relinearisation key")
        u0, u1 = self.switcher.switch(d2, self.keys.relin)
        return CkksCiphertext(d0 + u0, d1 + u1, out_scale)

    def square(self, a: CkksCiphertext) -> CkksCiphertext:
        return self.multiply(a, a)

    def rescale(self, ct: CkksCiphertext) -> CkksCiphertext:
        """Rescale: divide by the last limb prime, dropping one level."""
        if ct.level == 0:
            raise LevelError("cannot rescale a level-0 ciphertext")
        q_last = ct.basis.moduli[-1]
        return CkksCiphertext(
            ct.c0.rescale_last_limb().to_eval(),
            ct.c1.rescale_last_limb().to_eval(),
            ct.scale / q_last,
        )

    def mul_relin_rescale(self, a: CkksCiphertext, b: CkksCiphertext) -> CkksCiphertext:
        return self.rescale(self.multiply(a, b))

    # -- slot permutations ------------------------------------------------------------------

    def rotate(self, ct: CkksCiphertext, r: int) -> CkksCiphertext:
        """Rotate slots left by ``r``: slot k receives old slot k+r."""
        t = pow(5, r % self.ctx.slots, 2 * self.ctx.n)
        return self._apply_automorphism(ct, t)

    def conjugate(self, ct: CkksCiphertext) -> CkksCiphertext:
        """Complex-conjugate every slot (automorphism ``X -> X^(2N-1)``)."""
        return self._apply_automorphism(ct, 2 * self.ctx.n - 1)

    def rotate_hoisted(self, ct: CkksCiphertext, rotations: Sequence[int]):
        """Rotate one ciphertext by many amounts sharing a single ModUp.

        Hoisting (Halevi-Shoup): decompose/lift ``c1`` once, then for
        each rotation apply the automorphism to the *lifted digits* and
        finish with that rotation's key.  The approximate BConv's ``k*Q``
        offsets land differently than in :meth:`rotate`, so outputs are
        not bitwise identical — but they decrypt to the same values with
        the same noise class (tests assert value equality), at one ModUp
        for the whole rotation set instead of one per rotation.

        With the batched engine, the whole rotation set is ONE eval-domain
        gather on the lifted digit tensor, one stacked inner product and
        one batched ModDown (bit-identical to the scalar hoisted loop).
        """
        if not rotations:
            return {}
        two_n = 2 * self.ctx.n
        ts = [pow(5, r % self.ctx.slots, two_n) for r in rotations]
        eng = self.switcher.engine
        if eng is not None and eng.handles(ct.basis):
            keys = [self.keys.galois_key(t) for t in ts]
            parts = eng.rotate_hoisted_parts(ct.c1, ts, keys)
            c0_rot = eng.automorphism_eval_stack(ct.c0, ts)
            out = {}
            for i, r in enumerate(rotations):
                u0, u1 = parts[i]
                c0r = RnsPoly(ct.n, ct.basis,
                              [c0_rot[row, i] for row in range(len(ct.basis))],
                              "eval")
                out[r] = CkksCiphertext(c0r + u0, u1, ct.scale)
            return out
        ext, lifted = self.switcher.lift_digits(ct.c1.to_coeff())
        out = {}
        for t, r in zip(ts, rotations):
            key = self.keys.galois_key(t)
            rotated = [(j, lift.automorphism(t)) for j, lift in lifted]
            u0, u1 = self.switcher.inner_product_and_down(
                rotated, key, ext, ct.basis)
            c0r = ct.c0.automorphism(t).to_eval()
            out[r] = CkksCiphertext(c0r + u0, u1, ct.scale)
        return out

    def _apply_automorphism(self, ct: CkksCiphertext, t: int) -> CkksCiphertext:
        key = self.keys.galois_key(t)
        eng = self.switcher.engine
        if eng is not None and eng.handles(ct.basis):
            # Permute *first*, then lift — same operation order as the
            # scalar path (hoisting reorders it and lands different k*Q
            # offsets), with the automorphism applied as an eval-domain
            # gather: NTT(sigma_t(x)) == NTT(x)[eval_src] exactly.
            rows = range(len(ct.basis))
            c0g = eng.automorphism_eval_stack(ct.c0, [t])
            c1g = eng.automorphism_eval_stack(ct.c1, [t])
            c0r = RnsPoly(ct.n, ct.basis, [c0g[row, 0] for row in rows], "eval")
            c1r = RnsPoly(ct.n, ct.basis, [c1g[row, 0] for row in rows], "eval")
            u0, u1 = eng.switch(c1r, key)
            return CkksCiphertext(c0r + u0, u1, ct.scale)
        c0r = ct.c0.automorphism(t).to_eval()
        c1r = ct.c1.automorphism(t).to_eval()
        u0, u1 = self.switcher.switch(c1r, key)
        return CkksCiphertext(c0r + u0, u1, ct.scale)

    # -- level management ----------------------------------------------------------------------

    def drop_to_level(self, ct: CkksCiphertext, level: int) -> CkksCiphertext:
        """Discard limbs down to ``level`` (modulus reduction, scale kept)."""
        if level > ct.level:
            raise LevelError(f"cannot raise level from {ct.level} to {level}")
        c0, c1 = ct.c0, ct.c1
        while len(c0.basis) - 1 > level:
            c0 = c0.drop_last_limb()
            c1 = c1.drop_last_limb()
        return CkksCiphertext(c0, c1, ct.scale)

    # -- internals ------------------------------------------------------------------------------

    def _align(self, a: CkksCiphertext, b: CkksCiphertext):
        if a.level != b.level:
            if a.level > b.level:
                a = self.drop_to_level(a, b.level)
            else:
                b = self.drop_to_level(b, a.level)
        if not math.isclose(a.scale, b.scale, rel_tol=self.scale_rtol):
            raise ScaleMismatchError(
                f"scales differ: 2^{math.log2(a.scale):.3f} vs 2^{math.log2(b.scale):.3f}"
            )
        return a, b

    @staticmethod
    def _restrict(poly: RnsPoly, basis) -> RnsPoly:
        keep = {q: i for i, q in enumerate(poly.basis.moduli)}
        limbs = [poly.limbs[keep[q]] for q in basis.moduli]
        return RnsPoly(poly.n, basis, limbs, poly.domain)
