"""Hybrid RNS key switching: ModUp, inner product with the key, ModDown.

This is the CKKS ``KeySwitch`` the paper accelerates with its external-
product/MAC units (Section IV-A, IV-E): the basis conversions in ModUp
and ModDown are exactly the fused multiply-accumulate workload, and the
digit structure (``dnum``) matches the decomposition number ``d = 2``.

Correctness sketch (per digit group ``j`` with sub-modulus ``Q_j``):

* ModUp lifts ``[d]_{Q_j}`` to the current basis ``Q_l * P`` — the result
  equals ``d + k Q_j`` for a small ``k`` (approximate BConv).
* The key component encrypts ``P * Q_j_tilde * s_src`` where
  ``Q_j_tilde = (Q/Q_j) * [(Q/Q_j)^{-1}]_{Q_j}``, so
  ``sum_j ModUp_j * key_j`` decrypts to ``P * d * s_src`` modulo every
  current prime (CRT interpolation), plus key noise scaled by the digits.
* ModDown divides by ``P``, leaving ``d * s_src`` with noise shrunk by P.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import ParameterError
from ..math.rns import RnsBasis, RnsPoly, basis_convert_reference, concat_bases
from .context import CkksContext
from .keys import SwitchKey
from .keyswitch_engine import CkksKeyswitchEngine


class KeySwitcher:
    """Applies hybrid switching keys to polynomials at any level.

    ``switch`` and ``mod_down`` run on
    :class:`~repro.ckks.keyswitch_engine.CkksKeyswitchEngine` — cached
    BConv plans, one stacked NTT per ModUp, fused uint64 MACs — whenever
    every extended-basis prime fits the fast-modulus bound and the
    operand basis is a prefix of the context's limb chain; otherwise
    they fall back to the scalar per-limb path.  That path is callable
    directly as :meth:`switch_reference` / :meth:`mod_down_reference`:
    the frozen cross-check oracle and benchmark baseline, bit-identical
    to the engine.
    """

    def __init__(self, context: CkksContext):
        self.ctx = context
        #: The batched engine, or ``None`` when the context's moduli are
        #: too wide for it (everything then takes the scalar path).
        try:
            self.engine = CkksKeyswitchEngine.for_context(context)
        except ParameterError:
            self.engine = None
        big_q = context.full_basis.product
        self._group_indices = context.digit_groups(context.max_level)
        # Q_j and Q_j_tilde for the *full* modulus; valid at every level
        # because all identities hold prime-wise (see module docstring).
        self._qj = []
        for group in self._group_indices:
            qj = 1
            for idx in group:
                qj *= context.full_basis.moduli[idx]
            self._qj.append(qj)

    # -- the main entry point ----------------------------------------------------------

    def switch(self, d: RnsPoly, key: SwitchKey) -> Tuple[RnsPoly, RnsPoly]:
        """Return ``(u0, u1)`` over ``d``'s basis such that
        ``u0 + u1*s_dst ~ d*s_src``."""
        if self.engine is not None and self.engine.handles(d.basis):
            return self.engine.switch(d, key)
        return self.switch_reference(d, key)

    def switch_reference(self, d: RnsPoly,
                         key: SwitchKey) -> Tuple[RnsPoly, RnsPoly]:
        """:meth:`switch` on the scalar path."""
        ext, lifted = self.lift_digits(d)
        return self.inner_product_and_down(lifted, key, ext, d.basis)

    def lift_digits(self, d: RnsPoly):
        """ModUp every digit group once; reusable across rotations.

        Hoisting (Halevi-Shoup [28]): the lift is coefficient-wise, so it
        commutes bit-exactly with ring automorphisms — decompose once,
        rotate the lifted digits per target.
        """
        level = len(d.basis) - 1
        ext = concat_bases(d.basis, self.ctx.special_basis)
        d_coeff = d.to_coeff()
        lifted: List[Tuple[int, RnsPoly]] = []
        for j, group in enumerate(self._group_indices):
            present = [i for i in group if i <= level]
            if not present:
                continue
            lifted.append((j, self._mod_up(d_coeff, present, ext)))
        return ext, lifted

    def inner_product_and_down(self, lifted, key: SwitchKey, ext: RnsBasis,
                               target: RnsBasis) -> Tuple[RnsPoly, RnsPoly]:
        """MAC the lifted digits against the key and ModDown (scalar: only
        reached for a basis the engine does not handle)."""
        n = lifted[0][1].n
        acc0 = RnsPoly.zero(n, ext, "eval")
        acc1 = RnsPoly.zero(n, ext, "eval")
        restricted = key.restricted(ext)
        for j, lift in lifted:
            b_j, a_j = restricted[j]
            lift_eval = lift.to_eval()
            acc0 = acc0 + lift_eval * b_j
            acc1 = acc1 + lift_eval * a_j
        return (self.mod_down_reference(acc0, target),
                self.mod_down_reference(acc1, target))

    # -- ModUp ------------------------------------------------------------------

    def _mod_up(self, d_coeff: RnsPoly, present: List[int], ext: RnsBasis) -> RnsPoly:
        """Lift the digit-group residues of ``d`` onto the extended basis.

        Residues for primes inside the group are copied verbatim (the lift
        is congruent to ``d`` there); all other limbs come from the
        approximate basis conversion.
        """
        group_basis = RnsBasis([self.ctx.full_basis.moduli[i] for i in present])
        group_poly = RnsPoly(
            d_coeff.n, group_basis, [d_coeff.limbs[i].copy() for i in present], "coeff"
        )
        others = [q for q in ext.moduli if q not in set(group_basis.moduli)]
        converted = basis_convert_reference(group_poly, RnsBasis(others))
        limb_for = {q: limb for q, limb in zip(others, converted.limbs)}
        for q, limb in zip(group_basis.moduli, group_poly.limbs):
            limb_for[q] = limb
        limbs = [limb_for[q] for q in ext.moduli]
        return RnsPoly(d_coeff.n, ext, limbs, "coeff")

    # -- ModDown ----------------------------------------------------------------

    def mod_down(self, u: RnsPoly, target: RnsBasis) -> RnsPoly:
        """Divide a ``Q_l * P`` polynomial by ``P`` and round, landing on ``Q_l``.

        ``(u - BConv([u]_P -> Q_l)) * P^{-1} mod q_i`` — exactly the
        ModDown datapath of the paper's external-product unit.
        """
        n_special = len(self.ctx.special_basis)
        if len(u.basis) != len(target) + n_special:
            raise ParameterError("ModDown basis arithmetic mismatch")
        if self.engine is not None and self.engine.handles(target) \
                and tuple(u.basis.moduli) == tuple(target.moduli) \
                + tuple(self.ctx.special_basis.moduli):
            return self.engine.mod_down_poly(u, target)
        return self.mod_down_reference(u, target)

    def mod_down_reference(self, u: RnsPoly, target: RnsBasis) -> RnsPoly:
        """:meth:`mod_down` on the scalar path."""
        u_coeff = u.to_coeff()
        p_basis = self.ctx.special_basis
        p_part = RnsPoly(u.n, p_basis, u_coeff.limbs[len(target):], "coeff")
        correction = basis_convert_reference(p_part, target)
        p_prod = p_basis.product
        limbs = []
        for idx, (e, q) in enumerate(zip(target.engines, target.moduli)):
            diff = e.sub(u_coeff.limbs[idx], correction.limbs[idx])
            limbs.append(e.mul(diff, e.inv(p_prod % q)))
        return RnsPoly(u.n, target, limbs, "coeff").to_eval()
