"""Batched hybrid-keyswitch engine: the CKKS analogue of ``batch_engine``.

HEAP's Section IV-A identifies the basis conversions inside hybrid key
switching (ModUp / ModDown) as the exact fused-MAC workload its 512
modular units accelerate, and HEAAN-Demystified shows BConv plus the
digit inner product dominating CKKS runtime on conventional hardware.
The scalar :class:`~repro.ckks.keyswitch.KeySwitcher` walks those loops
limb by limb in Python with an object-dtype MAC; this engine runs the
same mathematics as a handful of stacked uint64 passes:

* **ModUp** — all digit groups are decomposed at once: verbatim limbs are
  gathered, the cross-basis limbs come from one cached
  :class:`~repro.math.rns.BconvPlan` matrix-MAC per group, and the whole
  ``(L_ext, dnum, N)`` digit tensor goes through ONE multi-limb NTT
  (:class:`~repro.math.ntt.NttEngine` over the extended basis) instead of
  ``dnum * L_ext`` per-limb transforms.
* **Inner product** — the switching key's components are lifted once per
  ``SwitchKey`` into an eval-domain ``(L_ext, dnum, 2, N)`` tensor
  (cached on the key, ARK's key-reuse insight) and the digit inner
  product is a lazy uint64 multiply-sum over the ``dnum`` axis, one
  reduction per chunk of :func:`~repro.math.modular.mac_rows` digits
  (one chunk at every practical ``dnum``).
* **ModDown** — the ``P``-limbs of both accumulator polynomials are
  converted back with a cached plan and the ``* P^{-1}`` correction is
  one fused stacked pass; for hoisted rotation sets, ALL rotations'
  accumulators share one stacked inverse/forward NTT.
* **Hoisting** (Halevi-Shoup) — ``rotate_hoisted`` decomposes once, then
  applies every baby-step automorphism as a single eval-domain gather
  (``perm.eval_src`` from :mod:`repro.math.automorphism`) on the lifted
  digit tensor: a whole BSGS baby-step set becomes one gather + one
  stacked inner product + one batched ModDown.

Bit-identity: the stacked NTT is bit-identical per limb to the scalar
engines, the BConv plan is bit-identical to the frozen reference MAC,
lazy sums agree with iterated ``mac`` modulo each prime, and the
eval-domain gather equals coefficient-permute-then-NTT exactly — so
every routed operation (relinearise, rotate, conjugate, hoisted BSGS,
conventional bootstrap end-to-end) matches ``KeySwitcher.
switch_reference`` / ``mod_down_reference`` bit for bit;
``tests/test_keyswitch_engine.py`` asserts it at every level and
digit-group count.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import ParameterError
from ..math.automorphism import get_automorphism_perm
from ..math.modular import mac_rows
from ..math.ntt import get_ntt_engine
from ..math.rns import BconvPlan, RnsBasis, RnsPoly, get_bconv_plan
from ..profiling import record_keyswitch, record_mul
from .context import CkksContext
from .keys import SwitchKey

_FAST_BOUND = 1 << 31


class _GroupPlan:
    """Static ModUp layout for one digit group at one level."""

    def __init__(self, j: int, present_rows: List[int], verbatim_rows: List[int],
                 other_rows: List[int], bconv: BconvPlan):
        self.j = j
        #: Rows of the level's target stack holding this group's residues.
        self.present_rows = present_rows
        #: Rows of the extended stack the residues are copied to verbatim.
        self.verbatim_rows = verbatim_rows
        #: Rows of the extended stack filled by the basis conversion
        #: (order matches ``bconv.dst_moduli``).
        self.other_rows = other_rows
        self.bconv = bconv


class _LevelPlan:
    """Everything static about key switching at one ciphertext level."""

    def __init__(self, ctx: CkksContext, num_limbs: int):
        self.num_limbs = num_limbs
        self.target_moduli: Tuple[int, ...] = tuple(
            ctx.full_basis.moduli[:num_limbs])
        self.special_moduli: Tuple[int, ...] = tuple(ctx.special_basis.moduli)
        self.ext_moduli: Tuple[int, ...] = self.target_moduli + self.special_moduli
        self.rows_ext = len(self.ext_moduli)
        self.rows_target = num_limbs
        self.ntt_target = get_ntt_engine(ctx.n, self.target_moduli)
        self.ntt_ext = get_ntt_engine(ctx.n, self.ext_moduli)
        pos_in_ext = {q: i for i, q in enumerate(self.ext_moduli)}
        self.groups: List[_GroupPlan] = []
        level = num_limbs - 1
        for j, group in enumerate(ctx.digit_groups(ctx.max_level)):
            present = [i for i in group if i <= level]
            if not present:
                continue
            group_moduli = [ctx.full_basis.moduli[i] for i in present]
            group_set = set(group_moduli)
            others = [q for q in self.ext_moduli if q not in group_set]
            self.groups.append(_GroupPlan(
                j=j,
                present_rows=list(present),
                verbatim_rows=[pos_in_ext[q] for q in group_moduli],
                other_rows=[pos_in_ext[q] for q in others],
                bconv=get_bconv_plan(group_moduli, others),
            ))
        self.dnum_active = len(self.groups)
        self.down_plan: BconvPlan = get_bconv_plan(
            self.special_moduli, self.target_moduli)
        # -- ModDown constants ------------------------------------------------
        p_prod = 1
        for p in self.special_moduli:
            p_prod *= p
        self._qv_ext = np.asarray(self.ext_moduli, dtype=np.uint64)
        self._qv_t = np.asarray(self.target_moduli, dtype=np.uint64)
        self._p_inv_u = np.asarray(
            [pow(p_prod % q, -1, q) for q in self.target_moduli],
            dtype=np.uint64)
        #: Digit rows the inner product sums per reduction (the largest
        #: extended prime sets the lane bound for every row).
        self.mac_rows = mac_rows(max(self.ext_moduli))
        # Per-switch BConv MAC tallies (limb elements), for profiling.
        self.modup_macs = sum(
            len(g.present_rows) * len(g.other_rows) * ctx.n for g in self.groups)
        self.moddown_macs = len(self.special_moduli) * num_limbs * ctx.n

    def qv_ext(self, *trailing_ones: int) -> np.ndarray:
        return self._qv_ext.reshape((-1,) + (1,) * len(trailing_ones))

    def qv_target(self, *trailing_ones: int) -> np.ndarray:
        return self._qv_t.reshape((-1,) + (1,) * len(trailing_ones))


class CkksKeyswitchEngine:
    """Batched hybrid key switching over a context's modulus chain.

    Construct via :meth:`for_context`; raises
    :class:`~repro.errors.ParameterError` when any extended-basis prime
    exceeds the fast-modulus bound (``2^31``), in which case callers fall
    back to the scalar reference path.
    """

    def __init__(self, ctx: CkksContext):
        if any(q >= _FAST_BOUND for q in ctx.extended_basis.moduli):
            raise ParameterError(
                "keyswitch engine requires fast moduli (q < 2^31)")
        self.ctx = ctx
        self.n = ctx.n
        self._level_plans: Dict[int, _LevelPlan] = {}

    @classmethod
    def for_context(cls, ctx: CkksContext) -> "CkksKeyswitchEngine":
        return cls(ctx)

    # -- plumbing -----------------------------------------------------------------

    def handles(self, basis: RnsBasis) -> bool:
        """True when ``basis`` is a prefix of the context's limb chain."""
        m = basis.moduli
        return list(self.ctx.full_basis.moduli[:len(m)]) == list(m)

    def _plan(self, basis: RnsBasis) -> _LevelPlan:
        num = len(basis)
        plan = self._level_plans.get(num)
        if plan is None:
            plan = _LevelPlan(self.ctx, num)
            self._level_plans[num] = plan
        return plan

    @staticmethod
    def _stack_limbs(poly: RnsPoly) -> np.ndarray:
        return np.stack(
            [np.ascontiguousarray(limb, dtype=np.int64) for limb in poly.limbs])

    # -- ModUp: stacked digit decomposition ---------------------------------------

    def lift_digits_stack(self, d: RnsPoly) -> Tuple[_LevelPlan, np.ndarray]:
        """Decompose ``d`` into the eval-domain digit tensor.

        Returns ``(plan, dig)`` with ``dig`` of shape
        ``(L_ext, dnum_active, N)``: row ``i``, digit ``j`` holds the
        group-``j`` lift's residue mod ``ext_moduli[i]``, NTT'd.  The lift
        is coefficient-wise, so it commutes bit-exactly with ring
        automorphisms — callers may permute ``dig`` per rotation
        (Halevi-Shoup hoisting).
        """
        plan = self._plan(d.basis)
        stack = self._stack_limbs(d)
        if d.domain == "eval":
            coeff = plan.ntt_target.inverse(stack)
        else:
            coeff = stack
        dig = np.empty((plan.rows_ext, plan.dnum_active, self.n), dtype=np.int64)
        for slot, g in enumerate(plan.groups):
            group_stack = coeff[g.present_rows]
            dig[g.verbatim_rows, slot] = group_stack
            dig[g.other_rows, slot] = g.bconv.convert_stack(group_stack)
        dig_eval = plan.ntt_ext.forward(dig)
        record_keyswitch(modup_macs=plan.modup_macs)
        return plan, dig_eval

    # -- key tensors ----------------------------------------------------------------

    def _key_tensor(self, key: SwitchKey, plan: _LevelPlan) -> np.ndarray:
        """Eval-domain ``(L_ext, dnum_active, 2, N)`` view of a switch key.

        Index 2 separates the ``b`` (0) and ``a`` (1) components.  Lifted
        once per ``(key, extended basis)`` through the process-wide key
        registry (ARK-style inter-operation reuse: keyswitch, rotation
        and relinearisation share the same tensor, and the bytes are
        accounted centrally).  ``key._eval_tensors`` mirrors the registry
        entry — kept consistent by the registry's drop hook — so the key
        object still carries its derived views for introspection.
        """
        cache_key = plan.ext_moduli
        kt = key._eval_tensors.get(cache_key)
        if kt is not None:
            return kt

        def build() -> np.ndarray:
            full = key.components[0][0].basis
            pos = [full.moduli.index(q) for q in plan.ext_moduli]
            lifted = np.empty((plan.rows_ext, plan.dnum_active, 2, self.n),
                              dtype=np.int64)
            for slot, g in enumerate(plan.groups):
                b_j, a_j = key.components[g.j]
                for row, p in enumerate(pos):
                    lifted[row, slot, 0] = np.ascontiguousarray(
                        b_j.limbs[p], dtype=np.int64)
                    lifted[row, slot, 1] = np.ascontiguousarray(
                        a_j.limbs[p], dtype=np.int64)
            return lifted

        from ..keyreg import get_key_registry

        kt = get_key_registry().get_or_build(
            key, "ckks_switch_lift", cache_key, build,
            on_drop=lambda o, _k=cache_key: o._eval_tensors.pop(_k, None))
        key._eval_tensors[cache_key] = kt
        return kt

    # -- digit inner product --------------------------------------------------------

    def _inner_product(self, dig: np.ndarray, key_t: np.ndarray,
                       plan: _LevelPlan) -> np.ndarray:
        """Fused MAC of the digit tensor against a key tensor.

        ``dig`` is ``(L_ext, dnum, N)`` or ``(L_ext, dnum, R, N)``;
        ``key_t`` matches it with one extra axis of size 2 (the ``b``/``a``
        components) before the ``N`` axis.  Returns the canonical
        accumulator with the ``dnum`` axis summed out.
        """
        d_u = dig.view(np.uint64)[..., None, :]
        k_u = key_t.view(np.uint64)
        record_mul(dig.size * 2)
        qv = plan.qv_ext(*range(dig.ndim - 1))
        # lazy-bound: plan.mac_rows = mac_rows(max q) (math/modular.py)
        # sizes each chunk so its products plus the reduced running sum
        # fit a uint64 lane.
        r = plan.mac_rows
        acc = (d_u[:, :r] * k_u[:, :r]).sum(axis=1)
        acc %= qv
        for lo in range(r, dig.shape[1], r):
            part = (d_u[:, lo:lo + r] * k_u[:, lo:lo + r]).sum(axis=1)
            part += acc
            np.remainder(part, qv, out=acc)
        return acc.view(np.int64)

    # -- ModDown --------------------------------------------------------------------

    def _mod_down_stack(self, acc: np.ndarray, plan: _LevelPlan) -> np.ndarray:
        """Batched ModDown of an eval-domain ``(L_ext, ..., N)`` stack.

        Returns the eval-domain ``(L_target, ..., N)`` result of
        ``(u - BConv([u]_P -> Q_l)) * P^{-1}`` — one stacked inverse NTT,
        one plan MAC, one fused correction pass, one stacked forward NTT,
        regardless of how many polynomials ride along the batch axes.
        """
        coeff = plan.ntt_ext.inverse(acc)
        q_rows = coeff[:plan.rows_target].view(np.uint64)
        p_rows = coeff[plan.rows_target:]
        corr = plan.down_plan.convert_stack(p_rows).view(np.uint64)
        trailing = q_rows.ndim - 1
        qv = plan.qv_target(*range(trailing))
        p_inv = plan._p_inv_u.reshape((-1,) + (1,) * trailing)
        # lazy-bound: q_rows < q and (q - corr) <= q give a sum below
        # 2q < 2^32; multiplying by p_inv < q < 2^31 stays below 2^63,
        # within uint64; one reduction afterwards.
        t = ((q_rows + (qv - corr)) * p_inv) % qv
        record_keyswitch(moddown_macs=plan.moddown_macs)
        return plan.ntt_target.forward(t.view(np.int64))

    def mod_down_poly(self, u: RnsPoly, target: RnsBasis) -> RnsPoly:
        """Poly-level ModDown (drop-in for the scalar ``mod_down``)."""
        plan = self._plan(target)
        if tuple(u.basis.moduli) != plan.ext_moduli:
            raise ParameterError("ModDown basis arithmetic mismatch")
        stack = self._stack_limbs(u)[:, None, :]
        if u.domain != "eval":
            stack = plan.ntt_ext.forward(stack)
        out = self._mod_down_stack(stack, plan)
        limbs = [out[i, 0] for i in range(plan.rows_target)]
        return RnsPoly(u.n, target, limbs, "eval")

    # -- the main entry points --------------------------------------------------------

    def switch(self, d: RnsPoly, key: SwitchKey) -> Tuple[RnsPoly, RnsPoly]:
        """Batched equivalent of ``KeySwitcher.switch`` (bit-identical)."""
        plan, dig = self.lift_digits_stack(d)
        key_t = self._key_tensor(key, plan)
        acc = self._inner_product(dig, key_t, plan)        # (L_ext, 2, N)
        out = self._mod_down_stack(acc, plan)              # (L_t, 2, N)
        target = d.basis
        u0 = RnsPoly(d.n, target, [out[i, 0] for i in range(plan.rows_target)],
                     "eval")
        u1 = RnsPoly(d.n, target, [out[i, 1] for i in range(plan.rows_target)],
                     "eval")
        return u0, u1

    def rotate_hoisted_parts(
            self, d: RnsPoly, exponents: List[int],
            keys: List[SwitchKey]) -> List[Tuple[RnsPoly, RnsPoly]]:
        """Hoisted keyswitch of ``σ_t(d)`` for a whole rotation set.

        ``d`` is the ciphertext's ``c1``; for each automorphism exponent
        ``t`` (with its Galois key), returns ``(u0, u1)`` over ``d``'s
        basis — the keyswitch of the rotated ``c1``.  Decomposes once,
        rotates the lifted digit tensor with one fused eval-domain gather
        (``NTT(σ_t(x)) == NTT(x)[eval_src]``), MACs every rotation in one
        stacked inner product, and ModDowns all ``2R`` accumulator
        polynomials in one batched pass.
        """
        plan, dig = self.lift_digits_stack(d)
        n = self.n
        rots = len(exponents)
        idx = np.stack(
            [get_automorphism_perm(n, t).eval_src for t in exponents])
        dig_rot = dig[:, :, idx]                       # (L_ext, dnum, R, N)
        key_st = np.stack(
            [self._key_tensor(k, plan) for k in keys], axis=2)
        # key_st: (L_ext, dnum, R, 2, N); one inner product for all R.
        acc = self._inner_product(dig_rot, key_st, plan)
        flat = acc.reshape(plan.rows_ext, rots * 2, n)
        # Hoisting savings vs per-rotation switching: each extra rotation
        # would have re-run the digit-tensor NTT and its own ModDown NTTs.
        record_keyswitch(
            ntt_saved=(rots - 1) * plan.rows_ext * plan.dnum_active,
            hoisted_rotations=rots)
        down = self._mod_down_stack(flat, plan).reshape(
            plan.rows_target, rots, 2, n)
        out: List[Tuple[RnsPoly, RnsPoly]] = []
        for r in range(rots):
            u0 = RnsPoly(d.n, d.basis,
                         [down[i, r, 0] for i in range(plan.rows_target)],
                         "eval")
            u1 = RnsPoly(d.n, d.basis,
                         [down[i, r, 1] for i in range(plan.rows_target)],
                         "eval")
            out.append((u0, u1))
        return out

    def automorphism_eval_stack(self, poly: RnsPoly,
                                exponents: List[int]) -> np.ndarray:
        """Eval-domain automorphism of ``poly`` for every exponent at once.

        Returns ``(L, R, N)``: one gather on the stacked eval limbs —
        bit-identical to ``poly.automorphism(t).to_eval()`` per exponent.
        """
        ev = poly.to_eval()
        stack = self._stack_limbs(ev)
        idx = np.stack(
            [get_automorphism_perm(self.n, t).eval_src for t in exponents])
        return stack[:, idx]
