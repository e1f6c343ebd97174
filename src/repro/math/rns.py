"""Residue number system (RNS) machinery for multi-limb CKKS arithmetic.

The CKKS ciphertext modulus ``Q = prod(q_i)`` is far wider than a machine
word, so polynomials are stored as a stack of *limbs*: one residue
polynomial per prime ``q_i`` (paper Section II-A).  This module provides

* :class:`RnsBasis` — an ordered set of NTT-friendly primes with cached
  CRT constants;
* :class:`RnsPoly` — a stack of limb polynomials with vectorised
  arithmetic, per-limb NTT domain tracking, limb dropping (Rescale) and
  limb extension (ModUp); and
* :func:`basis_convert` — the approximate fast basis conversion
  (HPS-style) that the paper's external-product unit executes during
  ``ModUp``/``ModDown`` in the hybrid key switch.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from ..profiling import record_bconv_plan, record_mul
from .automorphism import get_automorphism_perm
from .modular import ModulusEngine, crt_compose, mac_rows
from .ntt import get_ntt_engine

COEFF = "coeff"
EVAL = "eval"


class RnsBasis:
    """An ordered list of distinct primes ``q_0, ..., q_{L-1}``."""

    def __init__(self, moduli: Sequence[int]):
        moduli = [int(q) for q in moduli]
        if len(set(moduli)) != len(moduli):
            raise ParameterError("RNS moduli must be distinct")
        if not moduli:
            raise ParameterError("RNS basis must be non-empty")
        self.moduli: List[int] = moduli
        self.engines = [ModulusEngine(q) for q in moduli]

    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    def __getitem__(self, i):
        return self.moduli[i]

    @property
    def product(self) -> int:
        prod = 1
        for q in self.moduli:
            prod *= q
        return prod

    def prefix(self, count: int) -> "RnsBasis":
        return RnsBasis(self.moduli[:count])

    def __eq__(self, other) -> bool:
        return isinstance(other, RnsBasis) and self.moduli == other.moduli

    def __repr__(self) -> str:  # pragma: no cover
        bits = [q.bit_length() for q in self.moduli]
        return f"RnsBasis(L={len(self)}, bits={bits})"


class RnsPoly:
    """A polynomial in ``R_Q`` stored limb-wise.

    ``limbs[i]`` is the residue vector modulo ``basis[i]``; every limb is
    in the same domain (all-coeff or all-eval), tracked by ``domain``.
    """

    __slots__ = ("n", "basis", "limbs", "domain")

    def __init__(self, n: int, basis: RnsBasis, limbs: List[np.ndarray], domain: str = COEFF):
        if len(limbs) != len(basis):
            raise ParameterError("limb count does not match basis size")
        self.n = n
        self.basis = basis
        self.limbs = limbs
        self.domain = domain

    # -- constructors -------------------------------------------------------------

    @classmethod
    def zero(cls, n: int, basis: RnsBasis, domain: str = COEFF) -> "RnsPoly":
        return cls(n, basis, [e.zeros(n) for e in basis.engines], domain)

    @classmethod
    def from_int_coeffs(cls, n: int, basis: RnsBasis, coeffs: Iterable[int]) -> "RnsPoly":
        """Reduce a vector of (possibly huge / signed) integers limb-wise."""
        raw = list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs
        coeffs = np.asarray(raw, dtype=object)  # heaplint: disable=HL001 big-int ingest, not a hot loop
        if coeffs.shape != (n,):
            raise ParameterError(f"expected {n} coefficients, got {coeffs.shape}")
        limbs = [e.asarray(coeffs) for e in basis.engines]
        return cls(n, basis, limbs, COEFF)

    # -- domain management -----------------------------------------------------------

    def _stackable(self):
        """One multi-limb engine and the int64 limb stack, when every limb
        is int64 and every modulus is fast; else ``None``."""
        if not all(e.fast for e in self.basis.engines) or not all(
            isinstance(limb, np.ndarray) and limb.dtype == np.int64
            for limb in self.limbs
        ):
            return None
        return get_ntt_engine(self.n, self.basis.moduli), np.stack(self.limbs)

    def to_eval(self) -> "RnsPoly":
        if self.domain == EVAL:
            return self
        stacked = self._stackable()
        if stacked is not None:
            engine, stack = stacked
            out = engine.forward(stack)
            return RnsPoly(self.n, self.basis, list(out), EVAL)
        limbs = [
            get_ntt_engine(self.n, q).forward(limb)
            for q, limb in zip(self.basis.moduli, self.limbs)
        ]
        return RnsPoly(self.n, self.basis, limbs, EVAL)

    def to_coeff(self) -> "RnsPoly":
        if self.domain == COEFF:
            return self
        stacked = self._stackable()
        if stacked is not None:
            engine, stack = stacked
            out = engine.inverse(stack)
            return RnsPoly(self.n, self.basis, list(out), COEFF)
        limbs = [
            get_ntt_engine(self.n, q).inverse(limb)
            for q, limb in zip(self.basis.moduli, self.limbs)
        ]
        return RnsPoly(self.n, self.basis, limbs, COEFF)

    # -- arithmetic -----------------------------------------------------------------

    def _check(self, other: "RnsPoly") -> None:
        if self.n != other.n or self.basis.moduli != other.basis.moduli:
            raise ParameterError("RNS poly mismatch (n or basis)")

    def _aligned(self, other: "RnsPoly"):
        self._check(other)
        if self.domain == other.domain:
            return self, other, self.domain
        return self.to_coeff(), other.to_coeff(), COEFF

    def __add__(self, other: "RnsPoly") -> "RnsPoly":
        a, b, dom = self._aligned(other)
        limbs = [e.add(x, y) for e, x, y in zip(self.basis.engines, a.limbs, b.limbs)]
        return RnsPoly(self.n, self.basis, limbs, dom)

    def __sub__(self, other: "RnsPoly") -> "RnsPoly":
        a, b, dom = self._aligned(other)
        limbs = [e.sub(x, y) for e, x, y in zip(self.basis.engines, a.limbs, b.limbs)]
        return RnsPoly(self.n, self.basis, limbs, dom)

    def __neg__(self) -> "RnsPoly":
        limbs = [e.neg(x) for e, x in zip(self.basis.engines, self.limbs)]
        return RnsPoly(self.n, self.basis, limbs, self.domain)

    def __mul__(self, other) -> "RnsPoly":
        if isinstance(other, (int, np.integer)):
            limbs = [
                e.mul(x, int(other) % e.q) for e, x in zip(self.basis.engines, self.limbs)
            ]
            return RnsPoly(self.n, self.basis, limbs, self.domain)
        self._check(other)
        a, b = self.to_eval(), other.to_eval()
        record_mul(self.n * len(self.basis))
        limbs = [e.mul(x, y) for e, x, y in zip(self.basis.engines, a.limbs, b.limbs)]
        return RnsPoly(self.n, self.basis, limbs, EVAL)

    __rmul__ = __mul__

    def automorphism(self, t: int) -> "RnsPoly":
        """Apply ``X -> X^t`` limb-wise (used by Rotate/Conjugate)."""
        src_poly = self.to_coeff()
        n = self.n
        perm = get_automorphism_perm(n, t)
        limbs = []
        for e, limb in zip(self.basis.engines, src_poly.limbs):
            picked = limb[perm.src]
            limbs.append(np.where(perm.src_flip, e.neg(picked), picked))
        return RnsPoly(n, self.basis, limbs, COEFF)

    # -- limb management (Rescale / level handling) ------------------------------------

    def drop_last_limb(self) -> "RnsPoly":
        """Forget the last limb (basis shrink without value correction)."""
        if len(self.basis) == 1:
            raise ParameterError("cannot drop the last remaining limb")
        return RnsPoly(self.n, self.basis.prefix(len(self.basis) - 1),
                       self.limbs[:-1], self.domain)

    def rescale_last_limb(self) -> "RnsPoly":
        """Exact RNS rescale: divide by the last prime ``q_l`` and round.

        Standard full-RNS trick: for each remaining limb ``q_i`` compute
        ``(x_i - x_l) * q_l^{-1} mod q_i``.  Requires coefficient domain
        for the cross-limb subtraction of ``x_l``.
        """
        if len(self.basis) == 1:
            raise ParameterError("cannot rescale a single-limb polynomial")
        src = self.to_coeff()
        q_last = self.basis.moduli[-1]
        x_last = src.limbs[-1]
        new_basis = self.basis.prefix(len(self.basis) - 1)
        limbs = []
        for e, limb in zip(new_basis.engines, src.limbs[:-1]):
            diff = e.sub(limb, e.reduce(x_last))
            limbs.append(e.mul(diff, e.inv(q_last)))
        return RnsPoly(self.n, new_basis, limbs, COEFF)

    # -- integer views -------------------------------------------------------------------

    def to_int_coeffs(self) -> np.ndarray:
        """CRT-compose into big-int coefficients in ``[0, Q)`` (object array)."""
        src = self.to_coeff()
        stack = np.stack([np.asarray(limb, dtype=object) for limb in src.limbs])  # heaplint: disable=HL001 CRT big-int egress, not a hot loop
        return crt_compose(stack, self.basis.moduli)

    def to_centered_int_coeffs(self) -> np.ndarray:
        """CRT-compose into centred big-int coefficients in ``(-Q/2, Q/2]``."""
        vals = self.to_int_coeffs()
        big_q = self.basis.product
        half = big_q // 2
        return np.where(vals > half, vals - big_q, vals)

    def copy(self) -> "RnsPoly":
        return RnsPoly(self.n, self.basis, [limb.copy() for limb in self.limbs], self.domain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RnsPoly):
            return NotImplemented
        if self.n != other.n or self.basis.moduli != other.basis.moduli:
            return False
        a, b = self.to_coeff(), other.to_coeff()
        return all(np.array_equal(x, y) for x, y in zip(a.limbs, b.limbs))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RnsPoly(n={self.n}, L={len(self.basis)}, domain={self.domain})"


class BconvPlan:
    """Cached constants for one ``(source basis, target basis)`` BConv pair.

    The HPS conversion ``y_j = sum_i [x_i * (Q/q_i)^{-1}]_{q_i} * (Q/q_i)
    mod p_j`` needs, per pair of bases, the scaling vector
    ``q~_i = (Q/q_i)^{-1} mod q_i`` and the factor matrix
    ``F[j, i] = (Q/q_i) mod p_j``.  The old path recomputed the big-int
    quotients ``Q // q_i`` (and a modular inverse) on *every call*; a plan
    computes them once, keyed on the moduli tuples, and bakes them into
    engine-dtype tables so the whole conversion is a single stacked
    matrix-MAC — the fused-MAC workload of paper Section IV-A.

    When every modulus on both sides is a fast prime (``q < 2^31``) the
    conversion runs as uint64 matmuls over chunks of source limbs with
    lazy reduction; otherwise it falls back to exact object-dtype
    accumulation (bit-identical either way, since all arithmetic is exact
    mod ``p_j``).
    """

    def __init__(self, src_moduli: Sequence[int], dst_moduli: Sequence[int]):
        self.src_moduli: Tuple[int, ...] = tuple(int(q) for q in src_moduli)
        self.dst_moduli: Tuple[int, ...] = tuple(int(q) for q in dst_moduli)
        if not self.src_moduli or not self.dst_moduli:
            raise ParameterError("BConv bases must be non-empty")
        big_q = 1
        for q in self.src_moduli:
            big_q *= q
        self.src_product = big_q
        # q~_i = (Q/q_i)^{-1} mod q_i  and  F[j, i] = (Q/q_i) mod p_j.
        q_star = [big_q // q for q in self.src_moduli]
        self.q_tilde: List[int] = [
            pow(q_star[i] % q, -1, q) for i, q in enumerate(self.src_moduli)
        ]
        self.factors: List[List[int]] = [
            [q_star[i] % pj for i in range(len(self.src_moduli))]
            for pj in self.dst_moduli
        ]
        self.rows_in = len(self.src_moduli)
        self.rows_out = len(self.dst_moduli)
        self.fast = all(q < (1 << 31) for q in self.src_moduli + self.dst_moduli)
        if self.fast:
            self._q_tilde_u = np.asarray(self.q_tilde, dtype=np.uint64).reshape(-1, 1)
            self._src_q_u = np.asarray(self.src_moduli, dtype=np.uint64).reshape(-1, 1)
            self._dst_q_u = np.asarray(self.dst_moduli, dtype=np.uint64).reshape(-1, 1)
            self._factors_u = np.asarray(self.factors, dtype=np.uint64)
            # Source limbs one uint64 lane sums per chunk: the scaled
            # residues are canonical mod q_i, not mod p_j, so the bound is
            # that of the largest modulus on either side.
            self._chunk = mac_rows(max(self.src_moduli + self.dst_moduli))

    def convert_stack(self, stack: np.ndarray) -> np.ndarray:
        """Fast-path conversion of an ``(L_in, ..., N)`` canonical stack.

        Row ``i`` holds residues mod ``src_moduli[i]``; returns the
        ``(L_out, ..., N)`` stack of residues mod ``dst_moduli[j]``.
        Canonical ``int64`` in, canonical ``int64`` out.
        """
        arr = np.asarray(stack)
        trailing = arr.shape[1:]
        a = np.ascontiguousarray(arr, dtype=np.int64).view(np.uint64)
        a = a.reshape(self.rows_in, -1)
        # lazy-bound: canonical residue (< q_i < 2^31) times q~_i (< q_i)
        # stays below 2^62; reduced immediately, row-wise.
        scaled = (a * self._q_tilde_u) % self._src_q_u
        # lazy-bound: with m the largest modulus of both bases, every
        # scaled residue and every factor F[j, i] is at most m - 1 and the
        # running sum is reduced below p_j <= m, so a chunk of
        # mac_rows(m) products plus it stays within 2^64 - 1.
        r = self._chunk
        acc = self._factors_u[:, :r] @ scaled[:r]
        acc %= self._dst_q_u
        if self.rows_in > r:
            part = np.empty_like(acc)
            for lo in range(r, self.rows_in, r):
                np.matmul(self._factors_u[:, lo:lo + r], scaled[lo:lo + r],
                          out=part)
                part += acc
                np.remainder(part, self._dst_q_u, out=acc)
        return acc.view(np.int64).reshape((self.rows_out,) + trailing)

    def convert_limbs_wide(self, limbs: List[np.ndarray],
                           src_engines: List[ModulusEngine],
                           dst_engines: List[ModulusEngine]) -> List[np.ndarray]:
        """Object-dtype fallback for moduli beyond the fast bound.

        Exact accumulation then a single reduction per output limb — the
        same value mod ``p_j`` as the fast path, in the engine's dtype.
        """
        scaled = [
            e.mul(limb, tilde % e.q)
            for e, limb, tilde in zip(src_engines, limbs, self.q_tilde)
        ]
        out = []
        for e_out, row in zip(dst_engines, self.factors):
            acc = sum(
                np.asarray(s, dtype=object) * f for s, f in zip(scaled, row)  # heaplint: disable=HL001 wide-modulus fallback, exact big-int path
            )
            out.append(e_out.asarray(acc))
        return out


_BCONV_PLANS: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], BconvPlan] = {}
_BCONV_PLANS_LOCK = threading.Lock()


def get_bconv_plan(src_moduli: Sequence[int], dst_moduli: Sequence[int]) -> BconvPlan:
    """Process-wide plan cache keyed on the two moduli tuples.

    Lock-free on a hit; the miss path double-checks under a lock so
    concurrent tenants share one plan instead of racing two half-built
    ones into the cache.
    """
    key = (tuple(int(q) for q in src_moduli), tuple(int(q) for q in dst_moduli))
    plan = _BCONV_PLANS.get(key)
    if plan is None:
        with _BCONV_PLANS_LOCK:
            plan = _BCONV_PLANS.get(key)
            if plan is None:
                plan = BconvPlan(key[0], key[1])
                _BCONV_PLANS[key] = plan
                record_bconv_plan(hit=False)
                return plan
        record_bconv_plan(hit=True)
    else:
        record_bconv_plan(hit=True)
    return plan


def basis_convert(poly: RnsPoly, target: RnsBasis) -> RnsPoly:
    """Approximate fast basis conversion (HPS BConv).

    Converts the residues of ``poly`` from basis ``B = {q_i}`` to a
    *disjoint* basis ``C = {p_j}`` without CRT reconstruction:

    ``y_j = sum_i [x_i * (Q/q_i)^{-1}]_{q_i} * (Q/q_i) mod p_j``

    The result may differ from the exact value by a small multiple of
    ``Q`` (the well-known approximation error), which the hybrid key
    switch tolerates; tests bound this error explicitly.  This is exactly
    the MAC-unit workload described for ModUp/ModDown in Section IV-A.

    All per-pair constants come from a cached :class:`BconvPlan`; on fast
    moduli the conversion is one stacked uint64 matrix-MAC.  Bit-identical
    to :func:`basis_convert_reference` (tests cross-check).
    """
    src = poly.to_coeff()
    plan = get_bconv_plan(src.basis.moduli, target.moduli)
    if plan.fast:
        out = plan.convert_stack(np.stack(src.limbs))
        out_limbs = [out[j] for j in range(len(target))]
    else:
        out_limbs = plan.convert_limbs_wide(src.limbs, src.basis.engines, target.engines)
    return RnsPoly(src.n, target, out_limbs, COEFF)


def basis_convert_reference(poly: RnsPoly, target: RnsBasis) -> RnsPoly:
    """Frozen scalar BConv oracle (the pre-engine per-limb object MAC).

    Kept verbatim as the cross-check baseline for the keyswitch engine's
    ``"reference"`` mode and the benchmark denominator; new code should
    call :func:`basis_convert`.
    """
    src = poly.to_coeff()
    b_moduli = src.basis.moduli
    big_q = src.basis.product
    # [x_i * q_i_star^{-1}]_{q_i}
    scaled = []
    for e, limb in zip(src.basis.engines, src.limbs):
        qi_star = big_q // e.q
        qi_tilde = e.inv(qi_star % e.q)
        scaled.append(e.mul(limb, qi_tilde))
    out_limbs = []
    for e_out in target.engines:
        acc = e_out.zeros(src.n)
        for qi, s in zip(b_moduli, scaled):
            factor = (big_q // qi) % e_out.q
            acc = e_out.mac(acc, np.asarray(s, dtype=object) % e_out.q, factor)  # heaplint: disable=HL001 frozen scalar oracle
        out_limbs.append(e_out.reduce(acc))
    return RnsPoly(src.n, target, out_limbs, COEFF)


def concat_bases(a: RnsBasis, b: RnsBasis) -> RnsBasis:
    return RnsBasis(list(a.moduli) + list(b.moduli))
