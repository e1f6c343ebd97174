"""Negacyclic number-theoretic transform over ``Z_q[X]/(X^N + 1)``.

The paper's NTT datapath (Section IV-D) performs radix-2 Cooley-Tukey
butterflies with grouped twiddle access; this module implements the same
algorithm in vectorised numpy.  The transform is *negacyclic*: pointwise
multiplication in the evaluation domain corresponds to multiplication
modulo ``X^N + 1`` in the coefficient domain, which is the convolution
both CKKS and TFHE need.

Implementation notes
--------------------
We use the classic psi-twisting formulation: with ``psi`` a primitive
``2N``-th root of unity and ``omega = psi**2``,

* forward:  ``NTT(a)_k = sum_j a_j psi^j omega^{jk}`` — a cyclic NTT of
  the twisted sequence ``a_j psi^j``;
* inverse:  untwist by ``psi^{-j}`` and scale by ``N^{-1}`` after the
  cyclic inverse NTT.

The cyclic transform itself is an iterative Cooley-Tukey with the grouped
addressing scheme of Section IV-D (coefficients sharing a twiddle are
processed together), vectorised so a whole stage is a handful of numpy
slice operations.  One engine, :class:`NttEngine`, serves one modulus or
a stack of RNS limbs each over its own prime: on fast moduli every
transform runs one butterfly over an ``(L, N, B)`` tensor (limb, transform
axis, batch) in engine-owned workspaces — the software analogue of the
paper streaming several limbs through the shared butterfly datapath per
pass.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ParameterError
from ..profiling import record_mul, record_ntt
from .modular import ModulusEngine, fast_mod_u64, root_of_unity

#: Largest value an unsigned 64-bit lane can hold; the fast-path butterfly
#: tracks an exact per-stage bound against this to decide when a deferred
#: reduction can no longer be deferred.
_U64_MAX = (1 << 64) - 1

#: Elements per limb row from which a reduction runs :func:`fast_mod_u64`
#: row by row instead of one broadcast ``%`` against the modulus column:
#: below it the three calls per row cost more than the hardware remainder
#: saves.  Measured crossover on a 2-CPU x86-64 box with numpy 2.4.
_ROW_MOD_MIN = 1024

#: Elements from which a multi-limb stack runs limb by limb: its ``(L, N,
#: B)`` workspaces (three stack-sized arrays) would no longer fit a 2 MiB
#: L2 cache, while a single limb's still may.
_BLOCK_MIN = 1 << 16


def _moduli(q: Union[int, Sequence[int]]) -> Tuple[int, ...]:
    if isinstance(q, (int, np.integer)):
        return (int(q),)
    return tuple(int(x) for x in q)


class NttEngine:
    """Cached negacyclic NTT for ring size ``N`` over one or more moduli.

    ``q`` is one modulus or a sequence of RNS limb moduli.  A one-modulus
    engine transforms the last axis of ``(..., N)`` (:meth:`forward` /
    :meth:`inverse`) or axis 0 of ``(N, ...)`` (:meth:`forward_axis0` /
    :meth:`inverse_axis0`).  An engine over ``L > 1`` moduli takes a
    leading limb axis — ``(L, ..., N)`` or ``(L, N, ...)`` — and transforms
    row ``i`` modulo ``moduli[i]``; it needs fast moduli (q < 2^31) and
    raises :class:`~repro.errors.ParameterError` otherwise.  Both layouts
    are thin adapters over one transform, so every row is bit-identical
    to the one-modulus engine on that row.  A single wide modulus runs the
    exact object-lane :meth:`_cyclic`.
    """

    def __init__(self, n: int, q: Union[int, Sequence[int]]):
        if n & (n - 1) or n < 2:
            raise ParameterError(f"N must be a power of two >= 2, got {n}")
        self.n = n
        self.moduli = _moduli(q)
        self.rows = len(self.moduli)
        if not self.moduli:
            raise ParameterError("an NTT engine needs at least one modulus")
        mods = [ModulusEngine(x) for x in self.moduli]
        self.fast = all(m.fast for m in mods)
        if self.rows > 1 and not self.fast:
            raise ParameterError("a multi-limb NTT needs fast moduli (q < 2^31)")
        # The one-modulus surface: pointwise, negacyclic_mul, object lane.
        self.mod, self.q = mods[0], self.moduli[0]
        # Per limb: psi^j, psi^-j/N (the inverse untwist fused with the 1/N
        # scaling) and omega^k / omega^-k, built through the engine's exact
        # Python-int power_table so no object-dtype intermediate exists on
        # the fast path.
        tables = []
        for m in mods:
            psi = root_of_unity(m.q, 2 * n)
            psi_inv = m.inv(psi)
            tables.append((m.power_table(psi, n),
                           m.mul(m.power_table(psi_inv, n), m.inv(n)),
                           m.power_table(psi * psi, n),
                           m.power_table(psi_inv * psi_inv, n)))
        if not self.fast:
            self._psi, self._psi_inv_n, self._omega, self._omega_inv = tables[0]
            return

        # Fast-path (q < 2^31) tables in uint64, stacked over limbs.
        # Unsigned remainder is several times cheaper than signed np.mod in
        # numpy, and working unsigned lets the butterfly accumulate
        # *lazily*: sums grow by at most max(q) per stage, so only the
        # twiddle products are reduced eagerly and everything else is
        # reduced once at the end — the software analogue of the lazy
        # reduction in the paper's modular MAC datapath (Section IV-A).
        def stacked(k: int) -> np.ndarray:
            return np.stack([t[k] for t in tables]).view(np.uint64)

        qv = np.asarray(self.moduli, dtype=np.uint64)
        self._max_q = max(self.moduli)
        self._qus = [np.uint64(x) for x in self.moduli]
        #: Modulus columns broadcasting over 1- to 4-axis row stacks.
        self._qcol = [qv.reshape((-1,) + (1,) * k) for k in range(4)]
        self._q2 = 2 * self._qcol[3]
        # The forward twist is applied after the bit-reversal gather.
        self._psi_br = stacked(0)[:, _bitrev_indices(n), None]
        self._psi_inv_n = stacked(1)[:, :, None]
        # Stage m's twiddles w^(j * n/(2m)), shaped (L, 1, m, 1).
        self._stages = {}
        for fwd, pows in ((True, stacked(2)), (False, stacked(3))):
            self._stages[fwd] = [
                pows[:, np.arange(m) * (n // (2 * m))][:, None, :, None]
                for m in (1 << s for s in range(n.bit_length() - 1))]
        # Reusable butterfly workspaces keyed by batch width.  Fresh
        # megabyte-sized allocations per transform land on mmap and pay
        # soft page faults every call; a pipeline only ever uses a handful
        # of batch widths, so the cache stays small.  The cache is
        # thread-local: engines are shared process-wide, and the bootstrap
        # service runs concurrent per-tenant batches on worker threads.
        self._work = threading.local()

    # -- public API -----------------------------------------------------------

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficient -> evaluation domain on the last axis."""
        return self._transform(coeffs, forward=True, axis0=False)

    def inverse(self, evals: np.ndarray) -> np.ndarray:
        """Evaluation -> coefficient domain on the last axis."""
        return self._transform(evals, forward=False, axis0=False)

    def forward_axis0(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward transform along axis 0 of an ``(N, ...)`` stack.

        The transposed entry point for batch-major tensor pipelines (the
        batched blind-rotate engine keeps all state ``(N, batch, ...)``):
        the butterfly works transform-axis-first, so this layout skips
        the transposes :meth:`forward` pays.  Bit-identical to ``forward``
        applied over the moved axis.
        """
        return self._transform(coeffs, forward=True, axis0=True)

    def inverse_axis0(self, evals: np.ndarray) -> np.ndarray:
        """Inverse transform along axis 0 of an ``(N, ...)`` stack."""
        return self._transform(evals, forward=False, axis0=True)

    def pointwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Hadamard product in the evaluation domain."""
        record_mul(int(np.asarray(a).size))
        return self.mod.mul(a, b)

    def negacyclic_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full negacyclic product of two coefficient-domain polynomials."""
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))

    # -- internals --------------------------------------------------------------

    def _transform(self, data: np.ndarray, forward: bool, axis0: bool) -> np.ndarray:
        """The one transform behind all four entry points."""
        arr = np.asarray(data)
        _profile_ntt(self.n, arr)
        if not self.fast:
            return self._object_lane(arr, forward, axis0)
        if self.rows > 1 and (arr.ndim < 2 or arr.shape[0] != self.rows):
            raise ParameterError(
                f"expected a leading axis of {self.rows} limbs, got {arr.shape}")
        a = np.asarray(arr, dtype=np.int64).view(np.uint64)
        out = np.empty(arr.shape, dtype=np.uint64)
        if self.rows > 1 and a.size >= _BLOCK_MIN:
            # A stack whose workspaces would spill the cache runs limb by
            # limb through the one-modulus engines (the same butterfly).
            for q, row, dst in zip(self.moduli, a, out):
                get_ntt_engine(self.n, q)._fast(row, dst, forward, axis0)
        else:
            self._fast(a, out, forward, axis0)
        return out.view(np.int64)

    def _fast(self, a: np.ndarray, out: np.ndarray, forward: bool,
              axis0: bool) -> None:
        """uint64 transform of ``a`` into ``out`` (same shape).

        The input is gathered into bit-reversed order and, for the
        last-axis layout, transposed into the ``(L, N, B)`` workspace (the
        forward twist fused into that copy); the butterfly runs there, and
        the final reduction writes the caller's layout into ``out``.
        """
        n, rows = self.n, self.rows
        a = a.reshape((rows, n, -1) if axis0 else (rows, -1, n))
        dst = out.reshape(a.shape)
        (wb, buf), stages = self._work_bufs(a.shape[2] if axis0 else a.shape[1])
        if axis0:
            np.take(a, _bitrev_indices(n), axis=1, out=wb)
            if forward:
                np.multiply(wb, self._psi_br, out=buf)
                self._mod(buf, wb)
        else:
            gathered = buf.reshape(a.shape)
            np.take(a, _bitrev_indices(n), axis=2, out=gathered)
            if forward:
                np.multiply(gathered.transpose(0, 2, 1), self._psi_br, out=wb)
                self._mod(wb, wb, buf)
            else:
                np.copyto(wb, gathered.transpose(0, 2, 1))
        # lazy-bound: the twist product of two canonical residues < 2^31
        # fits uint64 and is reduced at once; the butterfly starts canonical.
        res, spare, bound = self._butterfly(stages, forward)
        if not forward:
            # Untwist/scale the *unreduced* butterfly output: the product
            # bound check mirrors the per-stage guard, and the single
            # reduction below lands in the output — exactly the values
            # ((res mod q) * psi^-j/N) mod q, one full pass cheaper.
            if (bound - 1) * (self._max_q - 1) > _U64_MAX:
                self._mod(res, res, spare)
            np.multiply(res, self._psi_inv_n, out=res)
        if axis0:
            self._mod(res, dst)
        else:
            self._mod(res.transpose(0, 2, 1), dst, spare.transpose(0, 2, 1))

    def _mod(self, src: np.ndarray, out: np.ndarray,
             div: Optional[np.ndarray] = None) -> None:
        """``out = src mod q_i`` on each leading limb row ``i``: one
        broadcast ``%`` below ``_ROW_MOD_MIN`` elements per row, else
        :func:`fast_mod_u64` row by row (``div`` its quotient workspace,
        omissible when ``src`` and ``out`` are distinct arrays).
        """
        if src.size < _ROW_MOD_MIN * self.rows:
            np.remainder(src, self._qcol[src.ndim - 1], out=out)
            return
        for i, qu in enumerate(self._qus):
            fast_mod_u64(src[i], qu, out[i], None if div is None else div[i])

    def _work_bufs(self, batch: int) -> Tuple[Tuple[np.ndarray, np.ndarray], List[tuple]]:
        """Two ``(L, n, batch)`` ping-pong buffers and, per butterfly
        stage, the views it reads and writes: its source buffer, the
        ``lo``/``hi`` halves, the two output halves, and the half-size
        twiddle-product and quotient scratches."""
        cache = getattr(self._work, "bufs", None)
        if cache is None:
            cache = self._work.bufs = {}
        work = cache.get(batch)
        if work is None:
            rows, n = self.rows, self.n
            bufs = (np.empty((rows, n, batch), dtype=np.uint64),
                    np.empty((rows, n, batch), dtype=np.uint64))
            prod, quot = (np.empty((rows, n // 2, batch), dtype=np.uint64)
                          for _ in range(2))
            stages = []
            m = 1
            while m < n:
                src, dst = bufs[len(stages) % 2], bufs[1 - len(stages) % 2]
                shape = (rows, n // (2 * m), 2 * m, batch)
                va, vb = src.reshape(shape), dst.reshape(shape)
                half = (rows, n // (2 * m), m, batch)
                stages.append((src, dst, va[:, :, :m], va[:, :, m:], vb[:, :, :m],
                               vb[:, :, m:], prod.reshape(half), quot.reshape(half)))
                m *= 2
            work = cache[batch] = (bufs, stages)
        return work

    def _butterfly(self, stages: List[tuple], forward: bool
                   ) -> Tuple[np.ndarray, np.ndarray, int]:
        """uint64 butterfly stages on the bit-reversed ``(L, n, batch)``
        workspace that ``stages`` (from :meth:`_work_bufs`) views.

        Per stage only the twiddle product ``hi * tw`` is reduced; the
        sums ``lo + t`` and ``lo + (q - t)`` stay unreduced, so the value
        bound grows by ``max(q)`` per stage.  An exact Python-int bound
        tracks when ``hi * tw`` could exceed 2^64 and forces a full
        reduction first (never for q below ~2^30 at practical ring sizes).
        Returns the buffer holding the *unreduced* result, the spare
        buffer, and the exclusive value bound the caller must drain —
        fusing that last reduction into the copy that materialises the
        caller's output keeps every transform at one fresh allocation.
        """
        max_q = self._max_q
        res, spare = stages[-1][1], stages[-1][0]
        qv = self._qcol[3]
        bound = max_q  # exclusive upper bound on the values in the source
        for s, (tw, (w, nxt, lo, hi, out_lo, out_hi, t, d)) in enumerate(
                zip(self._stages[forward], stages)):
            if (bound - 1) * (max_q - 1) > _U64_MAX:
                self._mod(w, w, nxt)
                bound = max_q
            if s == 0:
                # First stage's only twiddle is w^0 = 1: the product (and
                # its reduction) is the identity, so butterfly directly on
                # the canonical inputs.
                np.add(lo, hi, out=out_lo)
                np.subtract(qv, hi, out=t)
                bound += max_q
            elif s == 1:
                # Second stage's twiddles are [1, w^(n/4)]: the even half
                # skips the multiply and reduction, but then stays lazily
                # unreduced below the entry bound — which here is always
                # exactly 2q per row (stage 1 grew it from q, and the guard
                # above cannot fire this early for q < 2^31), so the
                # subtraction complements against 2q and the bound grows
                # by 2 max(q).
                t[..., 0, :] = hi[..., 0, :]
                np.multiply(hi[..., 1, :], tw[..., 1, :], out=t[..., 1, :])
                self._mod(t[..., 1, :], t[..., 1, :], d[..., 1, :])
                np.add(lo, t, out=out_lo)
                np.subtract(self._q2, t, out=t)
                bound += 2 * max_q
            else:
                np.multiply(hi, tw, out=t)
                self._mod(t, t, d)
                np.add(lo, t, out=out_lo)
                np.subtract(qv, t, out=t)
                bound += max_q
            np.add(lo, t, out=out_hi)
        return res, spare, bound

    def _object_lane(self, arr: np.ndarray, forward: bool, axis0: bool) -> np.ndarray:
        """Exact object-dtype transform for a wide modulus."""
        a = arr.astype(self.mod.dtype, copy=False)
        if axis0:
            a = np.moveaxis(a, 0, -1)
        if forward:
            a = self._cyclic(self.mod.mul(a, self._psi), self._omega)
        else:
            a = self.mod.mul(self._cyclic(a, self._omega_inv), self._psi_inv_n)
        return np.moveaxis(a, -1, 0) if axis0 else a

    def _cyclic(self, a: np.ndarray, omega_pows: np.ndarray) -> np.ndarray:
        """Iterative radix-2 DIT cyclic NTT on the last axis.

        ``omega_pows[k]`` must hold ``w^k`` for the transform direction's
        root ``w``.  Input is consumed in natural order; we bit-reverse
        first, then run log2(N) butterfly stages.  Each stage is expressed
        with the Section IV-D grouping: ``m`` butterflies share each
        twiddle ``w^{k * (n / (2m))}``.
        """
        n = self.n
        a = a[..., _bitrev_indices(n)].copy()
        q = self.q
        m = 1
        while m < n:
            # Twiddles for this stage: w^(j * n/(2m)) for j in [0, m).
            tw = omega_pows[(np.arange(m) * (n // (2 * m)))]
            a = a.reshape(a.shape[:-1] + (n // (2 * m), 2 * m))
            lo = a[..., :m]
            hi = a[..., m:]
            t = np.mod(hi * tw, q)
            a = np.concatenate(
                [
                    np.where(lo + t >= q, lo + t - q, lo + t),
                    np.where(lo - t < 0, lo - t + q, lo - t),
                ],
                axis=-1,
            )
            a = a.reshape(a.shape[:-2] + (n,))
            m *= 2
        return a


def _profile_ntt(n: int, arr: np.ndarray) -> None:
    """Report transforms to the profiler (batch = product of lead dims).

    The batch size of every stacked call is recorded, not just the total:
    the profiler keeps a batch histogram so a run can be audited for how
    much of its transform work actually reached the vectorised ``(..., N)``
    interface versus degenerate one-row calls.  A limb stack counts one
    transform per limb row.
    """
    batch = int(arr.size // n) if arr.size else 0
    if batch:
        record_ntt(n, batch)


_BITREV_CACHE: Dict[int, np.ndarray] = {}
_BITREV_CACHE_LOCK = threading.Lock()


def _bitrev_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation indices for length ``n`` (cached).

    Double-checked: the hit path stays lock-free, the build races behind
    a lock so every caller shares one (read-only) index table.
    """
    cached = _BITREV_CACHE.get(n)
    if cached is not None:
        return cached
    with _BITREV_CACHE_LOCK:
        cached = _BITREV_CACHE.get(n)
        if cached is not None:
            return cached
        bits = n.bit_length() - 1
        idx = np.arange(n)
        rev = np.zeros(n, dtype=np.int64)
        for _ in range(bits):
            rev = (rev << 1) | (idx & 1)
            idx >>= 1
        rev.setflags(write=False)
        _BITREV_CACHE[n] = rev
    return rev


_ENGINE_CACHE: Dict[Tuple[int, Tuple[int, ...]], NttEngine] = {}
_ENGINE_CACHE_LOCK = threading.Lock()


def get_ntt_engine(n: int, q: Union[int, Sequence[int]]) -> NttEngine:
    """Process-wide cache of NTT engines (twiddle tables are expensive).

    ``q`` is one modulus or a sequence of limb moduli; ``q`` and ``[q]``
    share one engine.  Lock-free hit, double-checked miss: concurrent
    tenants on a cold key must converge on one engine (its thread-local
    workspaces make the *instance* safe to share; two half-built instances
    are not).
    """
    key = (n, _moduli(q))
    engine = _ENGINE_CACHE.get(key)
    if engine is None:
        with _ENGINE_CACHE_LOCK:
            engine = _ENGINE_CACHE.get(key)
            if engine is None:
                engine = NttEngine(n, key[1])
                _ENGINE_CACHE[key] = engine
    return engine
