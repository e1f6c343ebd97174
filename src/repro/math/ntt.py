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
slice operations.  Transforms accept stacked inputs of shape
``(..., N)`` so multiple limbs are transformed in one call — the software
analogue of the paper's "two limbs per pass" memory layout.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from ..profiling import record_mul, record_ntt
from .modular import ModulusEngine, root_of_unity

#: Largest value an unsigned 64-bit lane can hold; the fast-path butterfly
#: tracks an exact per-stage bound against this to decide when a deferred
#: reduction can no longer be deferred.
_U64_MAX = (1 << 64) - 1


def fast_mod_u64(src: np.ndarray, qu: np.uint64, out: np.ndarray,
                 div: np.ndarray = None) -> np.ndarray:
    """``out = src % qu`` for uint64 arrays via ``src - (src // qu) * qu``.

    numpy routes ``//`` by a scalar through a vectorised reciprocal
    division but ``%`` through per-element hardware remainder, so three
    cheap passes beat one ``np.mod`` about 3x on the reduction-heavy
    butterfly path.  Exact for the full uint64 range.  ``div`` is the
    quotient workspace; when ``src`` and ``out`` are distinct arrays it
    may be omitted and ``out`` doubles as the workspace (``src`` is only
    read again by the final subtraction).
    """
    if div is None:
        div = out
    np.floor_divide(src, qu, out=div)
    np.multiply(div, qu, out=div)
    np.subtract(src, div, out=out)
    return out


class NttEngine:
    """Cached negacyclic NTT for a fixed ``(N, q)`` pair.

    ``twiddle_mode`` mirrors the control signal of paper Section IV-D:
    ``"cached"`` reads precomputed twiddles (the default, on-chip tables),
    ``"on_the_fly"`` regenerates each stage's twiddles from the root by
    repeated squaring — trading compute for table storage, "helpful when
    the on-chip memory is not sufficient to store all the twiddle factors
    at once and we have available compute bandwidth".  Both modes are
    bit-identical (tests assert it).
    """

    def __init__(self, n: int, q: int, twiddle_mode: str = "cached"):
        if n & (n - 1) or n < 2:
            raise ParameterError(f"N must be a power of two >= 2, got {n}")
        if twiddle_mode not in ("cached", "on_the_fly"):
            raise ParameterError(f"unknown twiddle mode {twiddle_mode!r}")
        self.twiddle_mode = twiddle_mode
        self.n = n
        self.mod = ModulusEngine(q)
        self.q = q
        self.psi = root_of_unity(q, 2 * n)
        self.omega = self.psi * self.psi % q
        self.n_inv = self.mod.inv(n)

        # psi^j / psi^-j twist vectors and omega^k stage tables (plus the
        # inverse direction's), all built through the engine's exact
        # Python-int power_table so no object-dtype intermediate exists on
        # the fast path.
        self._psi = self.mod.power_table(self.psi, n)
        self._psi_inv = self.mod.power_table(self.mod.inv(self.psi), n)
        self._omega = self.mod.power_table(self.omega, n)
        self._omega_inv = self.mod.power_table(self.mod.inv(self.omega), n)

        # Fast-path (q < 2^31) tables in uint64.  Unsigned remainder is
        # several times cheaper than signed np.mod in numpy, and working
        # unsigned lets the butterfly accumulate *lazily*: sums grow by at
        # most q per stage, so only the twiddle products are reduced
        # eagerly and everything else is reduced once at the end — the
        # software analogue of the lazy reduction in the paper's modular
        # MAC datapath (Section IV-A).
        if self.mod.fast:
            self._qu = np.uint64(q)
            self._psi_u = self._psi.view(np.uint64)
            # Inverse untwist fused with the 1/N scaling: one multiply.
            self._psi_inv_n_u = self.mod.mul(self._psi_inv, self.n_inv).view(np.uint64)
            if twiddle_mode == "cached":
                self._stages_fwd_u = self._stage_tables_u(self._omega)
                self._stages_inv_u = self._stage_tables_u(self._omega_inv)
            else:
                self._stages_fwd_u = self._stages_inv_u = None
            # Reusable butterfly workspaces keyed by batch width.  Fresh
            # megabyte-sized allocations per transform land on mmap and pay
            # soft page faults every call; a pipeline only ever uses a
            # handful of batch widths, so the cache stays small.  The cache
            # is thread-local: engines are shared process-wide per (n, q),
            # and the bootstrap service runs concurrent per-tenant batches
            # on worker threads.
            self._work = threading.local()

    def _stage_tables_u(self, omega_pows: np.ndarray) -> List[np.ndarray]:
        """Per-stage twiddle tables ``w^(j * n/(2m))`` as uint64 arrays."""
        n = self.n
        tables = []
        m = 1
        while m < n:
            tables.append(omega_pows[np.arange(m) * (n // (2 * m))].view(np.uint64))
            m *= 2
        return tables

    # -- public API -----------------------------------------------------------

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficient -> evaluation domain (shape-preserving, last axis N)."""
        arr = np.asarray(coeffs)
        _profile_ntt(self.n, arr)
        if self.mod.fast:
            a = np.asarray(arr, dtype=np.int64).view(np.uint64)
            a = (a * self._psi_u) % self._qu
            return self._cyclic_fast(a, forward=True).view(np.int64)
        a = self.mod.mul(arr.astype(self.mod.dtype, copy=False), self._psi)
        return self._cyclic(a, self._omega)

    def _work_bufs(self, batch: int) -> Tuple[np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray]:
        """Two ``(n, batch)`` ping-pong buffers plus two half-size
        scratches (twiddle products and their reduction quotients)."""
        cache: Dict[int, Tuple[np.ndarray, ...]]
        cache = getattr(self._work, "bufs", None)
        if cache is None:
            cache = self._work.bufs = {}
        bufs = cache.get(batch)
        if bufs is None:
            bufs = (np.empty((self.n, batch), dtype=np.uint64),
                    np.empty((self.n, batch), dtype=np.uint64),
                    np.empty((self.n // 2, batch), dtype=np.uint64),
                    np.empty((self.n // 2, batch), dtype=np.uint64))
            cache[batch] = bufs
        return bufs

    def inverse(self, evals: np.ndarray) -> np.ndarray:
        """Evaluation -> coefficient domain."""
        arr = np.asarray(evals)
        _profile_ntt(self.n, arr)
        if self.mod.fast:
            a = np.asarray(arr, dtype=np.int64).view(np.uint64)
            a = self._cyclic_fast(a, forward=False)
            # Untwist and scale by N^-1 in one fused multiply.
            return ((a * self._psi_inv_n_u) % self._qu).view(np.int64)
        a = self._cyclic(arr.astype(self.mod.dtype, copy=False), self._omega_inv)
        a = self.mod.mul(a, self.n_inv)
        return self.mod.mul(a, self._psi_inv)

    def forward_axis0(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward transform along axis 0 of an ``(N, ...)`` stack.

        The transposed entry point for batch-major tensor pipelines (the
        batched blind-rotate engine keeps all state ``(N, batch, ...)``):
        on the fast path the butterfly core already works transform-axis-
        first, so this skips the two transpose copies :meth:`forward` pays
        per call.  Bit-identical to ``forward`` applied over the moved
        axis.
        """
        arr = np.asarray(coeffs)
        _profile_ntt(self.n, arr)
        if self.mod.fast:
            tail = arr.shape[1:]
            a = np.asarray(arr, dtype=np.int64).view(np.uint64).reshape(self.n, -1)
            wb, buf, scratch, quot = self._work_bufs(a.shape[1])
            np.multiply(a, self._psi_u[:, None], out=buf)
            fast_mod_u64(buf, self._qu, buf, wb)  # wb is rewritten below
            np.take(buf, _bitrev_indices(self.n), axis=0, out=wb)
            res, _ = self._butterfly(wb, buf, scratch, quot, forward=True)
            out = np.empty_like(res)
            fast_mod_u64(res, self._qu, out)
            return out.view(np.int64).reshape((self.n,) + tail)
        out = self.mod.mul(np.moveaxis(arr, 0, -1).astype(self.mod.dtype, copy=False),
                           self._psi)
        return np.moveaxis(self._cyclic(out, self._omega), -1, 0)

    def inverse_axis0(self, evals: np.ndarray) -> np.ndarray:
        """Inverse transform along axis 0 of an ``(N, ...)`` stack."""
        arr = np.asarray(evals)
        _profile_ntt(self.n, arr)
        if self.mod.fast:
            tail = arr.shape[1:]
            a = np.asarray(arr, dtype=np.int64).view(np.uint64).reshape(self.n, -1)
            wb, buf, scratch, quot = self._work_bufs(a.shape[1])
            np.take(a, _bitrev_indices(self.n), axis=0, out=wb)
            res, bound = self._butterfly(wb, buf, scratch, quot, forward=False)
            # Untwist/scale the *unreduced* butterfly output: the product
            # bound check mirrors the per-stage guard, and the single
            # reduction lands in a fresh output array — exactly the values
            # ((res mod q) * psi^-j/N) mod q, one full pass cheaper.
            if (bound - 1) * (self.q - 1) > _U64_MAX:
                res %= self._qu
            np.multiply(res, self._psi_inv_n_u[:, None], out=res)
            out = np.empty_like(res)
            fast_mod_u64(res, self._qu, out)
            return out.view(np.int64).reshape((self.n,) + tail)
        a = self._cyclic(np.moveaxis(arr, 0, -1).astype(self.mod.dtype, copy=False),
                         self._omega_inv)
        a = self.mod.mul(a, self.n_inv)
        return np.moveaxis(self.mod.mul(a, self._psi_inv), -1, 0)

    def pointwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Hadamard product in the evaluation domain."""
        record_mul(int(np.asarray(a).size))
        return self.mod.mul(a, b)

    def negacyclic_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full negacyclic product of two coefficient-domain polynomials."""
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))

    # -- internals --------------------------------------------------------------

    def _cyclic_fast(self, a: np.ndarray, forward: bool) -> np.ndarray:
        """Radix-2 DIT cyclic NTT on the last axis, uint64 lazy-reduction path.

        Inputs are canonical residues reinterpreted as uint64.  Per stage
        only the twiddle product ``hi * tw`` is reduced; the butterfly sums
        ``lo + t`` and ``lo + (q - t)`` stay unreduced, so the value bound
        grows by ``q`` per stage.  An exact Python-int bound tracks when
        ``hi * tw`` could exceed 2^64 and forces a full reduction first
        (never for q below ~2^30 at practical ring sizes).  The final array
        is reduced once, so the output residues are bit-identical to the
        eagerly-reduced object path.  Stages ping-pong between two buffers
        to avoid per-stage concatenation.
        """
        n = self.n
        pre = a.shape[:-1]
        batch = int(np.prod(pre, dtype=np.int64)) if pre else 1
        # Batch-last working layout: transposing puts the transform axis
        # FIRST, so every stage's lo/hi slice is contiguous runs of
        # ``batch`` lanes — early stages (m = 1, 2, ...) would otherwise
        # stride through 2m-element blocks and defeat vectorisation exactly
        # where the batched engine wins.
        wb, buf, scratch, quot = self._work_bufs(batch)
        np.take(a.reshape(batch, n).T, _bitrev_indices(n), axis=0, out=wb)
        res, _ = self._butterfly(wb, buf, scratch, quot, forward)
        out = np.empty((batch, n), dtype=np.uint64)
        # Fuse the final reduction into the transpose-out copy.
        fast_mod_u64(res.T, self._qu, out)
        return out.reshape(pre + (n,))

    def _butterfly(self, w: np.ndarray, buf: np.ndarray, scratch: np.ndarray,
                   quot: np.ndarray, forward: bool) -> Tuple[np.ndarray, int]:
        """uint64 butterfly stages on a bit-reversed ``(n, batch)`` array.

        ``w`` must already be row-gathered by :func:`_bitrev_indices`; the
        stages ping-pong between ``w`` and ``buf`` (both engine-owned
        workspaces).  Returns the buffer holding the *unreduced* result and
        the exclusive value bound the caller must drain — fusing that last
        reduction into the copy that materialises the caller's output is
        what keeps every transform at one fresh allocation.
        """
        n = self.n
        q = self.q
        qu = self._qu
        batch = w.shape[1]
        tables = self._stages_fwd_u if forward else self._stages_inv_u
        omega_pows = self._omega if forward else self._omega_inv
        bound = q  # exclusive upper bound on the values currently in ``w``
        m = 1
        stage = 0
        while m < n:
            if tables is not None:
                tw = tables[stage]
            else:
                # On-the-fly generation: successive powers of the stage
                # root w^(n/(2m)) by running multiplication.
                stage_root = int(omega_pows[n // (2 * m)])
                tw = np.empty(m, dtype=np.uint64)
                cur = 1
                for j in range(m):
                    tw[j] = cur
                    cur = cur * stage_root % q
            if (bound - 1) * (q - 1) > _U64_MAX:
                w %= qu
                bound = q
            shape = (n // (2 * m), 2 * m, batch)
            va = w.reshape(shape)
            vb = buf.reshape(shape)
            lo = va[:, :m]
            t = scratch.reshape(n // (2 * m), m, batch)
            d = quot.reshape(n // (2 * m), m, batch)
            if m == 1:
                # First stage's only twiddle is w^0 = 1: the product (and
                # its reduction) is the identity, so butterfly directly on
                # the canonical inputs.
                np.add(lo, va[:, m:], out=vb[:, :m])
                np.subtract(qu, va[:, m:], out=t)
                np.add(lo, t, out=vb[:, m:])
                bound += q
            elif m == 2:
                # Second stage's twiddles are [1, w^(n/4)]: the even half
                # skips the multiply and reduction, but then stays lazily
                # unreduced below the entry bound — which here is always
                # exactly 2q (stage 1 grew it from q, and the guard above
                # cannot fire this early for q < 2^31), so the subtraction
                # complements against 2q and the bound grows by 2q.
                t[:, 0] = va[:, 2]
                np.multiply(va[:, 3], tw[1], out=t[:, 1])
                fast_mod_u64(t[:, 1], qu, t[:, 1], d[:, 1])
                np.add(lo, t, out=vb[:, :m])
                np.subtract(np.uint64(2 * q), t, out=t)
                np.add(lo, t, out=vb[:, m:])
                bound += 2 * q
            else:
                np.multiply(va[:, m:], tw[:, None], out=t)
                fast_mod_u64(t, qu, t, d)
                np.add(lo, t, out=vb[:, :m])
                np.subtract(qu, t, out=t)
                np.add(lo, t, out=vb[:, m:])
                bound += q
            w, buf = buf, w
            m *= 2
            stage += 1
        return w, bound

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
            if self.twiddle_mode == "cached":
                tw = omega_pows[(np.arange(m) * (n // (2 * m)))]
            else:
                # On-the-fly generation: successive powers of the stage
                # root w^(n/(2m)) by running multiplication.
                stage_root = int(omega_pows[n // (2 * m)])
                tw = self.mod.zeros(m)
                cur = 1
                for j in range(m):
                    tw[j] = cur
                    cur = cur * stage_root % q
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


class StackedNttEngine:
    """One butterfly pass for a whole stack of limbs over *distinct* moduli.

    :class:`NttEngine` already vectorises over a batch axis for a single
    modulus; an RNS polynomial, however, is a stack of limbs each with its
    *own* prime, and transforming it limb-by-limb costs one Python-level
    engine call per limb — at small rings the interpreter overhead of
    those calls dominates the arithmetic.  This engine stacks the per-limb
    twist/twiddle tables into ``(L, ...)`` arrays with a per-row modulus
    vector and runs a single radix-2 pass over an ``(L, ..., N)`` tensor:
    the software analogue of the paper's memory layout that streams
    multiple limbs through the shared butterfly datapath per pass
    (Section IV-D).

    Bit-identity: every stage reduces the twiddle product eagerly and
    accumulates lazily exactly like :meth:`NttEngine._butterfly` (the
    bound grows by ``max(q)`` per stage and is drained once at the end),
    and modular arithmetic is exact, so row ``i`` of the output equals
    ``get_ntt_engine(n, moduli[i]).forward/inverse`` of row ``i``
    bit-for-bit (tests assert it).  Fast-path moduli only (q < 2^31).
    """

    def __init__(self, n: int, moduli: Sequence[int]):
        engines = [get_ntt_engine(n, int(q)) for q in moduli]
        if not all(e.mod.fast for e in engines):
            raise ParameterError("stacked NTT requires fast moduli (q < 2^31)")
        if not engines:
            raise ParameterError("stacked NTT needs at least one modulus")
        self.n = n
        self.moduli: Tuple[int, ...] = tuple(int(q) for q in moduli)
        self.rows = len(engines)
        self.max_q = max(self.moduli)
        # Per-row modulus vectors broadcasting over (L, B, N) / (L, B, g, 2m).
        qv = np.asarray(self.moduli, dtype=np.uint64)
        self._qv3 = qv.reshape(-1, 1, 1)
        self._qv4 = qv.reshape(-1, 1, 1, 1)
        self._psi_u = np.stack([e._psi_u for e in engines])[:, None, :]
        self._psi_inv_n_u = np.stack([e._psi_inv_n_u for e in engines])[:, None, :]
        # Stage tables stacked across rows: stage s holds a (L, m) array.
        self._stages_fwd = [np.stack(rows) for rows in
                            zip(*(e._stages_fwd_u for e in engines))]
        self._stages_inv = [np.stack(rows) for rows in
                            zip(*(e._stages_inv_u for e in engines))]

    # -- public API -----------------------------------------------------------

    def forward(self, stack: np.ndarray) -> np.ndarray:
        """Coefficient -> evaluation on an ``(L, ..., N)`` limb stack.

        Row ``i`` is transformed modulo ``moduli[i]``; middle axes are an
        ordinary batch.  Canonical ``int64`` in, canonical ``int64`` out.
        """
        arr = np.asarray(stack)
        _profile_ntt(self.n, arr)
        shape = arr.shape
        a = np.ascontiguousarray(arr, dtype=np.int64).view(np.uint64)
        a = a.reshape(self.rows, -1, self.n)
        # lazy-bound: canonical residue times psi^j (both < 2^31) fits
        # uint64; reduced immediately, so the butterfly starts canonical.
        a = (a * self._psi_u) % self._qv3
        a = a[..., _bitrev_indices(self.n)]
        w, _ = self._butterfly(a, forward=True)
        out = w % self._qv3
        return out.view(np.int64).reshape(shape)

    def inverse(self, stack: np.ndarray) -> np.ndarray:
        """Evaluation -> coefficient on an ``(L, ..., N)`` limb stack."""
        arr = np.asarray(stack)
        _profile_ntt(self.n, arr)
        shape = arr.shape
        a = np.ascontiguousarray(arr, dtype=np.int64).view(np.uint64)
        a = a.reshape(self.rows, -1, self.n)
        a = a[..., _bitrev_indices(self.n)]
        w, bound = self._butterfly(a, forward=False)
        if (bound - 1) * (self.max_q - 1) > _U64_MAX:
            w = w % self._qv3
        # Fused untwist + 1/N scaling on the unreduced butterfly output
        # (product bound checked above), one reduction at the end.
        out = (w * self._psi_inv_n_u) % self._qv3
        return out.view(np.int64).reshape(shape)

    # -- internals --------------------------------------------------------------

    def _butterfly(self, w: np.ndarray, forward: bool) -> Tuple[np.ndarray, int]:
        """Radix-2 DIT stages on a bit-reversed ``(L, B, N)`` uint64 stack.

        Identical lazy-reduction discipline to :meth:`NttEngine._butterfly`
        with the bound tracked against the *largest* row modulus: only the
        twiddle products are reduced (per row, via the broadcast modulus
        vector), sums stay unreduced and grow the bound by ``max_q`` per
        stage, and the guard forces a full reduction before any product
        could overflow 64 bits.  Returns the unreduced result plus its
        exclusive bound for the caller to drain.
        """
        n = self.n
        max_q = self.max_q
        tables = self._stages_fwd if forward else self._stages_inv
        bound = max_q
        m = 1
        for tw in tables:
            if (bound - 1) * (max_q - 1) > _U64_MAX:
                w = w % self._qv3
                bound = max_q
            v = w.reshape(self.rows, -1, n // (2 * m), 2 * m)
            lo = v[..., :m]
            hi = v[..., m:]
            if m == 1:
                # Stage-1 twiddle is w^0 = 1 for every row: inputs are
                # canonical, so the product/reduction is the identity.
                t = hi
            else:
                t = (hi * tw[:, None, None, :]) % self._qv4
            # lo - t realised as lo + (q - t) against the per-row modulus;
            # t is canonical so the complement stays non-negative.
            w = np.concatenate([lo + t, lo + (self._qv4 - t)], axis=-1)
            w = w.reshape(self.rows, -1, n)
            bound += max_q
            m *= 2
        return w, bound


_STACKED_CACHE: Dict[Tuple[int, Tuple[int, ...]], StackedNttEngine] = {}
_STACKED_CACHE_LOCK = threading.Lock()


def get_stacked_ntt_engine(n: int, moduli: Sequence[int]) -> StackedNttEngine:
    """Process-wide cache of stacked multi-modulus NTT engines.

    Lock-free on a hit (dict reads are atomic under the GIL); the miss
    path double-checks under a lock so two tenants racing on a cold key
    get the *same* engine instead of each publishing their own — the
    HL101 bug class PR 7 hit with concurrent service tenants.
    """
    key = (n, tuple(int(q) for q in moduli))
    engine = _STACKED_CACHE.get(key)
    if engine is None:
        with _STACKED_CACHE_LOCK:
            engine = _STACKED_CACHE.get(key)
            if engine is None:
                engine = StackedNttEngine(n, key[1])
                _STACKED_CACHE[key] = engine
    return engine


def naive_negacyclic_mul(a, b, q: int) -> np.ndarray:
    """Schoolbook ``O(N^2)`` negacyclic convolution — test reference only."""
    a = np.asarray(a, dtype=object)  # heaplint: disable=HL001 exact big-int test reference, never on a hot path
    b = np.asarray(b, dtype=object)  # heaplint: disable=HL001 exact big-int test reference, never on a hot path
    n = a.shape[-1]
    out = np.zeros(n, dtype=object)  # heaplint: disable=HL001 exact big-int test reference, never on a hot path
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k >= n:
                out[k - n] -= term
            else:
                out[k] += term
    return np.mod(out, q)


def naive_dft(a, q: int, root: int) -> np.ndarray:
    """Quadratic-time cyclic DFT used to validate the fast transform."""
    a = np.asarray(a, dtype=object)  # heaplint: disable=HL001 exact big-int test reference, never on a hot path
    n = len(a)
    out = np.zeros(n, dtype=object)  # heaplint: disable=HL001 exact big-int test reference, never on a hot path
    for k in range(n):
        acc = 0
        for j in range(n):
            acc += int(a[j]) * pow(root, j * k, q)
        out[k] = acc % q
    return out


def _profile_ntt(n: int, arr: np.ndarray) -> None:
    """Report transforms to the profiler (batch = product of lead dims).

    The batch size of every stacked call is recorded, not just the total:
    the profiler keeps a batch histogram so a run can be audited for how
    much of its transform work actually reached the vectorised ``(..., N)``
    interface (one ``_cyclic`` pass per stage for the whole stack) versus
    degenerate one-row calls.
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


_ENGINE_CACHE: Dict[Tuple[int, int], NttEngine] = {}
_ENGINE_CACHE_LOCK = threading.Lock()


def get_ntt_engine(n: int, q: int) -> NttEngine:
    """Process-wide cache of NTT engines (twiddle tables are expensive).

    Lock-free hit, double-checked miss: concurrent tenants on a cold key
    must converge on one engine (its thread-local workspaces make the
    *instance* safe to share; two half-built instances are not).
    """
    key = (n, q)
    engine = _ENGINE_CACHE.get(key)
    if engine is None:
        with _ENGINE_CACHE_LOCK:
            engine = _ENGINE_CACHE.get(key)
            if engine is None:
                engine = NttEngine(n, q)
                _ENGINE_CACHE[key] = engine
    return engine
