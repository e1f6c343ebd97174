"""Exact negacyclic products through a float64 FFT.

One transform of the small gadget digits serves every RNS limb, and the
MAC is one complex ``matmul`` per frequency, as in TFHE libraries'
Fourier-domain external product (tfhe-rs among them), kept *exact*:
each centred key coefficient is split into balanced ``width``-bit
pieces (:func:`split_plan`), so every product sum is an integer the
rounded inverse FFT returns exactly, recombined per limb as
``((hi mod q) 2^width + lo) mod q``.  A residual guard refuses a product
that does not round cleanly (:class:`~repro.errors.FourierRoundingError`).
Transforms are counted with :func:`~repro.profiling.record_ntt`, one
``N``-point transform per polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, log2
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import FourierRoundingError, ParameterError
from ..profiling import record_ntt
from .modular import reduce_mod

#: The largest rounding residual an exact product may show; the split
#: is chosen so the proven error bound stays below it.
RESIDUAL_LIMIT = 0.25

#: Unit roundoff of float64.
_U = 2.0 ** -53


def split_plan(n: int, rows: int, max_digit: int, q: int) -> Tuple[int, int]:
    """``(width, pieces)``: the fewest balanced key pieces whose proven
    rounding error stays below :data:`RESIDUAL_LIMIT` for ``rows`` digit
    polynomials (``|digit| <= max_digit``) times key polynomials mod
    ``q`` in ``Z[X]/(X^n + 1)``, each term scaled by ``X^a - 1`` and the
    two key halves summed.  :class:`~repro.errors.ParameterError` when
    none fits."""
    bits = q.bit_length()
    lam = log2(max(n // 2, 1))
    for pieces in range(1, bits + 1):
        width = ceil(bits / pieces)
        # lazy-bound: with R = rows, D = max_digit, P = 2^(width - 1) the
        # largest piece, W = n^{3/2} D P and u = 2^-53, every output is
        # within E = 4 R W u (24 (lam + 3) + 2 R + 16) of the exact
        # integer, lam = log2(n/2); E <= 1/4 is required, so rint returns
        # it.  Proof, per coefficient vector c (|.|_inf <= |.|_2):
        # (1) |c_j| <= 4 R n D P (two halves, |X^a - 1|_1 = 2) < 2^53
        #     whenever E <= 1/4: c, digits and pieces are exact floats.
        # (2) T x = FFT_{n/2}((x_j + i x_{j+n/2}) zeta^j) has |T x|_2 =
        #     sqrt(n/2) |x|_2 and |T x|_inf <= |x|_1 (x at unit roots).
        #     The float FFT errs by at most lam eta |T x|_2, eta <= 8u for
        #     twiddles within 2u (Higham, Accuracy and Stability of
        #     Numerical Algorithms, 2nd ed., Thm 24.2); the twist, a table
        #     entry within (4 pi + 2)u of zeta^j times a rounding, counts
        #     as three more levels: eps = 8 (lam + 3) u, inverse alike.
        # (3) Per (row, half) term A B M, after the inverse's
        #     1/sqrt(n/2): the digit spectrum's error gives <= eps |a|_2
        #     |b|_1 |M|_inf <= 2 eps W, the key spectrum's <= eps |a|_1
        #     |b|_2 |M|_inf <= 2 eps W, the complex products and R-term
        #     sums <= 2 (2R + 6) u W, the monomial entry (within 16u of
        #     X^a - 1 at the root) <= 16 u W.
        # (4) The inverse FFT adds eps |c|_2 <= 4 R eps W.
        # (3) over 2R terms plus (4) is 4 R W (3 eps + (2 R + 14) u); the
        # extra 2u absorbs second-order terms.  round_to_residues folds
        # the pieces in int64 lanes kept below 2^61; width + bits <= 60
        # keeps one step from reduced lanes, (q - 1) 2^width + 2^53, there.
        err = (4 * rows * n ** 1.5 * max_digit * 2.0 ** (width - 1) * _U
               * (24 * (lam + 3) + 2 * rows + 16))
        if width + bits <= 60 and err <= RESIDUAL_LIMIT:
            return width, pieces
    raise ParameterError(
        f"no exact float64 split for N={n}, {rows} rows, |digit| <= "
        f"{max_digit}, {bits}-bit modulus")


def signed_pieces(residues: np.ndarray, q: int, width: int,
                  pieces: int) -> np.ndarray:
    """Canonical residues mod ``q`` as ``pieces`` balanced ``width``-bit
    pieces of their centred value, little-endian on a new last axis:
    ``sum_t p_t 2^(t width) == centred`` and ``|p_t| <= 2^(width-1)``."""
    vals = np.asarray(residues).astype(np.int64)
    rem = np.where(vals > q // 2, vals - q, vals)
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = np.empty(rem.shape + (pieces,), dtype=np.int64)
    for t in range(pieces - 1):
        out[..., t] = ((rem + half) & mask) - half
        rem = (rem - out[..., t]) >> width
    out[..., pieces - 1] = rem
    return out


class NegacyclicFft:
    """The folded, twisted float64 FFT of ``Z[X]/(X^n + 1)`` on axis 0:
    an ``n/2``-point FFT of ``(a_j + i a_{j+n/2}) zeta^j``,
    ``zeta = e^{i pi/n}``, evaluates ``a`` at ``zeta^(1-4k)``.  Read-only
    tables, so one instance serves every thread (:func:`get_fft`)."""

    def __init__(self, n: int):
        self.n = n
        #: zeta^m for m in [0, 2n).
        self._roots = np.exp(1j * np.pi * np.arange(2 * n) / n)
        self._twist = self._roots[:n // 2, None]
        self._untwist = np.conj(self._twist)
        #: The exponent 1 - 4k (mod 2n) frequency k evaluates at.
        self._exps = (1 - 4 * np.arange(n // 2)) % (2 * n)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """``(n/2, ...)`` spectra of the integer polynomials on axis 0 of
        ``(n, ...)``."""
        half = self.n // 2
        flat = coeffs.reshape(self.n, -1)
        z = np.empty((half, flat.shape[1]), dtype=np.complex128)
        z.real = flat[:half]
        z.imag = flat[half:]
        z *= self._twist
        record_ntt(self.n, flat.shape[1])
        return np.fft.fft(z, axis=0, out=z).reshape((half,) + coeffs.shape[1:])

    def monomial_minus_one(self, a: np.ndarray) -> np.ndarray:
        """``(n/2, len(a))`` spectra of ``X^a - 1``, gathered from the
        root table at ``a (1 - 4k) mod 2n`` — never ``exp`` of that large
        angle, whose argument error grows with ``a k``."""
        idx = np.multiply.outer(self._exps, np.asarray(a, dtype=np.int64))
        idx %= 2 * self.n
        return self._roots[idx] - 1

    def round_to_residues(self, spectrum: np.ndarray, moduli: Sequence[int],
                          width: int,
                          addends: Sequence[np.ndarray]) -> List[np.ndarray]:
        """``(sum_t c_t 2^(t width) + addends[l]) mod moduli[l]`` per limb
        ``l``, as int64 ``(n, ...)`` canonical residues, from the spectra
        ``(n/2, ..., L, pieces)`` of integer polynomials ``c_t``.  Callers
        state why the products obey :func:`split_plan`'s bound (HL002); a
        residual above :data:`RESIDUAL_LIMIT` raises
        :class:`~repro.errors.FourierRoundingError`."""
        half = self.n // 2
        z = np.fft.ifft(spectrum.reshape(half, -1), axis=0)
        z *= self._untwist
        x = np.empty((self.n, z.shape[1]))
        x[:half] = z.real
        x[half:] = z.imag
        record_ntt(self.n, z.shape[1])
        ints = np.rint(x)
        x -= ints
        residual = float(np.max(np.abs(x, out=x)))
        if not residual <= RESIDUAL_LIMIT:
            raise FourierRoundingError(
                f"float64 FFT product has rounding residual {residual:.3g} "
                f"> {RESIDUAL_LIMIT}: its integers are not exact", residual)
        peak = int(max(ints.max(), -ints.min()))
        ints = ints.astype(np.int64).reshape((self.n,) + spectrum.shape[1:])
        # Horner over the pieces, all limbs at once, tracking the lanes'
        # exact bound as the NTT butterfly does: reduce only when the next
        # step could pass 2^61.
        v = ints[..., -1]
        bound = peak
        for t in range(ints.shape[-1] - 2, -1, -1):
            if (bound << width) + peak > 1 << 61:
                for li, q in enumerate(moduli):
                    _canonical(v[..., li], q, bound)
                bound = max(moduli) - 1
            v <<= width
            v += ints[..., t]
            bound = (bound << width) + peak
        return [_canonical(v[..., li] + np.asarray(add, dtype=np.int64), q,
                           bound + q)
                for li, (q, add) in enumerate(zip(moduli, addends))]


def _canonical(x: np.ndarray, q: int, bound: int) -> np.ndarray:
    """``x mod q`` in place for int64 ``|x| <= bound < 2^62``: offset by
    a multiple of ``q`` into ``[0, 2^63)``, then one uint64 reduction."""
    x += -(-bound // q) * q
    return reduce_mod(x, q)


@lru_cache(maxsize=None)
def get_fft(n: int) -> NegacyclicFft:
    """Process-wide :class:`NegacyclicFft` per ring size."""
    return NegacyclicFft(n)
