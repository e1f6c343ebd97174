"""Seeded randomness for key, error and mask sampling.

Both schemes draw from three distributions (paper Section II): uniform
masks over ``Z_q``, ternary secret keys (we avoid *sparse* secrets, as
the paper does for security reasons), and a discrete Gaussian error
``chi_err``.  Everything routes through one :class:`Sampler` so that a
single seed makes whole protocol runs reproducible in tests.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

import numpy as np

DEFAULT_ERROR_STD = 3.2  # sigma used across the HE literature


def derive_seed(master_seed: int, *path: Union[int, str]) -> int:
    """Stable 63-bit child seed for ``(master, path)``.

    Used by the seeded key schedule (ARK-style runtime key generation):
    one master key seed fans out into one mask seed per key component
    (``derive_seed(ks, "brk", i, "+")``, ``derive_seed(ks, "auto", t)``,
    ...).  The derivation is a SHA-256 of the canonical path string, so
    it is identical across processes and Python versions — a worker that
    only received the master seed expands the exact same mask streams
    the generator drew.
    """
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


def mask_stream(seed: int, error_std: float = DEFAULT_ERROR_STD) -> "Sampler":
    """The replayable uniform-mask stream for one seeded key component.

    Seeded keygen draws every uniform ``a``-half from this stream in a
    fixed documented order; expansion constructs the same stream from the
    stored seed and replays it.  (A plain :class:`Sampler` — the alias
    exists so call sites say what the stream is for.)
    """
    return Sampler(seed, error_std)


class Sampler:
    """Deterministic (seeded) source for all random material."""

    def __init__(self, seed: Optional[int] = None, error_std: float = DEFAULT_ERROR_STD):
        self.rng = np.random.default_rng(seed)
        self.error_std = error_std

    # -- secrets -------------------------------------------------------------

    def ternary(self, n: int) -> np.ndarray:
        """Uniform ternary vector over ``{-1, 0, 1}`` (non-sparse)."""
        return self.rng.integers(-1, 2, size=n, dtype=np.int64)

    def binary(self, n: int) -> np.ndarray:
        """Uniform binary vector — TFHE LWE secret keys are binary, which
        keeps the blind-rotate key at the two RGSW components
        ``RGSW(s_i^+), RGSW(s_i^-)`` of Algorithm 1."""
        return self.rng.integers(0, 2, size=n, dtype=np.int64)

    # -- noise ---------------------------------------------------------------

    def gaussian(self, n: int, std: Optional[float] = None) -> np.ndarray:
        """Rounded Gaussian over the integers (centred)."""
        sigma = self.error_std if std is None else std
        return np.rint(self.rng.normal(0.0, sigma, size=n)).astype(np.int64)

    # -- masks ----------------------------------------------------------------

    def uniform(self, n: int, q: int) -> np.ndarray:
        """Uniform residues in ``[0, q)`` (object dtype for wide moduli)."""
        if q < (1 << 62):
            arr = self.rng.integers(0, q, size=n, dtype=np.uint64)
            if q < (1 << 31):
                return arr.astype(np.int64)
            return arr.astype(object)
        # Very wide modulus: build from 32-bit words.
        words = (q.bit_length() + 31) // 32
        out = np.zeros(n, dtype=object)
        for _ in range(words):
            out = (out << 32) | self.rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(object)
        return np.mod(out, q)

    def uniform_scalar(self, q: int) -> int:
        return int(self.uniform(1, q)[0])

    def draw_seed(self) -> int:
        """A fresh 63-bit seed from this stream: the key generators'
        ``key_seed`` when the caller gives none."""
        return int(self.rng.integers(0, 2**63))

    def spawn(self) -> "Sampler":
        """Independent child sampler (stable fan-out for parallel key gen)."""
        return Sampler(self.draw_seed(), self.error_std)
