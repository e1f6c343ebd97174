"""LWE ciphertexts: encryption, arithmetic, modulus switching, key switching.

Paper Eq. (1): ``ct = (a, b) = (a, -<a, s> + e + m)`` so the *phase*
``b + <a, s>`` recovers ``m + e``.  The two operations the paper singles
out (Section II-B) are

* :func:`modulus_switch` — rescale every component from ``q`` to ``2N``
  before blind rotation ("not expensive as N is a power of two"), and
* :class:`LweKeySwitchKey` — switch an extracted dimension-``N`` LWE
  ciphertext down to dimension ``n_t`` ("a vector of h*N*d LWE
  ciphertexts").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import ParameterError
from ..math.gadget import GadgetVector
from ..math.modular import ModulusEngine
from ..math.sampling import Sampler, mask_stream


@dataclass
class LweSecretKey:
    """Ternary LWE secret of dimension ``n``."""

    coeffs: np.ndarray  # int64/object array of -1/0/1

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @classmethod
    def generate(cls, n: int, sampler: Sampler) -> "LweSecretKey":
        return cls(coeffs=sampler.ternary(n).astype(object))

    def __repr__(self) -> str:
        """Redacted: dimensions only, never the coefficient payload."""
        return f"LweSecretKey(dim={self.dim}, coeffs=<redacted>)"


@dataclass
class LweCiphertext:
    """``(a, b)`` over ``Z_q^(n+1)`` decrypting via ``b + <a, s>``."""

    a: np.ndarray
    b: int
    q: int

    @property
    def dim(self) -> int:
        return len(self.a)

    def __add__(self, other: "LweCiphertext") -> "LweCiphertext":
        self._check(other)
        eng = ModulusEngine(self.q)
        return LweCiphertext(eng.add(self.a, other.a), (self.b + other.b) % self.q, self.q)

    def __sub__(self, other: "LweCiphertext") -> "LweCiphertext":
        self._check(other)
        eng = ModulusEngine(self.q)
        return LweCiphertext(eng.sub(self.a, other.a), (self.b - other.b) % self.q, self.q)

    def __neg__(self) -> "LweCiphertext":
        eng = ModulusEngine(self.q)
        return LweCiphertext(eng.neg(self.a), (-self.b) % self.q, self.q)

    def scale(self, k: int) -> "LweCiphertext":
        eng = ModulusEngine(self.q)
        return LweCiphertext(eng.mul(self.a, k % self.q), self.b * k % self.q, self.q)

    def _check(self, other: "LweCiphertext") -> None:
        if self.q != other.q or self.dim != other.dim:
            raise ParameterError("LWE ciphertext mismatch")

    def size_bytes(self) -> int:
        """Paper Section III-C accounting: (n_t + 1) * ceil(log q) bits."""
        return (self.dim + 1) * self.q.bit_length() // 8


def lwe_encrypt(m: int, sk: LweSecretKey, q: int, sampler: Sampler,
                error_std: Optional[float] = None,
                mask_rng: Optional[Sampler] = None) -> LweCiphertext:
    """Encrypt an integer message (caller handles scaling/encoding).

    The uniform ``a``-vector is one ``uniform(dim, q)`` call on
    ``mask_rng`` — ``sampler`` itself unless the caller passes a
    replayable stream, in which case only ``b`` plus the stream's seed
    need storing.  The error always comes from ``sampler``."""
    eng = ModulusEngine(q)
    a = eng.asarray((sampler if mask_rng is None else mask_rng)
                    .uniform(sk.dim, q))
    e = int(sampler.gaussian(1, error_std)[0])
    inner = int(np.dot(a.astype(object), sk.coeffs)) % q
    b = (m + e - inner) % q
    return LweCiphertext(a=a, b=b, q=q)


def lwe_phase(ct: LweCiphertext, sk: LweSecretKey) -> int:
    """``b + <a, s> mod q`` — equals ``m + e``."""
    inner = int(np.dot(ct.a.astype(object), sk.coeffs))
    return (ct.b + inner) % ct.q


def lwe_decrypt(ct: LweCiphertext, sk: LweSecretKey) -> int:
    """Centred phase in ``(-q/2, q/2]`` — message plus noise."""
    p = lwe_phase(ct, sk)
    return p - ct.q if p > ct.q // 2 else p


def modulus_switch(ct: LweCiphertext, new_q: int) -> LweCiphertext:
    """Rescale each component to ``new_q`` by rounding (``q -> 2N``).

    Adds rounding noise ~ ||s||_1 / 2 in the new modulus — the standard
    TFHE pre-bootstrap step (paper ModulusSwitch).
    """
    q = ct.q
    a = np.asarray(ct.a, dtype=object)
    new_a = (a * new_q + q // 2) // q % new_q
    new_b = (int(ct.b) * new_q + q // 2) // q % new_q
    eng = ModulusEngine(new_q)
    return LweCiphertext(a=eng.asarray(new_a), b=int(new_b), q=new_q)


@dataclass
class LweKeySwitchKey:
    """Keys switching from ``sk_in`` (dim N) to ``sk_out`` (dim n_t).

    ``rows[i][k]`` encrypts ``g_k * s_in[i]`` under ``sk_out``; switching
    decomposes each ``a_i`` into digits and MACs against the rows — the
    same decompose-then-external-product pattern as everything else in
    the accelerator (paper Section VII-A).
    """

    rows: List[List[LweCiphertext]]
    gadget: GadgetVector
    #: Seed of the one mask stream every row's ``a``-vector came from.
    mask_seed: int = field(repr=False, compare=False)

    @classmethod
    def generate(cls, sk_in: LweSecretKey, sk_out: LweSecretKey, q: int,
                 gadget: GadgetVector, sampler: Sampler,
                 key_seed: Optional[int] = None) -> "LweKeySwitchKey":
        """Every row ciphertext's ``a``-vector streams from
        ``mask_stream(key_seed)`` (row order ``i`` outer, digit ``k``
        inner; ``key_seed`` drawn from ``sampler`` when not given), so
        the at-rest key is the ``N * d`` scalars ``b`` plus one seed —
        the §III-C LWE key-switch key shrinks by ~``n_t``x.  Errors come
        from ``sampler``."""
        if key_seed is None:
            key_seed = sampler.draw_seed()
        mask_rng = mask_stream(key_seed)
        rows = []
        for i in range(sk_in.dim):
            row = []
            for g in gadget.factors():
                m = int(sk_in.coeffs[i]) * g % q
                row.append(lwe_encrypt(m, sk_out, q, sampler,
                                       mask_rng=mask_rng))
            rows.append(row)
        return cls(rows=rows, gadget=gadget, mask_seed=key_seed)

    def bodies(self) -> List[List[int]]:
        """Stored half of the seed+``b`` form (row-major digit order)."""
        return [[ct.b for ct in row] for row in self.rows]

    def num_ciphertexts(self) -> int:
        return sum(len(r) for r in self.rows)


def expand_lwe_keyswitch_key(mask_seed: int, bodies: List[List[int]],
                             out_dim: int, q: int,
                             gadget: GadgetVector) -> LweKeySwitchKey:
    """Rebuild an LWE key-switch key bit-identically from seed + ``b``s."""
    eng = ModulusEngine(q)
    mask_rng = mask_stream(mask_seed)
    rows = []
    for row_bodies in bodies:
        if len(row_bodies) != gadget.digits:
            raise ParameterError("LWE ksk body count does not match gadget digits")
        rows.append([LweCiphertext(a=eng.asarray(mask_rng.uniform(out_dim, q)),
                                   b=int(b), q=q)
                     for b in row_bodies])
    return LweKeySwitchKey(rows=rows, gadget=gadget, mask_seed=mask_seed)


def lwe_keyswitch(ct: LweCiphertext, ksk: LweKeySwitchKey) -> LweCiphertext:
    """Switch ``ct`` to the output key's dimension."""
    if len(ksk.rows) != ct.dim:
        raise ParameterError("key switching key dimension mismatch")
    q = ct.q
    out_dim = ksk.rows[0][0].dim
    eng = ModulusEngine(q)
    acc_a = eng.zeros(out_dim)
    acc_b = int(ct.b)
    digits = ksk.gadget.decompose(np.asarray(ct.a, dtype=object))
    for k, digit_vec in enumerate(digits):
        for i in range(ct.dim):
            d = int(digit_vec[i])
            if d == 0:
                continue
            row = ksk.rows[i][k]
            acc_a = eng.add(acc_a, eng.mul(row.a, d % q))
            acc_b = (acc_b + d * row.b) % q
    return LweCiphertext(a=eng.reduce(acc_a), b=acc_b % q, q=q)
