"""LWE -> RLWE repacking (Chen et al. [11], adopted by HEAP).

After the parallel BlindRotates, HEAP holds ``n`` RLWE ciphertexts of
which only the constant phase coefficient carries information; this
module recombines them into one RLWE ciphertext whose coefficient
``i * (N / n)`` equals ``N * v_i`` and every other coefficient is
annihilated.  The uniform ``N`` factor is exact and is compensated by
folding ``N^{-1} mod Q`` into the blind-rotate test vector (see
:mod:`repro.switching.pipeline`).

Two phases, ``log2 N`` automorphism levels in total:

1. **Merge** (recursive)::

       pack(cts):                        # len = 2^k
           even, odd = pack(cts[0::2]), pack(cts[1::2])
           u = even + X^(N/len) * odd
           v = even - X^(N/len) * odd
           return u + phi_{len+1}(v)     # one key switch per level

2. **Trace**: for ``l = 2*len, 4*len, ..., N`` apply
   ``ct <- ct + phi_{l+1}(ct)``, projecting onto the subring generated by
   ``X^(N/len)`` — this kills the garbage coefficients that the merge
   phase leaves behind (for a full pack, ``len = N``, the trace is empty).

Each level doubles the wanted coefficients, hence the final factor
``2^log2(N) = N``.  Though there are only ``log2 N`` *levels*, the merge
phase performs one keyswitch per internal tree node — ``n - 1`` in total
— plus one per trace level (:func:`repack_keyswitch_count`).

The level-batched tensor engine behind :func:`repro.tfhe.repack` runs
this recursion; its bit-identity oracle, the same recursion one
ciphertext object per tree node, lives in ``tests/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..errors import ParameterError
from .glwe import GlweCiphertext


def repack_exponents(ring_n: int) -> List[int]:
    """All automorphism exponents repacking can need for ring dimension
    ``N``: ``{l + 1 : l = 2, 4, ..., N}`` — exactly ``log2 N`` keys,
    matching the "efficient repacking" cost of Chen et al."""
    if ring_n & (ring_n - 1) or ring_n < 2:
        raise ParameterError("ring dimension must be a power of two >= 2")
    exps = []
    lv = 2
    while lv <= ring_n:
        exps.append(lv + 1)
        lv *= 2
    return exps


def repack_keyswitch_count(n_cts: int, ring_n: int) -> int:
    """True keyswitch count of packing ``n_cts`` ciphertexts into ring
    dimension ``ring_n``: ``n_cts - 1`` merge-tree nodes plus one per
    trace level ``l = 2*n_cts, ..., ring_n``."""
    count = n_cts - 1
    lv = 2 * n_cts
    while lv <= ring_n:
        count += 1
        lv *= 2
    return count


@dataclass
class RepackCounters:
    """What one repack execution actually performed.

    ``merge_keyswitches + trace_keyswitches`` equals
    :func:`repack_keyswitch_count`; ``levels`` counts the batched
    automorphism passes (``log2(n_cts)`` merge + ``log2(N/n_cts)``
    trace); and ``ntt_calls_saved`` tallies NTT *invocations* the level
    batching avoided versus the one-call-per-polynomial scalar path.
    """

    merge_keyswitches: int = 0
    trace_keyswitches: int = 0
    levels: int = 0
    ntt_calls_saved: int = 0

    @property
    def total_keyswitches(self) -> int:
        return self.merge_keyswitches + self.trace_keyswitches


def _validate(cts: Sequence[GlweCiphertext]) -> None:
    n_cts = len(cts)
    if n_cts & (n_cts - 1) or n_cts == 0:
        raise ParameterError("repack needs a power-of-two ciphertext count")
    ring_n = cts[0].n
    if n_cts > ring_n:
        raise ParameterError("cannot pack more ciphertexts than ring coefficients")
    for ct in cts:
        if ct.h != 1 or ct.n != ring_n or ct.basis.moduli != cts[0].basis.moduli:
            raise ParameterError("repack inputs must be matching RLWE ciphertexts")
