"""Non-linear functions on CKKS ciphertexts via scheme switching (§III-A).

The paper motivates scheme switching with exactly this use case before
specialising it to bootstrapping: "for each extracted LWE ciphertext, we
perform the blind rotation with some initial function f.  The function f
can be set as required by the application ... sigmoid, exponentiation, or
ReLU".  This module implements that general path:

1. Extract the ``N`` coefficient LWE ciphertexts of a CKKS ciphertext
   (mod ``q``, dimension ``N``).
2. ModulusSwitch each to ``2N``.  The phase becomes
   ``t_i ~ round(2N * m_i / q) (mod 2N)`` — the ``q*k`` wraps vanish
   modulo ``2N``, so ``t_i`` is a ``log2(2N)``-bit quantisation of the
   slot-encoded value.
3. BlindRotate with the LUT ``g(t) = p * Delta * f(t * q / (2N * Delta))``
   (folded with ``N^{-1}`` for the repack factor), repack, and rescale by
   ``p`` — an encryption of ``Delta * f(v_i)`` over the full modulus
   ``Q``, i.e. a *fresh, top-level* CKKS ciphertext of ``f(values)``.

Precision is limited by the ``2N``-bucket quantisation (plus blind-rotate
noise), and the function domain must satisfy ``|v| < q / (4 * Delta)`` so
the quantised phase stays inside the anti-periodic LUT's faithful range.
Unlike the Chebyshev route this evaluates *discontinuous* functions
(sign, step, ReLU's kink) exactly and costs no multiplicative depth — the
output is at the top level.

The LUT acts per *coefficient* of the plaintext polynomial, so inputs
must be **coefficient-packed** (``CkksEvaluator.encrypt_coeffs`` — the
Pegasus packing): the canonical embedding mixes slot values across
coefficients and would turn a slot-wise non-linearity into garbage.  A
slot-packed ciphertext can be brought to coefficient packing with one
SlotToCoeff linear transform (see :mod:`repro.ckks.bootstrap`'s
matrices) and back afterwards, exactly as Pegasus [41] does; the tests
and example here use coefficient packing directly.

This module holds the stage kernels — the PBS ModSwitch+Extract and the
LUT domain helpers; orchestration is
:meth:`~repro.switching.pipeline.BootstrapPipeline.run_pbs`.  The LUT
math lives in :mod:`~repro.switching.luts`, cached on the key set's
registry, and the fan-out runs through any executor — local, simulated
cluster, or the multiprocessing pool — with bit-identical results.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..ckks.ciphertext import CkksCiphertext
from ..ckks.context import CkksContext
from ..errors import ParameterError
from ..tfhe.lwe import LweCiphertext
from .luts import relu_fn, sigmoid_fn, sign_fn  # noqa: F401  (public API)

_U64_MAX = (1 << 64) - 1


# -- the PBS ModSwitch+Extract kernel ---------------------------------------------


def pbs_extract_reference(c0, c1, n: int, two_n: int,
                          q: int) -> List[LweCiphertext]:
    """Reference oracle for the PBS extraction: the original per-index
    Python loop over arbitrary-precision integers.  Kept verbatim as the
    bit-identity baseline for the vectorized kernel (and as the fallback
    when ``q`` is too wide for the uint64 fast path)."""
    c0 = np.asarray(c0, dtype=object)  # heaplint: disable=HL001 reference oracle, exact big-int arithmetic by design
    c1 = np.asarray(c1, dtype=object)  # heaplint: disable=HL001 reference oracle, exact big-int arithmetic by design
    lwes = []
    for i in range(n):
        head = c1[: i + 1][::-1]
        tail = c1[i + 1:][::-1]
        a_q = np.concatenate([head, (q - tail) % q]) % q
        a_ms = ((a_q * two_n + q // 2) // q) % two_n
        b_ms = ((int(c0[i]) * two_n + q // 2) // q) % two_n
        lwes.append(LweCiphertext(a=a_ms.astype(np.int64), b=int(b_ms),
                                  q=two_n))
    return lwes


def pbs_extract_vectorized(c0, c1, n: int, two_n: int,
                           q: int) -> List[LweCiphertext]:
    """One negacyclic gather + uint64 rounding modswitch for all ``N``
    extractions at once.

    Row ``i`` of the old loop is ``[c1[i], .., c1[0], -c1[n-1], ..,
    -c1[i+1]]`` — i.e. ``a[i, j] = c1[(i - j) mod n]``, negated where
    ``j > i``.  The modswitch ``(a*2N + q/2) // q`` stays inside uint64
    as long as ``(q-1)*2N + q/2 <= 2^64 - 1`` (checked; callers fall
    back to the reference kernel beyond that)."""
    if (q - 1) * two_n + q // 2 > _U64_MAX:
        raise ParameterError(
            f"q={q} too wide for the uint64 PBS extract fast path")
    c0_u = np.asarray(c0, dtype=np.uint64)
    c1_u = np.asarray(c1, dtype=np.uint64)
    idx = np.arange(n)
    a_q = c1_u[(idx[:, None] - idx[None, :]) % n]
    negate = idx[None, :] > idx[:, None]
    a_q[negate] = (q - a_q[negate]) % q
    a_ms = ((a_q * np.uint64(two_n) + np.uint64(q // 2)) // np.uint64(q)) \
        % np.uint64(two_n)
    b_ms = ((c0_u * np.uint64(two_n) + np.uint64(q // 2)) // np.uint64(q)) \
        % np.uint64(two_n)
    a64 = a_ms.astype(np.int64)
    return [LweCiphertext(a=a64[i], b=int(b_ms[i]), q=two_n)
            for i in range(n)]


def pbs_extract(ct: CkksCiphertext) -> List[LweCiphertext]:
    """The programmable path's ModSwitch + Extract for a level-0,
    coefficient-packed ciphertext: the ``N`` dimension-``N`` LWEs with
    phases ``round(2N * m_i / q) mod 2N``.

    Runs the uint64 gather kernel, falling back to the
    :func:`pbs_extract_reference` loop when ``q`` exceeds its overflow
    guard.  Both are bit-identical (tests assert it)."""
    n = len(ct.c0.limbs[0])
    two_n = 2 * n
    q = ct.basis.moduli[0]
    c0 = ct.c0.to_coeff().limbs[0]
    c1 = ct.c1.to_coeff().limbs[0]
    if (q - 1) * two_n + q // 2 <= _U64_MAX:
        return pbs_extract_vectorized(c0, c1, n, two_n, q)
    return pbs_extract_reference(c0, c1, n, two_n, q)


# -- the LUT input domain ---------------------------------------------------------


def max_abs_input(ctx: CkksContext) -> float:
    """Largest |v| the quantised phase can represent faithfully."""
    q = float(ctx.full_basis.moduli[0])
    return q / (4.0 * ctx.params.scale)


def quantisation_step(ctx: CkksContext) -> float:
    """Input resolution: one phase bucket in value units."""
    q = float(ctx.full_basis.moduli[0])
    return q / (2.0 * ctx.n * ctx.params.scale)
