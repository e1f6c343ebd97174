"""Gadget (digit) decomposition.

TFHE's external product and the hybrid key switch both rely on writing a
ring element ``a`` as ``a = sum_k a_k * B^k`` with small digits ``a_k``;
the paper fixes the decomposition degree ``d = 2`` for both schemes
(Section II-B / III-C).  We implement two flavours:

* *unsigned* digits in ``[0, B)`` — simplest, the test reference
  (``exact_digits`` in ``tests/oracle.py``); and
* *signed* (balanced) digits in ``[-B/2, B/2)`` — halves the noise growth
  of the external product and is what real TFHE implementations (and the
  accelerator) use.

Over a multi-limb RNS basis the value to decompose is the CRT composition
of the limbs.  :class:`ResidueDecomposer` produces its signed digits from
the residues directly, in word-size arithmetic, so the batched engines
never build the big integers (HEAP Section IV-A runs decompose -> NTT ->
MAC on word-size residues).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import List, Sequence

import numpy as np

from ..errors import ParameterError
from .modular import _FAST_MODULUS_BOUND, crt_compose


@dataclass(frozen=True)
class GadgetVector:
    """Decomposition parameters: ``digits`` digits of ``base_bits`` bits.

    The gadget covers the top ``digits * base_bits`` bits of ``q``:
    digit ``k`` multiplies ``q / B^(k+1)`` (TFHE convention, approximate
    decomposition of the most-significant bits).
    """

    q: int
    base_bits: int
    digits: int

    def __post_init__(self):
        if self.base_bits <= 0 or self.digits <= 0:
            raise ParameterError("base_bits and digits must be positive")
        if self.digits * self.base_bits > self.q.bit_length():
            raise ParameterError(
                f"gadget covers {self.digits * self.base_bits} bits but q has "
                f"only {self.q.bit_length()}"
            )

    @property
    def base(self) -> int:
        return 1 << self.base_bits

    def factors(self) -> List[int]:
        """``g_k ~ q / B^(k+1)``: the scale each digit is multiplied by."""
        logq = self.q.bit_length()
        return [1 << (logq - (k + 1) * self.base_bits) for k in range(self.digits)]

    # -- decomposition -----------------------------------------------------------

    def decompose(self, values: np.ndarray) -> List[np.ndarray]:
        """Signed (balanced) approximate decomposition of residues mod q.

        Returns ``digits`` arrays of centred digits in ``[-B/2, B/2]`` such
        that ``sum_k d_k * g_k`` is within rounding error (< g_last) of the
        centred representative of ``values``.
        """
        return self.decompose_tensor(np.asarray(values, dtype=object))

    def decompose_tensor(self, values: np.ndarray) -> List[np.ndarray]:
        """Shape- and dtype-preserving signed decomposition.

        Identical arithmetic to :meth:`decompose` (tests assert bit-equality)
        but the input dtype is kept: an int64 tensor of residues below
        ``2**31`` stays int64 end to end, which is what lets the batched
        blind-rotate engine decompose a whole ``(batch, h+1, N)`` accumulator
        stack in a handful of vectorised passes.  numpy's ``%`` and ``>>``
        share Python's floor semantics on negative int64, so both paths
        produce the same digits.
        """
        vals = np.asarray(values)
        half_q = self.q // 2
        centered = np.where(vals > half_q, vals - self.q, vals)
        logq = self.q.bit_length()
        # Round to the precision the gadget can express.
        shift = logq - self.digits * self.base_bits
        if shift > 0:
            centered = (centered + (1 << (shift - 1))) >> shift
        rem = centered
        half_b = self.base // 2
        # Extract from least significant gadget digit upward, balanced.  The
        # top digit absorbs the final carry unbalanced (range ~ [-B/2-1, B/2+1])
        # so that recomposition is exact rather than wrapping modulo B^d.
        raw = []
        for k in range(self.digits):
            if k == self.digits - 1:
                raw.append(rem)
                break
            # base is a power of two, so the floor-mod is a mask — exact for
            # both int64 and object (Python int) lanes, including negatives.
            # Shifting by B/2 before the mask centres the digit branch-free:
            # ((x + B/2) mod B) - B/2 lands in [-B/2, B/2) with d = x mod B.
            d = ((rem + half_b) & (self.base - 1)) - half_b
            raw.append(d)
            rem = (rem - d) >> self.base_bits
        # raw[0] is the *least* significant digit -> corresponds to the
        # smallest factor g_{digits-1}; reverse so index k matches factors()[k].
        return list(reversed(raw))

    def decompose_residues(self, residues: Sequence[np.ndarray],
                           moduli: Sequence[int]) -> np.ndarray:
        """Signed digits of the CRT composition of per-limb residues.

        ``residues[i]`` holds canonical residues mod ``moduli[i]`` (all of
        one shape ``S``) and ``q`` must be the product of ``moduli``.
        Returns the digits as one array of shape ``S + (digits,)``, in
        :meth:`factors` order, bit-equal to stacking
        ``decompose_tensor(crt_compose(residues, moduli))``.  An engine
        that decomposes repeatedly holds a :class:`ResidueDecomposer`
        instead, which builds the constants this call rebuilds each time.
        """
        return ResidueDecomposer(self, moduli)(residues)

    def recompose(self, digits: List[np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`decompose` modulo ``q`` (up to rounding error)."""
        if len(digits) != self.digits:
            raise ParameterError("digit count mismatch")
        acc = np.zeros_like(np.asarray(digits[0], dtype=object))
        for d, g in zip(digits, self.factors()):
            acc = acc + np.asarray(d, dtype=object) * g
        return np.mod(acc, self.q)

    def max_error(self) -> int:
        """Upper bound on ``|recompose(decompose(x)) - x|`` (centred)."""
        logq = self.q.bit_length()
        shift = logq - self.digits * self.base_bits
        return 1 << shift if shift > 0 else 1


#: A fixed-width integer is 32-bit words held in uint64 lanes: the shift
#: and the mask of one word.
_WORD_BITS = np.uint64(32)
_WORD_MASK = np.uint64((1 << 32) - 1)


def _words(value: int, count: int) -> np.ndarray:
    """``value mod 2^(32 count)`` as ``count`` little-endian 32-bit words."""
    return np.array([(value >> (32 * j)) & 0xFFFFFFFF for j in range(count)],
                    dtype=np.uint64)


def _carry(words: np.ndarray, count: int) -> None:
    """Normalise ``words[:count]`` to 32 bits each, in place, pushing
    every carry up into the next word (the top word keeps its excess)."""
    for j in range(count - 1):
        words[j + 1] += words[j] >> _WORD_BITS
        words[j] &= _WORD_MASK


class ResidueDecomposer:
    """:meth:`GadgetVector.decompose_residues` for one ``(gadget, moduli)``
    pair, with its constants built once.

    The batched engines build one in their constructor (a pool worker's
    engine too) and call it per decomposition.  It holds only immutable
    constants — no workspace, cache or lock — so one instance serves any
    number of threads.  Three paths, chosen at construction:

    * **One limb.**  The residues are the integers in ``[0, q)``, so
      :meth:`GadgetVector.decompose_tensor` runs on them as they are.
    * **Fixed width** (several limbs, every modulus below ``2^31``,
      ``base_bits <= 30``).  Garner's mixed-radix digits ``v_i`` of
      ``x = v_0 + v_1 q_0 + v_2 q_0 q_1 + ...`` in int64; centring is a
      lexicographic compare of those digits against the digits of
      ``floor(Q/2)``; Horner folds the digits into 32-bit words held in
      uint64 lanes.  The last Horner step also adds ``K`` (when
      ``x <= Q/2``) or ``K - Q`` mod ``2^(32W)`` (when ``x > Q/2``), with
      ``K = C 2^shift + 2^(shift-1)`` (the second term only for an
      approximate gadget) and ``C = sum_{k<d-1} (B/2) B^k``.  The words
      then hold ``c + K`` in two's complement, ``c`` the centred value,
      and the ``k``-th least significant digit is the ``b``-bit field at
      bit ``shift + k b`` minus ``B/2`` — the top digit is the field read
      signed to the top, which is exactly the unbalanced top digit of
      ``decompose_tensor``.
    * **Wide** (a modulus of ``2^31`` or more, or ``base_bits > 30``):
      exact big-int :func:`~repro.math.modular.crt_compose`, then
      ``decompose_tensor`` on object lanes.
    """

    def __init__(self, gadget: GadgetVector, moduli: Sequence[int]):
        self.gadget = gadget
        self.moduli = [int(q) for q in moduli]
        big_q = prod(self.moduli)
        if big_q != gadget.q:
            raise ParameterError(
                "gadget modulus is not the product of the residue moduli")
        self.fixed = (len(self.moduli) > 1 and gadget.base_bits <= 30
                      and max(self.moduli) < _FAST_MODULUS_BOUND)
        if not self.fixed:
            return
        limbs = len(self.moduli)
        b, d = gadget.base_bits, gadget.digits
        logq = big_q.bit_length()
        shift = logq - d * b
        # Garner, one source limb j at a time: every later limb i takes
        # (t - v_j) * q_j^{-1} mod q_i.
        self._garner = [
            (np.array([pow(self.moduli[j], -1, q) for q in self.moduli[j + 1:]],
                      dtype=np.int64),
             np.array(self.moduli[j + 1:], dtype=np.int64))
            for j in range(limbs - 1)]
        # Mixed-radix digits of floor(Q/2), the centring threshold.
        half, self._half = big_q // 2, []
        for q in self.moduli:
            self._half.append(half % q)
            half //= q
        # W words hold c + K in two's complement with a spare word above,
        # so every digit reads from a pair (j, j + 1) of words.
        self._width = -(-(logq + 2) // 32) + 1
        # Horner from the top limb down: (limb, words holding the running
        # value before the step, words after it).
        self._horner = []
        active = 1
        for i in range(limbs - 2, -1, -1):
            after = -(-prod(self.moduli[i:]).bit_length() // 32)
            self._horner.append((i, active, after))
            active = after
        c = sum((gadget.base // 2) << (k * b) for k in range(d - 1))
        k_add = (c << shift) + ((1 << (shift - 1)) if shift > 0 else 0)
        bits = 32 * self._width
        self._addend = [_words(k_add, self._width),
                        _words((k_add - big_q) % (1 << bits), self._width)]
        # Digit k (factors() order) is the field at bit logq - (k+1) b.
        pos = np.array([logq - (k + 1) * b for k in range(d)])
        self._pair = pos // 32
        self._offset = (pos % 32).astype(np.uint64)
        self._top = (int(self._pair[0]), int(self._offset[0]))

    def __call__(self, residues: Sequence[np.ndarray]) -> np.ndarray:
        """Digits of shape ``S + (digits,)`` in ``factors()`` order."""
        g = self.gadget
        if len(self.moduli) == 1:
            return np.stack(g.decompose_tensor(residues[0]), axis=-1)
        if not self.fixed:
            big = crt_compose(np.stack(residues), self.moduli)
            return np.stack(g.decompose_tensor(big), axis=-1)
        mr = np.stack(residues).astype(np.int64, copy=False)
        col = (-1,) + (1,) * (mr.ndim - 1)
        for j, (inv, q) in enumerate(self._garner):
            rest = mr[j + 1:]
            # lazy-bound: t - v_j lies in (-2^31, 2^31) and q_j^{-1} mod
            # q_i is below 2^31, so the int64 product stays below 2^62
            # in magnitude before the floor remainder canonicalises it.
            rest -= mr[j]
            rest *= inv.reshape(col)
            np.remainder(rest, q.reshape(col), out=rest)
        # x > floor(Q/2) iff its mixed-radix digits compare greater,
        # most significant first.
        above = mr[-1] > self._half[-1]
        tied = mr[-1] == self._half[-1]
        for i in range(len(self.moduli) - 2, -1, -1):
            above |= tied & (mr[i] > self._half[i])
            tied &= mr[i] == self._half[i]
        v = mr.view(np.uint64)
        words = np.zeros((self._width,) + mr.shape[1:], dtype=np.uint64)
        words[0] = v[-1]
        # lazy-bound: each word is below 2^32 before a step and q_i below
        # 2^31, so word * q_i < 2^63; with a digit v_i < 2^31 and a carry
        # in below 2^31 + 1 every lane stays below 2^63 + 2^32 < 2^64.
        # The addend then puts at most 2^32 on a normalised word.
        for i, active, after in self._horner:
            words[:active] *= np.uint64(self.moduli[i])
            words[0] += v[i]
            _carry(words, after)
        words += np.where(above, self._addend[1].reshape(col),
                          self._addend[0].reshape(col))
        _carry(words, self._width)
        # (pair, ...) 64-bit windows: word j low, word j + 1 high (the
        # shift drops the top word's excess, i.e. reduces mod 2^(32W)).
        pairs = words[1:] << _WORD_BITS
        pairs |= words[:-1]
        out = np.take(np.moveaxis(pairs, 0, -1), self._pair, axis=-1)
        out >>= self._offset
        out &= np.uint64(g.base - 1)
        out = out.view(np.int64)
        out -= g.base // 2
        j, o = self._top
        out[..., 0] = pairs[j].view(np.int64) >> o
        return out
