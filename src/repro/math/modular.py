"""Vectorised modular arithmetic over word-sized prime moduli.

This module is the lowest layer of the stack: everything above it (NTT,
ring arithmetic, RNS, both FHE schemes) reduces to the operations here.

Two execution paths are provided, mirroring the paper's discussion of
modular-arithmetic circuit design (Section IV-A):

* a *fast path* for moduli below 2**31 where products of two residues fit
  into ``int64`` and all operations are plain vectorised numpy, and
* a *wide path* for larger moduli (the paper uses 36-bit limbs) using
  numpy ``object`` arrays of Python integers.  This path is slow but
  exact, and lets tests exercise the paper's exact 36-bit parameter set.

Barrett reduction is implemented explicitly (``barrett_reduce``) both as
documentation of what the hardware does and so the unit tests can check
it against the plain ``%`` operator; the hot vectorised path simply uses
numpy's remainder, which is what a software reproduction should do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from ..errors import ParameterError

#: Moduli strictly below this bound use the fast int64 path.
_FAST_MODULUS_BOUND = 1 << 31

#: Largest value an unsigned 64-bit lane can hold.
_U64_MAX = (1 << 64) - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit-ish integers.

    The witness set is sufficient for all ``n < 3.3 * 10**24`` which covers
    every modulus this library will ever construct.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_ntt_primes(bits: int, n: int, count: int, skip: int = 0) -> List[int]:
    """Return ``count`` primes of roughly ``bits`` bits with ``p = 1 (mod 2n)``.

    Such primes admit a primitive ``2n``-th root of unity, which the
    negacyclic NTT over ``Z[X]/(X^n + 1)`` requires.  Primes are returned
    in decreasing order starting just below ``2**bits``; ``skip`` skips the
    first few hits (used to build disjoint bases, e.g. the special prime).
    """
    if n & (n - 1):
        raise ParameterError(f"ring dimension must be a power of two, got {n}")
    step = 2 * n
    top = 1 << bits
    candidate = top - (top - 1) % step  # largest value < 2**bits with = 1 (mod 2n)
    if candidate >= top:
        candidate -= step
    primes: List[int] = []
    skipped = 0
    while len(primes) < count:
        if candidate < step:
            raise ParameterError(
                f"ran out of {bits}-bit NTT primes for n={n} (need {count})"
            )
        if is_prime(candidate):
            if skipped < skip:
                skipped += 1
            else:
                primes.append(candidate)
        candidate -= step
    return primes


def primitive_root(q: int) -> int:
    """Smallest generator of the multiplicative group of ``Z_q`` (q prime)."""
    if not is_prime(q):
        raise ParameterError(f"{q} is not prime")
    order = q - 1
    factors = _factorize(order)
    for g in range(2, q):
        if all(pow(g, order // f, q) != 1 for f in factors):
            return g
    raise ParameterError(f"no primitive root found for {q}")  # pragma: no cover


def root_of_unity(q: int, order: int) -> int:
    """A primitive ``order``-th root of unity modulo prime ``q``."""
    if (q - 1) % order:
        raise ParameterError(f"{order} does not divide q-1 for q={q}")
    g = primitive_root(q)
    root = pow(g, (q - 1) // order, q)
    # pow of a generator always has exact order ``order`` here, but verify:
    if pow(root, order // 2, q) == 1:  # pragma: no cover - safety net
        raise ParameterError("root does not have the requested order")
    return root


def _factorize(n: int) -> List[int]:
    """Distinct prime factors of ``n`` by trial division (n is ~64 bits)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def barrett_precompute(q: int, k: Optional[int] = None) -> "BarrettConstant":
    """Precompute the Barrett constant ``mu = floor(4**k / q)``.

    ``k`` defaults to ``q.bit_length()`` so that ``mu`` fits in ``2k`` bits,
    matching the classic Barrett formulation the paper's modular multiplier
    implements in DSP blocks.
    """
    if k is None:
        k = q.bit_length()
    return BarrettConstant(q=q, k=k, mu=(1 << (2 * k)) // q)


@dataclass(frozen=True)
class BarrettConstant:
    """Constants for Barrett reduction modulo ``q``."""

    q: int
    k: int
    mu: int

    def reduce(self, x: int) -> int:
        """Barrett-reduce ``0 <= x < q**2`` to ``x mod q``.

        This is the scalar reference used by tests; the vectorised code
        paths use numpy remainder which is numerically identical.
        """
        t = (x * self.mu) >> (2 * self.k)
        r = x - t * self.q
        if r >= self.q:
            r -= self.q
        if r >= self.q:  # pragma: no cover - Barrett error is at most one q
            r -= self.q
        return r


class ModulusEngine:
    """Vectorised arithmetic in ``Z_q`` choosing a fast or exact path.

    Arrays handled by an engine are numpy arrays of dtype ``int64`` (fast
    path) or ``object`` (wide path); the dtype is exposed as
    :attr:`dtype` so callers can allocate compatible buffers.
    """

    def __init__(self, q: int):
        if q < 2:
            raise ParameterError(f"modulus must be >= 2, got {q}")
        self.q = q
        self.fast = q < _FAST_MODULUS_BOUND
        self.dtype = np.int64 if self.fast else object
        self.barrett = barrett_precompute(q)

    # -- array construction -------------------------------------------------

    def asarray(self, values: Iterable[int]) -> np.ndarray:
        """Coerce ``values`` into this engine's canonical residue array.

        Inputs may be arbitrarily large (or negative) Python ints, e.g.
        CRT-composed coefficients, so reduction happens in object space
        before any narrowing cast.
        """
        arr = np.asarray(values)
        if arr.dtype == object or arr.dtype.kind not in "iu":
            arr = np.mod(np.asarray(arr, dtype=object), self.q)
            return arr.astype(np.int64) if self.fast else arr
        return self.reduce(arr.astype(self.dtype) if self.fast else arr.astype(object))

    def power_table(self, base: int, count: int) -> np.ndarray:
        """Successive powers ``base**j mod q`` for ``j in [0, count)``.

        Computed with exact Python-int arithmetic and returned as this
        engine's canonical residue array, so table construction never
        materialises an object-dtype ndarray on the fast path (the NTT
        twiddle/twist tables are built through here).
        """
        b = int(base) % self.q
        powers: List[int] = []
        cur = 1
        for _ in range(count):
            powers.append(cur)
            cur = cur * b % self.q
        return self.asarray(powers)

    def zeros(self, shape) -> np.ndarray:
        if self.fast:
            return np.zeros(shape, dtype=np.int64)
        out = np.empty(shape, dtype=object)
        out[...] = 0
        return out

    # -- core ops ------------------------------------------------------------

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """Reduce arbitrary integers into ``[0, q)``."""
        return np.mod(a, self.q)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(a + b) mod q`` using the hardware's conditional-subtract trick."""
        s = a + b
        return np.where(s >= self.q, s - self.q, s)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = a - b
        return np.where(d < 0, d + self.q, d)

    def neg(self, a: np.ndarray) -> np.ndarray:
        return np.where(a == 0, a, self.q - a)

    def mul(self, a: np.ndarray, b) -> np.ndarray:
        """Element-wise ``(a * b) mod q``; ``b`` may be an array or scalar."""
        if self.fast:
            return (a * b) % self.q
        return np.mod(a * b, self.q)

    def mac(self, acc: np.ndarray, a: np.ndarray, b) -> np.ndarray:
        """Fused multiply-accumulate ``(acc + a*b) mod q``.

        Mirrors the external-product MAC units (Section IV-A): the lazy
        reduction there corresponds to reducing once after the fused op.
        """
        return np.mod(acc + a * b, self.q)

    def pow(self, base: int, exp: int) -> int:
        return pow(int(base), int(exp), self.q)

    def pow_vec(self, base: np.ndarray, exp: int) -> np.ndarray:
        """Element-wise ``base**exp mod q`` by square-and-multiply.

        Used to build evaluation-domain monomials ``X^a`` from the cached
        transform of ``X`` without a full NTT (the software analogue of the
        rotation unit's shift trick).
        """
        exp = int(exp)
        if exp < 0:
            raise ParameterError("negative exponents are not supported here")
        result = self.zeros(base.shape) + 1
        acc = base
        while exp:
            if exp & 1:
                result = self.mul(result, acc)
            exp >>= 1
            if exp:
                acc = self.mul(acc, acc)
        return result

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat (q prime for all our moduli)."""
        a = int(a) % self.q
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.q - 2, self.q)

    # -- signed (centred) representatives -------------------------------------

    def centered(self, a: np.ndarray) -> np.ndarray:
        """Map residues in ``[0, q)`` to centred representatives in
        ``(-q/2, q/2]`` — used when interpreting noise and when switching
        between moduli."""
        half = self.q // 2
        if self.fast:
            return np.where(a > half, a - self.q, a).astype(np.int64)
        return np.where(a > half, a - self.q, a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModulusEngine(q={self.q}, fast={self.fast})"


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


def mac_rows(q: int) -> int:
    """Products of canonical residues mod ``q`` one uint64 lane can sum
    on top of a reduced running sum: the largest ``r`` with
    ``r * (q - 1)**2 + (q - 1) <= 2**64 - 1`` (at least 4 for every fast
    modulus, 16 for 30-bit primes, 256 for 28-bit ones)."""
    return (_U64_MAX - (q - 1)) // (q - 1) ** 2


def reduce_mod(x: np.ndarray, q: int) -> np.ndarray:
    """``x mod q`` for non-negative ``x`` below ``2**64``.

    An int64 lane is reduced in place through :func:`fast_mod_u64`; an
    object lane takes one ``np.mod``.
    """
    if x.dtype == object:
        return np.mod(x, q)
    xu = x.view(np.uint64)
    fast_mod_u64(xu, np.uint64(q), xu, np.empty_like(xu))
    return x


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int,
               div: Optional[np.ndarray] = None) -> np.ndarray:
    """``(a @ b) mod q`` for canonical residues: the lazily-reduced MAC.

    ``a`` is ``(..., M, K)`` and ``b`` ``(..., K, P)``, broadcasting as
    ``np.matmul``.  On int64 lanes (fast moduli) the contracted axis runs
    in chunks of :func:`mac_rows` rows: each chunk is one uint64
    ``matmul``, plus the reduced running sum, then one
    :func:`fast_mod_u64` — the software analogue of the external-product
    MAC units reducing once per accumulator drain (Section IV-A).
    ``div`` is a uint64 workspace of the output's shape (allocated when
    omitted).  On object lanes (wide moduli) it is one exact ``matmul``
    and one ``np.mod``.  Returns canonical residues in the input dtype.
    """
    if a.dtype == object or b.dtype == object:
        return np.mod(np.matmul(a, b), q)
    # lazy-bound: mac_rows(q) * (q - 1)^2 + (q - 1) <= 2^64 - 1, so a
    # chunk of r products plus the running sum (< q) cannot wrap.
    r = mac_rows(q)
    qu = np.uint64(q)
    au, bu = a.view(np.uint64), b.view(np.uint64)
    acc = np.matmul(au[..., :r], bu[..., :r, :])
    if div is None:
        div = np.empty_like(acc)
    fast_mod_u64(acc, qu, acc, div)
    for lo in range(r, au.shape[-1], r):
        np.matmul(au[..., lo:lo + r], bu[..., lo:lo + r, :], out=div)
        div += acc
        fast_mod_u64(div, qu, acc)
    return acc.view(np.int64)


def crt_compose(residues: np.ndarray, moduli: List[int]) -> np.ndarray:
    """Compose RNS residues (shape ``(L, ...)``) into big integers mod prod(q_i).

    Returns an object-dtype array of Python ints in ``[0, Q)``.
    """
    big_q = 1
    for q in moduli:
        big_q *= q
    result = np.zeros(residues.shape[1:], dtype=object)
    for i, q in enumerate(moduli):
        qi_star = big_q // q
        qi_tilde = pow(qi_star % q, q - 2, q)  # (Q/qi)^-1 mod qi
        term = residues[i].astype(object) * (qi_star * qi_tilde)
        result = (result + term) % big_q
    return result


def crt_decompose(values: np.ndarray, moduli: List[int]) -> np.ndarray:
    """Decompose integers into RNS residues, shape ``(L,) + values.shape``."""
    values = np.asarray(values, dtype=object)
    out = np.empty((len(moduli),) + values.shape, dtype=object)
    for i, q in enumerate(moduli):
        out[i] = np.mod(values, q)
    return out
