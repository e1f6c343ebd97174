"""Parameter sets for the HEAP reproduction.

Three families of parameters appear in the paper:

* **HEAP parameters** (Section III-C): ``N = 2^13``, ``log Q = 216`` built
  from six 36-bit limbs, an auxiliary prime ``p``, TFHE side with
  ``n_t = 500``, GLWE mask ``h = 1``, gadget degree ``d = 2``.
* **Conventional-bootstrapping parameters** (what FAB and the ASICs use):
  ``N = 2^16``, ``log Q ~ 1728``, 24 limbs of which ~19 are consumed by
  bootstrapping itself.
* **Toy parameters** for functional tests: identical structure at reduced
  ``N`` so the pure-Python implementation runs in milliseconds.

:func:`make_heap_params` constructs the real paper set (used by all size
and traffic audits); :func:`make_toy_params` scales ``N`` down while
keeping every structural knob, so the same code paths execute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ParameterError
from .math.modular import find_ntt_primes
from .math.rns import RnsBasis


@dataclass(frozen=True)
class CkksParams:
    """Static CKKS parameters (paper Table I notation)."""

    n: int                 # ring dimension N
    moduli: List[int]      # RNS limb primes q_0..q_{L-1}, q_0 is the base limb
    special_moduli: List[int]  # auxiliary primes p (hybrid keyswitch / bootstrap)
    scale_bits: int        # log2(Delta)
    error_std: float = 3.2

    def __post_init__(self) -> None:
        if self.n & (self.n - 1):
            raise ParameterError("N must be a power of two")
        if not self.moduli:
            raise ParameterError("need at least one limb")

    @property
    def levels(self) -> int:
        """L - 1: number of Rescale-consuming multiplications supported."""
        return len(self.moduli) - 1

    @property
    def max_limbs(self) -> int:
        return len(self.moduli)

    @property
    def slots(self) -> int:
        return self.n // 2

    @property
    def scale(self) -> float:
        return float(2 ** self.scale_bits)

    @property
    def log_q_total(self) -> int:
        total = 1
        for q in self.moduli:
            total *= q
        return total.bit_length()

    def basis(self, level: Optional[int] = None) -> RnsBasis:
        """Basis for a ciphertext with ``level + 1`` limbs (default: all)."""
        count = self.max_limbs if level is None else level + 1
        if not 1 <= count <= self.max_limbs:
            raise ParameterError(f"invalid limb count {count}")
        return RnsBasis(self.moduli[:count])

    def special_basis(self) -> RnsBasis:
        if not self.special_moduli:
            raise ParameterError("parameter set has no special primes")
        return RnsBasis(self.special_moduli)

    def ciphertext_bytes(self, limbs: Optional[int] = None) -> int:
        """Size of an RLWE ciphertext: 2 ring elements, ``limbs`` limbs.

        Uses the paper's accounting ``2 * logQ * N / 8`` bytes.
        """
        count = self.max_limbs if limbs is None else limbs
        bits_per_limb = max(q.bit_length() for q in self.moduli[:count])
        return 2 * count * bits_per_limb * self.n // 8


@dataclass(frozen=True)
class TfheParams:
    """TFHE-side parameters (paper Sections II-B and III-C)."""

    n_t: int           # LWE mask length (paper: 500)
    n: int             # accumulator ring dimension (paper: 2^13, shared with CKKS)
    q: int             # single-limb modulus the blind rotation runs over
    aux_prime: int     # auxiliary prime p for the raised basis Qp
    glwe_mask: int = 1     # h
    decomp_digits: int = 2  # d
    decomp_base_bits: int = 12
    error_std: float = 3.2

    def __post_init__(self) -> None:
        if self.n & (self.n - 1):
            raise ParameterError("N must be a power of two")

    @property
    def lwe_ciphertext_bytes(self) -> int:
        """(n_t + 1) residues of log q bits (paper: ~2.3 KB)."""
        return (self.n_t + 1) * self.q.bit_length() // 8

    @property
    def rgsw_matrix_shape(self) -> Tuple[int, int]:
        """(h+1)*d rows x (h+1) cols of degree N-1 polynomials."""
        return ((self.glwe_mask + 1) * self.decomp_digits, self.glwe_mask + 1)

    def rgsw_ciphertext_bytes(self) -> int:
        rows, cols = self.rgsw_matrix_shape
        return rows * cols * self.n * self.q.bit_length() // 8

    def blind_rotate_key_bytes(self) -> int:
        """Total brk size: n_t keys, each holding RGSW(s+) and RGSW(s-)."""
        return self.n_t * 2 * self.rgsw_ciphertext_bytes()


@dataclass(frozen=True)
class HeapParams:
    """The full hybrid parameter set: CKKS side + TFHE side."""

    ckks: CkksParams
    tfhe: TfheParams
    name: str = "heap"

    @property
    def n(self) -> int:
        return self.ckks.n


def make_heap_params() -> HeapParams:
    """The paper's production parameter set (Section III-C).

    ``N = 2^13``, six 36-bit limbs (log Q = 216), one auxiliary 36-bit
    prime, ``n_t = 500``, ``d = 2``, ``h = 1``.  Constructing this set is
    cheap (prime search only); *running* the crypto at this size in pure
    Python is possible but slow, so functional tests use
    :func:`make_toy_params`.
    """
    n = 1 << 13
    primes = find_ntt_primes(36, n, 9)
    # The paper quotes one auxiliary prime p; the functional hybrid key
    # switch with dnum=2 over 6 limbs needs P >= Q_j (3 limbs), so the
    # constructed set carries 3 special primes.  Size audits that follow
    # the paper's accounting use only the first (see switching.keys).
    return HeapParams(
        ckks=CkksParams(n=n, moduli=primes[:6], special_moduli=primes[6:9], scale_bits=35),
        tfhe=TfheParams(n_t=500, n=n, q=primes[0], aux_prime=primes[6]),
        name="heap-N13-logQ216",
    )


def make_conventional_params() -> CkksParams:
    """FAB-style conventional bootstrappable set: ``N = 2^16``, 24 limbs.

    Only used for size/traffic audits and the baseline cost models; never
    executed functionally in Python.
    """
    n = 1 << 16
    primes = find_ntt_primes(54, n, 25)
    return CkksParams(n=n, moduli=primes[:24], special_moduli=[primes[24]], scale_bits=50)


def make_toy_params(
    n: int = 1 << 6,
    limbs: int = 4,
    limb_bits: int = 28,
    n_t: int = 32,
    scale_bits: int = 26,
    decomp_base_bits: int = 9,
    decomp_digits: int = 3,
    special_limbs: int = 2,
) -> HeapParams:
    """Structurally faithful scaled-down parameters for functional tests.

    Defaults give millisecond-scale operations; raise ``n``/``n_t`` to
    approach the paper set.  TFHE's modulus is the CKKS base limb, and the
    auxiliary prime matches the first CKKS special prime, exactly as in
    the paper's Algorithm 2 where the blind rotation output lives in
    ``R_{Qp}``.

    ``special_limbs`` sizes the hybrid-keyswitch modulus ``P``; noise
    control needs ``P`` at least as large as the biggest digit group,
    i.e. ``special_limbs >= ceil(limbs / dnum)``.
    """
    primes = find_ntt_primes(limb_bits, n, limbs + special_limbs)
    ckks = CkksParams(
        n=n,
        moduli=primes[:limbs],
        special_moduli=primes[limbs: limbs + special_limbs],
        scale_bits=scale_bits,
    )
    tfhe = TfheParams(
        n_t=n_t,
        n=n,
        q=primes[0],
        aux_prime=primes[limbs],
        decomp_base_bits=decomp_base_bits,
        decomp_digits=decomp_digits,
    )
    return HeapParams(ckks=ckks, tfhe=tfhe, name=f"toy-N{n}")


def make_keyswitched_toy_params(n: int = 16, limbs: int = 3,
                                limb_bits: int = 30, scale_bits: int = 23,
                                special_limbs: int = 2) -> CkksParams:
    """Toy CKKS parameters whose first special prime satisfies
    ``p = 1 (mod 2 N^2)`` so the n_t-dimension bootstrap's final division
    by ``2 N^2`` is exact (``SwitchingKeySet.generate(..., n_t=)``)."""
    primes = find_ntt_primes(limb_bits, n, limbs)
    # The switching prime needs the stronger congruence (a prime = 1 mod
    # 2N^2 is automatically NTT-friendly for the ring); skip collisions
    # with the limb chain.
    skip = 0
    while True:
        strong = find_ntt_primes(limb_bits, n * n, 1, skip=skip)
        if strong[0] not in primes:
            break
        skip += 1
    ordinary = [p for p in
                find_ntt_primes(limb_bits, n, limbs + special_limbs + 2)
                if p not in primes and p != strong[0]][: special_limbs - 1]
    return CkksParams(n=n, moduli=primes,
                      special_moduli=strong + ordinary, scale_bits=scale_bits)
