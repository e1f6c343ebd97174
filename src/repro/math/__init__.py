"""Mathematical substrate: modular arithmetic, NTT, rings, RNS, sampling."""

from .gadget import GadgetVector, exact_digits
from .modular import (
    BarrettConstant,
    ModulusEngine,
    barrett_precompute,
    crt_compose,
    crt_decompose,
    find_ntt_primes,
    is_prime,
    primitive_root,
    root_of_unity,
)
from .ntt import NttEngine, get_ntt_engine
from .poly import RingPoly
from .rns import RnsBasis, RnsPoly, basis_convert, concat_bases
from .sampling import Sampler, DEFAULT_ERROR_STD

__all__ = [
    "BarrettConstant",
    "ModulusEngine",
    "barrett_precompute",
    "crt_compose",
    "crt_decompose",
    "find_ntt_primes",
    "is_prime",
    "primitive_root",
    "root_of_unity",
    "NttEngine",
    "get_ntt_engine",
    "RingPoly",
    "RnsBasis",
    "RnsPoly",
    "basis_convert",
    "concat_bases",
    "GadgetVector",
    "exact_digits",
    "Sampler",
    "DEFAULT_ERROR_STD",
]
