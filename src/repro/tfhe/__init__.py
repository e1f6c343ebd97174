"""The TFHE scheme: LWE/GLWE/RGSW, BlindRotate, Extract, repack, gates."""

from .batch_engine import BatchBlindRotateEngine
from .blind_rotate import (
    BlindRotateKey,
    MonomialCache,
    blind_rotate,
    blind_rotate_batch,
    build_test_vector,
    get_monomial_cache,
    get_rgsw_one,
)
from .extract import (
    RnsLweCiphertext,
    embed_lwe,
    extract_lwe,
    extract_rns_lwe,
    rlwe_secret_as_lwe_key,
)
from .gates import TfheKeySet, TfheScheme
from .glwe import GlweCiphertext, GlweSecretKey, glwe_decrypt_coeffs, glwe_encrypt, glwe_phase
from .keyswitch import AutomorphismKeySet, GlweKeySwitchKey, glwe_keyswitch
from .lwe import (
    LweCiphertext,
    LweKeySwitchKey,
    LweSecretKey,
    lwe_decrypt,
    lwe_encrypt,
    lwe_keyswitch,
    lwe_phase,
    modulus_switch,
)
from .repack import repack_exponents
from .repack_engine import repack, repack_with_counters
from .rgsw import (
    RgswCiphertext,
    cmux,
    external_product,
    internal_product,
    rgsw_encrypt,
    rgsw_trivial,
)

__all__ = [
    "BatchBlindRotateEngine",
    "BlindRotateKey",
    "MonomialCache",
    "blind_rotate",
    "blind_rotate_batch",
    "build_test_vector",
    "get_monomial_cache",
    "get_rgsw_one",
    "RnsLweCiphertext",
    "embed_lwe",
    "extract_lwe",
    "extract_rns_lwe",
    "rlwe_secret_as_lwe_key",
    "TfheKeySet",
    "TfheScheme",
    "GlweCiphertext",
    "GlweSecretKey",
    "glwe_decrypt_coeffs",
    "glwe_encrypt",
    "glwe_phase",
    "AutomorphismKeySet",
    "GlweKeySwitchKey",
    "glwe_keyswitch",
    "LweCiphertext",
    "LweKeySwitchKey",
    "LweSecretKey",
    "lwe_decrypt",
    "lwe_encrypt",
    "lwe_keyswitch",
    "lwe_phase",
    "modulus_switch",
    "repack",
    "repack_exponents",
    "repack_with_counters",
    "RgswCiphertext",
    "cmux",
    "external_product",
    "internal_product",
    "rgsw_encrypt",
    "rgsw_trivial",
]
