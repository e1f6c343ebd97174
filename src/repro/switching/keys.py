"""Key material for the scheme-switching bootstrap.

One :class:`SwitchingKeySet` holds everything Algorithm 2 needs:

* **blind-rotate keys** ``brk = {RGSW(s_i^+), RGSW(s_i^-)}`` — RGSW
  encryptions (over the raised basis ``Q * p``) of the indicator digits of
  the *CKKS* secret, under that same secret viewed as a GLWE key.  The
  accumulator key equals the CKKS key so that the blind-rotate output can
  be added directly to the raised ciphertext in step 4 of Algorithm 2.
* **repacking keys** — automorphism key-switch keys for the ``log2 N``
  exponents used by the LWE-to-RLWE repack.

Size audit helpers implement the paper's Section III-C accounting and are
exercised by the key-size benchmark (0.44 MB ciphertext, ~3.52 MB per
brk entry, 1.76 GB total, ~18x less key traffic than conventional
bootstrapping).

Note on dimensions: Algorithm 2 as printed blind-rotates the extracted
dimension-``N`` LWE ciphertexts directly (there is no key-switch step in
the listing), and that is what :meth:`SwitchingKeySet.generate` builds by
default.  The paper's key-size story rests on key-switching them down to
``n_t = 500`` first, so its brk has 500 entries: ``generate(..., n_t=)``
builds that key set — the LWE key-switch key to a fresh dimension-``n_t``
secret ``s_t``, the brk over ``s_t``'s digits, and the companion repack
and ring key-switch keys under the padded ``s_t(X)`` — and the one
pipeline (:mod:`repro.switching.pipeline`) reads the dimension off the
key set.  :class:`KeySizeAudit` sizes the paper-scale keys.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..ckks.context import CkksContext
from ..ckks.keys import SecretKey
from ..errors import ParameterError
from ..io import SeededKeyMaterial
from ..math.gadget import GadgetVector
from ..math.rns import RnsBasis, RnsPoly, concat_bases
from ..math.sampling import Sampler, mask_stream
from ..params import TfheParams
from ..tfhe.blind_rotate import BlindRotateKey
from ..tfhe.glwe import GlweCiphertext, GlweSecretKey
from ..tfhe.keyswitch import (AutomorphismKeySet, GlweKeySwitchKey,
                              expand_glwe_keyswitch_key)
from ..tfhe.lwe import LweKeySwitchKey, LweSecretKey
from ..tfhe.repack import repack_exponents
from ..tfhe.rgsw import expand_rgsw, rgsw_bodies
from .luts import LutRegistry


def rns_poly_bytes(poly: RnsPoly) -> int:
    """Resident bytes of one RNS polynomial: ``nbytes`` of each machine-
    dtype limb; wide (``object``-dtype) limbs priced at the paper's
    §III-C coefficient width of ``ceil(log2 q_i / 8)`` bytes per slot."""
    total = 0
    for q, limb in zip(poly.basis.moduli, poly.limbs):
        arr = np.asarray(limb)
        if arr.dtype == object:
            total += arr.size * ((int(q).bit_length() + 7) // 8)
        else:
            total += arr.nbytes
    return total


def glwe_rows_bytes(rows: Iterable[GlweCiphertext]) -> int:
    """Resident bytes of every polynomial in a run of GLWE rows (one
    key-switch key, or one component of an RGSW matrix)."""
    return sum(rns_poly_bytes(p) for ct in rows
               for p in list(ct.mask) + [ct.body])


def brk_bytes(brk: BlindRotateKey) -> int:
    """Resident bytes of a blind-rotate key's RGSW entries."""
    return sum(glwe_rows_bytes(comp)
               for rgsw in list(brk.plus) + list(brk.minus)
               for comp in rgsw.rows)


def lwe_ksk_bytes(ksk: LweKeySwitchKey) -> int:
    """Resident bytes of an LWE key-switch key: ``N * d`` ciphertexts of
    ``n_t + 1`` coefficients each, wide coefficients priced as in
    :func:`rns_poly_bytes`."""
    total = 0
    for row in ksk.rows:
        for ct in row:
            a = np.asarray(ct.a)
            width = (int(ct.q).bit_length() + 7) // 8 \
                if a.dtype == object else a.itemsize
            total += (a.size + 1) * width
    return total


#: Digit width of the LWE key-switch gadget (dimension ``N`` -> ``n_t``).
LWE_KS_BASE_BITS = 7


def stack_brk_bodies(brk: BlindRotateKey, basis: RnsBasis) -> List[np.ndarray]:
    """The seed+``b`` form's stored half of a seeded blind-rotate key:
    one fixed-width evaluation-domain array per limb, shape
    ``(n_t, 2, (h+1)d, N)`` (axis 1 = brk+ / brk−, row ``r = c*d + k``)."""
    n = brk.plus[0].n
    rows = (brk.h + 1) * brk.gadget.digits
    bodies = [np.empty((brk.n_t, 2, rows, n), dtype=np.int64)
              for _ in basis.moduli]
    for i in range(brk.n_t):
        for pm, rgsw in ((0, brk.plus[i]), (1, brk.minus[i])):
            for r, body in enumerate(rgsw_bodies(rgsw)):
                for li, limb in enumerate(body.to_eval().limbs):
                    arr = np.asarray(limb)
                    if arr.dtype == object:
                        raise ParameterError(
                            "wide-modulus limbs cannot compress to "
                            "fixed-width seeded material")
                    bodies[li][i, pm, r] = arr
    return bodies


def _keygen_setup(ctx: CkksContext, sk: SecretKey, base_bits: int
                  ) -> Tuple[RnsBasis, GadgetVector, GlweSecretKey,
                             LweSecretKey]:
    """What eager and seeded generation share: the raised basis
    ``Q * p``, the gadget over it, and the CKKS secret viewed as the
    GLWE accumulator key and as the LWE key whose digits brk encrypts."""
    raised = concat_bases(ctx.full_basis, RnsBasis([ctx.special_basis.moduli[0]]))
    total_bits = raised.product.bit_length()
    # Floor division: the couple of uncovered low-order bits only add
    # +-2^(bits mod base) of rounding noise, far below the error term.
    digits = max(1, total_bits // base_bits)
    gadget = GadgetVector(q=raised.product, base_bits=base_bits, digits=digits)
    glwe_sk = GlweSecretKey(coeffs=[np.asarray(sk.coeffs, dtype=object)], n=ctx.n)
    lwe_view = LweSecretKey(coeffs=np.asarray(sk.coeffs, dtype=object))
    return raised, gadget, glwe_sk, lwe_view


@dataclass
class SwitchingKeySet:
    """Blind-rotate + repacking keys over the raised basis ``Q * p``."""

    brk: BlindRotateKey
    auto_keys: AutomorphismKeySet
    raised_basis: RnsBasis
    gadget: GadgetVector
    #: Kept for tests/debug decryption only; ``None`` for key sets
    #: expanded from seed+``b`` material (the secret never travels).
    glwe_sk_ref: Optional[GlweSecretKey] = None
    #: Master key seed when generated seeded; ``None`` for eager keys.
    key_seed: Optional[int] = field(default=None, repr=False, compare=False)
    #: The per-key-set LUT registry: caches the Algorithm-2 test vector
    #: *and* every programmable LUT built against this key set, shared
    #: by every execution path — local pipeline, simulated cluster
    #: nodes, and the process pool's shared-memory publisher.  Built in
    #: ``__post_init__``.
    luts: Optional[LutRegistry] = field(default=None, repr=False,
                                        compare=False)
    #: The three extra keys of an n_t key set (``generate(..., n_t=)``),
    #: ``None`` on a dimension-``N`` set: the LWE key-switch key from the
    #: CKKS secret's coefficients (dim ``N``) to ``s_t`` (dim ``n_t``)
    #: mod ``q``; the repack keys under the padded ring key ``s_t(X)``
    #: for the companion terms; and the one ring key-switch key
    #: ``s_t(X) -> s`` over ``Qp``.  ``brk`` then encrypts ``s_t``'s
    #: digits.  ``s_t`` itself is not kept.
    lwe_ksk: Optional[LweKeySwitchKey] = None
    auto_keys_st: Optional[AutomorphismKeySet] = None
    ring_ksk: Optional[GlweKeySwitchKey] = None

    def __post_init__(self) -> None:
        if self.luts is None:
            self.luts = LutRegistry(self.raised_basis)

    def resident_bytes(self) -> int:
        """Measured bytes of this key set's polynomial material — the
        blind-rotate RGSW entries plus every automorphism key-switch key
        and, on an n_t set, the LWE key-switch key, the companion repack
        keys and the ring key-switch key
        (the quantities §III-C audits by formula; ``bench_keysizes.py``
        checks the formula against the paper, this counts the *actual*
        resident arrays).  The service's LRU key cache charges each user
        this amount (ARK direction: bound the resident key working set).

        Machine-dtype limbs are priced at ``ndarray.nbytes``; wide
        (``object``-dtype) limbs at the §III-C coefficient width
        ``ceil(log2 q / 8)`` bytes per slot, since a Python-int pointer
        array has no meaningful ``nbytes``.
        """
        ring_keys = list(self.auto_keys.keys.values())
        total = brk_bytes(self.brk)
        if self.lwe_ksk is not None:
            total += lwe_ksk_bytes(self.lwe_ksk)
            ring_keys += list(self.auto_keys_st.keys.values())
            ring_keys.append(self.ring_ksk)
        return total + sum(glwe_rows_bytes(ksk.rows) for ksk in ring_keys)

    def test_vector(self, n: int, q: int) -> RnsPoly:
        """The Algorithm-2 blind-rotate LUT over this key set's raised
        basis (``g(t) = q*t``), built once per ``(n, q)`` and reused.
        Folded with ``N^{-1}`` for the repack factor on a dimension-``N``
        set; un-folded on an n_t set, whose Finish divides the factor
        out of accumulators and companions together.  Served by the
        thread-safe :class:`LutRegistry` (the service's batch threads
        race here)."""
        return self.luts.switching_vector(n, q,
                                          fold_n_inv=self.lwe_ksk is None)

    @classmethod
    def generate(cls, ctx: CkksContext, sk: SecretKey,
                 sampler: Optional[Sampler] = None,
                 base_bits: int = 6,
                 error_std: float = 1.0,
                 n_t: Optional[int] = None) -> "SwitchingKeySet":
        """Generate switching keys for a CKKS context and secret.

        ``base_bits`` sizes the gadget used by both the external products
        of BlindRotate and the repacking key switches; smaller digits mean
        lower noise but more work per external product (the paper's
        ``d = 2`` corresponds to a very coarse digit over its 252-bit
        raised modulus).

        With ``n_t`` the blind rotation runs at dimension ``n_t`` instead
        of ``N`` (the paper's 500-entry brk): a fresh ternary ``s_t`` is
        drawn, brk encrypts *its* digits, and the key set gains
        ``lwe_ksk`` / ``auto_keys_st`` / ``ring_ksk``.  Needs a switching
        prime ``p = 1 (mod 2N^2)``
        (:func:`~repro.params.make_keyswitched_toy_params`).
        """
        sampler = sampler or Sampler()
        n = ctx.n
        raised, gadget, glwe_sk, brk_secret = _keygen_setup(ctx, sk, base_bits)
        lwe_ksk = auto_keys_st = ring_ksk = None
        if n_t is not None:
            if n_t > n:
                raise ParameterError("n_t cannot exceed the ring dimension")
            if (raised.moduli[-1] - 1) % (2 * n * n):
                raise ParameterError(
                    "an n_t key set needs p = 1 (mod 2N^2); build params "
                    "with make_keyswitched_toy_params")
            q = ctx.full_basis.moduli[0]
            s_t = LweSecretKey.generate(n_t, sampler)
            lwe_gadget = GadgetVector(
                q=q, base_bits=LWE_KS_BASE_BITS,
                digits=max(1, (q.bit_length() - 1) // LWE_KS_BASE_BITS))
            lwe_ksk = LweKeySwitchKey.generate(brk_secret, s_t, q, lwe_gadget,
                                               sampler)
            brk_secret = s_t
        brk = BlindRotateKey.generate(brk_secret, glwe_sk, raised, gadget,
                                      sampler, error_std=error_std)
        auto_keys = AutomorphismKeySet.generate(
            glwe_sk, repack_exponents(n), raised, gadget, sampler,
            error_std=error_std)
        if n_t is not None:
            # The companions ``ct'_i`` decrypt under s_t: they are packed
            # in the ring under s_t padded to N coefficients, then moved
            # to s by one ring key switch.
            st_coeffs = np.zeros(n, dtype=object)
            st_coeffs[:n_t] = s_t.coeffs
            auto_keys_st = AutomorphismKeySet.generate(
                GlweSecretKey(coeffs=[st_coeffs], n=n), repack_exponents(n),
                raised, gadget, sampler, error_std)
            ring_ksk = GlweKeySwitchKey.generate(
                st_coeffs, glwe_sk, raised, gadget, sampler, error_std)
        return cls(brk=brk, auto_keys=auto_keys, raised_basis=raised,
                   gadget=gadget, glwe_sk_ref=glwe_sk, lwe_ksk=lwe_ksk,
                   auto_keys_st=auto_keys_st, ring_ksk=ring_ksk)

    @classmethod
    def generate_seeded(cls, ctx: CkksContext, sk: SecretKey, key_seed: int,
                        noise: Optional[Sampler] = None,
                        base_bits: int = 6,
                        error_std: float = 1.0) -> "SwitchingKeySet":
        """Generate the key set with every uniform ``a``-half derived from
        ``key_seed`` (ARK-style seeded schedule).

        Same parameters and structure as :meth:`generate`, but each
        blind-rotate RGSW and each automorphism key-switch key streams
        its masks from a :func:`~repro.math.sampling.derive_seed` child of
        ``key_seed``.  The result supports :meth:`compress` — only bodies
        and seeds at rest, ~``(h+1)``x smaller — and any holder of the
        compressed form re-expands the identical ciphertexts.  Noise is
        drawn from ``noise`` (fresh entropy; never stored or replayed).
        """
        noise = noise or Sampler()
        raised, gadget, glwe_sk, lwe_view = _keygen_setup(ctx, sk, base_bits)
        brk = BlindRotateKey.generate_seeded(lwe_view, glwe_sk, raised, gadget,
                                             key_seed, noise, error_std=error_std)
        auto_keys = AutomorphismKeySet.generate_seeded(
            glwe_sk, repack_exponents(ctx.n), raised, gadget, key_seed, noise,
            error_std=error_std)
        return cls(brk=brk, auto_keys=auto_keys, raised_basis=raised,
                   gadget=gadget, glwe_sk_ref=glwe_sk, key_seed=key_seed)

    def compress(self) -> SeededKeyMaterial:
        """Extract the seed+``b`` at-rest form of a seeded key set.

        Bodies are stacked per limb into fixed-width evaluation-domain
        arrays (``brk_b_<li>`` of shape ``(n_t, 2, (h+1)d, N)``,
        ``auto_b_<li>`` of shape ``(T, d, N)``); the meta carries the
        public parameters plus the per-component mask seeds.  Requires a
        set produced by :meth:`generate_seeded` — eager keys have payload
        material in their masks and cannot be reduced to seeds.
        """
        if self.brk.mask_seeds is None or self.auto_keys.mask_seeds is None:
            raise ParameterError(
                "only seeded key sets compress to seed+b form — "
                "use SwitchingKeySet.generate_seeded")
        basis = self.raised_basis
        n = self.brk.plus[0].n
        h = self.brk.h
        d = self.gadget.digits
        n_t = self.brk.n_t
        exps = sorted(self.auto_keys.keys)
        num_limbs = len(basis.moduli)
        brk_b = stack_brk_bodies(self.brk, basis)
        auto_b = [np.empty((len(exps), d, n), dtype=np.int64) for _ in range(num_limbs)]
        for ti, t in enumerate(exps):
            for k, body in enumerate(self.auto_keys.keys[t].bodies()):
                for li, limb in enumerate(body.to_eval().limbs):
                    auto_b[li][ti, k] = np.asarray(limb)
        bodies = {f"brk_b_{li}": brk_b[li] for li in range(num_limbs)}
        bodies.update({f"auto_b_{li}": auto_b[li] for li in range(num_limbs)})
        meta = {
            "n": n, "h": h, "n_t": n_t,
            "moduli": [int(q) for q in basis.moduli],
            "gadget_base_bits": self.gadget.base_bits,
            "gadget_digits": d,
            "key_seed": self.key_seed,
            "brk_mask_seeds": [[int(p), int(m)] for p, m in self.brk.mask_seeds],
            "auto_exponents": [int(t) for t in exps],
            "auto_mask_seeds": [int(self.auto_keys.mask_seeds[t]) for t in exps],
        }
        return SeededKeyMaterial(kind="switching", meta=meta, bodies=bodies)


# -- seed + b-half expansion (ARK-style streaming keys) ---------------------------


def _material_params(material: SeededKeyMaterial):
    """Decode the public parameters of a ``"switching"`` material."""
    if material.kind != "switching":
        raise ParameterError(
            f"expected 'switching' seeded material, got {material.kind!r}")
    meta = material.meta
    basis = RnsBasis([int(q) for q in meta["moduli"]])  # type: ignore[union-attr]
    gadget = GadgetVector(q=basis.product,
                          base_bits=int(meta["gadget_base_bits"]),  # type: ignore[arg-type]
                          digits=int(meta["gadget_digits"]))  # type: ignore[arg-type]
    return basis, gadget


def _expand_brk_entry(material: SeededKeyMaterial, basis: RnsBasis,
                      gadget: GadgetVector, i: int):
    """Expand blind-rotate entry ``i`` to its ``(plus, minus)`` RGSW pair."""
    meta = material.meta
    n = int(meta["n"])  # type: ignore[arg-type]
    h = int(meta["h"])  # type: ignore[arg-type]
    rows = (h + 1) * gadget.digits
    limbs = [material.bodies[f"brk_b_{li}"] for li in range(len(basis.moduli))]
    seed_p, seed_m = meta["brk_mask_seeds"][i]  # type: ignore[index]
    out = []
    for pm, seed in ((0, seed_p), (1, seed_m)):
        bodies = [RnsPoly(n, basis, [lb[i, pm, r] for lb in limbs], "eval")
                  for r in range(rows)]
        out.append(expand_rgsw(mask_stream(int(seed)), bodies, basis, gadget, h))
    return out[0], out[1]


def _expand_auto_key(material: SeededKeyMaterial, basis: RnsBasis,
                     gadget: GadgetVector, t: int) -> GlweKeySwitchKey:
    """Expand the automorphism key for exponent ``t``."""
    meta = material.meta
    n = int(meta["n"])  # type: ignore[arg-type]
    h = int(meta["h"])  # type: ignore[arg-type]
    exps = [int(x) for x in meta["auto_exponents"]]  # type: ignore[union-attr]
    ti = exps.index(t)
    seed = int(meta["auto_mask_seeds"][ti])  # type: ignore[index]
    limbs = [material.bodies[f"auto_b_{li}"] for li in range(len(basis.moduli))]
    bodies = [RnsPoly(n, basis, [lb[ti, k] for lb in limbs], "eval")
              for k in range(gadget.digits)]
    return expand_glwe_keyswitch_key(mask_stream(seed), bodies, h, basis, gadget)


def _expand_brk(material: SeededKeyMaterial, basis: RnsBasis,
                gadget: GadgetVector) -> BlindRotateKey:
    """Expand every blind-rotate entry; the per-entry mask seeds stay
    attached, so the pool publisher still ships only seeds + bodies."""
    meta = material.meta
    pairs = [_expand_brk_entry(material, basis, gadget, i)
             for i in range(int(meta["n_t"]))]  # type: ignore[arg-type]
    seeds = [(int(p), int(m)) for p, m in meta["brk_mask_seeds"]]  # type: ignore[union-attr]
    return BlindRotateKey(plus=[p for p, _ in pairs],
                          minus=[m for _, m in pairs], gadget=gadget,
                          h=int(meta["h"]), mask_seeds=seeds)  # type: ignore[arg-type]


def expand_switching_keys(material: SeededKeyMaterial) -> SwitchingKeySet:
    """Eagerly expand a compressed key set — bit-identical to the
    :meth:`SwitchingKeySet.generate_seeded` output it was compressed
    from (``glwe_sk_ref`` excepted: the secret is not in the material)."""
    basis, gadget = _material_params(material)
    meta = material.meta
    brk = _expand_brk(material, basis, gadget)
    exps = [int(t) for t in meta["auto_exponents"]]  # type: ignore[union-attr]
    auto = AutomorphismKeySet(
        keys={t: _expand_auto_key(material, basis, gadget, t) for t in exps},
        mask_seeds={t: int(s) for t, s in
                    zip(exps, meta["auto_mask_seeds"])})  # type: ignore[arg-type]
    return SwitchingKeySet(brk=brk, auto_keys=auto, raised_basis=basis,
                           gadget=gadget, glwe_sk_ref=None,
                           key_seed=meta.get("key_seed"))  # type: ignore[arg-type]


class _LazyAutoKeyDict(Mapping):
    """Per-exponent expand-on-access mapping backing a streaming
    :class:`~repro.tfhe.keyswitch.AutomorphismKeySet`.

    ``keys.keys[t]`` (and therefore ``key_for(t)``) materialises exactly
    the exponent the repack path touches; iteration walks the known
    exponent list without forcing expansion of the rest.
    """

    def __init__(self, owner: "StreamingSwitchingKeys"):
        self._owner = owner
        self._exponents = [int(t) for t in owner.material.meta["auto_exponents"]]  # type: ignore[union-attr]
        self._expanded: Dict[int, GlweKeySwitchKey] = {}

    def __getitem__(self, t: int) -> GlweKeySwitchKey:
        key = self._expanded.get(t)
        if key is None:
            if t not in self._exponents:
                raise KeyError(t)
            key = self._owner._expand_auto(t)
            self._expanded[t] = key
        return key

    def __iter__(self) -> Iterator[int]:
        return iter(self._exponents)

    def __len__(self) -> int:
        return len(self._exponents)


class StreamingSwitchingKeys:
    """Lazy seed+``b``-resident key provider, duck-typing
    :class:`SwitchingKeySet` for the pipeline and executors.

    Holds only the compressed :class:`~repro.io.SeededKeyMaterial` until
    an execution path touches a component:

    * ``.brk`` expands every blind-rotate entry on first access (blind
      rotation walks all ``n_t`` of them) and keeps the per-entry mask
      seeds attached, so the process-pool publisher still ships only
      seeds + bodies;
    * ``.auto_keys.key_for(t)`` expands one automorphism key per
      exponent on demand — a workload that never repacks never pays for
      them;
    * :meth:`drop_expanded` is the second eviction tier: it releases the
      expanded ciphertexts *and* every lifted eval-domain tensor the
      key registry derived from them, returning the entry to seed+``b``
      residency instead of evicting the user outright.

    ``resident_bytes()`` prices the compressed material plus whatever is
    currently expanded (including registry-held derived tensors), so the
    service's byte-accounted LRU sees the true footprint in every state.
    """

    def __init__(self, material: SeededKeyMaterial):
        self.material = material
        basis, gadget = _material_params(material)
        self.raised_basis = basis
        self.gadget = gadget
        self.key_seed = material.meta.get("key_seed")
        self._brk: Optional[BlindRotateKey] = None
        self._brk_bytes = 0
        self._auto_bytes: Dict[int, int] = {}
        self.auto_keys = AutomorphismKeySet(
            keys=_LazyAutoKeyDict(self),  # type: ignore[arg-type]
            mask_seeds={int(t): int(s) for t, s in zip(
                material.meta["auto_exponents"],  # type: ignore[arg-type]
                material.meta["auto_mask_seeds"])})  # type: ignore[arg-type]
        self.luts = LutRegistry(basis)
        self._lock = threading.RLock()
        #: Component expansions performed (brk counts as one per entry).
        self.expansions = 0
        #: drop_expanded() calls that actually freed bytes.
        self.demotions = 0

    # -- SwitchingKeySet surface ------------------------------------------

    @property
    def brk(self) -> BlindRotateKey:
        with self._lock:
            if self._brk is None:
                self._brk = _expand_brk(self.material, self.raised_basis,
                                        self.gadget)
                self.expansions += self._brk.n_t
                self._brk_bytes = brk_bytes(self._brk)
            return self._brk

    def test_vector(self, n: int, q: int) -> RnsPoly:
        """Algorithm-2 LUT over the raised basis (served by the shared
        :class:`LutRegistry`, exactly as on :class:`SwitchingKeySet`)."""
        return self.luts.switching_vector(n, q)

    def resident_bytes(self) -> int:
        with self._lock:
            total = self.material.resident_bytes()
            total += self._brk_bytes + sum(self._auto_bytes.values())
            from ..keyreg import get_key_registry

            reg = get_key_registry()
            if self._brk is not None:
                total += reg.owner_bytes(self._brk)
            total += reg.owner_bytes(self.auto_keys)
            return total

    # -- streaming-specific surface ----------------------------------------

    def _expand_auto(self, t: int) -> GlweKeySwitchKey:
        with self._lock:
            key = _expand_auto_key(self.material, self.raised_basis,
                                   self.gadget, t)
            self.expansions += 1
            self._auto_bytes[t] = glwe_rows_bytes(key.rows)
            return key

    def drop_expanded(self) -> int:
        """Second eviction tier: fall back to seed+``b`` residency.

        Releases the expanded blind-rotate and automorphism ciphertexts,
        plus every derived eval-domain tensor the key registry holds for
        them (lifted blind-rotate stacks, per-exponent repack tensors).
        Returns the bytes freed; a later access re-expands bit-identical
        material from the seeds.
        """
        from ..keyreg import get_key_registry

        with self._lock:
            reg = get_key_registry()
            freed = self._brk_bytes + sum(self._auto_bytes.values())
            if self._brk is not None:
                freed += reg.drop_owner(self._brk)
            freed += reg.drop_owner(self.auto_keys)
            self._brk = None
            self._brk_bytes = 0
            self._auto_bytes.clear()
            lazy = self.auto_keys.keys
            if isinstance(lazy, _LazyAutoKeyDict):
                lazy._expanded.clear()
            if freed:
                self.demotions += 1
            return freed

    def compress(self) -> SeededKeyMaterial:
        return self.material


@dataclass(frozen=True)
class KeySizeAudit:
    """Section III-C size accounting for a parameter set."""

    rlwe_ciphertext_bytes: int
    lwe_ciphertext_bytes: int
    rgsw_key_bytes: int
    total_brk_bytes: int

    @classmethod
    def from_params(cls, params: TfheParams, log_q_total: int) -> "KeySizeAudit":
        """Audit with the paper's own accounting.

        * RLWE ct: ``2 * logQ * N / 8`` bytes (paper: ~0.44 MB).
        * LWE ct: ``(n_t + 1) * log q / 8`` bytes (paper: ~2.3 KB).
        * One brk entry: ``(h+1)d x (h+1)`` polynomials of ``N`` coeffs at
          ``log q`` bits (paper: ~3.52 MB for the pair).
        * Total: ``n_t`` entries (paper: ~1.76 GB).
        """
        n = params.n
        log_q = params.q.bit_length()
        rlwe = 2 * log_q_total * n // 8
        lwe = (params.n_t + 1) * log_q // 8
        rows = (params.glwe_mask + 1) * params.decomp_digits
        cols = params.glwe_mask + 1
        # The paper counts the *pair* {RGSW(s+), RGSW(s-)} as one key, and
        # its 3.52 MB figure implies full-Q (logQ = 216 bit) coefficients
        # for the key polynomials (the blind rotation accumulates in the
        # raised ring R_Qp).
        rgsw_pair = 2 * rows * cols * n * log_q_total // 8
        total = params.n_t * rgsw_pair
        return cls(rlwe_ciphertext_bytes=rlwe, lwe_ciphertext_bytes=lwe,
                   rgsw_key_bytes=rgsw_pair, total_brk_bytes=total)


def conventional_bootstrap_key_bytes(n: int = 1 << 16, log_q: int = 1728,
                                     num_keys: int = 25) -> int:
    """Key traffic of conventional CKKS bootstrapping (paper Section III-C):
    ~126 MB per switching key (at bootstrappable parameters), ~25 keys
    (24 rotation + 1 multiplication) -> ~3.2 GB per pass; the paper's
    "32 GB" figure counts repeated reads across the bootstrap pipeline."""
    per_key = 2 * 2 * log_q * n // 8 * 2  # dnum-digit key: ~4 ring elements at Q*P
    return num_keys * per_key
