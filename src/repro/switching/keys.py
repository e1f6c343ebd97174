"""Key material for the scheme-switching bootstrap.

One :class:`SwitchingKeySet` — the only key-set type — holds everything
Algorithm 2 needs:

* **blind-rotate keys** ``brk = {RGSW(s_i^+), RGSW(s_i^-)}`` — RGSW
  encryptions (over the raised basis ``Q * p``) of the indicator digits of
  the *CKKS* secret, under that same secret viewed as a GLWE key.  The
  accumulator key equals the CKKS key so that the blind-rotate output can
  be added directly to the raised ciphertext in step 4 of Algorithm 2.
* **repacking keys** — automorphism key-switch keys for the ``log2 N``
  exponents used by the LWE-to-RLWE repack.

There is one generator, :meth:`SwitchingKeySet.generate`, and it is
seeded: every uniform mask streams from a child of one ``key_seed``, so
seed + ``b`` *is* the representation (ARK: runtime key generation as the
default, not an option).  Each component then lives in up to three
storage states — seed+``b`` material, expanded ciphertexts, lifted
engine tensors in :mod:`repro.keyreg` — and
:meth:`~SwitchingKeySet.compress` / :meth:`~SwitchingKeySet.
from_material` / :meth:`~SwitchingKeySet.drop_expanded` move between
them bit-identically.

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
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..ckks.context import CkksContext
from ..ckks.keys import SecretKey
from ..errors import ParameterError
from ..io import SeededKeyMaterial
from ..keyreg import get_key_registry
from ..math.gadget import GadgetVector
from ..math.rns import RnsBasis, RnsPoly, concat_bases
from ..math.sampling import Sampler, derive_seed, mask_stream
from ..params import TfheParams
from ..tfhe.blind_rotate import BlindRotateKey
from ..tfhe.glwe import GlweCiphertext, GlweSecretKey
from ..tfhe.keyswitch import (AutomorphismKeySet, GlweKeySwitchKey,
                              expand_glwe_keyswitch_key)
from ..tfhe.lwe import LweKeySwitchKey, LweSecretKey, expand_lwe_keyswitch_key
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
    """The seed+``b`` form's stored half of a blind-rotate key: one
    fixed-width evaluation-domain array per limb, shape
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


def _stack_ksk_bodies(ksks: List[GlweKeySwitchKey]) -> List[np.ndarray]:
    """Stored half of a run of GLWE key-switch keys: one ``(T, d, N)``
    evaluation-domain array per limb."""
    row = ksks[0].rows[0]
    stacks = [np.empty((len(ksks), len(ksks[0].rows), row.n), dtype=np.int64)
              for _ in row.basis.moduli]
    for ti, ksk in enumerate(ksks):
        for k, body in enumerate(ksk.bodies()):
            for li, limb in enumerate(body.to_eval().limbs):
                stacks[li][ti, k] = np.asarray(limb)
    return stacks


def _lwe_gadget(q: int) -> GadgetVector:
    """The LWE key-switch gadget of an n_t key set, fixed by ``q``."""
    return GadgetVector(
        q=q, base_bits=LWE_KS_BASE_BITS,
        digits=max(1, (q.bit_length() - 1) // LWE_KS_BASE_BITS))


def _component_bytes(key) -> int:
    if isinstance(key, BlindRotateKey):
        return brk_bytes(key)
    if isinstance(key, LweKeySwitchKey):
        return lwe_ksk_bytes(key)
    return glwe_rows_bytes(key.rows)


class _LazyKeyDict(Mapping):
    """Per-exponent expand-on-access mapping backing a key set's
    :class:`~repro.tfhe.keyswitch.AutomorphismKeySet`.

    ``keys.keys[t]`` (and therefore ``key_for(t)``) materialises exactly
    the exponent the repack path touches; iteration walks the known
    exponent list without forcing expansion of the rest.
    """

    def __init__(self, exponents: List[int],
                 component: Callable[[int], GlweKeySwitchKey]):
        self._exponents = exponents
        self._component = component

    def __getitem__(self, t: int) -> GlweKeySwitchKey:
        if t not in self._exponents:
            raise KeyError(t)
        return self._component(t)

    def __iter__(self) -> Iterator[int]:
        return iter(self._exponents)

    def __len__(self) -> int:
        return len(self._exponents)


class SwitchingKeySet:
    """Blind-rotate + repacking keys over the raised basis ``Q * p``.

    Every key is made by the one seeded generator, so the representation
    *is* seed + ``b``: a component (``brk``, one automorphism key, and on
    an n_t set ``lwe_ksk`` / one companion automorphism key /
    ``ring_ksk``) lives in up to three storage states —

    * **seed+b** — only the :class:`~repro.io.SeededKeyMaterial`
      (:meth:`compress`, :meth:`from_material`): bodies and seeds at
      rest, ~``(h+1)``x smaller;
    * **expanded** — the RGSW / GLWE / LWE ciphertexts an oracle or an
      engine lift reads; built by :meth:`generate`, or on first access
      from the material (``.brk`` expands every entry — blind rotation
      walks all ``n_t`` of them — while ``.auto_keys.key_for(t)``
      expands one exponent, so a workload that never repacks never pays
      for those keys);
    * **lifted** — the batched engines' eval-domain tensors, held in
      :mod:`repro.keyreg` under the expanded object as owner.

    :meth:`drop_expanded` returns every component to seed+b (the key
    cache's demote tier); a later access re-expands bit-identical
    ciphertexts.  :meth:`resident_bytes` prices all three states, so the
    service's byte-accounted LRU sees the true footprint in each.
    """

    def __init__(self, raised_basis: RnsBasis, gadget: GadgetVector,
                 n: int, n_t: int, exponents: List[int], keyswitched: bool,
                 key_seed: int,
                 material: Optional[SeededKeyMaterial] = None,
                 expanded: Optional[Dict[object, object]] = None,
                 glwe_sk_ref: Optional[GlweSecretKey] = None):
        self.raised_basis = raised_basis
        self.gadget = gadget
        self.n = n
        #: Blind-rotate dimension (``brk.n_t``), readable without
        #: expanding anything.
        self.n_t = n_t
        #: Whether this is an n_t key set: extracted LWEs are key-switched
        #: from dimension ``N`` down to ``n_t`` before blind rotation, and
        #: ``lwe_ksk`` / ``auto_keys_st`` / ``ring_ksk`` exist.
        self.keyswitched = keyswitched
        self.key_seed = key_seed
        #: Kept for tests/debug decryption only; ``None`` on a set built
        #: from material (the secret never travels).
        self.glwe_sk_ref = glwe_sk_ref
        #: The per-key-set LUT registry: caches the Algorithm-2 test vector
        #: *and* every programmable LUT built against this key set, shared
        #: by every execution path — local pipeline, simulated cluster
        #: nodes, and the process pool's shared-memory publisher.
        self.luts = LutRegistry(raised_basis)
        self._exponents = exponents
        self._material = material
        #: component -> (expanded key, its resident bytes); components are
        #: ``"brk"``, ``("auto", t)`` and, on an n_t set, ``"lwe_ksk"``,
        #: ``("auto_st", t)``, ``"ring_ksk"``.
        self._expanded: Dict[object, Tuple[object, int]] = {
            name: (key, _component_bytes(key))
            for name, key in (expanded or {}).items()}
        self._lock = threading.RLock()
        #: Repack keys under the CKKS secret, one per repack exponent.
        self.auto_keys = self._lazy_auto_keys("auto")
        #: n_t set only: repack keys under the padded ring key ``s_t(X)``
        #: for the companion terms.
        self.auto_keys_st = self._lazy_auto_keys("auto_st") \
            if keyswitched else None
        #: Components expanded from material (brk counts one per entry).
        self.expansions = 0
        #: drop_expanded() calls that actually freed bytes.
        self.demotions = 0

    def __repr__(self) -> str:
        """Redacted: shape and residency only — seeds and secrets never."""
        return (f"SwitchingKeySet(n={self.n}, n_t={self.n_t}, "
                f"keyswitched={self.keyswitched}, "
                f"expanded={len(self._expanded)} of "
                f"{len(self._component_names())} components)")

    # -- components -----------------------------------------------------------

    def _lazy_auto_keys(self, group: str) -> AutomorphismKeySet:
        return AutomorphismKeySet(keys=_LazyKeyDict(  # type: ignore[arg-type]
            self._exponents, lambda t: self._component((group, t))))

    def _component_names(self) -> List[object]:
        names: List[object] = ["brk"]
        names += [("auto", t) for t in self._exponents]
        if self.keyswitched:
            names.append("lwe_ksk")
            names += [("auto_st", t) for t in self._exponents]
            names.append("ring_ksk")
        return names

    def _component(self, name):
        held = self._expanded.get(name)  # lock-free on a hit
        if held is None:
            with self._lock:
                held = self._expanded.get(name)
                if held is None:
                    key = _expand_component(self._material, self.raised_basis,
                                            self.gadget, name)
                    held = self._expanded[name] = (key, _component_bytes(key))
                    self.expansions += key.n_t if name == "brk" else 1
        return held[0]

    @property
    def brk(self) -> BlindRotateKey:
        """RGSW encryptions of the blind-rotated secret's digits (the
        CKKS secret's, or ``s_t``'s on an n_t set) under the CKKS secret."""
        return self._component("brk")

    @property
    def lwe_ksk(self) -> Optional[LweKeySwitchKey]:
        """n_t set only: the LWE key-switch key from the CKKS secret's
        coefficients (dim ``N``) to ``s_t`` (dim ``n_t``) mod ``q``."""
        return self._component("lwe_ksk") if self.keyswitched else None

    @property
    def ring_ksk(self) -> Optional[GlweKeySwitchKey]:
        """n_t set only: the one ring key-switch key ``s_t(X) -> s``."""
        return self._component("ring_ksk") if self.keyswitched else None

    def test_vector(self, n: int, q: int) -> RnsPoly:
        """The Algorithm-2 blind-rotate LUT over this key set's raised
        basis (``g(t) = q*t``), built once per ``(n, q)`` and reused.
        Folded with ``N^{-1}`` for the repack factor on a dimension-``N``
        set; un-folded on an n_t set, whose Finish divides the factor
        out of accumulators and companions together.  Served by the
        thread-safe :class:`LutRegistry` (the service's batch threads
        race here)."""
        return self.luts.switching_vector(n, q,
                                          fold_n_inv=not self.keyswitched)

    # -- residency ------------------------------------------------------------

    def resident_bytes(self) -> int:
        """Measured bytes of this key set in its current storage states:
        the seed+``b`` material when held, every expanded component (the
        quantities §III-C audits by formula; ``bench_keysizes.py``
        checks the formula against the paper, this counts the *actual*
        resident arrays) and the lifted tensors the key registry holds
        for them.  The service's LRU key cache charges each user this
        amount (ARK direction: bound the resident key working set).

        Machine-dtype limbs are priced at ``ndarray.nbytes``; wide
        (``object``-dtype) limbs at the §III-C coefficient width
        ``ceil(log2 q / 8)`` bytes per slot, since a Python-int pointer
        array has no meaningful ``nbytes``.
        """
        with self._lock:
            total = sum(nbytes for _, nbytes in self._expanded.values())
            if self._material is not None:
                total += self._material.resident_bytes()
            owners = self._lift_owners()
        # Outside the lock: the registry builds a lift under *its* lock
        # and the build expands a component under ours.
        reg = get_key_registry()
        return total + sum(reg.owner_bytes(o) for o in owners)

    def _lift_owners(self) -> List[object]:
        """The objects the key registry files this set's lifted tensors
        under."""
        owners: List[object] = [self.auto_keys]
        if self.keyswitched:
            owners.append(self.auto_keys_st)
        if "brk" in self._expanded:
            owners.append(self._expanded["brk"][0])
        return owners

    def drop_expanded(self) -> int:
        """Fall back to seed+``b`` residency (the key cache's demote
        tier): compress first if only the expanded form is held, then
        release every expanded ciphertext and every lifted tensor the
        key registry derived from them.  Returns the bytes freed (0 for
        wide-modulus keys, which have no fixed-width seed+``b`` form); a
        later access re-expands bit-identical material from the seeds.
        """
        before = self.resident_bytes()
        with self._lock:
            try:
                self._material = self.compress()
            except ParameterError:
                return 0
            owners = self._lift_owners()
            self._expanded.clear()
        reg = get_key_registry()
        for owner in owners:
            reg.drop_owner(owner)
        freed = max(0, before - self.resident_bytes())
        if freed:
            self.demotions += 1
        return freed

    # -- generation -----------------------------------------------------------

    @classmethod
    def generate(cls, ctx: CkksContext, sk: SecretKey,
                 sampler: Optional[Sampler] = None,
                 base_bits: int = 6,
                 error_std: float = 1.0,
                 n_t: Optional[int] = None,
                 key_seed: Optional[int] = None) -> "SwitchingKeySet":
        """Generate switching keys for a CKKS context and secret.

        Every uniform ``a``-half streams from a
        :func:`~repro.math.sampling.derive_seed` child of ``key_seed``
        (ARK-style seeded schedule; drawn from ``sampler`` when not
        given), so any holder of the :meth:`compress` form re-expands the
        identical ciphertexts.  Noise is drawn from ``sampler`` (fresh
        entropy; never stored or replayed).

        ``base_bits`` sizes the gadget used by both the external products
        of BlindRotate and the repacking key switches; smaller digits mean
        lower noise but more work per external product (the paper's
        ``d = 2`` corresponds to a very coarse digit over its 252-bit
        raised modulus).

        With ``n_t`` the blind rotation runs at dimension ``n_t`` instead
        of ``N`` (the paper's 500-entry brk): a fresh ternary ``s_t`` is
        drawn (and not kept), brk encrypts *its* digits, and the key set
        gains ``lwe_ksk`` / ``auto_keys_st`` / ``ring_ksk``.  Needs a
        switching prime ``p = 1 (mod 2N^2)``
        (:func:`~repro.params.make_keyswitched_toy_params`).
        """
        sampler = sampler or Sampler()
        if key_seed is None:
            key_seed = sampler.draw_seed()
        n = ctx.n
        raised = concat_bases(ctx.full_basis, RnsBasis([ctx.special_basis.moduli[0]]))
        total_bits = raised.product.bit_length()
        # Floor division: the couple of uncovered low-order bits only add
        # +-2^(bits mod base) of rounding noise, far below the error term.
        digits = max(1, total_bits // base_bits)
        gadget = GadgetVector(q=raised.product, base_bits=base_bits, digits=digits)
        # The CKKS secret viewed as the GLWE accumulator key and as the
        # LWE key whose digits brk encrypts.
        glwe_sk = GlweSecretKey(coeffs=[np.asarray(sk.coeffs, dtype=object)], n=n)
        brk_secret = LweSecretKey(coeffs=np.asarray(sk.coeffs, dtype=object))
        exponents = sorted(set(repack_exponents(n)))
        expanded: Dict[object, object] = {}
        if n_t is not None:
            if n_t > n:
                raise ParameterError("n_t cannot exceed the ring dimension")
            if (raised.moduli[-1] - 1) % (2 * n * n):
                raise ParameterError(
                    "an n_t key set needs p = 1 (mod 2N^2); build params "
                    "with make_keyswitched_toy_params")
            q = ctx.full_basis.moduli[0]
            s_t = LweSecretKey.generate(n_t, sampler)
            expanded["lwe_ksk"] = LweKeySwitchKey.generate(
                brk_secret, s_t, q, _lwe_gadget(q), sampler,
                key_seed=derive_seed(key_seed, "lwe_ksk"))
            brk_secret = s_t
        brk = expanded["brk"] = BlindRotateKey.generate(
            brk_secret, glwe_sk, raised, gadget, sampler,
            error_std=error_std, key_seed=key_seed)
        auto_keys = AutomorphismKeySet.generate(
            glwe_sk, exponents, raised, gadget, sampler,
            error_std=error_std, key_seed=key_seed)
        expanded.update((("auto", t), auto_keys.keys[t]) for t in exponents)
        if n_t is not None:
            # The companions ``ct'_i`` decrypt under s_t: they are packed
            # in the ring under s_t padded to N coefficients, then moved
            # to s by one ring key switch.
            st_coeffs = np.zeros(n, dtype=object)
            st_coeffs[:n_t] = s_t.coeffs
            auto_st = AutomorphismKeySet.generate(
                GlweSecretKey(coeffs=[st_coeffs], n=n), exponents,
                raised, gadget, sampler, error_std,
                key_seed=derive_seed(key_seed, "auto_st"))
            expanded.update((("auto_st", t), auto_st.keys[t])
                            for t in exponents)
            expanded["ring_ksk"] = GlweKeySwitchKey.generate(
                st_coeffs, glwe_sk, raised, gadget, sampler, error_std,
                key_seed=derive_seed(key_seed, "ring_ksk"))
        return cls(raised, gadget, n, brk.n_t, exponents,
                   keyswitched=n_t is not None, key_seed=key_seed,
                   expanded=expanded, glwe_sk_ref=glwe_sk)

    @classmethod
    def generate_seeded(cls, ctx: CkksContext, sk: SecretKey, key_seed: int,
                        noise: Optional[Sampler] = None,
                        base_bits: int = 6,
                        error_std: float = 1.0) -> "SwitchingKeySet":
        """``generate(..., key_seed=key_seed)`` under the name
        ``benchmarks/e2e`` still calls; removable by the next
        ``benchmark`` PR."""
        return cls.generate(ctx, sk, noise, base_bits, error_std,
                            key_seed=key_seed)

    # -- seed + b-half form (ARK-style streaming keys) ------------------------

    def compress(self) -> SeededKeyMaterial:
        """The seed+``b`` at-rest form (the held material when there is
        one; otherwise stacked from the expanded components).

        Bodies are stacked per limb into fixed-width evaluation-domain
        arrays (``brk_b_<li>`` of shape ``(n_t, 2, (h+1)d, N)``,
        ``auto_b_<li>`` of shape ``(T, d, N)``; an n_t set adds
        ``lwe_ksk_b`` of shape ``(N, d_lwe)``, ``auto_st_b_<li>`` and
        ``ring_b_<li>`` of shape ``(d, N)``); the meta carries the public
        parameters plus the per-component mask seeds.
        """
        with self._lock:
            if self._material is not None:
                return self._material
            brk = self.brk
            exps = self._exponents
            bodies: Dict[str, np.ndarray] = {}

            def store(prefix: str, stacks: List[np.ndarray]) -> None:
                bodies.update((f"{prefix}_{li}", stack)
                              for li, stack in enumerate(stacks))

            auto = [self.auto_keys.keys[t] for t in exps]
            store("brk_b", stack_brk_bodies(brk, self.raised_basis))
            store("auto_b", _stack_ksk_bodies(auto))
            meta: Dict[str, object] = {
                "n": self.n, "h": brk.h, "n_t": self.n_t,
                "moduli": [int(q) for q in self.raised_basis.moduli],
                "gadget_base_bits": self.gadget.base_bits,
                "gadget_digits": self.gadget.digits,
                "key_seed": self.key_seed,
                "brk_mask_seeds": [[int(p), int(m)] for p, m in brk.mask_seeds],
                "auto_exponents": [int(t) for t in exps],
                "auto_mask_seeds": [int(k.mask_seed) for k in auto],
            }
            if self.keyswitched:
                auto_st = [self.auto_keys_st.keys[t] for t in exps]
                bodies["lwe_ksk_b"] = np.asarray(self.lwe_ksk.bodies(),
                                                 dtype=np.int64)
                store("auto_st_b", _stack_ksk_bodies(auto_st))
                store("ring_b", [stack[0] for stack in
                                 _stack_ksk_bodies([self.ring_ksk])])
                meta["lwe_ksk_seed"] = int(self.lwe_ksk.mask_seed)
                meta["auto_st_mask_seeds"] = [int(k.mask_seed) for k in auto_st]
                meta["ring_ksk_seed"] = int(self.ring_ksk.mask_seed)
            return SeededKeyMaterial(kind="switching", meta=meta, bodies=bodies)

    @classmethod
    def from_material(cls, material: SeededKeyMaterial) -> "SwitchingKeySet":
        """A key set resident as seed+``b`` only; components expand on
        first access, bit-identical to the :meth:`generate` output the
        material was compressed from (``glwe_sk_ref`` excepted: the
        secret is not in the material)."""
        if material.kind != "switching":
            raise ParameterError(
                f"expected 'switching' seeded material, got {material.kind!r}")
        meta = material.meta
        basis = RnsBasis([int(q) for q in meta["moduli"]])  # type: ignore[union-attr]
        gadget = GadgetVector(q=basis.product,
                              base_bits=int(meta["gadget_base_bits"]),  # type: ignore[arg-type]
                              digits=int(meta["gadget_digits"]))  # type: ignore[arg-type]
        return cls(basis, gadget, int(meta["n"]), int(meta["n_t"]),  # type: ignore[arg-type]
                   [int(t) for t in meta["auto_exponents"]],  # type: ignore[union-attr]
                   keyswitched="lwe_ksk_seed" in meta,
                   key_seed=int(meta["key_seed"]),  # type: ignore[arg-type]
                   material=material)


def _expand_component(material: SeededKeyMaterial, basis: RnsBasis,
                      gadget: GadgetVector, name):
    """Expand one component of a ``"switching"`` material (pure PRNG
    replay next to the stored bodies — no NTTs)."""
    meta = material.meta
    n = int(meta["n"])  # type: ignore[arg-type]
    h = int(meta["h"])  # type: ignore[arg-type]
    limbs = range(len(basis.moduli))
    if name == "brk":
        stacks = [material.bodies[f"brk_b_{li}"] for li in limbs]
        seeds = [(int(p), int(m)) for p, m in meta["brk_mask_seeds"]]  # type: ignore[union-attr]
        rows = range((h + 1) * gadget.digits)

        def rgsw(i: int, pm: int):
            bodies = [RnsPoly(n, basis, [lb[i, pm, r] for lb in stacks], "eval")
                      for r in rows]
            return expand_rgsw(mask_stream(seeds[i][pm]), bodies, basis,
                               gadget, h)

        plus = [rgsw(i, 0) for i in range(len(seeds))]
        minus = [rgsw(i, 1) for i in range(len(seeds))]
        return BlindRotateKey(plus=plus, minus=minus, gadget=gadget, h=h,
                              mask_seeds=seeds)
    if name == "lwe_ksk":
        q = int(basis.moduli[0])
        return expand_lwe_keyswitch_key(
            int(meta["lwe_ksk_seed"]),  # type: ignore[arg-type]
            material.bodies["lwe_ksk_b"].tolist(),
            int(meta["n_t"]), q, _lwe_gadget(q))  # type: ignore[arg-type]
    if name == "ring_ksk":
        seed = meta["ring_ksk_seed"]
        stacks = [material.bodies[f"ring_b_{li}"] for li in limbs]
    else:
        group, t = name
        ti = [int(x) for x in meta["auto_exponents"]].index(t)  # type: ignore[union-attr]
        seed = meta[f"{group}_mask_seeds"][ti]  # type: ignore[index]
        stacks = [material.bodies[f"{group}_b_{li}"][ti] for li in limbs]
    bodies = [RnsPoly(n, basis, [lb[k] for lb in stacks], "eval")
              for k in range(gadget.digits)]
    return expand_glwe_keyswitch_key(int(seed), bodies, h, basis, gadget)  # type: ignore[arg-type]


def expand_switching_keys(material: SeededKeyMaterial) -> SwitchingKeySet:
    """:meth:`SwitchingKeySet.from_material` with every component
    expanded up front."""
    keys = SwitchingKeySet.from_material(material)
    for name in keys._component_names():
        keys._component(name)
    return keys


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
