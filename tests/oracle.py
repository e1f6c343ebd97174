"""The scalar oracles no production path calls, and the bootstrap
composed from scalar oracles only.

``blind_rotate_batch_reference``, ``repack_reference`` and
``naive_negacyclic_mul`` are the bit-identity references of the batched
blind-rotate engine, the level-batched repack engine and the NTT.
``oracle_*`` chain them — with ``pbs_extract_reference``,
``lwe_keyswitch`` and ``glwe_keyswitch`` from ``src`` — through the
pipeline's own (engine-free) ModSwitch / Extract / Finish stages.  No
batched engine runs here, so byte-equality against these outputs pins
every production executor to the reference arithmetic
(``tests/test_conformance.py``).
"""

import numpy as np

from repro.errors import ParameterError
from repro.switching.functional import pbs_extract_reference
from repro.switching.luts import LutSpec, build_functional_lut
from repro.switching.pipeline import (
    BootstrapTrace,
    extract_lwes,
    finish,
    finish_keyswitched,
    finish_pbs,
    mod_switch,
    mod_switch_lwe,
)
from repro.tfhe.blind_rotate import get_monomial_cache, get_rgsw_one
from repro.tfhe.extract import extraction_vector
from repro.tfhe.glwe import GlweCiphertext, _shift_rns
from repro.tfhe.keyswitch import glwe_keyswitch
from repro.tfhe.lwe import LweCiphertext, lwe_keyswitch
from repro.tfhe.repack import _validate
from repro.tfhe.rgsw import external_product


def naive_negacyclic_mul(a, b, q):
    """Schoolbook ``O(N^2)`` negacyclic convolution over exact integers."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    n = a.shape[-1]
    out = np.zeros(n, dtype=object)
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k >= n:
                out[k - n] -= term
            else:
                out[k] += term
    return np.mod(out, q)


def blind_rotate_batch_reference(test_vector, cts, brk):
    """Scalar reference schedule: brk_i outer loop, one ciphertext at a time."""
    if not cts:
        return []
    n = test_vector.n
    basis = test_vector.basis
    cache = get_monomial_cache(n, basis)
    for ct in cts:
        if ct.q != 2 * n or ct.dim != brk.n_t:
            raise ParameterError("batch contains an incompatible LWE ciphertext")
    accs = [GlweCiphertext.trivial(_shift_rns(test_vector, int(ct.b)).to_eval(),
                                   h=brk.h)
            for ct in cts]
    one = get_rgsw_one(brk.h, n, basis, brk.gadget)
    for i in range(brk.n_t):
        plus_i, minus_i = brk.plus[i], brk.minus[i]  # fetched once per batch
        for j, ct in enumerate(cts):
            a_i = int(ct.a[i]) % (2 * n)
            if a_i == 0:
                continue
            combined = one + plus_i.mul_eval_vector(cache.monomial_minus_one(a_i))
            combined = combined + minus_i.mul_eval_vector(
                cache.monomial_minus_one((2 * n - a_i) % (2 * n))
            )
            accs[j] = external_product(combined, accs[j])
    return accs


def eval_automorphism(ct, t, keys):
    """Homomorphic ``m(X) -> m(X^t)`` on an RLWE ciphertext."""
    if ct.h != 1:
        raise ParameterError("eval_automorphism expects an RLWE ciphertext")
    rotated = ct.automorphism(t)
    return glwe_keyswitch(rotated.mask[0], rotated.body, keys.key_for(t))


def repack_reference(cts, keys):
    """Scalar reference recursion of :mod:`repro.tfhe.repack` — one
    ciphertext object per tree node, then the trace levels."""
    _validate(cts)
    n_cts = len(cts)
    ring_n = cts[0].n
    out = _pack(list(cts), ring_n, keys)
    lv = 2 * n_cts
    while lv <= ring_n:
        out = out + eval_automorphism(out, lv + 1, keys)
        lv *= 2
    return out


def _pack(cts, ring_n, keys):
    num = len(cts)
    if num == 1:
        return cts[0]
    even = _pack(cts[0::2], ring_n, keys)
    odd = _pack(cts[1::2], ring_n, keys)
    odd_shifted = odd.negacyclic_shift(ring_n // num)
    u = even + odd_shifted
    v = even - odd_shifted
    return u + eval_automorphism(v, num + 1, keys)


def oracle_bootstrap(ctx, keys, ct):
    """Algorithm 2: mod_switch -> extract_lwes -> scalar BlindRotate ->
    scalar repack -> finish."""
    n, q = ctx.n, ct.basis.moduli[0]
    ms = mod_switch(ct, 2 * n, q)
    accs = blind_rotate_batch_reference(keys.test_vector(n, q),
                                        extract_lwes(ms, 2 * n), keys.brk)
    return finish(repack_reference(accs, keys.auto_keys), ms,
                  keys.raised_basis, n, 2 * n, ct.scale, BootstrapTrace())


def oracle_pbs(ctx, keys, ct, f):
    """The PBS twin: per-index big-int extract -> scalar BlindRotate
    against a freshly built LUT -> scalar repack -> finish_pbs."""
    n, q = ctx.n, ct.basis.moduli[0]
    lwes = pbs_extract_reference(ct.c0.to_coeff().limbs[0],
                                 ct.c1.to_coeff().limbs[0], n, 2 * n, q)
    fn = f.fn if isinstance(f, LutSpec) else f
    tv = build_functional_lut(fn, n, q, ct.scale, keys.raised_basis)
    accs = blind_rotate_batch_reference(tv, lwes, keys.brk)
    return finish_pbs(repack_reference(accs, keys.auto_keys), ct.scale)


def oracle_keyswitched(ctx, keys, ct):
    """Algorithm 2 on an n_t key set: Eq. 2 extract -> scalar LWE key
    switch -> per-LWE ModSwitch -> scalar BlindRotate (n_t iterations) ->
    scalar repack of accumulators (under s) and of companions (under the
    padded s_t(X)) -> ring key switch -> finish_keyswitched."""
    n, q = ctx.n, ct.basis.moduli[0]
    c0, c1 = ct.c0.to_coeff().limbs[0], ct.c1.to_coeff().limbs[0]
    switched = [
        mod_switch_lwe(
            lwe_keyswitch(LweCiphertext(a=extraction_vector(c1, i, q),
                                        b=int(c0[i]), q=q), keys.lwe_ksk),
            2 * n, keys.raised_basis)
        for i in range(n)]
    accs = blind_rotate_batch_reference(keys.test_vector(n, q),
                                        [lwe for lwe, _ in switched], keys.brk)
    packed_st = repack_reference([comp for _, comp in switched],
                                 keys.auto_keys_st)
    companion = glwe_keyswitch(packed_st.mask[0], packed_st.body,
                               keys.ring_ksk)
    return finish_keyswitched(repack_reference(accs, keys.auto_keys),
                              companion, n, ct.scale)


def _assert_polys_equal(polys_a, polys_b):
    for pa, pb in zip(polys_a, polys_b):
        # The NTT is a bijection: only a domain mismatch needs a transform.
        if pa.domain != pb.domain:
            pa, pb = pa.to_coeff(), pb.to_coeff()
        for la, lb in zip(pa.limbs, pb.limbs):
            assert np.asarray(la).tolist() == np.asarray(lb).tolist()


def assert_ct_equal(a, b):
    _assert_polys_equal((a.c0, a.c1), (b.c0, b.c1))


def assert_glwe_equal(a, b):
    _assert_polys_equal(list(a.mask) + [a.body], list(b.mask) + [b.body])


def assert_keyset_equal(a, b):
    """Every component of two ``SwitchingKeySet``s, either dimension,
    limb for limb (expands whatever is not expanded yet)."""
    assert (a.n_t, a.keyswitched) == (b.n_t, b.keyswitched)
    assert a.brk.mask_seeds == b.brk.mask_seeds
    glwe_rows = [(row, row2)
                 for r, r2 in zip(a.brk.plus + a.brk.minus,
                                  b.brk.plus + b.brk.minus)
                 for comp, comp2 in zip(r.rows, r2.rows)
                 for row, row2 in zip(comp, comp2)]
    ksks = [(a.auto_keys, b.auto_keys)]
    if a.keyswitched:
        ksks.append((a.auto_keys_st, b.auto_keys_st))
        glwe_rows += zip(a.ring_ksk.rows, b.ring_ksk.rows)
        assert len(a.lwe_ksk.rows) == len(b.lwe_ksk.rows)
        for row, row2 in zip(a.lwe_ksk.rows, b.lwe_ksk.rows):
            assert [(ct.a.tolist(), int(ct.b), ct.q) for ct in row] \
                == [(ct.a.tolist(), int(ct.b), ct.q) for ct in row2]
    for keys, keys2 in ksks:
        assert sorted(keys.keys) == sorted(keys2.keys)
        for t in keys.keys:
            glwe_rows += zip(keys.keys[t].rows, keys2.keys[t].rows)
    for row, row2 in glwe_rows:
        assert_glwe_equal(row, row2)
