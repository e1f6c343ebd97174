"""The bootstrap composed from the scalar oracles only.

``blind_rotate_batch_reference``, ``repack_reference``,
``pbs_extract_reference``, ``lwe_keyswitch`` and ``glwe_keyswitch`` are
plain functions; these helpers chain them through the pipeline's own
(engine-free) ModSwitch / Extract / Finish stages.  No batched engine
runs here, so byte-equality against these outputs pins every production
executor to the reference arithmetic (``tests/test_conformance.py``).
"""

import numpy as np

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
from repro.tfhe.blind_rotate import blind_rotate_batch_reference
from repro.tfhe.extract import extraction_vector
from repro.tfhe.keyswitch import glwe_keyswitch
from repro.tfhe.lwe import LweCiphertext, lwe_keyswitch
from repro.tfhe.repack import repack_reference


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
