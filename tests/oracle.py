"""The bootstrap composed from the scalar oracles only.

``blind_rotate_batch_reference``, ``repack_reference`` and
``pbs_extract_reference`` are plain functions; these helpers chain them
through the pipeline's own (engine-free) ModSwitch / Extract / Finish
stages.  No batched engine runs here, so byte-equality against these
outputs pins every production executor to the reference arithmetic
(``tests/test_conformance.py``).
"""

import numpy as np

from repro.switching.functional import pbs_extract_reference
from repro.switching.luts import LutSpec, build_functional_lut
from repro.switching.pipeline import (
    BootstrapTrace,
    extract_lwes,
    finish,
    finish_pbs,
    mod_switch,
)
from repro.tfhe.blind_rotate import blind_rotate_batch_reference
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


def _assert_polys_equal(polys_a, polys_b):
    for pa, pb in zip(polys_a, polys_b):
        for la, lb in zip(pa.to_coeff().limbs, pb.to_coeff().limbs):
            assert np.asarray(la).tolist() == np.asarray(lb).tolist()


def assert_ct_equal(a, b):
    _assert_polys_equal((a.c0, a.c1), (b.c0, b.c1))


def assert_glwe_equal(a, b):
    _assert_polys_equal(list(a.mask) + [a.body], list(b.mask) + [b.body])
