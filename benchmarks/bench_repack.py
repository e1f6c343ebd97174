"""Scalar vs batched LWE->RLWE repack engine (ISSUE 2 perf gate).

Times the scalar reference recursion (``repack_reference``) against the
level-batched repack engine at N in {2^8, 2^10} for a full pack
(n_cts = N) and a partial pack (n_cts = N/4, which exercises the trace
tail), and emits ``BENCH_repack.json`` at the repo root so successive
PRs can track the speedup trajectory.  The acceptance gate is a >= 4x
speedup at N = 2^10, full pack.

Methodology mirrors ``bench_blind_rotate_batch.py``: both engines run
once untimed first — that pass doubles as the bit-identity check (the
engines must agree on every limb of mask and body before a timing
counts) and as warmup, so one-time costs (key-tensor lift, automorphism
permutation cache, monomial cache) do not distort either side.  Each
engine is then timed interleaved via the shared
``_timing.time_interleaved`` loop and the minimum is reported.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_repack.py -q``
(the bench is excluded from tier-1 ``testpaths``), or directly as a
script.  ``python benchmarks/bench_repack.py --quick`` runs the CI
variant: bit-identity at N = 2^6 and 2^7, no timing gate — fast enough
for every pull request.
"""

import os
import sys

import numpy as np

from repro.math.gadget import GadgetVector
from repro.math.modular import find_ntt_primes
from repro.math.rns import RnsBasis, RnsPoly
from repro.math.sampling import Sampler
from repro.tfhe.glwe import GlweSecretKey, glwe_encrypt
from repro.tfhe.keyswitch import AutomorphismKeySet
from repro.tfhe.repack import (
    repack_exponents,
    repack_keyswitch_count,
    repack_reference,
)
from repro.tfhe.repack_engine import RepackEngine

try:
    from conftest import emit
except ImportError:  # running as a plain script, not under pytest
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import emit

from _timing import time_interleaved, write_bench_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_repack.json")


def _setup(n):
    q = find_ntt_primes(28, n, 1)[0]
    basis = RnsBasis([q])
    gadget = GadgetVector(q=q, base_bits=14, digits=2)
    s = Sampler(1234)
    glwe_sk = GlweSecretKey.generate(n, 1, s)
    auto = AutomorphismKeySet.generate(glwe_sk, repack_exponents(n), basis,
                                       gadget, s)
    return basis, glwe_sk, auto, s


def _encrypt_batch(n, basis, sk, s, count):
    cts = []
    for i in range(count):
        m = np.zeros(n, dtype=object)
        m[0] = 1000 * (i + 1)
        cts.append(glwe_encrypt(RnsPoly.from_int_coeffs(n, basis, m), sk, s))
    return cts


def _assert_bit_identical(vec, ref):
    for pv, pr in zip(list(vec.mask) + [vec.body], list(ref.mask) + [ref.body]):
        cv, cr = pv.to_coeff(), pr.to_coeff()
        for lv, lr in zip(cv.limbs, cr.limbs):
            assert (np.asarray(lv) == np.asarray(lr)).all()


def _run(ring_sizes, gate=True):
    results = []
    for n in ring_sizes:
        basis, glwe_sk, auto, s = _setup(n)
        engine = RepackEngine.for_keys(auto)
        for n_cts in (n, n // 4):
            cts = _encrypt_batch(n, basis, glwe_sk, s, n_cts)
            # Warmup + correctness: the engine must match the scalar
            # oracle bit-for-bit before any timing counts.
            _assert_bit_identical(engine.pack(cts),
                                  repack_reference(cts, auto))
            vec_s, ref_s = time_interleaved(
                lambda: engine.pack(cts),
                lambda: repack_reference(cts, auto))
            results.append({
                "n": n,
                "n_cts": n_cts,
                "keyswitches": repack_keyswitch_count(n_cts, n),
                "scalar_s": round(ref_s, 6),
                "vectorized_s": round(vec_s, 6),
                "speedup": round(ref_s / vec_s, 2),
            })

    write_bench_json(JSON_PATH, "repack", results)

    lines = ["Repack: scalar reference recursion vs batched level engine",
             f"{'N':>6} {'n_cts':>6} {'ksw':>6} {'scalar (s)':>12} "
             f"{'vector (s)':>12} {'speedup':>9}"]
    for r in results:
        lines.append(f"{r['n']:>6} {r['n_cts']:>6} {r['keyswitches']:>6} "
                     f"{r['scalar_s']:>12.4f} {r['vectorized_s']:>12.4f} "
                     f"{r['speedup']:>8.1f}x")
    emit("repack", "\n".join(lines))

    if gate:
        top = next(r for r in results
                   if r["n"] == max(ring_sizes) and r["n_cts"] == r["n"])
        assert top["speedup"] >= 4.0, (
            f"repack engine only {top['speedup']}x at N={top['n']}, full pack")
    return results


def bench_repack_engines():
    _run((1 << 8, 1 << 10), gate=True)


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        # CI variant: small rings, bit-identity still enforced in the
        # warmup pass, no timing gate (container timings are too noisy
        # to gate every pull request on).
        _run((1 << 6, 1 << 7), gate=False)
    else:
        _run((1 << 8, 1 << 10), gate=True)
    print("bench_repack: OK")
