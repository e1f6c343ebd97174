"""Programmable bootstrapping: de-forked front-end perf + workload table.

Two parts, one ``BENCH_functional.json``:

1. **Front-end gate.**  The PBS front-end is ModSwitch+Extract (the old
   O(N^2) per-index Python loop, now a uint64 negacyclic gather) feeding
   BlindRotate (scalar reference schedule vs the batch tensor engine).
   Both compositions are timed interleaved on the same inputs at
   N in {2^8, 2^10}; the vectorized front-end must be >= 3x the scalar
   one at N = 2^10, batch = 32.  The untimed warmup pass doubles as the
   bit-identity check — every extracted LWE and every rotated
   accumulator must agree limb-for-limb before a timing counts.

2. **Workload table.**  The LUT workload library (sign, ReLU, threshold,
   k-bit quantisation) run end to end through ``BootstrapPipeline.run_pbs``
   at toy parameters (N = 64): wall seconds per evaluate and max
   absolute error against plaintext ``f``, with inputs on exact
   phase-bucket centers a safe margin from each workload's
   discontinuities (the 2N-bucket LUT's contract — an input *at* a
   jump measures the quantiser, not the pipeline).

``python benchmarks/bench_functional.py --quick`` is the CI variant:
gate point only (N = 2^10, batch = 32) and a two-workload table.
"""

import os
import sys
import time

import numpy as np

from _timing import time_interleaved, write_bench_json
from conftest import emit

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.math.gadget import GadgetVector
from repro.math.modular import find_ntt_primes
from repro.math.rns import RnsBasis
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.switching import BootstrapPipeline, SwitchingKeySet, quantized, threshold
from repro.switching.functional import (
    pbs_extract_reference,
    pbs_extract_vectorized,
    quantisation_step,
    relu_fn,
    sigmoid_fn,
    sign_fn,
)
from repro.switching.luts import build_functional_lut
from repro.tfhe.batch_engine import BatchBlindRotateEngine
from repro.tfhe.blind_rotate import BlindRotateKey, blind_rotate_batch_reference
from repro.tfhe.glwe import GlweSecretKey
from repro.tfhe.lwe import LweCiphertext, LweSecretKey

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_functional.json")

#: LWE dimension for the front-end micro-benchmark (matches the blind
#: rotate bench so the numbers compose).
N_T = 8


def _frontend_setup(n):
    """Synthetic PBS front-end state at ring size ``n``: a level-0
    coefficient pair (c0, c1) mod q, a blind-rotate key, and a real
    functional LUT (single-limb basis, so the 2x14-bit gadget covers
    the whole modulus)."""
    basis = RnsBasis(find_ntt_primes(28, n, 1))
    q = basis.moduli[0]
    gadget = GadgetVector(q=q, base_bits=14, digits=2)
    s = Sampler(1234)
    lwe_sk = LweSecretKey.generate(N_T, s)
    glwe_sk = GlweSecretKey.generate(n, 1, s)
    brk = BlindRotateKey.generate(lwe_sk, glwe_sk, basis, gadget, s)
    f = build_functional_lut(sign_fn, n, q, float(1 << 20), basis)
    rng = np.random.default_rng(7)
    c0 = np.asarray([int(v) for v in rng.integers(0, q, n)], dtype=object)
    c1 = np.asarray([int(v) for v in rng.integers(0, q, n)], dtype=object)
    return basis, q, brk, f, c0, c1


def _assert_lwes_identical(got, ref):
    for g, r in zip(got, ref):
        assert (np.asarray(g.a) == np.asarray(r.a)).all() and g.b == r.b


def _assert_glwes_identical(got, ref):
    for v, r in zip(got, ref):
        for pv, pr in zip(list(v.mask) + [v.body], list(r.mask) + [r.body]):
            for lv, lr in zip(pv.limbs, pr.limbs):
                assert (lv == lr).all()


def _frontend_results(quick):
    results = []
    combos = [(1 << 10, 32)] if quick else \
        [(n, b) for n in (1 << 8, 1 << 10) for b in (8, 32)]
    for n in sorted({c[0] for c in combos}):
        basis, q, brk, f, c0, c1 = _frontend_setup(n)
        engine = BatchBlindRotateEngine.for_key(brk, n, basis)
        two_n = 2 * n
        # Warmup + bit-identity: the de-forked kernels must agree.
        lwes_vec = pbs_extract_vectorized(c0, c1, n, two_n, q)
        lwes_ref = pbs_extract_reference(c0, c1, n, two_n, q)
        _assert_lwes_identical(lwes_vec, lwes_ref)

        def shrink(lwes, batch):
            # The extracted LWEs have dimension N; the bench's rotate
            # key deliberately uses a small synthetic n_t so the scalar
            # oracle stays tractable (as in bench_blind_rotate_batch).
            # Truncating the mask is the same on both sides, so the
            # bit-identity check above still covers the composition.
            return [LweCiphertext(a=lw.a[:N_T], b=lw.b, q=lw.q)
                    for lw in lwes[:batch]]

        for batch in sorted({c[1] for c in combos if c[0] == n}):
            sub = shrink(lwes_vec, batch)
            _assert_glwes_identical(engine.rotate_batch(f, sub),
                                    blind_rotate_batch_reference(f, sub, brk))

            def vec_side():
                lw = pbs_extract_vectorized(c0, c1, n, two_n, q)
                return engine.rotate_batch(f, shrink(lw, batch))

            def ref_side():
                lw = pbs_extract_reference(c0, c1, n, two_n, q)
                return blind_rotate_batch_reference(f, shrink(lw, batch),
                                                    brk)

            vec_s, ref_s = time_interleaved(vec_side, ref_side)
            results.append({
                "stage": "extract+blind_rotate",
                "n": n,
                "batch": batch,
                "n_t": N_T,
                "scalar_s": round(ref_s, 6),
                "vectorized_s": round(vec_s, 6),
                "speedup": round(ref_s / vec_s, 2),
            })
    return results


def _workload_table(quick):
    params = make_toy_params(n=64, limbs=3, limb_bits=30, scale_bits=28,
                             special_limbs=2)
    ctx = CkksContext(params.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(901))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(902))
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(903), base_bits=4,
                                   error_std=0.6)
    pipeline = BootstrapPipeline(ctx, swk)
    step = quantisation_step(ctx)

    workloads = [("sign", sign_fn), ("relu", relu_fn)]
    if not quick:
        workloads += [("threshold(0.25)", threshold(0.25)),
                      ("quantized(sigmoid, 3-bit)",
                       quantized(sigmoid_fn, 3))]

    # Inputs sit on exact phase-bucket centers, >= 7 buckets (~0.22)
    # away from every workload's discontinuity (0 for sign/relu, 0.25
    # for the threshold): at toy parameters the extraction phase noise
    # spans a few buckets, so an input *at* a jump can legitimately
    # land on the other side — that would measure the quantiser, not
    # the pipeline.  Same margin discipline as tests/test_functional_eval.
    rng = np.random.default_rng(11)
    buckets = rng.choice(np.concatenate([np.arange(-28, -7),
                                         np.arange(15, 29)]),
                         ctx.n // 2, replace=True)
    values = buckets * step
    ct = ev.drop_to_level(ev.encrypt_coeffs(values), 0)

    rows = []
    for name, fn in workloads:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            out = pipeline.run_pbs(ct, fn)
            best = min(best, time.perf_counter() - t0)
        decoded = ev.decrypt_coeffs_scaled(out, sk)[:ctx.n // 2]
        raw_fn = fn.fn if hasattr(fn, "fn") else fn  # LutSpec or callable
        expected = np.asarray([raw_fn(x) for x in values])
        rows.append({
            "workload": name,
            "n": ctx.n,
            "seconds": round(best, 6),
            "max_err": float(np.max(np.abs(decoded - expected))),
            "step": step,
        })
        # PBS output must be a usable fixed-point result, not noise
        # (same 0.3 envelope as the functional test suite, plus the
        # 3-bit staircase's half-level for the quantized workload).
        assert rows[-1]["max_err"] < 0.45, rows[-1]
    return rows


def _run(quick=False):
    frontend = _frontend_results(quick)
    table = _workload_table(quick)

    write_bench_json(JSON_PATH, "functional",
                     [dict(r) for r in frontend] + [dict(r) for r in table],
                     extra={"quick": quick})

    lines = ["PBS front-end: scalar loop+schedule vs gather+tensor engine",
             f"{'N':>6} {'batch':>6} {'scalar (s)':>12} {'vector (s)':>12} "
             f"{'speedup':>9}"]
    for r in frontend:
        lines.append(f"{r['n']:>6} {r['batch']:>6} {r['scalar_s']:>12.4f} "
                     f"{r['vectorized_s']:>12.4f} {r['speedup']:>8.1f}x")
    lines += ["", "LUT workloads end to end (BootstrapPipeline.run_pbs, toy N=64)",
              f"{'workload':<24} {'seconds':>9} {'max err':>10} "
              f"{'bucket step':>12}"]
    for r in table:
        lines.append(f"{r['workload']:<24} {r['seconds']:>9.4f} "
                     f"{r['max_err']:>10.2e} {r['step']:>12.4f}")
    emit("functional", "\n".join(lines))

    gate = next(r for r in frontend
                if r["n"] == 1 << 10 and r["batch"] == 32)
    assert gate["speedup"] >= 3.0, (
        f"vectorized PBS front-end only {gate['speedup']}x "
        f"at N=2^10, batch=32")
    return frontend, table


def bench_functional():
    _run(quick=False)


if __name__ == "__main__":
    _run(quick="--quick" in sys.argv[1:])
    print("bench_functional: OK")
