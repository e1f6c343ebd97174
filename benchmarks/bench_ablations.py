"""Ablation benches for the design choices DESIGN.md calls out.

* ``d``/``h`` key-size scaling — Section III-C: "the size of the key
  linearly scales with these two values";
* the ``n_br`` knob — Section V: sparse packing schedules fewer
  BlindRotates, tuning performance per application;
* mod-unit count — the compute roofline of the op model;
* batch scheduling — Section IV-E: one key fetch per batch vs per
  ciphertext.
"""

import pytest

from conftest import emit
from repro.hardware import HeapHwConfig, SingleFpgaModel
from repro.hardware.traffic import scheme_switching_key_bytes
from repro.params import TfheParams, make_heap_params


def bench_ablation_d_h_key_scaling(benchmark):
    """brk size vs decomposition degree d and GLWE mask h."""
    base = make_heap_params()
    log_q = base.ckks.log_q_total

    def sweep():
        rows = []
        for d in (1, 2, 3, 4):
            for h in (1, 2):
                tfhe = TfheParams(n_t=base.tfhe.n_t, n=base.tfhe.n,
                                  q=base.tfhe.q, aux_prime=base.tfhe.aux_prime,
                                  glwe_mask=h, decomp_digits=d)
                rows.append((d, h, scheme_switching_key_bytes(tfhe, log_q)))
        return rows

    rows = benchmark(sweep)
    lines = ["Ablation: brk size vs (d, h) — paper picks d=2, h=1",
             "  d  h  total brk (GB)"]
    for d, h, size in rows:
        marker = "  <- paper" if (d, h) == (2, 1) else ""
        lines.append(f"  {d}  {h}  {size / 1e9:14.2f}{marker}")
    emit("ablation_d_h", "\n".join(lines))
    by = {(d, h): s for d, h, s in rows}
    # Linear scaling in d; superlinear in h ((h+1)^2 appears).
    assert by[(4, 1)] == pytest.approx(2 * by[(2, 1)], rel=1e-6)
    assert by[(2, 2)] > 2 * by[(2, 1)]


def bench_ablation_n_br_knob(benchmark, cluster_model):
    """Bootstrap latency vs the number of scheduled BlindRotates."""
    def sweep():
        return {n_br: cluster_model.bootstrap_latency_s(n_br)
                for n_br in (256, 512, 1024, 2048, 4096)}

    curve = benchmark(sweep)
    lines = ["Ablation: n_br knob (sparse packing -> fewer BlindRotates)",
             "  n_br  bootstrap (ms)"]
    for n_br, t in curve.items():
        lines.append(f"  {n_br:5d}  {t * 1e3:10.3f}")
    lines.append("  (LR uses 256 slots, ResNet 1024, fully packed 4096)")
    emit("ablation_n_br", "\n".join(lines))
    assert curve[256] < curve[1024] < curve[4096]


def bench_ablation_mod_unit_count(benchmark):
    """Raw compute latency vs the number of modular units."""
    def sweep():
        out = {}
        for units in (128, 256, 512, 1024):
            model = SingleFpgaModel(hw=HeapHwConfig(num_mod_units=units),
                                    calibrated=False)
            out[units] = model.raw_latency_s("mult")
        return out

    curve = benchmark(sweep)
    lines = ["Ablation: Mult latency (raw model) vs modular-unit count",
             "  units  mult (us)"]
    for units, t in curve.items():
        marker = "  <- paper (512)" if units == 512 else ""
        lines.append(f"  {units:5d}  {t * 1e6:9.2f}{marker}")
    emit("ablation_units", "\n".join(lines))
    assert curve[128] > curve[512] > curve[1024]


def bench_ablation_batched_key_fetch(benchmark, fpga_model):
    """Section IV-E: batched BlindRotate amortises the brk streaming."""
    def compare():
        batch = 512
        batched = fpga_model.blind_rotate_batch_s(batch)
        sequential = batch * fpga_model.blind_rotate_batch_s(1)
        return batched, sequential

    batched, sequential = benchmark(compare)
    emit("ablation_batching",
         "Ablation: batched vs per-ciphertext BlindRotate (512 ciphertexts)\n"
         f"  batched schedule (keys fetched once): {batched * 1e3:9.3f} ms\n"
         f"  sequential (keys refetched each time): {sequential * 1e3:8.3f} ms\n"
         f"  batching advantage: {sequential / batched:.2f}x")
    assert batched < sequential


def bench_ablation_direct_vs_keyswitched_pipeline(benchmark):
    """Functional ablation: Algorithm 2 as printed (dimension-N blind
    rotation) vs the paper's n_t variant (LWE key switch first) — key
    size shrinks by N/n_t, noise grows by the key-switch term."""
    import numpy as np
    from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
    from repro.math.sampling import Sampler
    from repro.params import make_keyswitched_toy_params
    from repro.switching import BootstrapPipeline, SwitchingKeySet

    n, n_t = 16, 8
    params = make_keyswitched_toy_params(n=n, limbs=3, limb_bits=30,
                                         scale_bits=23, special_limbs=2)
    ctx = CkksContext(params, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(91))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(92))
    direct_keys = SwitchingKeySet.generate(ctx, sk, Sampler(93), base_bits=4,
                                           error_std=0.6)
    kw_keys = SwitchingKeySet.generate(ctx, sk, Sampler(94), base_bits=4,
                                       error_std=0.6, n_t=n_t)
    direct = BootstrapPipeline(ctx, direct_keys)
    keysw = BootstrapPipeline(ctx, kw_keys)
    z = np.random.default_rng(3).uniform(-1, 1, ctx.slots)

    def run_both():
        ct = ev.encrypt(z, level=0)
        out_d = direct.run(ct)
        out_k = keysw.run(ev.encrypt(z, level=0))
        return out_d, out_k

    out_d, out_k = benchmark.pedantic(run_both, rounds=1, iterations=1,
                                      warmup_rounds=0)
    err_d = float(np.max(np.abs(ev.decrypt(out_d, sk).real - z)))
    err_k = float(np.max(np.abs(ev.decrypt(out_k, sk).real - z)))
    emit("ablation_pipelines",
         "Ablation: direct (dim-N) vs keyswitched (dim-n_t) bootstrap\n"
         f"  brk entries:      direct {direct_keys.brk.n_t}, "
         f"keyswitched {kw_keys.brk.n_t} (N/n_t = {n // n_t}x smaller)\n"
         f"  brk bytes:        direct {direct_keys.brk.size_bytes()}, "
         f"keyswitched {kw_keys.brk.size_bytes()}\n"
         f"  max slot error:   direct {err_d:.4f}, keyswitched {err_k:.4f} "
         "(key-switch noise is the price of the smaller key)")
    assert kw_keys.brk.size_bytes() < direct_keys.brk.size_bytes()
    assert err_d < 0.1 and err_k < 0.25


def bench_ablation_gadget_base_noise_sweep(benchmark):
    """Measured series: bootstrap output error vs gadget base — the
    d/noise trade-off behind the paper's d = 2 choice (coarser digits =
    fewer external-product terms but more noise per term)."""
    import numpy as np
    from repro.analysis.noise import SwitchingNoiseModel
    from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
    from repro.math.sampling import Sampler
    from repro.params import make_toy_params
    from repro.switching import BootstrapPipeline, SwitchingKeySet

    params = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                             special_limbs=2)
    ctx = CkksContext(params.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(95))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(96))
    z = np.random.default_rng(4).uniform(-1, 1, ctx.slots)

    def sweep():
        rows = []
        for base_bits in (4, 8):
            swk = SwitchingKeySet.generate(ctx, sk, Sampler(97),
                                           base_bits=base_bits, error_std=0.8)
            out = BootstrapPipeline(ctx, swk).run(ev.encrypt(z, level=0))
            err = float(np.max(np.abs(ev.decrypt(out, sk).real - z)))
            model = SwitchingNoiseModel(
                n=ctx.n, n_iter=ctx.n, gadget_base=1 << base_bits,
                gadget_digits=swk.gadget.digits, key_error_std=0.8)
            rows.append((base_bits, swk.gadget.digits, err,
                         model.final_slot_error(ctx.params.scale)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    lines = ["Ablation: bootstrap error vs gadget base (measured + predicted)",
             "  base_bits  digits  measured err  predicted (3-sigma)"]
    for base_bits, digits, err, pred in rows:
        lines.append(f"  {base_bits:9d}  {digits:6d}  {err:12.5f}  {pred:12.5f}")
    lines.append("  (coarser digits -> fewer terms, more noise; the paper's")
    lines.append("   d=2 sits at the coarse end, relying on the huge Qp)")
    emit("ablation_gadget_noise", "\n".join(lines))
    # Coarser base must not *reduce* error.
    assert rows[1][2] >= rows[0][2] * 0.5


def bench_ablation_double_angle_evalmod(benchmark):
    """Ablation on the conventional baseline: plain degree-119 sine vs the
    Han-Ki double-angle refinement (degree-31 sine/cosine + 2 doublings)."""
    import time

    import numpy as np
    from repro.ckks import (
        CkksContext,
        CkksEvaluator,
        CkksKeyGenerator,
        ConventionalBootstrapConfig,
        ConventionalBootstrapper,
        ConventionalBootstrapTrace,
        make_bootstrappable_toy_params,
    )
    from repro.math.sampling import Sampler

    params = make_bootstrappable_toy_params(n=16, levels=17, delta_bits=24,
                                            q0_bits=30)
    ctx = CkksContext(params, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(98))
    sk = gen.secret_key()
    rots = ConventionalBootstrapper.required_rotation_indices(ctx)
    keys = gen.keyset(sk, rotations=rots, conjugate=True)
    ev = CkksEvaluator(ctx, keys, Sampler(99), scale_rtol=5e-2)
    z = np.random.default_rng(5).uniform(-1, 1, ctx.slots)

    def run_both():
        rows = []
        for label, cfg in (
            ("plain deg-119", ConventionalBootstrapConfig()),
            ("double-angle r=2, deg-31",
             ConventionalBootstrapConfig(sine_degree=31, double_angle=2)),
        ):
            boot = ConventionalBootstrapper(ctx, keys, config=cfg, evaluator=ev)
            trace = ConventionalBootstrapTrace()
            start = time.perf_counter()
            out = boot.bootstrap(ev.encrypt(z, level=0), trace)
            elapsed = time.perf_counter() - start
            err = float(np.max(np.abs(ev.decrypt(out, sk).real - z)))
            rows.append((label, elapsed, trace.levels_consumed, err))
        return rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1, warmup_rounds=0)
    lines = ["Ablation: EvalMod strategy in the conventional baseline",
             "  strategy                   time (s)  levels  max err"]
    for label, t, levels, err in rows:
        lines.append(f"  {label:25s}  {t:7.2f}  {levels:6d}  {err:.4f}")
    emit("ablation_double_angle", "\n".join(lines))
    for _, __, ___, err in rows:
        assert err < 0.2
