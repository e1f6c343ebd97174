"""Figure 1: step structure of conventional vs modified CKKS bootstrapping.

The paper's only figure with algorithmic content contrasts the two
pipelines.  This bench executes both of this repo's implementations with
tracing enabled and prints the recovered step lists side by side, along
with the level budgets — the conventional path consumes most of the
chain, the scheme-switching path exactly one level."""

from conftest import emit

from repro.ckks import (
    CkksContext,
    CkksEvaluator,
    CkksKeyGenerator,
    ConventionalBootstrapper,
    ConventionalBootstrapTrace,
    make_bootstrappable_toy_params,
)
from repro.math.sampling import Sampler
from repro.switching import BootstrapPipeline, BootstrapTrace, SwitchingKeySet


def bench_fig1_step_structure(benchmark):
    params = make_bootstrappable_toy_params(n=16, levels=17, delta_bits=24,
                                            q0_bits=30)
    ctx = CkksContext(params, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(81))
    sk = gen.secret_key()
    rots = ConventionalBootstrapper.required_rotation_indices(ctx)
    keys = gen.keyset(sk, rotations=rots, conjugate=True)
    ev = CkksEvaluator(ctx, keys, Sampler(82), scale_rtol=5e-2)
    conv_boot = ConventionalBootstrapper(ctx, keys, evaluator=ev)
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(83), base_bits=6,
                                   error_std=0.8)
    ss_boot = BootstrapPipeline(ctx, swk)

    def run_both():
        ct = ev.encrypt(0.3, level=0)
        conv_trace = ConventionalBootstrapTrace()
        conv_out = conv_boot.bootstrap(ct, conv_trace)
        ss_trace = BootstrapTrace()
        ss_out = ss_boot.run(ev.encrypt(0.3, level=0), ss_trace)
        return conv_trace, conv_out, ss_trace, ss_out

    conv_trace, conv_out, ss_trace, ss_out = benchmark.pedantic(
        run_both, rounds=1, iterations=1, warmup_rounds=0)

    lines = ["Figure 1: bootstrap step structure",
             "",
             "(a) conventional CKKS bootstrapping:"]
    for note in conv_trace.notes:
        lines.append(f"    {note}")
    lines.append(f"    levels consumed: {conv_trace.levels_consumed} "
                 f"of {ctx.max_level} (paper: 15-19 at production scale)")
    lines.append("")
    lines.append("(b) modified (scheme-switching) bootstrapping:")
    lines.append(f"    ModulusSwitch ({ss_trace.modswitch_ops} scalar ops)")
    lines.append(f"    Extract -> {ss_trace.num_lwe} LWE ciphertexts")
    lines.append(f"    BlindRotate x {ss_trace.num_blind_rotates} (parallel)")
    lines.append(f"    Repack ({ss_trace.repack_keyswitches} key switches: "
                 f"{ss_trace.repack_merge_keyswitches} merge + "
                 f"{ss_trace.repack_trace_keyswitches} trace)")
    lines.append("    Add ct' + Rescale by p")
    shares = ", ".join(f"{k} {v * 1e3:.1f}ms"
                       for k, v in ss_trace.step_seconds.items())
    lines.append(f"    step breakdown: {shares}")
    fanout = ", ".join(f"node{k} {v * 1e3:.1f}ms"
                       for k, v in sorted(ss_trace.node_seconds.items()))
    lines.append(f"    fan-out: {fanout} (retries {ss_trace.fanout_retries}, "
                 f"re-sent LWEs {ss_trace.fanout_redispatched_lwes})")
    lines.append(f"    levels consumed: {ctx.max_level - ss_out.level + 1} "
                 "(bootstrap depth 1)")
    emit("fig1_steps", "\n".join(lines))

    assert conv_trace.levels_consumed >= 8
    assert ss_out.level == ctx.max_level
