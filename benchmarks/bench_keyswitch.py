"""Batched hybrid-keyswitch engine vs the scalar reference (ISSUE 4 gate).

Two workloads, both routed through ``CkksEvaluator``:

* **Hoisted BSGS microbench** — one ciphertext, the whole baby-step
  rotation set 1..31 hoisted through a single ModUp at N = 2^10 over
  the full toy level chain.  This is the kernel the BSGS
  ``apply_matrix`` and CoeffToSlot/SlotToCoeff spend their time in.
  Acceptance gate: the batched engine is >= 4x faster than the scalar
  ``KeySwitcher.switch_reference`` / ``mod_down_reference`` path.
* **Conventional bootstrap** — end-to-end ``ConventionalBootstrapper``
  at toy parameters (n = 64, 17 levels), where keyswitching is one cost
  among encode/rescale/NTT work it does not control.  Acceptance gate:
  >= 2x wall-clock.

Methodology mirrors ``bench_repack.py``: each configuration runs once
untimed first — that pass doubles as the bit-identity check (both
engines must agree on every limb before a timing counts) and as warmup
so one-time costs (BConv plan build, key eval-tensor lift, stacked NTT
tables) do not distort either side.  Each side is then timed
interleaved via the shared ``_timing.time_interleaved`` loop and the
minimum is reported, into ``BENCH_keyswitch.json`` at the repo root.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_keyswitch.py -q``
(excluded from tier-1 ``testpaths``), or directly as a script.
``python benchmarks/bench_keyswitch.py --quick`` runs the CI variant:
bit-identity of the hoisted rotation set at N = 2^6 and 2^7, no timing
gate.
"""

import os
import sys

import numpy as np

from repro.ckks.bootstrap import (
    ConventionalBootstrapConfig,
    ConventionalBootstrapper,
    make_bootstrappable_toy_params,
)
from repro.ckks.context import CkksContext
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import CkksKeyGenerator
from repro.ckks.keyswitch import KeySwitcher
from repro.math.sampling import Sampler
from repro.params import make_toy_params

try:
    from conftest import emit
except ImportError:  # running as a plain script, not under pytest
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import emit

from _timing import time_interleaved, write_bench_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_keyswitch.json")


class _ScalarKeySwitcher(KeySwitcher):
    """The scalar reference as an evaluator's switcher — the baseline
    every routed operation ran on before the batched engine."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.engine = None

    switch = KeySwitcher.switch_reference
    mod_down = KeySwitcher.mod_down_reference


def _scalar_evaluator(ctx, keys, **kwargs):
    ev = CkksEvaluator(ctx, keys, **kwargs)
    ev.switcher = _ScalarKeySwitcher(ctx)
    return ev


def _assert_same_ct(a, b):
    assert a.c0 == b.c0 and a.c1 == b.c1 and a.scale == b.scale


def _hoisted_setup(n, limbs, special, rotations):
    p = make_toy_params(n=n, limbs=limbs, limb_bits=28, special_limbs=special)
    ctx = CkksContext(p.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(seed=1234))
    sk = gen.secret_key()
    keys = gen.keyset(sk, rotations=rotations)
    ev_bat = CkksEvaluator(ctx, keys, sampler=Sampler(seed=7))
    ev_ref = _scalar_evaluator(ctx, keys, sampler=Sampler(seed=7))
    ct = ev_bat.encrypt(np.linspace(-1, 1, ctx.slots))
    return ev_bat, ev_ref, ct


def _bench_hoisted(ring_sizes, results, gate):
    for n in ring_sizes:
        rotations = list(range(1, 32))
        ev_bat, ev_ref, ct = _hoisted_setup(n, limbs=6, special=3,
                                            rotations=rotations)
        # Warmup + correctness: the whole hoisted rotation set must be
        # bit-identical between engines before any timing counts.
        out_bat = ev_bat.rotate_hoisted(ct, rotations)
        out_ref = ev_ref.rotate_hoisted(ct, rotations)
        for r in rotations:
            _assert_same_ct(out_bat[r], out_ref[r])
        bat_s, ref_s = time_interleaved(
            lambda: ev_bat.rotate_hoisted(ct, rotations),
            lambda: ev_ref.rotate_hoisted(ct, rotations))
        results.append({
            "workload": "hoisted_bsgs",
            "n": n,
            "rotations": len(rotations),
            "scalar_s": round(ref_s, 6),
            "batched_s": round(bat_s, 6),
            "speedup": round(ref_s / bat_s, 2),
        })
    if gate:
        top = next(r for r in results if r["workload"] == "hoisted_bsgs"
                   and r["n"] == max(ring_sizes))
        assert top["speedup"] >= 4.0, (
            f"keyswitch engine only {top['speedup']}x on hoisted BSGS "
            f"at N={top['n']}")


def _bootstrap_setup(n, levels):
    params = make_bootstrappable_toy_params(n=n, levels=levels)
    ctx = CkksContext(params, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(seed=1234))
    sk = gen.secret_key()
    rots = ConventionalBootstrapper.required_rotation_indices(ctx)
    keys = gen.keyset(sk, rotations=rots, conjugate=True)
    cfg = ConventionalBootstrapConfig()
    ev_bat = CkksEvaluator(ctx, keys, scale_rtol=5e-2)
    ev_ref = _scalar_evaluator(ctx, keys, scale_rtol=5e-2)
    boot_bat = ConventionalBootstrapper(ctx, keys, cfg, evaluator=ev_bat)
    boot_ref = ConventionalBootstrapper(ctx, keys, cfg, evaluator=ev_ref)
    vals = np.linspace(-0.4, 0.4, ctx.slots)
    ct0 = ev_bat.drop_to_level(ev_bat.encrypt(vals), 0)
    return boot_bat, boot_ref, ct0


def _bench_bootstrap(n, levels, results, gate):
    boot_bat, boot_ref, ct0 = _bootstrap_setup(n, levels)
    # Warmup + correctness: bootstrap output must be bit-identical.
    out_bat = boot_bat.bootstrap(ct0)
    out_ref = boot_ref.bootstrap(ct0)
    _assert_same_ct(out_bat, out_ref)
    bat_s, ref_s = time_interleaved(lambda: boot_bat.bootstrap(ct0),
                                    lambda: boot_ref.bootstrap(ct0))
    results.append({
        "workload": "conventional_bootstrap",
        "n": n,
        "levels": levels,
        "scalar_s": round(ref_s, 6),
        "batched_s": round(bat_s, 6),
        "speedup": round(ref_s / bat_s, 2),
    })
    if gate:
        top = results[-1]
        assert top["speedup"] >= 2.0, (
            f"keyswitch engine only {top['speedup']}x on conventional "
            f"bootstrap at n={n}")


def _report(results):
    write_bench_json(JSON_PATH, "keyswitch", results)
    lines = ["Keyswitch: scalar reference vs batched hybrid engine",
             f"{'workload':>22} {'N':>6} {'scalar (s)':>12} "
             f"{'batched (s)':>12} {'speedup':>9}"]
    for r in results:
        lines.append(f"{r['workload']:>22} {r['n']:>6} "
                     f"{r['scalar_s']:>12.4f} {r['batched_s']:>12.4f} "
                     f"{r['speedup']:>8.1f}x")
    emit("keyswitch", "\n".join(lines))


def _run_quick():
    # CI variant: small rings and a small bootstrap, bit-identity still
    # enforced in the warmup pass of each workload, no timing gate
    # (container timings are too noisy to gate every pull request on).
    results = []
    _bench_hoisted((1 << 6, 1 << 7), results, gate=False)
    _bench_bootstrap(32, 17, results, gate=False)
    _report(results)
    return results


def _run_full():
    results = []
    _bench_hoisted((1 << 8, 1 << 10), results, gate=True)
    _bench_bootstrap(64, 17, results, gate=True)
    _report(results)
    return results


def bench_keyswitch_engines():
    _run_full()


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        _run_quick()
    else:
        _run_full()
    print("bench_keyswitch: OK")
