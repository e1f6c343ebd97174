"""Measured process-pool fan-out scaling vs the cluster model (ISSUE 6).

Times the real :class:`~repro.switching.mp_executor.
ProcessPoolFanoutExecutor` fan-out stage at 1, 2, 4 and 8 workers
(N = 2^10, batch = 32, n_t = 8 — the same workload as
``bench_blind_rotate_batch.py``) and emits ``BENCH_mp_scaling.json`` at
the repo root with the measured speedup next to the
:class:`~repro.hardware.cluster.ClusterBootstrapModel` predicted curve
normalised to one node.  Both curves answer the paper's core question —
how much of Algorithm 2's embarrassing fan-out parallelism survives
contact with a real transport (here: process spawn, shared-memory key
attach, framed pipe traffic instead of 100 Gbit Ethernet).

Methodology: the 1-worker pool is the baseline (so pool overheads —
framing, dispatch, reply deserialization — cancel out of the speedup
ratio and only *parallelism* is measured).  Each pool first runs the
fan-out once untimed; that pass is the bit-identity check against the
in-process ``blind_rotate_batch`` and the warmup (worker key attach,
monomial caches).  Timing then uses the shared
``_timing.time_interleaved`` min-of-REPS loop.  Pool spin-up is
reported separately — it is a once-per-key cost, not a per-bootstrap
cost.

The >= 2.5x-at-4-workers acceptance gate only fires when the container
actually exposes >= 4 CPUs (``os.sched_getaffinity``); on a 1-CPU
container the workers time-slice one core and no speedup is physically
possible, so the gate is recorded as skipped instead of failing.

A second check IS enforced everywhere: the *dispatch-overlap* proof.
Two workers each carrying an injected straggle sleep of D seconds
finish in ~D wall-clock only if both slices were in flight
simultaneously — sequential dispatch (send, block for the reply, send
the next slice) necessarily pays >= 2D.  Sleep overlap needs no spare
cores, so this asserts the pool's concurrency even on the 1-CPU
containers where the speedup gate must be skipped; the result is
recorded under ``dispatch_overlap`` in the json.

Run with ``PYTHONPATH=src python benchmarks/bench_mp_scaling.py`` (or
via pytest; excluded from tier-1 ``testpaths``).  ``--quick`` is the CI
variant: 2 workers, N = 2^6, batch = 8, bit-identity still enforced,
no gate.
"""

import os
import sys
import time

try:
    from conftest import emit
except ImportError:  # running as a plain script, not under pytest
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import emit

from _timing import time_interleaved, write_bench_json

from repro.hardware import ClusterBootstrapModel
from repro.switching.fanout import Fault, FaultInjector
from repro.math.gadget import GadgetVector
from repro.math.modular import find_ntt_primes
from repro.math.rns import RnsBasis
from repro.math.sampling import Sampler
from repro.switching.mp_executor import ProcessPoolFanoutExecutor
from repro.switching.pipeline import BootstrapTrace
from repro.tfhe.blind_rotate import (
    BlindRotateKey,
    blind_rotate_batch,
    build_test_vector,
)
from repro.tfhe.glwe import GlweSecretKey
from repro.tfhe.lwe import LweSecretKey, lwe_encrypt

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_mp_scaling.json")

#: LWE dimension, matching ``bench_blind_rotate_batch.py``.
N_T = 8


class _KeyBox:
    """Minimal key-set stand-in: the pool only needs ``.brk``."""

    def __init__(self, brk):
        self.brk = brk


def _setup(n):
    q = find_ntt_primes(28, n, 1)[0]
    basis = RnsBasis([q])
    gadget = GadgetVector(q=q, base_bits=14, digits=2)
    s = Sampler(1234)
    lwe_sk = LweSecretKey.generate(N_T, s)
    glwe_sk = GlweSecretKey.generate(n, 1, s)
    brk = BlindRotateKey.generate(lwe_sk, glwe_sk, basis, gadget, s)

    def g(t):
        t = t % (2 * n)
        return (q // 8) * (1 if t < n else -1) % q

    f = build_test_vector(g, n, basis)
    return basis, lwe_sk, brk, f


def _assert_bit_identical(got, ref):
    for v, r in zip(got, ref):
        for pv, pr in zip(list(v.mask) + [v.body], list(r.mask) + [r.body]):
            cv, cr = pv.to_coeff(), pr.to_coeff()
            for lv, lr in zip(cv.limbs, cr.limbs):
                assert (lv == lr).all()


def _run(n, batch, worker_counts, gate=True):
    basis, lwe_sk, brk, f = _setup(n)
    s = Sampler(42)
    cts = [lwe_encrypt(i * 5, lwe_sk, 2 * n, s, error_std=0.5)
           for i in range(batch)]
    reference = blind_rotate_batch(f, cts, brk)
    cpus = len(os.sched_getaffinity(0))
    predicted = ClusterBootstrapModel().scaling_curve(
        batch, max_nodes=max(worker_counts))

    results = []
    for workers in worker_counts:
        with ProcessPoolFanoutExecutor(_KeyBox(brk), f,
                                       num_workers=workers) as pool:
            # Warmup + correctness: the pool must agree bit-for-bit with
            # the in-process engine before any timing counts.
            _assert_bit_identical(pool.fanout(cts, BootstrapTrace()),
                                  reference)
            trace = BootstrapTrace()
            (seconds,) = time_interleaved(lambda: pool.fanout(cts, trace))
            results.append({
                "workers": workers,
                "seconds": round(seconds, 6),
                "pool_spinup_s": round(pool.spinup_seconds, 6),
                "shared_key_bytes": pool.shared_key_bytes,
                "predicted_speedup": round(predicted[1] / predicted[workers],
                                           2),
            })
    base = results[0]["seconds"]
    for r in results:
        r["speedup"] = round(base / r["seconds"], 2)

    # Dispatch-overlap proof: two workers sleeping D seconds each take
    # ~D wall-clock only if both slices were in flight at once; a
    # serialized dispatch loop pays >= 2D.  Sleeping needs no spare
    # cores, so unlike the speedup gate this is asserted on any host.
    two = next((r for r in results if r["workers"] == 2), results[0])
    delay = round(two["seconds"] + 0.5, 3)
    with ProcessPoolFanoutExecutor(
            _KeyBox(brk), f, num_workers=2,
            fault_injector=FaultInjector([Fault.straggler(0, delay),
                                          Fault.straggler(1, delay)])) as pool:
        t0 = time.perf_counter()
        slowed = pool.fanout(cts, BootstrapTrace())
        wall = time.perf_counter() - t0
    _assert_bit_identical(slowed, reference)
    overlap = {"workers": 2, "sleep_per_worker_s": delay,
               "wall_s": round(wall, 6),
               "sequential_floor_s": round(2 * delay, 6),
               "overlapped": wall < 2 * delay}
    assert wall < 2 * delay, (
        f"worker sleeps did not overlap: {wall:.3f}s wall >= "
        f"{2 * delay:.3f}s sequential floor — dispatch is serialized")

    gated = gate and cpus >= 4
    write_bench_json(JSON_PATH, "mp_scaling", results,
                     extra={"n": n, "batch": batch, "n_t": N_T,
                            "cpus_available": cpus,
                            "gate_enforced": gated,
                            "dispatch_overlap": overlap})

    lines = ["Process-pool fan-out scaling: measured vs cluster-model "
             "predicted speedup",
             f"(N={n}, batch={batch}, n_t={N_T}, "
             f"cpus_available={cpus})",
             f"{'workers':>8} {'seconds':>10} {'speedup':>9} "
             f"{'predicted':>10} {'spinup (s)':>11}"]
    for r in results:
        lines.append(f"{r['workers']:>8} {r['seconds']:>10.4f} "
                     f"{r['speedup']:>8.2f}x {r['predicted_speedup']:>9.2f}x "
                     f"{r['pool_spinup_s']:>11.4f}")
    if gate and not gated:
        lines.append(f"scaling gate skipped: only {cpus} CPU(s) visible — "
                     f"workers time-slice one core, no speedup possible")
    lines.append(f"dispatch overlap: 2 workers sleeping "
                 f"{delay:.2f}s each finished in {wall:.3f}s wall "
                 f"(sequential floor {2 * delay:.2f}s) — slices were "
                 f"concurrently in flight")
    emit("mp_scaling", "\n".join(lines))

    if gated:
        four = next(r for r in results if r["workers"] == 4)
        assert four["speedup"] >= 2.5, (
            f"pool only {four['speedup']}x at 4 workers "
            f"(N={n}, batch={batch})")
    return results


def bench_mp_scaling():
    _run(1 << 10, 32, (1, 2, 4, 8), gate=True)


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        # CI variant: tiny ring, 1 vs 2 workers, bit-identity still
        # enforced in the warmup pass, no scaling gate.
        _run(1 << 6, 8, (1, 2), gate=False)
    else:
        _run(1 << 10, 32, (1, 2, 4, 8), gate=True)
    print("bench_mp_scaling: OK")
