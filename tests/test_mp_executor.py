"""Tests for the real multiprocessing fan-out executor: bit-identity
against the in-process pipeline, survival of
genuine worker death (SIGKILL, nonzero exit, reply timeout), worker-side
fault realisation, accounting, and the cross-executor determinism of the
fault-injection schedule."""

import multiprocessing
import pickle
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.errors import ClusterExecutionError, SharedBufferError
from repro.io import publish_shared_arrays
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.switching import SwitchingKeySet, luts
from repro.switching.cluster_sim import ClusterExecutor
from repro.switching.fanout import PRIMARY, Fault, FaultInjector
from repro.switching.keys import brk_bytes
from repro.switching.mp_executor import (
    ProcessPoolFanoutExecutor,
    _pack_key_material,
    _rebuild_key_material,
)
from repro.switching.pipeline import BootstrapPipeline, BootstrapTrace, LocalExecutor
from repro.tfhe.batch_engine import BatchBlindRotateEngine
from repro.tfhe.blind_rotate import BlindRotateKey
from repro.tfhe.lwe import LweCiphertext

from .oracle import assert_ct_equal as assert_bit_identical
from .oracle import assert_glwe_equal

PARAMS = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                         special_limbs=2)


@pytest.fixture(scope="module")
def stack():
    ctx = CkksContext(PARAMS.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(501))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(502))
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(503), base_bits=4,
                                   error_std=0.8)
    return ctx, sk, ev, swk


@pytest.fixture(scope="module")
def level0_ct(stack):
    ctx, _, ev, _ = stack
    z = np.random.default_rng(7).uniform(-1, 1, ctx.slots)
    return ev.encrypt(z, level=0)


@pytest.fixture(scope="module")
def reference(stack, level0_ct):
    """The in-process run every pool run must reproduce bit for bit."""
    ctx, _, _, swk = stack
    return BootstrapPipeline(ctx, swk).run(level0_ct)


def pool_bootstrap(ctx, swk, ct, trace=None, num_workers=2, **pool_kwargs):
    with ProcessPoolFanoutExecutor.for_keys(ctx, swk, num_workers=num_workers,
                                            **pool_kwargs) as pool:
        return BootstrapPipeline(ctx, swk, executor=pool).run(ct, trace)


class TestBitIdentity:
    def test_spawn_start_method(self, stack, level0_ct, reference):
        """Workers located by import (no fork inheritance) rebuild the
        key material purely from the shared-memory manifest."""
        ctx, _, _, swk = stack
        out = pool_bootstrap(ctx, swk, level0_ct, start_method="spawn")
        assert_bit_identical(reference, out)

    def test_single_worker_pool(self, stack, level0_ct, reference):
        ctx, _, _, swk = stack
        out = pool_bootstrap(ctx, swk, level0_ct, num_workers=1)
        assert_bit_identical(reference, out)


class TestWorkerDeath:
    def test_sigkill_mid_batch_recovers_bit_identically(self, stack,
                                                        level0_ct, reference):
        """A worker SIGKILLed after part of its batch is detected,
        respawned, and its whole slice re-dispatched — output unchanged."""
        ctx, _, _, swk = stack
        trace = BootstrapTrace()
        out = pool_bootstrap(
            ctx, swk, level0_ct, trace,
            fault_injector=FaultInjector([Fault.crash(1, after=2)]))
        assert_bit_identical(reference, out)
        assert trace.failed_nodes == [1]
        assert trace.fanout_retries == 1
        assert trace.worker_respawns == 1
        assert any("signal 9" in note for note in trace.notes)

    def test_nonzero_exit_recovers(self, stack, level0_ct, reference):
        ctx, _, _, swk = stack
        trace = BootstrapTrace()
        out = pool_bootstrap(
            ctx, swk, level0_ct, trace,
            fault_injector=FaultInjector(
                [Fault.crash(0, after=0, exit_code=3)]))
        assert_bit_identical(reference, out)
        assert any("exitcode=3" in note for note in trace.notes)

    def test_reply_timeout_recovers(self, stack, level0_ct, reference):
        """A straggler beyond reply_timeout is presumed dead: killed,
        respawned, slice re-dispatched."""
        ctx, _, _, swk = stack
        trace = BootstrapTrace()
        out = pool_bootstrap(
            ctx, swk, level0_ct, trace,
            fault_injector=FaultInjector([Fault.straggler(0, 30.0)]),
            reply_timeout=1.0)
        assert_bit_identical(reference, out)
        assert trace.failed_nodes == [0]
        assert any("timed out" in note for note in trace.notes)

    def test_both_workers_killed_recovers_via_respawn(self, stack, level0_ct, reference):
        ctx, _, _, swk = stack
        trace = BootstrapTrace()
        out = pool_bootstrap(
            ctx, swk, level0_ct, trace,
            fault_injector=FaultInjector([Fault.crash(0, after=1),
                                          Fault.crash(1, after=0)]))
        assert_bit_identical(reference, out)
        assert sorted(trace.failed_nodes) == [0, 1]
        assert trace.worker_respawns == 2

    def test_unrecoverable_when_respawn_budget_zero(self, stack, level0_ct):
        """Persistent kill faults with no respawn budget exhaust the pool:
        a typed ClusterExecutionError, not a hang or garbage."""
        ctx, _, _, swk = stack
        inj = FaultInjector([Fault.crash(0, persistent=True),
                             Fault.crash(1, persistent=True)])
        with pytest.raises(ClusterExecutionError) as err:
            pool_bootstrap(ctx, swk, level0_ct, fault_injector=inj,
                           max_respawns=0)
        assert err.value.pending_slices


class TestWorkerSideFaults:
    def test_drop_and_corrupt_realised_by_worker(self, stack, level0_ct, reference):
        """Reply mutation happens in the worker process; the primary's
        frame validation catches both and recovery restores the output."""
        ctx, _, _, swk = stack
        trace = BootstrapTrace()
        out = pool_bootstrap(
            ctx, swk, level0_ct, trace,
            fault_injector=FaultInjector([Fault.drop_reply(0, index=1),
                                          Fault.corrupt_reply(1, index=0)]))
        assert_bit_identical(reference, out)
        assert trace.fanout_retries == 2
        # Drops and corruptions are wire faults, not worker deaths.
        assert trace.failed_nodes == []
        assert trace.worker_respawns == 0

    def test_short_straggle_just_slows_the_reply(self, stack, level0_ct, reference):
        ctx, _, _, swk = stack
        trace = BootstrapTrace()
        out = pool_bootstrap(
            ctx, swk, level0_ct, trace,
            fault_injector=FaultInjector([Fault.straggler(1, 0.2)]),
            reply_timeout=30.0)
        assert_bit_identical(reference, out)
        assert trace.fanout_retries == 0
        assert trace.node_seconds[1] >= 0.2


class TestConcurrentDispatch:
    """Every slice must be in flight before any reply is awaited.  Two
    equal worker-side sleeps then overlap, so the faulted run costs ~one
    sleep over the fault-free run; serialized dispatch (send, block for
    the reply, send the next slice) necessarily costs both sleeps.
    Sleep overlap needs no spare cores, so this holds on 1 CPU too."""

    def test_straggler_sleeps_overlap(self, stack, level0_ct):
        ctx, _, _, swk = stack
        delay = 0.8
        t0 = time.perf_counter()
        pool_bootstrap(ctx, swk, level0_ct)
        base = time.perf_counter() - t0
        t0 = time.perf_counter()
        pool_bootstrap(
            ctx, swk, level0_ct,
            fault_injector=FaultInjector([Fault.straggler(0, delay),
                                          Fault.straggler(1, delay)]))
        slowed = time.perf_counter() - t0
        assert slowed - base < 2 * delay - 0.4, (
            f"sleeps did not overlap: faulted run {slowed:.3f}s vs "
            f"baseline {base:.3f}s — dispatch is serialized")


class TestAccounting:
    def test_trace_and_comm_accounting(self, stack, level0_ct):
        ctx, _, _, swk = stack
        trace = BootstrapTrace()
        with ProcessPoolFanoutExecutor.for_keys(ctx, swk,
                                                num_workers=2) as pool:
            BootstrapPipeline(ctx, swk, executor=pool).run(level0_ct, trace)
            # Per-worker wall-clock for both workers, pool metadata on
            # the trace, and framed traffic on every primary<->worker link.
            assert set(trace.node_seconds) == {0, 1}
            assert all(s > 0 for s in trace.node_seconds.values())
            assert trace.pool_spinup_seconds == pool.spinup_seconds > 0
            assert trace.shared_key_bytes == pool.shared_key_bytes > 0
            assert pool.shared_key_bytes == pool.manifest.total_bytes
            for wid in (0, 1):
                assert pool.comm.link_bytes(PRIMARY, wid) > 0
                assert pool.comm.link_bytes(wid, PRIMARY) > 0
            assert pool.comm.total_retry_bytes() == 0
            util = pool.utilisation()
            assert sum(util.values()) == ctx.n

    def test_opstats_pool_counters(self, stack, level0_ct):
        """Pool lifecycle facts are read off the pool and the trace —
        ``OpStats`` holds arithmetic only."""
        ctx, _, _, swk = stack
        trace = BootstrapTrace()
        with ProcessPoolFanoutExecutor.for_keys(
                ctx, swk, num_workers=2,
                fault_injector=FaultInjector([Fault.crash(1)])) as pool:
            BootstrapPipeline(ctx, swk, executor=pool).run(level0_ct, trace)
            assert pool.spinup_seconds > 0
            assert pool.shared_key_bytes > 0
        assert trace.worker_respawns == 1
        assert trace.fanout_retries == 1
        assert trace.failed_nodes == [1]

    def test_retry_traffic_accounted_separately(self, stack, level0_ct):
        ctx, _, _, swk = stack
        with ProcessPoolFanoutExecutor.for_keys(
                ctx, swk, num_workers=2,
                fault_injector=FaultInjector([Fault.drop_reply(0)])) as pool:
            BootstrapPipeline(ctx, swk, executor=pool).run(level0_ct)
            assert pool.comm.total_retry_bytes() > 0
            assert pool.comm.total_retry_bytes() < pool.comm.total_bytes()


class TestLifecycle:
    def test_closed_pool_refuses_work(self, stack, level0_ct):
        ctx, _, _, swk = stack
        pool = ProcessPoolFanoutExecutor.for_keys(ctx, swk, num_workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ClusterExecutionError, match="closed"):
            BootstrapPipeline(ctx, swk, executor=pool).run(level0_ct)

    def test_context_manager_reports_closed(self, stack):
        """``closed`` tracks the context-manager lifecycle, so cache
        owners (the service's LRU key cache) can observe executor state."""
        ctx, _, _, swk = stack
        with ProcessPoolFanoutExecutor.for_keys(ctx, swk,
                                                num_workers=1) as pool:
            assert not pool.closed
        assert pool.closed
        pool.close()  # still idempotent after __exit__
        assert pool.closed

    def test_pool_reusable_across_bootstraps(self, stack, level0_ct, reference):
        """The pool is persistent: spin-up is paid once, both runs are
        bit-identical to the local path."""
        ctx, _, _, swk = stack
        with ProcessPoolFanoutExecutor.for_keys(ctx, swk,
                                                num_workers=2) as pool:
            pipe = BootstrapPipeline(ctx, swk, executor=pool)
            assert_bit_identical(reference, pipe.run(level0_ct))
            assert_bit_identical(reference, pipe.run(level0_ct))


class TestInjectorDeterminism:
    """Satellite: the injector is picklable and seed-deterministic, so
    one schedule drives both the simulated cluster and the real pool."""

    def test_fault_and_injector_pickle_roundtrip(self):
        inj = FaultInjector([Fault.crash(1, after=2, exit_code=5),
                             Fault.straggler(0, 0.25, persistent=True)])
        clone = pickle.loads(pickle.dumps(inj))
        assert clone == inj
        assert clone.faults[0].exit_code == 5
        assert clone.faults[1].persistent

    def test_seeded_schedules_are_deterministic(self):
        a = FaultInjector.seeded(42, node_ids=[0, 1, 2], count=4)
        b = FaultInjector.seeded(42, node_ids=[0, 1, 2], count=4)
        assert a == b
        assert a != FaultInjector.seeded(43, node_ids=[0, 1, 2], count=4)
        assert pickle.loads(pickle.dumps(a)) == b


#: Hand schedules for a 2-worker fan-out of 16 LWEs (slices [0, 8) and
#: [8, 16)); each must tell the same recovery story on both transports.
PARITY_SCHEDULES = {
    "crash_mid_slice": [Fault.crash(1, after=2)],
    "crash_and_drop_same_node": [Fault.crash(0, after=1),
                                 Fault.drop_reply(0)],
    "crash_and_corrupt": [Fault.crash(1, after=1), Fault.corrupt_reply(0)],
    "primary_crash_and_straggle": [Fault.crash(0), Fault.straggler(1, 0.05)],
    "corrupt_and_drop": [Fault.corrupt_reply(0, index=1),
                         Fault.drop_reply(1)],
    "persistent_corrupt": [Fault.corrupt_reply(0, persistent=True),
                           Fault.corrupt_reply(1, persistent=True)],
}


def _story(run, reference):
    """What a fan-out did: output bytes (or the typed error) plus its
    recovery counters."""
    trace = BootstrapTrace()
    try:
        out = run(trace)
    except ClusterExecutionError as exc:
        return "error", str(exc).split(" with ")[0]
    assert_bit_identical(reference, out)
    return (trace.fanout_retries, trace.fanout_redispatched_lwes,
            trace.failed_nodes)


@pytest.mark.parametrize("schedule", list(PARITY_SCHEDULES))
def test_cluster_and_pool_tell_the_same_story(stack, level0_ct, reference,
                                              schedule):
    """One hand schedule on the simulated cluster and on the 2-worker
    pool: byte-equal outputs (or the same typed error) and equal
    ``(fanout_retries, fanout_redispatched_lwes, failed_nodes)``.  Both
    transports share the send order, the fault draw and the reply check;
    what differs — the pool respawns a dead worker, the cluster does not
    within a fan-out — no schedule here depends on."""
    ctx, _, _, swk = stack
    kwargs = {"num_workers": 2, "max_retries": 4}

    def on_cluster(trace):
        cluster = ClusterExecutor.for_keys(
            ctx, swk, fault_injector=FaultInjector(PARITY_SCHEDULES[schedule]),
            **kwargs)
        return BootstrapPipeline(ctx, swk, executor=cluster).run(level0_ct,
                                                                 trace)

    def on_pool(trace):
        return pool_bootstrap(
            ctx, swk, level0_ct, trace,
            fault_injector=FaultInjector(PARITY_SCHEDULES[schedule]), **kwargs)

    cluster_story = _story(on_cluster, reference)
    assert cluster_story == _story(on_pool, reference)
    if schedule == "persistent_corrupt":
        assert cluster_story[0] == "error"


def _worker_key_spectrum(manifest, conn):
    """Child-process body: the key spectrum a pool worker's engine holds
    (module level, so ``spawn`` can locate it by import)."""
    block, engine, _ = _rebuild_key_material(manifest)
    conn.send(engine.key_spectrum)
    conn.close()
    block.close()


class TestSeededKeyStreaming:
    """ARK-style seeded publish: the pool ships seeds + b-halves and the
    workers replay the mask streams locally."""

    @pytest.fixture(scope="class")
    def seeded_swk(self, stack):
        ctx, sk, _, _ = stack
        return SwitchingKeySet.generate(ctx, sk, base_bits=4, error_std=0.8,
                                        key_seed=9901)

    def test_seeded_pool_bit_identical(self, stack, level0_ct, seeded_swk):
        ctx, _, _, _ = stack
        reference = BootstrapPipeline(ctx, seeded_swk).run(level0_ct)
        out = pool_bootstrap(ctx, seeded_swk, level0_ct)
        assert_bit_identical(reference, out)

    def test_seeded_publish_halves_shared_bytes(self, stack, seeded_swk):
        """Seeds + bodies in shared memory against the expanded key's
        own bytes (what mapping the full key would cost)."""
        ctx, _, _, _ = stack
        with ProcessPoolFanoutExecutor.for_keys(ctx, seeded_swk,
                                                num_workers=1) as pool:
            seeded_bytes = pool.shared_key_bytes
        assert brk_bytes(seeded_swk.brk) >= 1.9 * seeded_bytes

    def test_seedless_key_is_refused(self, stack, seeded_swk):
        """A hand-assembled key without mask seeds has no seed+b form."""
        ctx, _, _, _ = stack
        brk = seeded_swk.brk
        bare = BlindRotateKey(plus=brk.plus, minus=brk.minus,
                              gadget=brk.gadget, h=brk.h)
        tv = seeded_swk.test_vector(ctx.n, ctx.full_basis.moduli[0])
        with pytest.raises(SharedBufferError, match="no mask seeds"):
            ProcessPoolFanoutExecutor(SimpleNamespace(brk=bare), tv,
                                      num_workers=1)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_spectrum_byte_equal(self, stack, seeded_swk, start_method):
        """A worker's engine, built from shared bodies and replayed mask
        seeds, holds the in-process engine's key spectrum byte for byte."""
        ctx, _, _, _ = stack
        brk = seeded_swk.brk
        tv = seeded_swk.test_vector(ctx.n, ctx.full_basis.moduli[0])
        local = BatchBlindRotateEngine.for_key(brk, tv.n, tv.basis).key_spectrum
        block, manifest = publish_shared_arrays(*_pack_key_material(brk, tv))
        try:
            mp = multiprocessing.get_context(start_method)
            recv, send = mp.Pipe(duplex=False)
            proc = mp.Process(target=_worker_key_spectrum, args=(manifest, send))
            proc.start()
            send.close()
            remote = recv.recv()
            proc.join(60)
        finally:
            block.close()
            block.unlink()
        assert proc.exitcode == 0
        assert (remote.dtype, remote.shape) == (local.dtype, local.shape)
        assert remote.tobytes() == local.tobytes()

    def test_seeded_pool_spawn_start_method(self, stack, level0_ct,
                                            seeded_swk):
        """Workers with no fork inheritance expand keys purely from the
        manifest's seeds and bodies."""
        ctx, _, _, _ = stack
        reference = BootstrapPipeline(ctx, seeded_swk).run(level0_ct)
        out = pool_bootstrap(ctx, seeded_swk, level0_ct,
                             start_method="spawn")
        assert_bit_identical(reference, out)


def _zero_rotations(lwes):
    """The batch with rotation amount 0 at iteration 0 for every LWE and
    at every odd iteration for the even-indexed ones: the engine skips
    the first iteration and runs the others on a fancy-indexed
    sub-batch."""
    out = []
    for j, ct in enumerate(lwes):
        a = np.array(ct.a, copy=True)
        a[0] = 0
        if j % 2 == 0:
            a[1::2] = 0
        out.append(LweCiphertext(a, ct.b, ct.q))
    return out


class TestPbsOnTheRaisedBasis:
    """Threshold-LUT PBS on seeded keys: the blind rotate runs over the
    multi-limb raised basis, so every digit comes from the fixed-width
    residue decomposer each worker's engine builds in its constructor."""

    @pytest.fixture(scope="class")
    def pbs_batches(self, stack):
        ctx, sk, ev, _ = stack
        swk = SwitchingKeySet.generate(ctx, sk, base_bits=4, error_std=0.8,
                                       key_seed=20240604)
        assert len(swk.brk.plus[0].basis) > 1
        pipe = BootstrapPipeline(ctx, swk)
        values = np.random.default_rng(11).uniform(-0.2, 0.2, ctx.n // 2)
        ct = ev.drop_to_level(ev.encrypt_coeffs(values), 0)
        lut = pipe.resolve_lut(luts.threshold(0.0), ct.scale)
        lwes = pipe.prepare_pbs(ct).lwes
        batches = [lwes, _zero_rotations(lwes), lwes]
        local = LocalExecutor(swk, swk.test_vector(ctx.n,
                                                   ctx.full_basis.moduli[0]))
        expected = [local.fanout(b, BootstrapTrace(), lut=lut)
                    for b in batches]
        return swk, lut, batches, expected

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_byte_equal_to_local_across_a_respawn(self, stack, pbs_batches,
                                                  start_method):
        """Worker 1 is SIGKILLed inside the first batch and respawned; the
        zero-rotation batch and a repeat run on the respawned worker."""
        ctx = stack[0]
        swk, lut, batches, expected = pbs_batches
        with ProcessPoolFanoutExecutor.for_keys(
                ctx, swk, num_workers=2, start_method=start_method,
                fault_injector=FaultInjector([Fault.crash(1, after=2)])
        ) as pool:
            trace = BootstrapTrace()
            got = [pool.fanout(batches[0], trace, lut=lut)]
            assert trace.worker_respawns == 1
            got += [pool.fanout(b, BootstrapTrace(), lut=lut)
                    for b in batches[1:]]
        for accs, want in zip(got, expected):
            assert len(accs) == len(want)
            for a, b in zip(accs, want):
                assert_glwe_equal(a, b)
