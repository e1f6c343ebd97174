"""Tests for the shared staged bootstrap pipeline (Algorithm 2)."""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.errors import ParameterError
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.profiling import count_ops
from repro.service import BootstrapService, UserKeys
from repro.switching import BootstrapPipeline, LocalExecutor, SwitchingKeySet
from repro.switching.cluster_sim import ClusterExecutor
from repro.switching.fanout import Fault, FaultInjector
from repro.switching.pipeline import BootstrapTrace, mod_switch

PARAMS = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                         special_limbs=2)


@pytest.fixture(scope="module")
def stack():
    ctx = CkksContext(PARAMS.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(601))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(602))
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(603), base_bits=4,
                                   error_std=0.8)
    return ctx, sk, ev, swk


class TestStages:
    def test_mod_switch_exact_identity(self, stack):
        """Steps 1-2 are an exact integer split:
        2N*x = q*ct_ms + ct' componentwise, for both components."""
        ctx, sk, ev, swk = stack
        ct = ev.encrypt(0.3, level=0)
        n, two_n = ctx.n, 2 * ctx.n
        q = ct.basis.moduli[0]
        ms = mod_switch(ct, two_n, q)
        c0 = np.asarray(ct.c0.to_coeff().limbs[0], dtype=object)
        c1 = np.asarray(ct.c1.to_coeff().limbs[0], dtype=object)
        assert all(two_n * int(c0[i]) == q * int(ms.c0_ms[i]) +
                   int(ms.c0_prime[i]) for i in range(n))
        assert all(two_n * int(c1[i]) == q * int(ms.c1_ms[i]) +
                   int(ms.c1_prime[i]) for i in range(n))

    def test_rejects_non_level0_input(self, stack):
        ctx, sk, ev, swk = stack
        pipeline = BootstrapPipeline(ctx, swk)
        with pytest.raises(ParameterError):
            pipeline.run(ev.encrypt(0.2))  # top level, not level 0

    def test_default_executor_is_local(self, stack):
        ctx, sk, ev, swk = stack
        pipeline = BootstrapPipeline(ctx, swk)
        assert isinstance(pipeline.executor, LocalExecutor)
        assert pipeline.executor.test_vector is pipeline.test_vector

    def test_shells_share_the_pipeline_class(self, stack):
        """The service's key-cache entries hold the one BootstrapPipeline
        class — the algorithm's arithmetic lives once (the cluster is an
        executor plugged into it, with no shell of its own)."""
        ctx, sk, ev, swk = stack
        service = BootstrapService(
            lambda uid: UserKeys.from_switching(ctx, swk))
        assert type(service.cache.get("user").pipeline) is BootstrapPipeline


class TestTraceSemantics:
    def test_local_run_reports_single_node_timing(self, stack):
        ctx, sk, ev, swk = stack
        boot = BootstrapPipeline(ctx, swk)
        trace = BootstrapTrace()
        boot.run(ev.encrypt(0.3, level=0), trace)
        assert list(trace.node_seconds) == [0]
        assert trace.node_seconds[0] > 0.0
        assert trace.fanout_retries == 0
        assert trace.failed_nodes == []
        assert set(trace.step_seconds) == {"extract", "blind_rotate",
                                           "repack", "finish"}

    def test_reused_trace_records_only_the_latest_run(self, stack):
        """One trace = one run: reuse resets *everything*, so notes do not
        accumulate across calls."""
        ctx, sk, ev, swk = stack
        boot = BootstrapPipeline(ctx, swk)
        ct = ev.encrypt(0.3, level=0)
        trace = BootstrapTrace()
        boot.run(ct, trace)
        first_notes = list(trace.notes)
        first_lwe = trace.num_lwe
        boot.run(ct, trace)
        assert len(trace.notes) == len(first_notes)
        assert trace.num_lwe == first_lwe
        assert trace.num_blind_rotates == ctx.n

    def test_reset_restores_every_field(self):
        trace = BootstrapTrace()
        trace.num_lwe = 7
        trace.fanout_retries = 3
        trace.fanout_redispatched_lwes = 12
        trace.failed_nodes.append(2)
        trace.step_seconds["extract"] = 1.0
        trace.node_seconds[1] = 2.0
        trace.notes.append("stale")
        trace.reset()
        assert trace == BootstrapTrace()

    def test_reset_produces_fresh_containers(self):
        """reset() must not alias containers between traces (a shared
        default dict would leak one run's timings into another)."""
        trace = BootstrapTrace()
        trace.reset()
        other = BootstrapTrace()
        trace.notes.append("mine")
        trace.step_seconds["extract"] = 1.0
        assert other.notes == []
        assert other.step_seconds == {}


class TestFanoutCounters:
    """Dispatch and recovery facts live on the ``BootstrapTrace`` (one
    ``node_seconds`` entry per dispatched-to node); a ``count_ops``
    region holds the fan-out's arithmetic and nothing else."""

    def test_local_fanout_counted_in_opstats(self, stack):
        ctx, sk, ev, swk = stack
        boot = BootstrapPipeline(ctx, swk)
        trace = BootstrapTrace()
        with count_ops() as stats:
            boot.run(ev.encrypt(0.3, level=0), trace)
        assert len(trace.node_seconds) == 1
        assert trace.fanout_retries == 0
        assert trace.fanout_redispatched_lwes == 0
        # The region saw the blind rotates themselves (zero mask
        # coefficients skip their external product).
        assert 0 < stats.external_products <= trace.num_blind_rotates * ctx.n

    def test_cluster_fanout_counted_in_opstats(self, stack):
        ctx, sk, ev, swk = stack
        cluster = ClusterExecutor.for_keys(ctx, swk, num_workers=4)
        trace = BootstrapTrace()
        BootstrapPipeline(ctx, swk, executor=cluster).run(
            ev.encrypt(0.3, level=0), trace)
        assert len(trace.node_seconds) == 4  # one per node slice

    def test_recovery_counted_in_opstats(self, stack):
        """Fault recovery is first-class work on the trace, and the
        region's arithmetic includes the re-dispatched slice."""
        ctx, sk, ev, swk = stack
        ct = ev.encrypt(0.3, level=0)
        def cluster(**kwargs):
            return BootstrapPipeline(ctx, swk, executor=ClusterExecutor.for_keys(
                ctx, swk, num_workers=3, **kwargs))

        with count_ops() as clean:
            cluster().run(ct)
        injector = FaultInjector([Fault.crash(2, after=1)])
        trace = BootstrapTrace()
        with count_ops() as stats:
            cluster(fault_injector=injector).run(ct, trace)
        assert len(trace.node_seconds) == 3
        assert trace.fanout_retries == 1
        assert trace.fanout_redispatched_lwes == 5  # node 2's slice of 16
        assert trace.worker_respawns == 0
        assert trace.failed_nodes == [2]
        assert stats.external_products > clean.external_products
