"""Tests for the message-passing multi-node bootstrap simulation,
including the fault-injection / recovery layer."""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.errors import ClusterExecutionError, ParameterError
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.switching import BootstrapPipeline, SwitchingKeySet
from repro.switching.cluster_sim import ClusterExecutor
from repro.switching.fanout import Fault, FaultInjector
from repro.switching.pipeline import BootstrapTrace

from .oracle import assert_ct_equal as assert_bit_identical

PARAMS = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                         special_limbs=2)


def cluster_run(ctx, swk, ct, trace=None, **kwargs):
    """Bootstrap ``ct`` on a fresh simulated cluster; returns the output
    and the executor (for its ``comm`` and ``utilisation()``)."""
    cluster = ClusterExecutor.for_keys(ctx, swk, **kwargs)
    return BootstrapPipeline(ctx, swk, executor=cluster).run(ct, trace), cluster


@pytest.fixture(scope="module")
def stack():
    ctx = CkksContext(PARAMS.ckks, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(501))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(502))
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(503), base_bits=4,
                                   error_std=0.8)
    return ctx, sk, ev, swk


class TestDistributedBootstrap:
    def test_bit_identical_to_single_node(self, stack):
        """The hardware-agnostic claim: the distributed execution is the
        same computation, byte for byte."""
        ctx, sk, ev, swk = stack
        z = np.random.default_rng(0).uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(z, level=0)
        reference = BootstrapPipeline(ctx, swk).run(ct)
        distributed, _ = cluster_run(ctx, swk, ct, num_workers=4)
        assert_bit_identical(reference, distributed)

    def test_decrypts_correctly(self, stack):
        ctx, sk, ev, swk = stack
        z = np.random.default_rng(1).uniform(-1, 1, ctx.slots)
        out, _ = cluster_run(ctx, swk, ev.encrypt(z, level=0), num_workers=2)
        assert np.allclose(ev.decrypt(out, sk).real, z, atol=0.05)

    def test_work_distribution(self, stack):
        ctx, sk, ev, swk = stack
        _, cluster = cluster_run(ctx, swk, ev.encrypt(0.2, level=0),
                                 num_workers=4)
        util = cluster.utilisation()
        assert sum(util.values()) == ctx.n
        assert max(util.values()) - min(util.values()) <= 1  # balanced

    @pytest.mark.parametrize("num_nodes", [3, 5, 7])
    def test_node_counts_that_do_not_divide_n(self, stack, num_nodes):
        """Uneven contiguous slices still cover all N BlindRotates and
        stay bit-identical to the single-node run."""
        ctx, sk, ev, swk = stack
        ct = ev.encrypt(0.3, level=0)
        reference = BootstrapPipeline(ctx, swk).run(ct)
        out, cluster = cluster_run(ctx, swk, ct, num_workers=num_nodes)
        assert_bit_identical(reference, out)
        util = cluster.utilisation()
        assert sum(util.values()) == ctx.n
        assert max(util.values()) - min(util.values()) <= 1

    def test_single_node_has_no_traffic(self, stack):
        ctx, sk, ev, swk = stack
        _, cluster = cluster_run(ctx, swk, ev.encrypt(0.2, level=0),
                                 num_workers=1)
        assert cluster.comm.total_bytes() == 0

    def test_comm_log_structure(self, stack):
        """Every secondary receives its LWE batch from the primary and
        returns one accumulator per BlindRotate."""
        ctx, sk, ev, swk = stack
        _, cluster = cluster_run(ctx, swk, ev.encrypt(0.2, level=0),
                                 num_workers=4)
        per_node = ctx.n // 4
        for node_id in (1, 2, 3):
            assert cluster.comm.messages[(0, node_id)] == per_node
            assert cluster.comm.messages[(node_id, 0)] == per_node
            # Results (RLWE over Qp) are much bigger than the 2N-modulus
            # LWE inputs — the paper's asymmetric traffic pattern.
            assert (cluster.comm.link_bytes(node_id, 0) >
                    10 * cluster.comm.link_bytes(0, node_id))
        # Fault-free run: no retry traffic, no retry counters.
        assert cluster.comm.total_retry_bytes() == 0

    def test_trace_reports_per_node_fanout_timing(self, stack):
        ctx, sk, ev, swk = stack
        trace = BootstrapTrace()
        cluster_run(ctx, swk, ev.encrypt(0.2, level=0), trace, num_workers=4)
        assert sorted(trace.node_seconds) == [0, 1, 2, 3]
        assert all(t >= 0.0 for t in trace.node_seconds.values())
        assert trace.fanout_retries == 0
        assert trace.fanout_redispatched_lwes == 0
        assert trace.failed_nodes == []

    def test_invalid_config(self, stack):
        ctx, sk, ev, swk = stack
        with pytest.raises(ParameterError):
            ClusterExecutor.for_keys(ctx, swk, num_workers=0)
        with pytest.raises(ParameterError):
            cluster_run(ctx, swk, ev.encrypt(0.1), num_workers=2)  # not level 0


class TestFaultRecovery:
    """Every injected-fault path recovers to a bit-identical result and
    accounts the recovery on the trace and the CommLog."""

    def _reference(self, stack, value=0.35, seed=7):
        ctx, sk, ev, swk = stack
        z = np.random.default_rng(seed).uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(z, level=0)
        return ct, BootstrapPipeline(ctx, swk).run(ct)

    def _faulty_run(self, stack, ct, faults, num_workers, **kwargs):
        ctx, sk, ev, swk = stack
        trace = BootstrapTrace()
        out, cluster = cluster_run(ctx, swk, ct, trace,
                                   num_workers=num_workers,
                                   fault_injector=FaultInjector(faults),
                                   **kwargs)
        return out, trace, cluster

    def test_crash_mid_batch_recovers(self, stack):
        """Node 2 dies after one BlindRotate; its whole 5-LWE slice is
        re-sent to the least-loaded survivor (node 1, load 5 < the
        primary's 6) and the output is unchanged."""
        ct, reference = self._reference(stack)
        out, trace, cluster = self._faulty_run(
            stack, ct, [Fault.crash(2, after=1)], 3)
        assert_bit_identical(reference, out)
        assert trace.fanout_retries == 1
        assert trace.fanout_redispatched_lwes == 5  # node 2's slice of 16
        assert trace.failed_nodes == [2]
        # The re-sent slice shows up as separate retry traffic.
        assert cluster.comm.total_retry_bytes() > 0
        assert cluster.comm.total_retry_bytes() < cluster.comm.total_bytes()

    def test_primary_crash_recovers(self, stack):
        """Node 0 computes as well as coordinates; its own slice can be
        re-dispatched like any other."""
        ct, reference = self._reference(stack, seed=8)
        out, trace, cluster = self._faulty_run(stack, ct, [Fault.crash(0)], 4)
        assert_bit_identical(reference, out)
        assert trace.failed_nodes == [0]
        assert trace.fanout_retries == 1
        # The slice that used to stay on the primary now crosses a wire.
        assert cluster.comm.total_retry_bytes() > 0

    def test_corrupt_reply_detected_by_crc(self, stack):
        ct, reference = self._reference(stack, seed=9)
        out, trace, _ = self._faulty_run(
            stack, ct, [Fault.corrupt_reply(1, index=2)], 4)
        assert_bit_identical(reference, out)
        assert trace.fanout_retries == 1
        # A corrupt link is transient: the node is not declared dead.
        assert trace.failed_nodes == []
        assert any("CRC" in note for note in trace.notes)

    def test_dropped_reply_detected_by_count(self, stack):
        ct, reference = self._reference(stack, seed=10)
        out, trace, _ = self._faulty_run(
            stack, ct, [Fault.drop_reply(3, index=0)], 4)
        assert_bit_identical(reference, out)
        assert trace.fanout_retries == 1
        assert trace.failed_nodes == []
        assert any("short reply" in note for note in trace.notes)

    def test_straggler_below_timeout_is_tolerated(self, stack):
        ct, reference = self._reference(stack, seed=11)
        out, trace, _ = self._faulty_run(
            stack, ct, [Fault.straggler(1, delay_seconds=0.5)], 4,
            reply_timeout=30.0)
        assert_bit_identical(reference, out)
        assert trace.fanout_retries == 0
        # The injected delay is visible in the per-node fan-out timing.
        assert trace.node_seconds[1] >= 0.5
        assert max(trace.node_seconds, key=trace.node_seconds.get) == 1

    def test_straggler_past_timeout_is_redispatched(self, stack):
        ct, reference = self._reference(stack, seed=12)
        out, trace, _ = self._faulty_run(
            stack, ct, [Fault.straggler(1, delay_seconds=120.0)], 4,
            reply_timeout=1.0)
        assert_bit_identical(reference, out)
        assert trace.fanout_retries == 1
        assert trace.failed_nodes == [1]
        assert any("timed out" in note for note in trace.notes)

    def test_multiple_concurrent_faults(self, stack):
        """Two nodes fail in the same fan-out; both slices recover."""
        ctx = stack[0]
        ct, reference = self._reference(stack, seed=13)
        out, trace, _ = self._faulty_run(
            stack, ct, [Fault.crash(1), Fault.crash(2, after=2)], 4)
        assert_bit_identical(reference, out)
        assert trace.fanout_retries == 2
        assert sorted(trace.failed_nodes) == [1, 2]
        assert trace.fanout_redispatched_lwes == 2 * (ctx.n // 4)

    def test_fault_during_recovery(self, stack):
        """The recovery target can itself fail; the slice is queued again
        and lands on a third node."""
        ct, reference = self._reference(stack, seed=14)
        # Node 2's slice fails; the first recovery target (node 0, the
        # least-loaded-tie winner) drops its reply, forcing a second hop
        # that lands on node 1.
        out, trace, _ = self._faulty_run(
            stack, ct, [Fault.crash(2), Fault.drop_reply(0)], 4)
        assert_bit_identical(reference, out)
        assert trace.fanout_retries == 2
        assert trace.failed_nodes == [2]  # drops are transient, not deaths

    def test_all_nodes_dead_raises_typed_error(self, stack):
        ev = stack[2]
        with pytest.raises(ClusterExecutionError) as excinfo:
            self._faulty_run(stack, ev.encrypt(0.2, level=0),
                             [Fault.crash(i, persistent=True)
                              for i in range(3)], 3)
        assert sorted(excinfo.value.failed_nodes) == [0, 1, 2]
        assert excinfo.value.pending_slices  # at least one slice unplaced

    def test_persistent_transient_fault_exhausts_retry_budget(self, stack):
        """Persistently corrupted links keep every node 'healthy' but no
        reply ever validates — the retry budget converts the livelock
        into the typed error."""
        with pytest.raises(ClusterExecutionError, match="retry budget"):
            self._faulty_run(stack, stack[2].encrypt(0.2, level=0),
                             [Fault.corrupt_reply(i, persistent=True)
                              for i in range(2)], 2, max_retries=4)

    def test_retry_traffic_accounted_separately(self, stack):
        ct = stack[2].encrypt(0.25, level=0)
        _, _, cluster = self._faulty_run(stack, ct, [Fault.crash(1)], 3)
        comm = cluster.comm
        # Node 1's slice lands on node 2 (load 5 < the primary's 6): the
        # retry traffic is a strict subset of the totals and sits on the
        # recovery node's links, not the crashed node's.
        assert 0 < comm.total_retry_bytes() < comm.total_bytes()
        assert comm.retry_link_bytes(0, 2) > 0
        assert comm.retry_link_bytes(2, 0) > 0
        assert comm.retry_link_bytes(0, 1) == 0
        assert comm.retry_link_bytes(1, 0) == 0
        # First-attempt traffic to the crashed node is still in the totals
        # (the bytes crossed the wire before the crash was detected).
        assert comm.link_bytes(0, 1) > 0
