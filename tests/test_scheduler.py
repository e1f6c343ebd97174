"""Edge-case coverage for the fan-out schedule and the recovery-target
policy (``pick_recovery_node``), including the executor-level case where
the recovery node itself fails on the re-dispatched slice."""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.errors import ParameterError
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.switching import BootstrapPipeline, SwitchingKeySet
from repro.switching.cluster_sim import ClusterExecutor
from repro.switching.fanout import Fault, FaultInjector
from repro.switching.pipeline import BootstrapTrace
from repro.switching.scheduler import make_schedule, pick_recovery_node


class TestMakeSchedule:
    def test_even_split(self):
        sched = make_schedule(16, 4)
        assert [a.count for a in sched.nodes] == [4, 4, 4, 4]
        assert [a.start for a in sched.nodes] == [0, 4, 8, 12]

    def test_uneven_split_front_loads_extras(self):
        sched = make_schedule(10, 4)
        assert [a.count for a in sched.nodes] == [3, 3, 2, 2]
        assert sched.nodes[-1].stop == 10

    def test_more_nodes_than_work(self):
        sched = make_schedule(2, 4)
        assert [a.count for a in sched.nodes] == [1, 1, 0, 0]

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            make_schedule(0, 4)
        with pytest.raises(ParameterError):
            make_schedule(8, 0)


class TestPickRecoveryNode:
    def test_least_loaded_survivor_wins(self):
        assert pick_recovery_node([0, 1, 2], {0: 6, 1: 2, 2: 5},
                                  exclude=1) == 2

    def test_tied_loads_break_by_lowest_id(self):
        assert pick_recovery_node([2, 0, 1], {0: 4, 1: 4, 2: 4},
                                  exclude=2) == 0

    def test_missing_load_defaults_to_zero(self):
        # A freshly respawned worker with no recorded load is the most
        # attractive target.
        assert pick_recovery_node([0, 3], {0: 6}, exclude=None) == 3

    def test_single_survivor_is_chosen_even_when_excluded(self):
        """The failed node is avoided *unless* it is the only survivor —
        a respawned worker must be able to take back its own slice."""
        assert pick_recovery_node([1], {1: 9}, exclude=1) == 1

    def test_no_survivor_raises(self):
        with pytest.raises(ParameterError):
            pick_recovery_node([], {}, exclude=0)


class TestRecoveryNodeFailsToo:
    """The re-dispatched slice's target can itself fail: the slice must
    hop again until a healthy node finishes it, with the output unchanged."""

    @pytest.fixture(scope="class")
    def stack(self):
        params = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                                 special_limbs=2)
        ctx = CkksContext(params.ckks, dnum=2)
        gen = CkksKeyGenerator(ctx, Sampler(501))
        sk = gen.secret_key()
        ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(502))
        swk = SwitchingKeySet.generate(ctx, sk, Sampler(503), base_bits=4,
                                       error_std=0.8)
        return ctx, ev, swk

    def test_chained_failure_recovers_bit_identically(self, stack):
        ctx, ev, swk = stack
        z = np.random.default_rng(3).uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(z, level=0)
        reference = BootstrapPipeline(ctx, swk).run(ct)
        # 16 LWEs over 3 nodes: slices of 6, 5, 5.  Node 0 crashes on its
        # own slice; recovery (tied loads 5, 5 -> lowest id) targets node
        # 1, whose persistent ``after=5`` fault is harmless on its own
        # 5-LWE slice but fires mid way through the 6-LWE re-dispatched
        # one; the slice hops again to node 2, which finishes it.
        inj = FaultInjector([Fault.crash(0),
                             Fault.crash(1, after=5, persistent=True)])
        cluster = ClusterExecutor.for_keys(ctx, swk, num_workers=3,
                                           fault_injector=inj)
        trace = BootstrapTrace()
        out = BootstrapPipeline(ctx, swk, executor=cluster).run(ct, trace)
        for ref_l, got_l in zip(reference.c0.to_coeff().limbs,
                                out.c0.to_coeff().limbs):
            assert ref_l.tolist() == got_l.tolist()
        for ref_l, got_l in zip(reference.c1.to_coeff().limbs,
                                out.c1.to_coeff().limbs):
            assert ref_l.tolist() == got_l.tolist()
        assert trace.failed_nodes == [0, 1]
        assert trace.fanout_retries == 2
        hops = [n for n in trace.notes if n.startswith("re-dispatching")]
        assert "from node 0 to node 1" in hops[0]
        assert "from node 1 to node 2" in hops[1]
        # Node 1 burned 5 BlindRotates of the re-dispatched slice before
        # dying — the cycles are spent either way.
        assert cluster.utilisation()[1] == 10
