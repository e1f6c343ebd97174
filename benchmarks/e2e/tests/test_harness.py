"""The harness's own arithmetic: estimators, schedules, spans, and how
failures are counted.  Run with ``python -m pytest benchmarks/e2e/tests``
(outside tier-1's ``testpaths``)."""

import asyncio

import pytest
from e2e import loadgen, spans, stacks
from e2e.stats import bound_from_gaps, iqr_share, median, percentile, worse_by

from repro.errors import ServiceOverloadError


class TestEstimators:
    def test_percentile_needs_ten_samples_beyond_it(self):
        with pytest.raises(ValueError, match="samples beyond"):
            percentile(list(range(24)), 95)
        with pytest.raises(ValueError):
            percentile(list(range(199)), 95)
        assert percentile(list(range(200)), 95) == 189
        assert percentile(list(range(1000)), 99) == 989

    def test_median_is_always_answered(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_spread_and_gap(self):
        values = [10.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7]
        assert 0.0 < iqr_share(values) < 0.06
        assert worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
        assert worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)

    def test_bound_is_twice_the_worst_gap_within_floor_and_cap(self):
        assert bound_from_gaps([0.01, 0.02], floor=0.10) == 0.10
        assert bound_from_gaps([0.03, 0.08], floor=0.10) == pytest.approx(0.16)
        assert bound_from_gaps([0.30], floor=0.10) == 0.25


class TestSeededInputs:
    def test_same_seed_same_due_times(self):
        a = loadgen.due_times(7, 120.0, 5.0)
        assert a == loadgen.due_times(7, 120.0, 5.0)
        assert a != loadgen.due_times(8, 120.0, 5.0)
        assert a == sorted(a) and 0.0 < a[0] and a[-1] < 5.0
        assert 450 < len(a) < 750

    def test_same_seed_same_inputs_and_order(self):
        first, second, other = (stacks.LweStack(1 << 6, {}) for _ in range(3))
        first.make_inputs(11)
        second.make_inputs(11)
        other.make_inputs(12)
        assert list(first.order) == list(second.order)
        assert first.checked == second.checked
        assert [int(c.b) for c in first.inputs] == [int(c.b) for c in second.inputs]
        assert list(first.order) != list(other.order)


class TestSpans:
    def test_self_time_subtracts_the_union_of_children(self):
        log = spans.SpanLog()
        root = log.add("request", 0.0, 10.0)
        log.add("a", 1.0, 4.0, root)
        log.add("b", 3.0, 6.0, root)      # overlaps a: [1, 6] covered once
        child = log.add("c", 8.0, 12.0, root)  # clipped to the parent's end
        log.add("d", 8.5, 9.0, child)
        selfs = spans.self_times(log.spans)
        assert selfs[root] == pytest.approx(10.0 - 5.0 - 2.0)
        assert selfs[child] == pytest.approx(4.0 - 0.5)

    def test_jsonl_roundtrip_and_budget(self, tmp_path):
        log = spans.SpanLog()
        for i in range(3):
            req = log.add("request", 0.0, 1.0, None, i)
            log.add("service.queue_wait", 0.0, 0.1, req, i)
            log.add("service.batch", 0.1, 0.9, req, i)
            log.add("service.reply", 0.9, 1.0, req, i)
        batch = log.add("service.batch", 5.0, 5.8, None, "replay-0")
        log.add("pipeline.prepare", 5.0, 5.05, batch, "replay-0")
        log.add("executor.fanout", 5.05, 5.65, batch, "replay-0")
        log.add("pipeline.repack", 5.65, 5.75, batch, "replay-0")
        log.add("pipeline.finish", 5.75, 5.8, batch, "replay-0")
        path = tmp_path / "trace.jsonl"
        log.write_jsonl(str(path))
        loaded = spans.read_jsonl(str(path))
        assert loaded == log.spans
        budget = spans.stage_budget(loaded)
        assert budget["latency_p50_s"] == pytest.approx(1.0)
        assert budget["executor.fanout"] == pytest.approx(0.6)
        assert budget["unattributed_share"] == pytest.approx(0.0)
        assert "executor.fanout" in spans.report(str(path))


class TestFailureAccounting:
    """A wrong result and a refusal are failed requests: they raise
    ``failed_share``, leave no latency sample, and miss the limit."""

    @staticmethod
    def _drive(wrong=(), refused=()):
        async def submit(i):
            await asyncio.sleep(0.001)
            if i in refused:
                raise ServiceOverloadError("queue is full", retry_after=0.01)
            return "bad" if i in wrong else "ok"

        def check(i, result):
            return result == "ok"

        due = [0.002 * k for k in range(20)]
        return asyncio.run(loadgen.open_loop(submit, check, due))

    def test_clean_run(self):
        out = self._drive()
        assert (out.sent, out.succeeded, out.failed) == (20, 20, 0)
        assert out.failed_share == 0.0
        assert out.within_limit_share(0.5) == 1.0

    def test_injected_wrong_result(self):
        out = self._drive(wrong={3})
        assert (out.sent, out.succeeded, out.failed) == (20, 19, 1)
        assert out.failed_share == pytest.approx(0.05)
        assert out.within_limit_share(0.5) == pytest.approx(0.95)
        assert len(out.latencies) == 19
        assert "wrong result" in out.first_error

    def test_injected_rejection(self):
        out = self._drive(refused={0, 7})
        assert out.failed == 2 and out.succeeded == 18
        assert out.failed_share == pytest.approx(0.10)
        assert out.within_limit_share(0.5) == pytest.approx(0.90)
        assert "ServiceOverloadError" in out.first_error

    def test_closed_loop_counts_failures_too(self):
        async def submit(i):
            await asyncio.sleep(0.001)
            return "bad" if i % 4 == 0 else "ok"

        out = asyncio.run(loadgen.closed_loop(
            submit, lambda i, r: r == "ok", clients=4, seconds=0.05))
        assert out.sent == out.succeeded + out.failed
        assert out.failed >= 1 and 0.0 < out.failed_share < 1.0
        assert out.elapsed > 0.0
