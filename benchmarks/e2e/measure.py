"""The measured process: one workload in one fresh interpreter.

``run.py`` launches this file once per measurement (and twice more with
``--setup-only``) and reads the JSON object it prints last.  The set-up
clock starts on this file's first statement, before numpy or ``repro``
are imported: the NTT-engine, monomial and LUT caches are
process-global, so set-up can only be timed honestly once per
interpreter.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(_HERE),
                os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")]

from repro.profiling import count_ops  # noqa: E402
from repro.service import BootstrapService, ServiceTrace  # noqa: E402
from repro.switching.keys import expand_switching_keys  # noqa: E402
from repro.switching.pipeline import BootstrapTrace, LocalExecutor  # noqa: E402

from e2e import layers, loadgen, stacks  # noqa: E402
from e2e.spans import SpanLog, stage_budget  # noqa: E402
from e2e.stats import median, percentile_or_none  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0
OUT_DIR = os.path.join(_HERE, "out")

#: name -> (loop, clients, arrivals per second, latency limit in seconds)
WORKLOADS = {
    "alg2_solo": ("closed", 1, 0.0, 0.0),
    "pbs_pool": ("closed", 1, 0.0, 0.0),
    "lwe_open": ("open", 0, 120.0, 0.150),
    "lwe_sat": ("closed", 64, 0.0, 0.0),
}
#: Share of ``--seconds`` each workload runs its own loop unmeasured
#: after set-up (thread-local workspaces, allocator, pool pipes).
WARMUP_SHARE = 0.1
#: Alternating (untraced, traced) window pairs of the traced run.
TRACE_ROUNDS = 3
_TRACE_FIELDS = ("requests_completed", "requests_rejected", "batches",
                 "coalesced_lwes", "coalesce_wait_s", "batch_seconds",
                 "key_cache_hits", "key_cache_misses")


def _snapshot(trace: ServiceTrace) -> dict:
    return {f: getattr(trace, f) for f in _TRACE_FIELDS}


def _delta(after: dict, before: dict) -> dict:
    return {f: after[f] - before[f] for f in after}


async def _window(name, stack, svc, seconds, seed, first, submit=None):
    loop, clients, rate, _ = WORKLOADS[name]
    submit = submit or (lambda i: stack.submit(svc, i))
    if loop == "open":
        return await loadgen.open_loop(
            submit, stack.check, loadgen.due_times(seed, rate, seconds), first)
    return await loadgen.closed_loop(submit, stack.check, clients, seconds, first)


def _request_spans(log, out, per_request, mean_wait, mean_batch):
    """``request`` -> ``service.queue_wait`` / ``service.batch`` /
    ``service.reply`` from client timestamps plus ``ServiceTrace``
    deltas: exact per request when one client runs (``per_request``),
    the window means otherwise."""
    for i, start, end in out.intervals:
        wait, batch = per_request.get(i, (mean_wait, mean_batch))
        queued = min(start + wait, end)
        replied = min(queued + batch, end)
        req = log.add("request", start, end, None, i)
        log.add("service.queue_wait", start, queued, req, i)
        log.add("service.batch", queued, replied, req, i)
        log.add("service.reply", replied, end, req, i)


def _stage_replays(stack, entry, log, pool, fill):
    """The stage replay on the service's own entry (pipeline +
    executor); with a pool executor each fan-out is repeated on a
    ``LocalExecutor``, which gives the pool its efficiency baseline and
    the op counts its workers keep to themselves."""
    local = LocalExecutor(stack.keys, stack.user_keys.test_vector) if pool else None
    local_s, pool_s, resolve_s = [], [], []
    first_ops = first_fan_ops = None
    batch_size = 0
    for k in range(stack.replays):
        # Replay 0 always carries a full batch, so that its op counts
        # repeat exactly; the others the fill the average request saw.
        with count_ops() as ops:
            rep = stack.replay(entry, log, k, 32 if k == 0 else fill)
            fan_ops, fan_s = rep.fan_ops, rep.fanout_s
            if pool:
                pool_s.append(rep.fanout_s)
                with count_ops() as fan_ops:
                    t0 = time.perf_counter()
                    local.fanout(rep.lwes, BootstrapTrace(), lut=rep.lut_id)
                    fan_s = time.perf_counter() - t0
        local_s.append(fan_s)
        resolve_s.append(rep.resolve_s)
        if k == 0:
            first_ops, first_fan_ops, batch_size = ops, fan_ops, len(rep.lwes)
    return local_s, pool_s, resolve_s, first_ops, first_fan_ops, batch_size


async def _traced(name, stack, svc, strace, seconds, seed, timings):
    """The traced run: untraced and traced windows alternate over two
    thirds of ``--seconds`` — each pair on one arrival schedule, so that
    neither a drift of the machine nor the luck of the draw separates
    them — then come the stage replay and the micro-timings."""
    _, clients, _, limit_s = WORKLOADS[name]
    log = SpanLog()
    plain, traced = loadgen.Outcome(), loadgen.Outcome()
    per_request = {}

    async def submit(i):
        wait0, batch0 = strace.coalesce_wait_s, strace.batch_seconds
        result = await stack.submit(svc, i)
        if clients == 1:
            per_request[i] = (strace.coalesce_wait_s - wait0,
                              strace.batch_seconds - batch0)
        return result

    delta = dict.fromkeys(_TRACE_FIELDS, 0)
    fills = {}
    for r in range(TRACE_ROUNDS):
        window = seconds / (3 * TRACE_ROUNDS)
        plain.merge(await _window(name, stack, svc, window, seed + r,
                                  first=plain.sent + traced.sent))
        before, fills_before = _snapshot(strace), dict(strace.batch_fill)
        with count_ops():
            traced.merge(await _window(name, stack, svc, window, seed + r,
                                       first=plain.sent + traced.sent,
                                       submit=submit))
        for f, v in _delta(_snapshot(strace), before).items():
            delta[f] += v
        for f, c in strace.batch_fill.items():
            fills[f] = fills.get(f, 0) + c - fills_before.get(f, 0)
    done = max(delta["requests_completed"], 1)
    batches = max(delta["batches"], 1)
    mean_wait = delta["coalesce_wait_s"] / done
    mean_batch = delta["batch_seconds"] / batches
    fill = delta["coalesced_lwes"] / batches
    # The fill of the batch the *average request* rode in: a request is
    # more likely to sit in a big batch than a batch is to be big.
    fill_seen = sum(f * f * c for f, c in fills.items()) \
        / max(sum(f * c for f, c in fills.items()), 1)
    _request_spans(log, traced, per_request, mean_wait, mean_batch)

    entry = svc.cache.get(stack.user)
    pool = "executor_factory" in stack.service_kwargs
    # In a thread, as the service runs its own batches.
    local_s, pool_s, resolve_s, first_ops, first_fan_ops, batch_size = \
        await asyncio.to_thread(_stage_replays, stack, entry, log, pool,
                                max(1, round(fill_seen)))
    first_local_s = local_s[0]

    units = layers.external_product_units(stack.keys.brk, batch_size)
    ep_calls = max(sum(first_fan_ops.ep_batch_hist.values()), 1)
    budget = stage_budget(log.spans)
    tail = percentile_or_none(traced.latencies, 95)
    # How much worse the traced window read than the untraced one, on
    # the workload's headline metric.
    if clients > 1:
        overhead = plain.throughput_rps / traced.throughput_rps - 1.0
    else:
        overhead = median(traced.latencies) / median(plain.latencies) - 1.0
    out = {
        "service.queue_wait_s": mean_wait,
        "service.overhead_s": budget["service.overhead"],
        "service.batch_fill_mean": fill,
        "service.batches": delta["batches"],
        "service.rejected": delta["requests_rejected"],
        "key_cache.hit_rate": delta["key_cache_hits"] / max(
            delta["key_cache_hits"] + delta["key_cache_misses"], 1),
        "pipeline.prepare_s": budget["pipeline.prepare"],
        "pipeline.repack_s": budget["pipeline.repack"],
        "pipeline.finish_s": budget["pipeline.finish"],
        "functional.pbs_extract_s": stack.time_extract() if pool else 0.0,
        "luts.resolve_s": median(resolve_s),
        "local_executor.fanout_s": median(local_s),
        "local_executor.s_per_blind_rotate": first_local_s / batch_size,
        "executor.blind_rotates_per_s":
            delta["coalesced_lwes"] / max(delta["batch_seconds"], 1e-9),
        "mp_executor.fanout_s": median(pool_s) if pool else 0.0,
        "mp_executor.parallel_efficiency":
            median(local_s) / (stacks.POOL_WORKERS * median(pool_s)) if pool else 0.0,
        "mp_executor.shared_key_bytes":
            getattr(entry.executor, "shared_key_bytes", 0),
        "mp_executor.spinup_s": getattr(entry.executor, "spinup_seconds", 0.0),
        "batch_engine.external_products": first_fan_ops.external_products,
        "batch_engine.s_per_external_product": first_local_s / ep_calls,
        "repack_engine.keyswitches": first_ops.repack_merge_keyswitches
            + first_ops.repack_trace_keyswitches,
        "repack_engine.levels": first_ops.repack_levels,
        "ntt.transforms": first_ops.ntt_calls,
        "ntt.points": first_ops.ntt_points,
        "ntt.points_per_s": units["ntt.points_per_s"],
        "ntt.est_share_of_fanout": first_fan_ops.ntt_points
            / units["ntt.points_per_s"] / first_local_s,
        "gadget.decompose_s_per_call": units["gadget.decompose_s_per_call"],
        "gadget.est_share_of_fanout":
            ep_calls * units["gadget.decompose_s_per_call"] / first_local_s,
        "keys.generate_s": timings["keys.generate_s"],
        "keys.seeded_expand_s": timings.get("keys.seeded_expand_s", 0.0),
        "luts.build_s": timings.get("luts.build_s", 0.0),
        "import_s": _IMPORT_S,
        "loadgen.lag_p95_s": percentile_or_none(traced.lags, 95) or 0.0,
        "loadgen.inputs_s": timings["loadgen.inputs_s"],
        "loadgen.latency_p95_s": tail or 0.0,
        "loadgen.within_limit_share":
            traced.within_limit_share(limit_s) if limit_s else 0.0,
        "loadgen.failed_share": traced.failed_share,
        "trace.overhead_share": overhead,
        "budget.unattributed_share": budget["unattributed_share"],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    log.write_jsonl(os.path.join(OUT_DIR, f"trace_{name}.jsonl"))
    plain.merge(traced)
    return plain, out


async def _run(args, stack, timings) -> dict:
    strace = ServiceTrace()
    svc = BootstrapService(lambda uid: stack.user_keys, trace=strace,
                           **stack.service_kwargs)
    async with svc:
        await stack.submit(svc, 0)
        result = {"setup_s": time.perf_counter() - _T0 - timings["loadgen.inputs_s"]}
        if args.setup_only:
            return result
        stack.build_references()
        await _window(args.workload, stack, svc, WARMUP_SHARE * args.seconds,
                      args.seed - 1, first=0)
        if args.trace:
            result["probe_shape"] = stack.probe_shape
            out, result["layers"] = await _traced(
                args.workload, stack, svc, strace, args.seconds, args.seed,
                timings)
        else:
            out = await _window(args.workload, stack, svc, args.seconds,
                                args.seed, first=0)
            result["latency_p50_s"] = median(out.latencies) if out.latencies else 0.0
            result["throughput_rps"] = out.throughput_rps
            result["samples"] = len(out.latencies)
    result.update(sent=out.sent, succeeded=out.succeeded, failed=out.failed,
                  first_error=out.first_error)
    return result


def _own_peak_rss_kb() -> int:
    """This process's peak RSS.  Not ``RUSAGE_SELF``: Linux carries the
    *launching* process's high-water mark across ``exec``, so it would
    read run.py's probe arrays instead of this interpreter."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    timings = {}
    stack = stacks.build(args.workload, args.smoke, timings)
    t0 = time.perf_counter()
    stack.make_inputs(args.seed)
    timings["loadgen.inputs_s"] = time.perf_counter() - t0
    if args.trace and args.workload == "pbs_pool":
        # Priced here, outside the service: the pool's workers expand
        # their seeds where the primary cannot time them, and the LUT is
        # otherwise built inside the warm-up request.
        material = stack.keys.compress()
        t0 = time.perf_counter()
        expand_switching_keys(material)
        timings["keys.seeded_expand_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        stack.keys.luts.resolve(stack.lut, stack.ctx.n,
                                stack.ctx.full_basis.moduli[0],
                                stack.inputs[0].scale)
        timings["luts.build_s"] = time.perf_counter() - t0

    result = asyncio.run(_run(args, stack, timings))
    result["peak_rss_mb"] = (_own_peak_rss_kb() + resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
