"""One conformance suite for the bootstrap stack.

Every executor — in-process, fault-injected simulated cluster, process
pool with a SIGKILLed worker, the coalescing service — must return, for
every request kind, exactly the bytes of the scalar-oracle composition
in ``tests/oracle.py``, whether the key set is as generated or rebuilt
from its seed+b material.  Plus the guards that keep implementation-
choice knobs, a second key generator and test-only scalar twins in
``src`` from growing back.
"""

import ast
import asyncio
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import textwrap

import numpy as np
import pytest

import repro
import repro.ckks
import repro.math
import repro.profiling
import repro.service
import repro.switching
import repro.switching.cluster_sim
import repro.switching.keys
import repro.tfhe
import repro.tfhe.repack
import repro.tfhe.repack_engine
from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.math.sampling import Sampler
from repro.params import make_keyswitched_toy_params, make_toy_params
from repro.profiling import OpStats, count_ops
from repro.service import BootstrapService, UserKeys
from repro.switching import SIGN, BootstrapPipeline, SwitchingKeySet, run_batch
from repro.switching.cluster_sim import ClusterExecutor
from repro.switching.fanout import Fault, FaultInjector, FaultTolerantFanout
from repro.switching.mp_executor import ProcessPoolFanoutExecutor
from repro.switching.pipeline import BootstrapTrace, Executor
from repro.tfhe.blind_rotate import blind_rotate

from .oracle import (
    assert_ct_equal,
    assert_glwe_equal,
    oracle_bootstrap,
    oracle_keyswitched,
    oracle_pbs,
)

PARAMS = make_toy_params(n=16, limbs=3, limb_bits=30, scale_bits=23,
                         special_limbs=2).ckks
#: The n_t kinds need the strong switching prime p = 1 (mod 2N^2).
PARAMS_NT = make_keyswitched_toy_params(n=16, limbs=3, limb_bits=30,
                                        scale_bits=23, special_limbs=2)
N_T = 8
#: ``alg2``/``pbs``/``lwe`` run on a dimension-N key set;
#: ``keyswitched``/``lwe_nt`` are the Algorithm-2 and raw-LWE requests on
#: an n_t key set — same entry points, the key set picks the kind.
KINDS = ["alg2", "pbs", "lwe", "keyswitched", "lwe_nt"]
RAW_LWE_KINDS = {"lwe", "lwe_nt"}


def _keyed(params, seed, **keygen):
    ctx = CkksContext(params, dnum=2)
    gen = CkksKeyGenerator(ctx, Sampler(seed))
    sk = gen.secret_key()
    ev = CkksEvaluator(ctx, gen.keyset(sk), Sampler(seed + 1))
    swk = SwitchingKeySet.generate(ctx, sk, Sampler(seed + 2), base_bits=4,
                                   error_std=0.8, **keygen)
    return ctx, ev, swk


def _five_lwes(ctx, swk, ct):
    # Five raw LWEs: uneven slices on 2 workers and on 3 nodes.
    return BootstrapPipeline(ctx, swk).prepare(ct).lwes[:5]


@pytest.fixture(scope="module")
def stack():
    """kind -> (ctx, key set, payload)."""
    ctx, ev, swk = _keyed(PARAMS, 1101)
    ctx_nt, ev_nt, swk_nt = _keyed(PARAMS_NT, 1201, n_t=N_T)
    rng = np.random.default_rng(5)
    ct = ev.encrypt(rng.uniform(-1, 1, ctx.slots), level=0)
    pbs_ct = ev.encrypt_coeffs(rng.uniform(-0.9, 0.9, ctx.n), level=0)
    ct_nt = ev_nt.encrypt(rng.uniform(-1, 1, ctx_nt.slots), level=0)
    return {"alg2": (ctx, swk, ct),
            "pbs": (ctx, swk, pbs_ct),
            "lwe": (ctx, swk, _five_lwes(ctx, swk, ct)),
            "keyswitched": (ctx_nt, swk_nt, ct_nt),
            "lwe_nt": (ctx_nt, swk_nt, _five_lwes(ctx_nt, swk_nt, ct_nt))}


@pytest.fixture(scope="module")
def expected(stack):
    with count_ops() as stats:
        outputs = {"alg2": oracle_bootstrap(*stack["alg2"]),
                   "pbs": oracle_pbs(*stack["pbs"], SIGN),
                   "keyswitched": oracle_keyswitched(*stack["keyswitched"])}
        for kind in RAW_LWE_KINDS:
            ctx, swk, lwes = stack[kind]
            tv = swk.test_vector(ctx.n, ctx.full_basis.moduli[0])
            outputs[kind] = [blind_rotate(tv, lwe, swk.brk) for lwe in lwes]
    # The oracle must be independent of the engines under test: one
    # accumulator per external product, no level-batched repack pass.
    assert set(stats.ep_batch_hist) == {1} and stats.repack_levels == 0
    return outputs


def run_on(pipeline, kind, payload, trace):
    if kind == "pbs":
        return pipeline.run_pbs(payload, SIGN, trace)
    if kind in RAW_LWE_KINDS:
        return run_batch(pipeline.executor, payload, trace)
    return pipeline.run(payload, trace)


def local(ctx, swk, kind, payload):
    return run_on(BootstrapPipeline(ctx, swk), kind, payload, BootstrapTrace())


def faulty_cluster(ctx, swk, kind, payload):
    """Node 1 crashes mid-slice and node 2's reply is corrupted."""
    cluster = ClusterExecutor.for_keys(
        ctx, swk, num_workers=3,
        fault_injector=FaultInjector([Fault.crash(1, after=1),
                                      Fault.corrupt_reply(2)]))
    trace = BootstrapTrace()
    out = run_on(BootstrapPipeline(ctx, swk, executor=cluster), kind,
                 payload, trace)
    assert trace.fanout_retries == 2 and trace.failed_nodes == [1]
    return out


def sigkilled_pool(ctx, swk, kind, payload):
    """Worker 0 SIGKILLs itself after one BlindRotate of its slice."""
    with ProcessPoolFanoutExecutor.for_keys(
            ctx, swk, num_workers=2,
            fault_injector=FaultInjector(
                [Fault.crash(0, after=1)])) as pool:
        trace = BootstrapTrace()
        out = run_on(BootstrapPipeline(ctx, swk, executor=pool), kind,
                     payload, trace)
    assert trace.worker_respawns == 1 and trace.fanout_retries == 1
    return out


def coalescing_service(ctx, swk, kind, payload):
    """Two identical ciphertext requests (or all five LWEs) ride one
    coalesced fan-out; every reply must equal the solo oracle."""
    uk = UserKeys.from_switching(ctx, swk)

    async def main():
        async with BootstrapService(lambda uid: uk, max_batch=2 * ctx.n,
                                    max_delay_s=0.05) as svc:
            if kind == "pbs":
                jobs = [svc.submit_pbs(u, payload, SIGN) for u in "ab"]
            elif kind in RAW_LWE_KINDS:
                jobs = [svc.submit("a", lwe) for lwe in payload]
            else:
                jobs = [svc.submit_ciphertext(u, payload) for u in "ab"]
            results = await asyncio.gather(*jobs)
        assert svc.trace.batches == 1
        return results

    results = asyncio.run(main())
    if kind in RAW_LWE_KINDS:
        return results
    assert_ct_equal(results[0], results[1])
    return results[0]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("executor", [local, faulty_cluster, sigkilled_pool,
                                      coalescing_service],
                         ids=lambda fn: fn.__name__)
def test_matches_oracle(stack, expected, executor, kind):
    ctx, swk, payload = stack[kind]
    got = executor(ctx, swk, kind, payload)
    if kind in RAW_LWE_KINDS:
        assert len(got) == len(expected[kind])
        for want, acc in zip(expected[kind], got):
            assert_glwe_equal(want, acc)
    else:
        assert_ct_equal(expected[kind], got)


@pytest.mark.parametrize("kind", ["alg2", "keyswitched"])
@pytest.mark.parametrize("executor", [local, sigkilled_pool],
                         ids=lambda fn: fn.__name__)
def test_matches_oracle_from_material(stack, expected, executor, kind):
    """The key-state axis: a key set rebuilt from its seed+b material —
    nothing expanded until the executor touches it — returns the same
    bytes as the generated set the oracle ran on."""
    ctx, swk, payload = stack[kind]
    at_rest = SwitchingKeySet.from_material(swk.compress())
    assert at_rest.expansions == 0
    assert_ct_equal(expected[kind], executor(ctx, at_rest, kind, payload))
    assert at_rest.expansions > 0


def _stack_modules(*pkgs):
    return [importlib.import_module(info.name) for pkg in pkgs
            for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + ".")]


def _public_functions(mod):
    """``(qualified name, function)`` for every public function, and
    every method of a public class, defined in ``mod``."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", "") != mod.__name__:
            continue
        fns = [fn for _, fn in inspect.getmembers(obj, inspect.isfunction)] \
            if inspect.isclass(obj) else [obj]
        for fn in fns:
            if inspect.isfunction(fn):
                yield f"{mod.__name__}.{name}.{fn.__name__}", fn


def test_one_key_generator():
    """Seed+b is the representation: no second generator, no second
    encrypt, no second key-set class, and no seed field whose ``None``
    would mean "made by the other generator"."""
    twins, optional_seeds = [], []
    for mod in _stack_modules(repro.tfhe, repro.switching, repro.service):
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", "") != mod.__name__:
                continue
            members = [name] + ([f"{name}.{m}" for m in vars(obj)]
                                if inspect.isclass(obj) else [])
            twins += [f"{mod.__name__}.{m}" for m in members
                      if m.split(".")[-1] in ("generate_seeded",
                                              "StreamingSwitchingKeys")
                      or m.endswith("_encrypt_seeded")]
            if dataclasses.is_dataclass(obj):
                optional_seeds += [
                    f"{mod.__name__}.{name}.{f.name}: {f.type}"
                    for f in dataclasses.fields(obj)
                    if "seed" in f.name and "Optional" in str(f.type)]
    # The one exception: the name benchmarks/e2e still calls, a
    # one-statement delegate to generate(key_seed=...).
    assert twins == ["repro.switching.keys.SwitchingKeySet.generate_seeded"]
    body = ast.parse(textwrap.dedent(inspect.getsource(
        SwitchingKeySet.generate_seeded))).body[0].body
    assert [type(stmt) for stmt in body[1:]] == [ast.Return], \
        "generate_seeded must stay a docstring plus one return"
    assert not optional_seeds, optional_seeds
    assert not hasattr(repro.switching.keys, "StreamingSwitchingKeys")


def test_no_engine_name_parameters():
    """Which implementation runs is not a parameter: no public callable
    of the bootstrap stack may take an ``*engine`` argument."""
    mods = _stack_modules(repro.switching, repro.service, repro.ckks)
    mods += map(importlib.import_module,
                ["repro.tfhe.blind_rotate", "repro.tfhe.repack",
                 "repro.tfhe.repack_engine"])
    offenders = [f"{qualname}({param})"
                 for mod in mods for qualname, fn in _public_functions(mod)
                 for param in inspect.signature(fn).parameters
                 if param.endswith("engine")]
    assert not offenders, offenders


def test_one_fault_tolerant_fanout():
    """One transport contract, one crash kind, no cluster shell: the
    synchronous dispatch path stays deleted and both transports are
    built the same way."""
    for gone in ("_dispatch", "_sync_outcomes", "_load"):
        assert not hasattr(FaultTolerantFanout, gone), gone
    kinds = {Fault.crash(0).kind, Fault.drop_reply(0).kind,
             Fault.corrupt_reply(0).kind, Fault.straggler(0, 1.0).kind}
    assert kinds == {"crash", "drop_reply", "corrupt_reply", "straggle"}
    constructors = {name for name, attr in vars(Fault).items()
                    if isinstance(attr, classmethod)}
    assert constructors == {"crash", "drop_reply", "corrupt_reply",
                            "straggler"}
    assert not hasattr(FaultInjector, "take_any")
    assert not hasattr(repro.switching.cluster_sim, "SimulatedCluster")
    shared = ["num_workers", "fault_injector", "reply_timeout", "max_retries"]
    for cls in (ClusterExecutor, ProcessPoolFanoutExecutor):
        params = list(inspect.signature(cls.for_keys).parameters)
        assert params[2:6] == shared, (cls, params)


def test_no_scalar_twin_in_production():
    """A scalar oracle stays in ``src`` only while production calls it
    (an overflow or wide-modulus fallback); the test-only ones live in
    ``tests/oracle.py``."""
    moved = {"blind_rotate_batch_reference", "repack_reference",
             "eval_automorphism", "naive_negacyclic_mul", "naive_dft"}
    for mod in [repro.tfhe, repro.math] + _stack_modules(repro.tfhe,
                                                         repro.math):
        assert not moved & set(vars(mod)), mod.__name__
    src = pathlib.Path(repro.__file__).parent
    defined, called = set(), set()
    for path in src.rglob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.endswith("_reference"):
                defined.add(fn.name)
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "attr",
                                     getattr(node.func, "id", None))
                    if callee != fn.name:
                        called.add(callee)
    assert defined, "no scalar oracle left to check"
    assert defined <= called, sorted(defined - called)
    assert "heaplint: disable=HL001" not in (src / "math" / "ntt.py").read_text()


OPSTATS_FIELDS = {
    "ntt_calls", "ntt_points", "pointwise_mults", "external_products",
    "by_size", "ntt_batch_hist", "ep_batch_hist",
    "repack_merge_keyswitches", "repack_trace_keyswitches", "repack_levels",
    "repack_ntt_saved", "repack_level_hist",
    "ks_modup_macs", "ks_moddown_macs", "ks_ntt_saved",
    "ks_hoisted_rotations", "bconv_plan_hits", "bconv_plan_misses",
}


def test_opstats_counts_arithmetic_only():
    """One owner per number: ``OpStats`` holds the arithmetic the
    hardware model prices and nothing a trace, cache or registry already
    records; each event has ONE ``record_*`` function, in
    ``repro.profiling``; and repack has one digit path, not an option."""
    assert {f.name for f in dataclasses.fields(OpStats)} == OPSTATS_FIELDS
    assert not [a for a in dir(OpStats) if a.startswith("record_")]
    recorders = {name: obj for name, obj in vars(repro.profiling).items()
                 if name.startswith("record_")}
    assert recorders and all(inspect.isfunction(fn)
                             for fn in recorders.values())
    src = pathlib.Path(repro.__file__).parent
    elsewhere = [f"{path.relative_to(src)}:{node.name}"
                 for path in src.rglob("*.py") if path.name != "profiling.py"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name.startswith("record_")]
    assert not elsewhere, elsewhere
    knobs = [qualname
             for mod in (repro.tfhe.repack, repro.tfhe.repack_engine)
             for qualname, fn in _public_functions(mod)
             if "digit_path" in inspect.signature(fn).parameters]
    assert not knobs, knobs


def test_blind_rotate_dimension_is_not_a_parameter():
    """The blind-rotate dimension is a property of the key set: nothing
    between the key set and the executors takes it (or a kind) as an
    argument, and the second bootstrap it used to select is gone."""
    assert list(inspect.signature(BootstrapPipeline.__init__).parameters) \
        == ["self", "ctx", "keys", "executor"]
    for fn in (BootstrapPipeline.run, BootstrapPipeline.prepare, run_batch,
               Executor.fanout, BootstrapService.__init__):
        params = set(inspect.signature(fn).parameters)
        assert not params & {"n_t", "kind", "dim", "dimension", "lwe_ksk"}, fn
    with pytest.raises(ImportError):
        importlib.import_module("repro.switching.keyswitched")
