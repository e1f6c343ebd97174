"""Fixture-driven tests for heaplint (``repro.lint``).

Every rule gets three kinds of cases: offending source that must flag,
clean source that must not, and an offending line whose inline
suppression is honored.  A final smoke test runs the full rule set over
the real repository tree, which must be clean — that is the same
invariant the CI lint job enforces.
"""

from pathlib import Path

from repro.lint import (
    BAD_SUPPRESSION_CODE,
    Baseline,
    all_rules,
    analyze_paths,
    analyze_source,
)
from repro.lint.__main__ import main as lint_main

HOT_PATH = "src/repro/math/ntt.py"
COLD_PATH = "src/repro/analysis/tables.py"


def codes(findings):
    return [f.rule for f in findings]


class TestRuleCatalogue:
    def test_nine_rules_registered(self):
        rules = all_rules()
        assert [r.code for r in rules] == [
            "HL001", "HL002", "HL003", "HL004", "HL005",
            "HL101", "HL102", "HL103", "HL104"]

    def test_descriptions_nonempty(self):
        assert all(r.description and r.name for r in all_rules())


class TestHl001ObjectDtype:
    def test_flags_dtype_object_in_hot_path(self):
        src = "import numpy as np\n\nacc = np.zeros(8, dtype=object)\n"
        assert codes(analyze_source(src, HOT_PATH)) == ["HL001"]

    def test_flags_astype_object_in_hot_path(self):
        src = "def widen(x):\n    return x.astype(object)\n"
        assert codes(analyze_source(src, HOT_PATH)) == ["HL001"]

    def test_clean_outside_hot_path(self):
        src = "import numpy as np\n\nacc = np.zeros(8, dtype=object)\n"
        assert analyze_source(src, COLD_PATH) == []

    def test_clean_fixed_width_dtype(self):
        src = "import numpy as np\n\nacc = np.zeros(8, dtype=np.int64)\n"
        assert analyze_source(src, HOT_PATH) == []

    def test_suppression_honored(self):
        src = ("import numpy as np\n\n"
               "acc = np.zeros(8, dtype=object)"
               "  # heaplint: disable=HL001 exact big-int reference table\n")
        assert analyze_source(src, HOT_PATH) == []


class TestHl002LazyBound:
    FLAG = ("import numpy as np\n\n"
            "def drain(acc, g):\n"
            "    out = acc.view(np.uint64) * g.view(np.uint64)\n"
            "    return out\n")

    def test_flags_unproven_deferred_reduction(self):
        assert codes(analyze_source(self.FLAG, COLD_PATH)) == ["HL002"]

    def test_flags_lazy_helper_without_proof(self):
        src = ("def drain(a, b, q):\n"
               "    return matmul_mod(a, b, q)\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL002"]

    def test_flags_fourier_rounding_without_proof(self):
        src = ("def product(fft, spectrum, moduli, width, addends):\n"
               "    return fft.round_to_residues(spectrum, moduli, width,\n"
               "                                 addends)\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL002"]
        proven = src.replace(
            "    return", "    # lazy-bound: split_plan covers this product\n"
            "    return")
        assert analyze_source(proven, COLD_PATH) == []

    def test_one_finding_per_function(self):
        src = ("import numpy as np\n\n"
               "def drain(acc, g):\n"
               "    a = acc.view(np.uint64) * g.view(np.uint64)\n"
               "    b = acc.view(np.uint64) + g.view(np.uint64)\n"
               "    return a + b\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL002"]

    def test_bound_guard_discharges(self):
        src = ("import numpy as np\n\n"
               "def drain(acc, g, rows, q):\n"
               "    assert (rows + 2) * (q - 1) ** 2 <= (1 << 64) - 1\n"
               "    return acc.view(np.uint64) * g.view(np.uint64)\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_named_u64_constant_discharges(self):
        src = ("import numpy as np\n\n"
               "_U64_MAX = (1 << 64) - 1\n\n"
               "def drain(acc, g, bound):\n"
               "    if bound > _U64_MAX:\n"
               "        raise ValueError('overflow')\n"
               "    return acc.view(np.uint64) * g.view(np.uint64)\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_lazy_bound_annotation_discharges(self):
        src = ("import numpy as np\n\n"
               "def drain(acc, g):\n"
               "    # lazy-bound: (rows + 2) * (q-1)^2 checked in __init__\n"
               "    return acc.view(np.uint64) * g.view(np.uint64)\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_plain_arithmetic_clean(self):
        src = ("def drain(acc, g):\n"
               "    return acc * g\n")
        assert analyze_source(src, COLD_PATH) == []


class TestHl003NttDomain:
    def test_flags_eval_coeff_mix(self):
        src = ("def f(ntt, a, b):\n"
               "    ae = ntt.forward(a)\n"
               "    bc = ntt.inverse(b)\n"
               "    return ae * bc\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL003"]

    def test_flags_mix_through_helper_call(self):
        src = ("def f(eng, ntt, a, b):\n"
               "    ae = ntt.forward_axis0(a)\n"
               "    bc = ntt.inverse_axis0(b)\n"
               "    return eng.mul(ae, bc)\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL003"]

    def test_same_domain_clean(self):
        src = ("def f(ntt, a, b):\n"
               "    ae = ntt.forward(a)\n"
               "    be = ntt.forward(b)\n"
               "    return ae * be\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_tags_flow_into_loop_bodies(self):
        src = ("def f(ntt, a, b, n):\n"
               "    ae = ntt.forward(a)\n"
               "    for _ in range(n):\n"
               "        bc = ntt.inverse(b)\n"
               "        ae = ae + bc\n"
               "    return ae\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL003"]

    def test_reassignment_clears_tag(self):
        src = ("def f(ntt, a, b):\n"
               "    ae = ntt.forward(a)\n"
               "    ae = b\n"
               "    bc = ntt.inverse(b)\n"
               "    return ae + bc\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_suppression_honored(self):
        src = ("def f(ntt, a, b):\n"
               "    ae = ntt.forward(a)\n"
               "    bc = ntt.inverse(b)\n"
               "    # heaplint: disable=HL003 negacyclic twist, domains ok\n"
               "    return ae * bc\n")
        assert analyze_source(src, COLD_PATH) == []


class TestHl004SecretHygiene:
    def test_flags_fstring_payload_leak(self):
        src = ("def debug(sk):\n"
               "    return f'key={sk.coeffs}'\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL004"]

    def test_flags_exception_message_leak(self):
        src = ("def check(secret_key):\n"
               "    raise ValueError(f'bad key {secret_key}')\n")
        # Both the f-string and the exception-message sink fire here.
        found = codes(analyze_source(src, COLD_PATH))
        assert found and set(found) == {"HL004"}

    def test_flags_logging_leak(self):
        src = ("import logging\n\n"
               "def trace(sk):\n"
               "    logging.debug('key=%s', sk.coeffs)\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL004"]

    def test_structural_attrs_clean(self):
        src = ("def debug(sk):\n"
               "    return f'dim={sk.dim} n={sk.n}'\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_non_secret_values_clean(self):
        src = ("def debug(ciphertext):\n"
               "    return f'ct={ciphertext.body}'\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_flags_secret_dataclass_without_repr(self):
        src = ("from dataclasses import dataclass\n\n"
               "@dataclass\n"
               "class LweSecretKey:\n"
               "    coeffs: object\n"
               "    dim: int\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL004"]

    def test_secret_dataclass_with_repr_clean(self):
        src = ("from dataclasses import dataclass\n\n"
               "@dataclass\n"
               "class LweSecretKey:\n"
               "    coeffs: object\n"
               "    dim: int\n\n"
               "    def __repr__(self):\n"
               "        return f'LweSecretKey(dim={self.dim})'\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_suppression_honored(self):
        src = ("def debug(sk):\n"
               "    # heaplint: disable=HL004 test vector, not a real key\n"
               "    return f'key={sk.coeffs}'\n")
        assert analyze_source(src, COLD_PATH) == []


class TestHl004SeedHygiene:
    """Key seeds reconstruct the full key from the stored b-halves, so
    HL004 treats them exactly like secret-key coefficients."""

    def test_flags_mask_seed_fstring_leak(self):
        src = ("def debug(mask_seed):\n"
               "    return f'seed={mask_seed}'\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL004"]

    def test_flags_derive_seed_result_in_exception(self):
        src = ("from repro.math.sampling import derive_seed\n\n"
               "def gen(master, i):\n"
               "    s = derive_seed(master, 'brk', i)\n"
               "    raise ValueError('bad seed %d' % s)\n")
        found = codes(analyze_source(src, COLD_PATH))
        assert found and set(found) == {"HL004"}

    def test_flags_key_seed_logging_leak(self):
        src = ("import logging\n\n"
               "def trace(key_seed):\n"
               "    logging.info('expanding %s', key_seed)\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL004"]

    def test_plain_seed_name_clean(self):
        # Samplers take public seeds everywhere; only key-scoped seed
        # names are secrets.
        src = ("def run(seed):\n"
               "    return f'run with seed={seed}'\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_flags_seed_field_dataclass_without_redaction(self):
        src = ("from dataclasses import dataclass\n\n"
               "@dataclass\n"
               "class SwitchingMaterial:\n"
               "    bodies: object\n"
               "    key_seed: int = 0\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL004"]

    def test_seed_field_with_repr_false_clean(self):
        src = ("from dataclasses import dataclass, field\n\n"
               "@dataclass\n"
               "class SwitchingMaterial:\n"
               "    bodies: object\n"
               "    key_seed: int = field(default=0, repr=False)\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_seed_dataclass_with_custom_repr_clean(self):
        src = ("from dataclasses import dataclass\n\n"
               "@dataclass\n"
               "class SwitchingMaterial:\n"
               "    key_seed: int = 0\n\n"
               "    def __repr__(self):\n"
               "        return 'SwitchingMaterial(<redacted>)'\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_seed_suppression_honored(self):
        src = ("def debug(mask_seed):\n"
               "    # heaplint: disable=HL004 fixture seed, not a real key\n"
               "    return f'seed={mask_seed}'\n")
        assert analyze_source(src, COLD_PATH) == []


class TestHl005ParamConstruction:
    def test_flags_non_power_of_two_n(self):
        src = ("from repro.params import CkksParams\n\n"
               "P = CkksParams(n=24, moduli=[97], special_moduli=[],"
               " scale_bits=10)\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL005"]

    def test_flags_non_ntt_friendly_modulus(self):
        # 97 % 128 != 1, so 97 has no 128th root of unity for N=64.
        src = ("from repro.params import CkksParams\n\n"
               "P = CkksParams(n=64, moduli=[97], special_moduli=[],"
               " scale_bits=10)\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL005"]

    def test_valid_literals_clean(self):
        # 257 = 2 * 128 + 1 is NTT-friendly for N=64.
        src = ("from repro.params import CkksParams\n\n"
               "P = CkksParams(n=64, moduli=[257], special_moduli=[],"
               " scale_bits=10)\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_non_literal_arguments_clean(self):
        src = ("from repro.params import TfheParams\n\n"
               "def build(n, primes):\n"
               "    return TfheParams(n_t=10, n=n, q=primes[0],"
               " aux_prime=primes[1])\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_params_module_itself_exempt(self):
        src = ("P = CkksParams(n=24, moduli=[97], special_moduli=[],"
               " scale_bits=10)\n")
        assert analyze_source(src, "src/repro/params.py") == []

    def test_suppression_honored(self):
        src = ("from repro.params import TfheParams\n\n"
               "import pytest\n\n"
               "def test_rejects():\n"
               "    with pytest.raises(ValueError):\n"
               "        TfheParams(n_t=10, n=24, q=97, aux_prime=193)"
               "  # heaplint: disable=HL005 intentionally invalid\n")
        assert analyze_source(src, COLD_PATH) == []


class TestHl101SharedMutableState:
    """Unlocked writes to module-level mutable state on concurrent paths
    — the PR-7 engine-cache race, reduced to fixtures."""

    UNLOCKED = (
        "import threading\n\n"
        "_CACHE = {}\n\n"
        "def get_engine(key):\n"
        "    eng = _CACHE.get(key)\n"
        "    if eng is None:\n"
        "        eng = object()\n"
        "        _CACHE[key] = eng\n"
        "    return eng\n\n"
        "def worker():\n"
        "    get_engine(1)\n\n"
        "def serve():\n"
        "    t = threading.Thread(target=worker)\n"
        "    t.start()\n")

    def test_flags_unlocked_cache_write_on_thread_path(self):
        found = analyze_source(self.UNLOCKED, COLD_PATH)
        assert codes(found) == ["HL101"]
        assert "_CACHE" in found[0].message
        assert "thread" in found[0].message

    def test_flags_write_reachable_from_async_entry(self):
        src = ("_STATS = {}\n\n"
               "def record(key):\n"
               "    _STATS[key] = _STATS.get(key, 0) + 1\n\n"
               "async def handle(request):\n"
               "    record(request)\n")
        found = analyze_source(src, COLD_PATH)
        assert codes(found) == ["HL101"]
        assert "async" in found[0].message

    def test_flags_mutator_method_call(self):
        src = ("import threading\n\n"
               "_LOG = []\n\n"
               "def worker():\n"
               "    _LOG.append(1)\n\n"
               "def serve():\n"
               "    threading.Thread(target=worker).start()\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL101"]

    def test_double_checked_lock_clean(self):
        src = ("import threading\n\n"
               "_CACHE = {}\n"
               "_LOCK = threading.Lock()\n\n"
               "def get_engine(key):\n"
               "    eng = _CACHE.get(key)\n"
               "    if eng is None:\n"
               "        with _LOCK:\n"
               "            eng = _CACHE.get(key)\n"
               "            if eng is None:\n"
               "                eng = object()\n"
               "                _CACHE[key] = eng\n"
               "    return eng\n\n"
               "def worker():\n"
               "    get_engine(1)\n\n"
               "def serve():\n"
               "    threading.Thread(target=worker).start()\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_unreachable_write_clean(self):
        """Same cache, but nothing threaded or async reaches it."""
        src = ("_CACHE = {}\n\n"
               "def get_engine(key):\n"
               "    eng = _CACHE.get(key)\n"
               "    if eng is None:\n"
               "        eng = object()\n"
               "        _CACHE[key] = eng\n"
               "    return eng\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_threadsafe_waiver_on_definition(self):
        src = ("import threading\n\n"
               "_STATS = {}  # heaplint: threadsafe append-only counters,"
               " torn reads acceptable\n\n"
               "def worker():\n"
               "    _STATS[1] = 1\n\n"
               "def serve():\n"
               "    threading.Thread(target=worker).start()\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_threadsafe_waiver_on_write_line(self):
        src = ("import threading\n\n"
               "_STATS = {}\n\n"
               "def worker():\n"
               "    # heaplint: threadsafe single writer, readers tolerate"
               " stale values\n"
               "    _STATS[1] = 1\n\n"
               "def serve():\n"
               "    threading.Thread(target=worker).start()\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_threadsafe_waiver_without_reason_reported(self):
        src = "_STATS = {}  # heaplint: threadsafe\n"
        assert codes(analyze_source(src, COLD_PATH)) == [BAD_SUPPRESSION_CODE]

    def test_disable_suppression_honored(self):
        src = ("import threading\n\n"
               "_CACHE = {}\n\n"
               "def worker():\n"
               "    _CACHE[1] = 1  # heaplint: disable=HL101 bench-only"
               " single thread\n\n"
               "def serve():\n"
               "    threading.Thread(target=worker).start()\n")
        assert analyze_source(src, COLD_PATH) == []


class TestHl102AsyncHygiene:
    def test_flags_time_sleep_in_async_def(self):
        src = ("import time\n\n"
               "async def poll():\n"
               "    time.sleep(0.1)\n")
        found = analyze_source(src, COLD_PATH)
        assert codes(found) == ["HL102"]
        assert "asyncio.sleep" in found[0].message

    def test_flags_pipe_recv_in_async_def(self):
        src = ("async def pump(conn):\n"
               "    return conn.recv()\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL102"]

    def test_flags_direct_fanout_in_async_def(self):
        src = ("async def run(executor, tasks):\n"
               "    return executor.fanout(tasks)\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL102"]

    def test_flags_sync_lock_across_await(self):
        src = ("import threading\n\n"
               "_LOCK = threading.Lock()\n\n"
               "async def handle(queue):\n"
               "    with _LOCK:\n"
               "        item = await queue.get()\n"
               "    return item\n")
        found = analyze_source(src, COLD_PATH)
        assert codes(found) == ["HL102"]
        assert "asyncio.Lock" in found[0].message

    def test_flags_never_awaited_coroutine(self):
        src = ("async def flush():\n"
               "    pass\n\n"
               "def shutdown():\n"
               "    flush()\n")
        found = analyze_source(src, COLD_PATH)
        assert codes(found) == ["HL102"]
        assert "never awaited" in found[0].message

    def test_asyncio_sleep_clean(self):
        src = ("import asyncio\n\n"
               "async def poll():\n"
               "    await asyncio.sleep(0.1)\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_async_with_asyncio_lock_clean(self):
        src = ("async def handle(entry, queue):\n"
               "    async with entry.lock:\n"
               "        item = await queue.get()\n"
               "    return item\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_blocking_call_in_nested_sync_def_clean(self):
        """A sync helper defined inside a coroutine runs wherever it is
        called (e.g. shipped to a worker thread) — not on the loop."""
        src = ("import time\n\n"
               "import asyncio\n\n"
               "async def run():\n"
               "    def blocking():\n"
               "        time.sleep(1)\n"
               "        return 3\n"
               "    return await asyncio.to_thread(blocking)\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_create_task_not_flagged_as_dropped(self):
        src = ("import asyncio\n\n"
               "async def flush():\n"
               "    pass\n\n"
               "def kick(loop):\n"
               "    asyncio.create_task(flush())\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_method_start_on_foreign_object_clean(self):
        """`proc.start()` must not match an unrelated `async def start`
        elsewhere (Process.start vs a service's coroutine)."""
        src = ("from multiprocessing import Process\n\n"
               "class Service:\n"
               "    async def start(self):\n"
               "        pass\n\n"
               "def spawn(main):\n"
               "    proc = Process(target=main)\n"
               "    proc.start()\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_suppression_honored(self):
        src = ("import time\n\n"
               "async def poll():\n"
               "    time.sleep(0.1)  # heaplint: disable=HL102 startup"
               " probe, loop not yet serving\n")
        assert analyze_source(src, COLD_PATH) == []


class TestHl103ProcessPayload:
    def test_flags_lambda_process_target(self):
        src = ("from multiprocessing import Process\n\n"
               "def spawn():\n"
               "    return Process(target=lambda: None)\n")
        found = analyze_source(src, COLD_PATH)
        assert codes(found) == ["HL103"]
        assert "lambda" in found[0].message

    def test_flags_nested_function_target(self):
        src = ("from multiprocessing import Process\n\n"
               "def spawn(manifest):\n"
               "    def helper():\n"
               "        return manifest\n"
               "    return Process(target=helper)\n")
        found = analyze_source(src, COLD_PATH)
        assert codes(found) == ["HL103"]
        assert "closure" in found[0].message

    def test_flags_open_handle_in_args(self):
        src = ("from multiprocessing import Process\n\n"
               "def spawn(main, path):\n"
               "    fh = open(path)\n"
               "    return Process(target=main, args=(fh, 3))\n")
        found = analyze_source(src, COLD_PATH)
        assert codes(found) == ["HL103"]
        assert "file handle" in found[0].message

    def test_flags_object_dtype_publish(self):
        src = ("import numpy as np\n\n"
               "def publish(publish_fn):\n"
               "    wide = np.empty(4, dtype=object)\n"
               "    return publish_shared_arrays({'key': wide})\n")
        found = analyze_source(src, COLD_PATH)
        assert codes(found) == ["HL103"]
        assert "object-dtype" in found[0].message

    def test_flags_lambda_over_connection(self):
        src = ("def reply(conn):\n"
               "    handler = lambda x: x\n"
               "    conn.send(handler)\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL103"]

    def test_module_level_target_and_plain_data_clean(self):
        src = ("from multiprocessing import Process\n\n"
               "def worker_main(conn, wid, manifest):\n"
               "    pass\n\n"
               "def spawn(conn, manifest):\n"
               "    return Process(target=worker_main,"
               " args=(conn, 0, manifest))\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_builtin_map_with_lambda_clean(self):
        """Plain builtin map is in-process; only pool.map crosses."""
        src = ("def scale(xs):\n"
               "    return list(map(lambda x: 2 * x, xs))\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_pool_map_with_lambda_flagged(self):
        src = ("def fan(pool, xs):\n"
               "    return pool.map(lambda x: 2 * x, xs)\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL103"]

    def test_suppression_honored(self):
        src = ("from multiprocessing import Process\n\n"
               "def spawn():\n"
               "    return Process(target=lambda: None)"
               "  # heaplint: disable=HL103 fork-only test helper\n")
        assert analyze_source(src, COLD_PATH) == []


class TestHl104SharedArrayAliasing:
    def test_flags_subscript_write_into_attached_view(self):
        src = ("def worker(manifest):\n"
               "    block, views = attach_shared_arrays(manifest)\n"
               "    views['key'][0] = 1\n")
        found = analyze_source(src, COLD_PATH)
        assert codes(found) == ["HL104"]
        assert "attach_shared_arrays" in found[0].message

    def test_flags_write_through_alias(self):
        src = ("def worker(manifest):\n"
               "    block, views = attach_shared_arrays(manifest)\n"
               "    key = views['key']\n"
               "    key[0, 0] = 7\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL104"]

    def test_flags_augmented_assignment(self):
        src = ("def worker(manifest):\n"
               "    block, views = attach_shared_arrays(manifest)\n"
               "    tv = views['tv']\n"
               "    tv += 1\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL104"]

    def test_flags_out_kwarg(self):
        src = ("import numpy as np\n\n"
               "def worker(manifest, a, b):\n"
               "    block, views = attach_shared_arrays(manifest)\n"
               "    v = views['key']\n"
               "    np.add(a, b, out=v)\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL104"]

    def test_flags_loop_variable_write(self):
        src = ("def worker(manifest):\n"
               "    block, views = attach_shared_arrays(manifest)\n"
               "    for v in views:\n"
               "        v[0] = 0\n")
        assert codes(analyze_source(src, COLD_PATH)) == ["HL104"]

    def test_setflags_freeze_discharges(self):
        """Per the rule contract, a view explicitly frozen read-only is
        no longer an aliasing hazard (the write would raise loudly)."""
        src = ("def worker(manifest):\n"
               "    block, views = attach_shared_arrays(manifest)\n"
               "    v = views['key']\n"
               "    v.setflags(write=False)\n"
               "    v[0] = 1\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_copy_then_write_clean(self):
        src = ("def worker(manifest):\n"
               "    block, views = attach_shared_arrays(manifest)\n"
               "    scratch = views['key'].copy()\n"
               "    scratch[0] = 1\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_reads_clean(self):
        src = ("def worker(manifest):\n"
               "    block, views = attach_shared_arrays(manifest)\n"
               "    total = views['key'].sum() + views['tv'][0]\n"
               "    return total\n")
        assert analyze_source(src, COLD_PATH) == []

    def test_suppression_honored(self):
        src = ("def worker(manifest):\n"
               "    block, views = attach_shared_arrays(manifest)\n"
               "    views['scratch'][0] = 1  # heaplint: disable=HL104"
               " worker-owned scratch protocol\n")
        assert analyze_source(src, COLD_PATH) == []


class TestSuppressionSyntax:
    def test_standalone_comment_covers_next_code_line(self):
        src = ("import numpy as np\n\n"
               "# heaplint: disable=HL001 exact reference path\n"
               "acc = np.zeros(8, dtype=object)\n")
        assert analyze_source(src, HOT_PATH) == []

    def test_missing_reason_is_reported(self):
        src = ("import numpy as np\n\n"
               "acc = np.zeros(8, dtype=object)  # heaplint: disable=HL001\n")
        found = analyze_source(src, HOT_PATH)
        assert BAD_SUPPRESSION_CODE in codes(found)
        # The unsuppressed HL001 finding survives too.
        assert "HL001" in codes(found)

    def test_wrong_code_does_not_suppress(self):
        src = ("import numpy as np\n\n"
               "acc = np.zeros(8, dtype=object)"
               "  # heaplint: disable=HL005 wrong code entirely\n")
        assert "HL001" in codes(analyze_source(src, HOT_PATH))

    def test_multi_code_suppression(self):
        src = ("import numpy as np\n\n"
               "def f(ntt, a, b):\n"
               "    ae = ntt.forward(a)\n"
               "    bc = ntt.inverse(b)\n"
               "    out = np.asarray(ae * bc, dtype=object)"
               "  # heaplint: disable=HL001,HL003 composed reference\n"
               "    return out\n")
        assert analyze_source(src, HOT_PATH) == []

    def test_syntax_error_reported_not_raised(self):
        found = analyze_source("def broken(:\n", COLD_PATH)
        assert codes(found) == [BAD_SUPPRESSION_CODE]


class TestBaseline:
    SRC = ("import numpy as np\n\n"
           "a = np.zeros(8, dtype=object)\n"
           "b = np.zeros(8, dtype=object)\n")

    def test_fingerprint_ignores_line_numbers(self):
        one = analyze_source("import numpy as np\n\n"
                             "a = np.zeros(8, dtype=object)\n", HOT_PATH)
        two = analyze_source("import numpy as np\n\n\n\n"
                             "a = np.zeros(8, dtype=object)\n", HOT_PATH)
        assert one[0].fingerprint() == two[0].fingerprint()
        assert one[0].line != two[0].line

    def test_filter_new_subtracts_counts(self, tmp_path):
        findings = analyze_source(self.SRC, HOT_PATH)
        assert len(findings) == 2
        path = tmp_path / "baseline.json"
        Baseline.dump(findings, path)
        assert Baseline.load(path).filter_new(findings) == []

    def test_extra_identical_offence_still_fails(self, tmp_path):
        findings = analyze_source(self.SRC, HOT_PATH)
        path = tmp_path / "baseline.json"
        Baseline.dump(findings[:1], path)
        fresh = Baseline.load(path).filter_new(findings)
        # a=... is baselined; b=... has a different snippet, so it stays.
        assert len(fresh) == 1


class TestCli:
    BAD = ("from repro.params import CkksParams\n\n"
           "P = CkksParams(n=24, moduli=[97], special_moduli=[],"
           " scale_bits=10)\n")

    def test_exit_1_on_new_finding(self, tmp_path, capsys):
        target = tmp_path / "bad_params.py"
        target.write_text(self.BAD)
        assert lint_main([str(target), "--no-baseline"]) == 1
        assert "HL005" in capsys.readouterr().out

    def test_update_then_pass_with_baseline(self, tmp_path, capsys):
        target = tmp_path / "bad_params.py"
        target.write_text(self.BAD)
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(target), "--baseline", str(baseline),
                          "--update-baseline"]) == 0
        assert baseline.exists()
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_exit_2_on_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope"), "--no-baseline"]) == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("HL001", "HL002", "HL003", "HL004", "HL005",
                     "HL101", "HL102", "HL103", "HL104"):
            assert code in out

    def test_sarif_output(self, tmp_path, capsys):
        import json

        target = tmp_path / "bad_params.py"
        target.write_text(self.BAD)
        assert lint_main([str(target), "--no-baseline",
                          "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "heaplint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"HL001", "HL101", "HL102", "HL103", "HL104"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "HL005"
        assert result["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"].endswith("bad_params.py")
        assert "heaplint/v1" in result["partialFingerprints"]

    def test_sarif_clean_tree_is_valid_empty_run(self, tmp_path, capsys):
        import json

        target = tmp_path / "fine.py"
        target.write_text("x = 1\n")
        assert lint_main([str(target), "--no-baseline",
                          "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


class TestRepoSmoke:
    def test_repository_tree_is_clean(self):
        """The shipped tree must carry zero unsuppressed findings — the
        CI lint job enforces exactly this (modulo the baseline, which is
        empty)."""
        root = Path(__file__).resolve().parents[1]
        findings = analyze_paths(
            [root / "src", root / "tests", root / "benchmarks"], root=root)
        assert findings == [], "\n".join(f.render() for f in findings)
