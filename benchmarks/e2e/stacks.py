"""The two key/parameter stacks the four workloads run on, with their
seeded inputs, reference outputs and output checks.

Keys are part of the workload definition (fixed sampler seeds); every
*input* — plaintexts, ciphertext randomness, request order, arrival
times — derives from the ``--seed`` argument.  References are computed
through the pipeline/executor directly, never through the service, and
outside every timed window.
"""

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.ckks import CkksContext, CkksEvaluator, CkksKeyGenerator
from repro.math.gadget import GadgetVector
from repro.math.modular import find_ntt_primes
from repro.math.rns import RnsBasis
from repro.math.sampling import Sampler
from repro.params import make_toy_params
from repro.profiling import OpStats, count_ops
from repro.service import UserKeys
from repro.service.service import pool_executor_factory
from repro.switching import SwitchingKeySet, luts
from repro.switching.functional import pbs_extract
from repro.switching.pipeline import BootstrapPipeline, BootstrapTrace, LocalExecutor
from repro.tfhe.blind_rotate import BlindRotateKey, build_test_vector
from repro.tfhe.glwe import GlweSecretKey
from repro.tfhe.lwe import LweSecretKey, lwe_encrypt

from .spans import SpanLog

#: Decryption tolerance of tests/test_switching_bootstrap.py.
ALG2_ATOL = 0.05
#: Envelope of benchmarks/bench_functional.py for a decoded LUT output.
PBS_ATOL = 0.45
POOL_WORKERS = 2
LWE_DIM = 8
LWE_INPUTS = 256
LWE_CHECKED = 32
LWE_USERS = 8


@dataclass
class Replay:
    """What one stage replay hands back besides its spans."""

    lwes: List
    lut_id: Optional[str]
    fanout_s: float
    #: Ops counted inside ``executor.fanout`` (empty when the fan-out
    #: ran in pool workers, whose counters the primary cannot see).
    fan_ops: OpStats
    resolve_s: float = 0.0


class BadReference(RuntimeError):
    """A reference output is itself wrong: the run measures nothing."""


def _poly_equal(a, b) -> bool:
    # The NTT is a bijection: limbs in one domain are equal exactly when
    # the polynomials are, so only a domain mismatch needs a transform.
    if a.domain != b.domain:
        a, b = a.to_coeff(), b.to_coeff()
    return all(np.array_equal(x, y) for x, y in zip(a.limbs, b.limbs))


def ct_equal(a, b) -> bool:
    return _poly_equal(a.c0, b.c0) and _poly_equal(a.c1, b.c1)


def glwe_equal(a, b) -> bool:
    return all(_poly_equal(x, y) for x, y in
               zip(list(a.mask) + [a.body], list(b.mask) + [b.body]))


class CiphertextStack:
    """``alg2_solo`` (``pbs=False``: eager keys, in-process executor,
    ``submit_ciphertext``) and ``pbs_pool`` (``pbs=True``: seeded keys,
    two-worker pool executor, ``submit_pbs`` with a threshold LUT)."""

    DISTINCT = 2
    user = "tenant"
    replays = 3
    probe_shape = "small"  # which of probe.SHAPES is this stack's ring

    def __init__(self, pbs: bool, n: int, timings: Dict[str, float]):
        self.pbs = pbs
        params = make_toy_params(n=n, limbs=3, limb_bits=30, scale_bits=23,
                                 special_limbs=2)
        self.ctx = CkksContext(params.ckks, dnum=2)
        self._gen = CkksKeyGenerator(self.ctx, Sampler(7))
        self.sk = self._gen.secret_key()
        t0 = time.perf_counter()
        if pbs:
            self.keys = SwitchingKeySet.generate_seeded(
                self.ctx, self.sk, 20240604, Sampler(9), base_bits=4,
                error_std=0.8)
        else:
            self.keys = SwitchingKeySet.generate(
                self.ctx, self.sk, Sampler(9), base_bits=4, error_std=0.8)
        timings["keys.generate_s"] = time.perf_counter() - t0
        self.user_keys = UserKeys.from_switching(self.ctx, self.keys)
        self.lut = luts.threshold(0.0)
        self.service_kwargs: Dict[str, Any] = {
            "max_batch": self.ctx.n, "max_delay_s": 0.0}
        if pbs:
            self.service_kwargs["executor_factory"] = \
                pool_executor_factory(num_workers=POOL_WORKERS)

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.ev = CkksEvaluator(self.ctx, self._gen.keyset(self.sk),
                                Sampler(seed + 1))
        self.plain, self.inputs = [], []
        for _ in range(self.DISTINCT):
            if self.pbs:
                # Phase-bucket centres well away from the threshold and
                # from the +-N/2 aliasing edge: extraction noise spans a
                # few buckets at toy parameters, and an input *at* the
                # jump would measure the quantiser, not the stack.
                n = self.ctx.n
                q = float(self.ctx.full_basis.moduli[0])
                step = q / (2.0 * n * self.ctx.params.scale)
                lo, hi = max(1, n // 6), max(2, n // 3)
                buckets = rng.integers(lo, hi + 1, n // 2) \
                    * rng.choice([-1, 1], n // 2)
                values = buckets * step
                ct = self.ev.drop_to_level(self.ev.encrypt_coeffs(values), 0)
            else:
                values = rng.uniform(-1, 1, self.ctx.slots)
                ct = self.ev.encrypt(values, level=0)
            self.plain.append(values)
            self.inputs.append(ct)

    async def submit(self, svc, i: int):
        ct = self.inputs[i % self.DISTINCT]
        if self.pbs:
            return await svc.submit_pbs(self.user, ct, self.lut)
        return await svc.submit_ciphertext(self.user, ct)

    def build_references(self) -> None:
        pipe = BootstrapPipeline(self.ctx, self.keys)  # LocalExecutor
        self.references = []
        for ct, values in zip(self.inputs, self.plain):
            if self.pbs:
                ref = pipe.run_pbs(ct, self.lut)
                got = self.ev.decrypt_coeffs_scaled(ref, self.sk)[:len(values)]
                want = np.asarray([self.lut.fn(v) for v in values])
                atol = PBS_ATOL
            else:
                ref = pipe.run(ct)
                got = self.ev.decrypt(ref, self.sk).real
                want, atol = values, ALG2_ATOL
            if np.max(np.abs(got - want)) >= atol:
                raise BadReference(
                    f"reference bootstrap is off by "
                    f"{np.max(np.abs(got - want)):.3f} (atol {atol})")
            self.references.append(ref)

    def check(self, i: int, result) -> bool:
        return ct_equal(result, self.references[i % self.DISTINCT])

    def replay(self, entry, log: SpanLog, k: int, fill: int = 0) -> Replay:
        """One stage replay on the service's own pipeline and executor:
        prepare -> fanout -> complete with a span around each call
        (``fill`` is the LWE stack's knob; a ciphertext fills a batch)."""
        pipe, ct = entry.pipeline, self.inputs[k % self.DISTINCT]
        request = f"replay-{k}"
        trace = BootstrapTrace()
        lut_id, resolve_s = None, 0.0
        with log.span("service.batch", request=request) as batch:
            with log.span("pipeline.prepare", batch, request):
                if self.pbs:
                    t0 = time.perf_counter()
                    lut_id = pipe.resolve_lut(self.lut, ct.scale)
                    resolve_s = time.perf_counter() - t0
                    prep = pipe.prepare_pbs(ct)
                else:
                    prep = pipe.prepare(ct)
            with log.span("executor.fanout", batch, request) as fan, \
                    count_ops() as fan_ops:
                accs = entry.executor.fanout(prep.lwes, trace, lut=lut_id)
            t0 = time.perf_counter()
            result = pipe.complete(prep, accs, trace)
            t1 = time.perf_counter()
            # complete() is one call; BootstrapTrace splits it.
            mid = min(t0 + trace.step_seconds["repack"], t1)
            log.add("pipeline.repack", t0, mid, batch, request)
            log.add("pipeline.finish", mid, t1, batch, request)
        if not self.check(k, result):
            raise BadReference("stage replay disagrees with the reference")
        span = log.spans[fan]
        return Replay(prep.lwes, lut_id, span["end"] - span["start"], fan_ops,
                      resolve_s)

    def time_extract(self) -> float:
        t0 = time.perf_counter()
        pbs_extract(self.inputs[0])
        return time.perf_counter() - t0


class _KeyBox:
    """The executors only need ``.brk`` (as in benchmarks/bench_service.py)."""

    def __init__(self, brk):
        self.brk = brk


class LweStack:
    """``lwe_open`` / ``lwe_sat``: single-LWE requests from eight user
    ids sharing one tenant key — the bench_service.py canonical shape
    (one 28-bit limb, gadget 14 bits x 2, n_t = 8)."""

    user = "user-0"
    replays = 5
    probe_shape = "large"

    def __init__(self, n: int, timings: Dict[str, float]):
        self.n = n
        q = find_ntt_primes(28, n, 1)[0]
        basis = RnsBasis([q])
        gadget = GadgetVector(q=q, base_bits=14, digits=2)
        sampler = Sampler(1234)
        self.lwe_sk = LweSecretKey.generate(LWE_DIM, sampler)
        glwe_sk = GlweSecretKey.generate(n, 1, sampler)
        t0 = time.perf_counter()
        brk = BlindRotateKey.generate(self.lwe_sk, glwe_sk, basis, gadget, sampler)
        timings["keys.generate_s"] = time.perf_counter() - t0

        def g(t: int) -> int:
            return (q // 8) * (1 if t % (2 * n) < n else -1) % q

        self.keys = _KeyBox(brk)
        self.test_vector = build_test_vector(g, n, basis)
        self.user_keys = UserKeys(self.keys, self.test_vector)
        self.service_kwargs: Dict[str, Any] = {
            "max_batch": 32, "max_delay_s": 0.010, "max_queue": 256}

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        sampler = Sampler(seed + 1)
        messages = rng.integers(0, 2 * self.n, LWE_INPUTS)
        self.inputs = [lwe_encrypt(int(m), self.lwe_sk, 2 * self.n, sampler,
                                   error_std=0.5) for m in messages]
        #: Request j carries input ``order[j % 256]`` for user ``j % 8``.
        self.order = rng.permutation(LWE_INPUTS)
        self.checked = sorted(int(i) for i in
                              rng.choice(LWE_INPUTS, LWE_CHECKED, replace=False))

    async def submit(self, svc, i: int):
        return await svc.submit(f"user-{i % LWE_USERS}",
                                self.inputs[self.order[i % LWE_INPUTS]])

    def build_references(self) -> None:
        solo = LocalExecutor(self.keys, self.test_vector)
        self.references = {
            i: solo.fanout([self.inputs[i]], BootstrapTrace())[0]
            for i in self.checked}

    def check(self, i: int, result) -> bool:
        ref = self.references.get(int(self.order[i % LWE_INPUTS]))
        return ref is None or glwe_equal(result, ref)

    def replay(self, entry, log: SpanLog, k: int, fill: int = 32) -> Replay:
        """One stage replay: a batch of ``fill`` inputs through the
        service's own executor (LWE requests have no other stage)."""
        lwes = [self.inputs[self.order[(k * fill + j) % LWE_INPUTS]]
                for j in range(fill)]
        request = f"replay-{k}"
        with log.span("service.batch", request=request) as batch:
            with log.span("executor.fanout", batch, request) as fan, \
                    count_ops() as fan_ops:
                entry.executor.fanout(lwes, BootstrapTrace())
        span = log.spans[fan]
        return Replay(lwes, None, span["end"] - span["start"], fan_ops)


def build(workload: str, smoke: bool, timings: Dict[str, float]):
    if workload in ("alg2_solo", "pbs_pool"):
        return CiphertextStack(workload == "pbs_pool", 1 << (4 if smoke else 5),
                               timings)
    return LweStack(1 << (6 if smoke else 10), timings)
