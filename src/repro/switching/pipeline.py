"""Algorithm 2 as ONE staged pipeline shared by every execution path.

This module is the only place the scheme-switching bootstrap's
arithmetic lives.  Given a level-0 CKKS ciphertext ``ct = (c0, c1)``
modulo the base limb ``q`` with message ``m`` (``|m| << q``), it
produces a ciphertext modulo the full ``Q`` encrypting the same ``m`` —
*without* the linear transforms and sine approximation of conventional
bootstrapping.  Every caller — a solo :meth:`BootstrapPipeline.run`, the
simulated cluster, the process pool, the coalescing service — runs the
same stages and differs solely in the ``Executor`` plugged into the
fan-out::

    ModSwitch -> Extract -> BlindRotateFanout -> Repack -> Finish
    (steps 1-2)  (step 3a)  (step 3b, Executor)  (step 3c)  (steps 4-5)

Correctness sketch (per coefficient, all quantities exact integers;
``phi(x) = c0 + c1*s`` with stored representatives in ``[0, q)``):

* ``phi(ct) = [m]_q + q*K`` for an integer ``K``.
* Step 1: ``ct' = [2N * ct]_q`` so ``phi(ct') = [2N m]_q + q*K'`` with
  ``|K'| <~ ||s||_1`` (a random-walk bound, std ~ sqrt(N/18)).
* Step 2: ``ct_ms = (2N*ct - ct')/q`` is an exact integer ciphertext over
  ``Z_2N`` and ``phi(ct_ms) = J - K' (mod 2N)`` where
  ``J = floor(2N*[m]_centered/q)`` is tiny because ``|m| << q``.
* Step 3: Extract the ``N`` dimension-``N`` LWE ciphertexts of ``ct_ms``
  (Eq. 2), BlindRotate each with the test function ``g(t) = q*t`` (folded
  with ``N^{-1}`` for the repack factor), and repack: the result
  ``ct_kq`` encrypts ``q*(J - K')`` in every coefficient — this is the
  ``-k*q`` term of the paper, computed by table lookup instead of a sine
  polynomial.  Requires ``|J - K'| < N/2`` (checked probabilistically by
  parameters; violated coefficients alias).
* Step 4: ``ct'' = ct_kq + ct' (mod Qp)`` has phase
  ``q(J-K') + 2N m - qJ + qK' = 2N * m`` exactly.
* Step 5: multiply by ``w = (p-1)/2N`` (exact — ``p = 1 (mod 2N)`` for
  every NTT prime) and Rescale by ``p``: the message becomes
  ``m * (p-1)/p ~ m`` over the full basis ``Q``.  One level consumed.

Algorithm 2 as printed blind-rotates at dimension ``N``.  The paper's
key-size story is built on ``n_t = 500``: extracted ciphertexts are
key-switched down to an ``n_t``-dimension key ``s_t`` before blind
rotation, so the blind-rotate key has only ``n_t`` entries (the 1.76 GB
figure).  A key set generated with ``n_t=`` carries that dimension, and
the same stages run as the ``"keyswitched"`` request kind::

    Extract -> LweKeySwitch -> ModSwitch -> BlindRotateFanout -> Repack x2 -> Finish

1. Extract LWE_i (dim ``N``, mod ``q``, key = CKKS secret coefficients)
   for every coefficient ``i`` (Eq. 2).
2. LWE key switch to ``s_t`` (dim ``n_t``, mod ``q``) — the paper's
   "vector of h*N*d LWE ciphertexts" key.
3. Steps 1-2 applied to each LWE: ``ct'_i = [2N ct_i]_q`` and
   ``ct_ms,i = (2N ct_i - ct'_i)/q`` over ``Z_2N``.
4. BlindRotate every ``ct_ms,i`` with the ``n_t``-entry key (RGSW
   encryptions of ``s_t`` digits *under the CKKS secret*, LUT not
   folded with ``N^{-1}``), producing RLWE ciphertexts under ``s``
   encrypting ``q*(J_i - K'_i)``; repack them.
5. The companion term ``phi(ct'_i)`` lives under ``s_t``, so it is
   embedded into ``R_Qp`` under the padded key ``s_t(X)``, packed with
   that key's automorphism keys, and ring-key-switched ``s_t(X) -> s``
   once.
6. Add, multiply by ``(p-1) / (2N * N)`` — exact because the switching
   prime is chosen with ``p = 1 (mod 2 N^2)``, absorbing the repack's
   ``N`` factor — and rescale by ``p``.

Per coefficient: ``N*q*(J_i - K'_i) + N*([2N M_i]_q + q K'_i) = N * 2N *
M_i`` where ``M_i = m_i + e + e_ks`` is the key-switched phase; dividing
by ``2 N^2`` and rescaling leaves ``m_i`` (plus key-switch noise — the
price of the smaller key).

The BlindRotates in step 3 are mutually independent — the parallelism the
whole paper is built on.  :class:`LocalExecutor` runs them as one
in-process batch; the cluster executor
(:class:`repro.switching.cluster_sim.ClusterExecutor`) partitions them
over simulated message-passing nodes with fault detection and recovery;
the process pool (:mod:`repro.switching.mp_executor`) over real cores.
There is one datapath: the batched engines of
:func:`~repro.tfhe.blind_rotate.blind_rotate_batch` and
:func:`~repro.tfhe.repack_with_counters`.  The scalar oracles are plain
functions that ``tests/oracle.py`` composes (only those production
also calls, such as the wide-``q`` fallback ``pbs_extract_reference``,
live in ``src``); every executor is bit-identical to that composition
(``tests/test_conformance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
import math
import time
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from ..ckks.ciphertext import CkksCiphertext
from ..ckks.context import CkksContext
from ..errors import ParameterError
from ..math.rns import RnsBasis, RnsPoly
from ..tfhe import repack_with_counters
from ..tfhe.blind_rotate import blind_rotate_batch, build_test_vector
from ..tfhe.extract import RnsLweCiphertext, embed_lwe, extraction_vector
from ..tfhe.glwe import GlweCiphertext
from ..tfhe.keyswitch import glwe_keyswitch
from ..tfhe.lwe import LweCiphertext, LweKeySwitchKey, lwe_keyswitch
from .functional import pbs_extract
from .luts import LutRegistry


@dataclass
class BootstrapTrace:
    """Step-by-step record of ONE bootstrap execution (drives the
    Figure-1 bench and the scheduler).

    ``repack_keyswitches`` is the *true* keyswitch count sourced from the
    repack engine's counters: ``n - 1`` merge-tree nodes plus one per
    trace level.  ``step_seconds`` holds wall-clock per pipeline stage
    (``extract`` / ``blind_rotate`` / ``repack`` / ``finish``) — the
    Figure-1-style share breakdown — and ``node_seconds`` the fan-out
    stage's per-node share (simulated seconds: measured wall-clock plus
    any injected straggler delay; a local run reports ``{0: t}``).

    Reuse semantics: a trace describes exactly one run — solo or
    coalesced.  :func:`run_batch` **resets every field first** —
    scalars, ``step_seconds``, ``node_seconds`` and ``notes`` alike — so
    counters never mix two runs and ``notes`` cannot grow unboundedly.
    """

    num_lwe: int = 0
    num_blind_rotates: int = 0
    modswitch_ops: int = 0
    repack_keyswitches: int = 0
    repack_merge_keyswitches: int = 0
    repack_trace_keyswitches: int = 0
    step_seconds: Dict[str, float] = field(default_factory=dict)
    #: Fan-out time per node id (simulated: wall-clock + straggler delay).
    node_seconds: Dict[int, float] = field(default_factory=dict)
    #: Recovery re-dispatches performed after a detected node fault.
    fanout_retries: int = 0
    #: LWE ciphertexts re-sent by those re-dispatches.
    fanout_redispatched_lwes: int = 0
    #: Nodes declared dead during the fan-out (crash or timeout).
    failed_nodes: List[int] = field(default_factory=list)
    #: One-time worker-pool spin-up cost amortised over this run's batch
    #: (zero for in-process executors; the multiprocessing pool reports
    #: fork + shared-key-attach + handshake time here).
    pool_spinup_seconds: float = 0.0
    #: Bytes of key material published into shared memory for this run's
    #: executor (zero when keys live in-process).
    shared_key_bytes: int = 0
    #: Dead worker processes respawned during the fan-out.
    worker_respawns: int = 0
    notes: List[str] = field(default_factory=list)

    def reset(self) -> None:
        """Return every field to its default (called on entry by
        :func:`run_batch` so a reused trace records only the latest run)."""
        blank = BootstrapTrace()
        for f in fields(self):
            setattr(self, f.name, getattr(blank, f.name))


# -- stage 1-2: ModSwitch ---------------------------------------------------------


@dataclass(frozen=True)
class ModSwitched:
    """Output of Algorithm 2 steps 1-2 (exact integer identity
    ``2N*x = q*floor(2N*x/q) + [2N*x]_q`` applied componentwise):
    ``(c0', c1')`` are the mod-``q`` remainders kept for the Finish
    stage's step-4 addition, ``(c0_ms, c1_ms)`` the ``Z_2N`` quotient
    ciphertext the LWE extraction consumes."""

    c0_prime: np.ndarray
    c1_prime: np.ndarray
    c0_ms: np.ndarray
    c1_ms: np.ndarray


def mod_switch(ct: CkksCiphertext, two_n: int, q: int) -> ModSwitched:
    """Steps 1-2: split ``2N * ct`` into its mod-``q`` and ``Z_2N`` parts."""
    c0 = np.asarray(ct.c0.to_coeff().limbs[0], dtype=object)
    c1 = np.asarray(ct.c1.to_coeff().limbs[0], dtype=object)
    c0_prime = (two_n * c0) % q
    c1_prime = (two_n * c1) % q
    return ModSwitched(
        c0_prime=c0_prime,
        c1_prime=c1_prime,
        c0_ms=(two_n * c0 - c0_prime) // q,
        c1_ms=(two_n * c1 - c1_prime) // q,
    )


# -- stage 3a: Extract ------------------------------------------------------------


def extract_mod_2n(c1_ms: np.ndarray, c0_ms: np.ndarray, index: int,
                   two_n: int) -> LweCiphertext:
    """Eq. 2 extraction directly over ``Z_2N`` components."""
    a = extraction_vector(c1_ms, index, two_n) % two_n
    return LweCiphertext(a=a.astype(np.int64), b=int(c0_ms[index]) % two_n,
                         q=two_n)


def extract_lwes(ms: ModSwitched, two_n: int) -> List[LweCiphertext]:
    """Step 3a: the ``N`` dimension-``N`` LWE ciphertexts of ``ct_ms``."""
    return [extract_mod_2n(ms.c1_ms, ms.c0_ms, i, two_n)
            for i in range(len(ms.c0_ms))]


# -- the n_t front-end: Extract -> LweKeySwitch -> per-LWE ModSwitch ---------------


def extract_keyswitched(ct: CkksCiphertext, q: int,
                        lwe_ksk: LweKeySwitchKey) -> List[LweCiphertext]:
    """The ``N`` mod-``q`` coefficient LWEs of ``ct`` (Eq. 2), each
    key-switched from dimension ``N`` down to the ``n_t`` of ``lwe_ksk``."""
    c0 = ct.c0.to_coeff().limbs[0]
    c1 = ct.c1.to_coeff().limbs[0]
    return [lwe_keyswitch(LweCiphertext(a=extraction_vector(c1, i, q),
                                        b=int(c0[i]), q=q), lwe_ksk)
            for i in range(len(c0))]


def mod_switch_lwe(lwe: LweCiphertext, two_n: int, raised_basis: RnsBasis
                   ) -> Tuple[LweCiphertext, GlweCiphertext]:
    """Steps 1-2 on one mod-``q`` LWE of dimension ``n_t``: the ``Z_2N``
    quotient ``ct_ms`` the blind rotation consumes, and the mod-``q``
    remainder ``ct'`` embedded as an RLWE over the raised basis under the
    padded ring key ``s_t(X)`` — constant phase coefficient = ``phi(ct')``
    exactly (values are in ``[0, q)`` and embed exactly into the larger
    modulus)."""
    q = lwe.q
    a = np.asarray(lwe.a, dtype=object)
    b = int(lwe.b)
    a_p, b_p = (two_n * a) % q, (two_n * b) % q
    a_ms = ((two_n * a - a_p) // q) % two_n
    b_ms = ((two_n * b - b_p) // q) % two_n
    padded = np.zeros(two_n // 2, dtype=object)
    padded[: len(a_p)] = a_p
    companion = embed_lwe(RnsLweCiphertext(
        a=[np.mod(padded, qi) for qi in raised_basis.moduli],
        b=[int(b_p) % qi for qi in raised_basis.moduli],
        basis=raised_basis))
    return (LweCiphertext(a=a_ms.astype(np.int64), b=int(b_ms), q=two_n),
            companion)


# -- stage 3b: BlindRotateFanout (pluggable) --------------------------------------


class Executor(Protocol):
    """The fan-out stage's execution backend.

    Implementations run the batch of mutually-independent BlindRotates
    and return one accumulator per input LWE, in input order, reporting
    per-node timing (plus any retry activity) on the trace.

    ``lut`` selects the test vector for the whole batch: ``None`` is the
    Algorithm-2 switching vector every executor is constructed with; a
    string is a :class:`~repro.switching.luts.LutRegistry` id resolved
    against the executor's key set (one fan-out tensor shares one test
    vector, which is why the service batches PBS requests per LUT).
    """

    def fanout(self, lwes: Sequence[LweCiphertext],
               trace: BootstrapTrace,
               lut: Optional[str] = None) -> List[GlweCiphertext]:
        ...


def key_registry(keys) -> LutRegistry:
    """The LUT registry of a key set (shared by every programmable
    path: the executors' lookups, ``resolve_lut`` and the service)."""
    luts = getattr(keys, "luts", None)
    if luts is None:
        raise ParameterError(
            "programmable bootstrapping needs a key set with a LUT "
            "registry (a SwitchingKeySet)")
    return luts


class LocalExecutor:
    """The in-process fan-out: the whole batch as one
    :func:`~repro.tfhe.blind_rotate.blind_rotate_batch` call (the paper's
    §IV-E schedule)."""

    def __init__(self, keys, test_vector: RnsPoly):
        self.keys = keys
        self.test_vector = test_vector

    def fanout(self, lwes: Sequence[LweCiphertext],
               trace: BootstrapTrace,
               lut: Optional[str] = None) -> List[GlweCiphertext]:
        tv = self.test_vector if lut is None \
            else key_registry(self.keys).vector(lut)
        t0 = time.perf_counter()
        accs = blind_rotate_batch(tv, lwes, self.keys.brk)
        trace.node_seconds[0] = time.perf_counter() - t0
        return accs


# -- stage 5: Finish --------------------------------------------------------------


def finish(packed: GlweCiphertext, ms: ModSwitched, raised_basis: RnsBasis,
           n: int, two_n: int, scale: float,
           trace: BootstrapTrace) -> CkksCiphertext:
    """Steps 4-5: raise ``ct'`` to ``Qp`` and add, multiply by
    ``w = (p-1)/2N`` (exact: ``p = 1 mod 2N``), rescale by ``p``."""
    ct_prime = GlweCiphertext(
        mask=[RnsPoly.from_int_coeffs(n, raised_basis, ms.c1_prime)],
        body=RnsPoly.from_int_coeffs(n, raised_basis, ms.c0_prime),
    )
    p = raised_basis.moduli[-1]
    w = (p - 1) // two_n
    trace.notes.append(f"rescaled by p={p}, w=(p-1)/2N={w}")
    return _scale_and_rescale(packed + ct_prime, w, scale)


def finish_keyswitched(packed: GlweCiphertext, companion: GlweCiphertext,
                       n: int, scale: float) -> CkksCiphertext:
    """The n_t path's steps 4-5: add the packed companions (already under
    ``s``), multiply by ``w = (p-1)/(2N*N)`` — exact for a switching
    prime ``p = 1 mod 2N^2``, dividing out the ``2N`` of the ModSwitch and
    the ``N`` of the two repacks — and rescale by ``p``."""
    p = packed.body.basis.moduli[-1]
    return _scale_and_rescale(packed + companion, (p - 1) // (2 * n * n),
                              scale)


def _scale_and_rescale(ct: GlweCiphertext, w: int,
                       scale: float) -> CkksCiphertext:
    body = (ct.body * w).rescale_last_limb().to_eval()
    mask = (ct.mask[0] * w).rescale_last_limb().to_eval()
    return CkksCiphertext(c0=body, c1=mask, scale=scale)


def finish_pbs(packed: GlweCiphertext, scale: float) -> CkksCiphertext:
    """The programmable path's Finish: no step-4 addition, no ``w``
    multiply — the LUT already encodes ``f`` at scale ``Delta * p``
    (pre-divided by ``N`` for the repack factor), so finishing is just
    the rescale by ``p`` that drops the raised limb."""
    body = packed.body.rescale_last_limb().to_eval()
    mask = packed.mask[0].rescale_last_limb().to_eval()
    return CkksCiphertext(c0=body, c1=mask, scale=scale)


# -- the pipeline -----------------------------------------------------------------


@dataclass(frozen=True)
class PreparedRequest:
    """Stages 1-3a of one ciphertext, held between ``prepare`` and
    ``complete`` while the fan-out runs — possibly coalesced with other
    requests' LWEs into a single executor batch (``repro.service``).

    ``seconds`` is the ModSwitch+Extract wall-clock (the trace's
    ``extract`` share).

    ``kind`` selects the Finish stage: ``"switching"`` is Algorithm 2
    (step-4 addition against ``ms`` then the ``w``-multiply rescale);
    ``"pbs"`` is the programmable path, whose rounding ModSwitch keeps
    no remainder — ``ms`` is ``None`` and Finish is the bare rescale;
    ``"keyswitched"`` is Algorithm 2 on an n_t key set, whose remainders
    are the per-LWE ``companions`` (RLWEs under the padded ``s_t(X)``)
    that Repack packs and ring-key-switches before the addition."""

    ms: Optional[ModSwitched]
    lwes: List[LweCiphertext]
    scale: float
    seconds: float
    kind: str = "switching"
    companions: Optional[List[GlweCiphertext]] = None


class BootstrapPipeline:
    """Executes Algorithm 2 end to end with a pluggable fan-out executor.

    With ``executor=None`` a :class:`LocalExecutor` is built (the
    single-node path); the cluster simulation and the process pool pass
    their own.  The repack stage runs on the primary either way.

    The per-ciphertext stages are also exposed separately —
    :meth:`prepare` (ModSwitch + Extract) and :meth:`complete`
    (Repack + Finish) — so :func:`run_batch` can run the fan-out stage
    *across* requests: every BlindRotate is independent, so the LWEs of
    many prepared ciphertexts travel through one ``executor.fanout``
    batch and are sliced back per request with bit-identical results
    (the coalescing bootstrap service is built on it).
    """

    def __init__(self, ctx: CkksContext, keys,
                 executor: Optional[Executor] = None):
        self.ctx = ctx
        self.keys = keys
        self.raised_basis = keys.raised_basis
        self.test_vector = keys.test_vector(ctx.n, ctx.full_basis.moduli[0])
        #: Whether the key set key-switches extracted LWEs down to n_t
        #: before blind rotation.  Read with a default: ``.brk``-only key
        #: boxes have no n_t fields.
        self.keyswitched = getattr(keys, "keyswitched", False)
        self.executor: Executor = executor if executor is not None else \
            LocalExecutor(keys, self.test_vector)

    def validate(self, ct: CkksCiphertext, pbs: bool = False) -> None:
        """The one input check, run by :meth:`prepare`, :meth:`prepare_pbs`
        and the service before it queues a request (inside a coalesced
        batch a bad input would fail every request batched with it):
        level 0, this context's ring size and base modulus, and no PBS
        over an n_t key set."""
        if pbs and self.keyswitched:
            raise ParameterError(
                "programmable bootstrapping over an n_t key set is not "
                "implemented — use a dimension-N SwitchingKeySet")
        n, q = self.ctx.n, self.ctx.full_basis.moduli[0]
        if ct.level != 0 or ct.n != n or ct.basis.moduli[0] != q:
            raise ParameterError(
                f"bootstrap consumes a level-0 ciphertext of ring size {n} "
                f"mod {q}, got level {ct.level}, ring size {ct.n} mod "
                f"{ct.basis.moduli[0]}")

    def prepare(self, ct: CkksCiphertext) -> PreparedRequest:
        """Stages ModSwitch + Extract (steps 1-3a) for one ciphertext."""
        self.validate(ct)
        two_n = 2 * self.ctx.n
        q = ct.basis.moduli[0]
        t0 = time.perf_counter()
        if self.keyswitched:
            switched = [mod_switch_lwe(lwe, two_n, self.raised_basis)
                        for lwe in extract_keyswitched(ct, q, self.keys.lwe_ksk)]
            return PreparedRequest(
                ms=None, lwes=[lwe for lwe, _ in switched], scale=ct.scale,
                seconds=time.perf_counter() - t0, kind="keyswitched",
                companions=[comp for _, comp in switched])
        ms = mod_switch(ct, two_n, q)
        lwes = extract_lwes(ms, two_n)
        return PreparedRequest(ms=ms, lwes=lwes, scale=ct.scale,
                               seconds=time.perf_counter() - t0)

    def prepare_pbs(self, ct: CkksCiphertext) -> PreparedRequest:
        """The programmable path's ModSwitch + Extract: the ``N``
        coefficient-wise LWEs of ``ct`` under the *rounding* modswitch to
        ``Z_2N`` (``(a*2N + q/2) // q``), which keeps no mod-``q``
        remainder — the LUT's Finish has no step-4 addition to make."""
        self.validate(ct, pbs=True)
        t0 = time.perf_counter()
        lwes = pbs_extract(ct)
        return PreparedRequest(ms=None, lwes=lwes, scale=ct.scale,
                               seconds=time.perf_counter() - t0, kind="pbs")

    def resolve_lut(self, f, scale: float) -> str:
        """Resolve a function / :class:`~repro.switching.luts.LutSpec` /
        workload name into a built-and-cached LUT id on this pipeline's
        key registry (ready for ``executor.fanout(..., lut=id)``)."""
        return key_registry(self.keys).resolve(
            f, self.ctx.n, self.ctx.full_basis.moduli[0], scale)

    def complete(self, prep: PreparedRequest, accs: Sequence[GlweCiphertext],
                 trace: BootstrapTrace) -> CkksCiphertext:
        """Stages Repack + Finish (steps 3c-5) for one prepared request's
        own accumulators (exactly ``len(prep.lwes)`` of them, in extract
        order).  Counters and step timings *accumulate* onto ``trace`` so
        several completions can share one coalesced-run trace.  The
        Finish stage follows ``prep.kind`` — switching and PBS requests
        can ride through the same coalesced fan-out."""
        n = self.ctx.n
        t2 = time.perf_counter()
        packed = self._repack(list(accs), self.keys.auto_keys, trace)
        if prep.kind == "keyswitched":
            # The companions sit under the padded s_t(X): pack them with
            # that key's automorphism keys, then ONE ring key switch to s.
            packed_st = self._repack(prep.companions, self.keys.auto_keys_st,
                                     trace)
            companion = glwe_keyswitch(packed_st.mask[0], packed_st.body,
                                       self.keys.ring_ksk)
            trace.repack_keyswitches += 1
            t3 = time.perf_counter()
            out = finish_keyswitched(packed, companion, n, prep.scale)
        else:
            t3 = time.perf_counter()
            if prep.kind == "pbs":
                out = finish_pbs(packed, prep.scale)
            else:
                out = finish(packed, prep.ms, self.raised_basis, n, 2 * n,
                             prep.scale, trace)
        t4 = time.perf_counter()
        step = trace.step_seconds
        step["repack"] = step.get("repack", 0.0) + (t3 - t2)
        step["finish"] = step.get("finish", 0.0) + (t4 - t3)
        return out

    @staticmethod
    def _repack(cts: List[GlweCiphertext], auto_keys,
                trace: BootstrapTrace) -> GlweCiphertext:
        packed, ctr = repack_with_counters(cts, auto_keys)
        trace.repack_merge_keyswitches += ctr.merge_keyswitches
        trace.repack_trace_keyswitches += ctr.trace_keyswitches
        trace.repack_keyswitches += ctr.total_keyswitches
        return packed

    def run(self, ct: CkksCiphertext,
            trace: Optional[BootstrapTrace] = None) -> CkksCiphertext:
        """Refresh a level-0 ciphertext to the top level (minus one)."""
        return run_batch(self.executor, [self.prepare(ct)], trace,
                         pipeline=self)[0]

    def run_pbs(self, ct: CkksCiphertext, f,
                trace: Optional[BootstrapTrace] = None) -> CkksCiphertext:
        """Programmable bootstrap: evaluate ``f`` coefficient-wise on a
        level-0, coefficient-packed ciphertext through the SAME staged
        pipeline as Algorithm 2 — only the ModSwitch/Extract kernel, the
        fan-out's test vector (``f``'s LUT, resolved on the key registry)
        and the Finish stage differ.  ``f`` may be a plain callable, a
        :class:`~repro.switching.luts.LutSpec`, or a workload name
        (``"sign"``, ``"relu"``, ...).  The output is a fresh top-level
        coefficient-packed ciphertext of ``f(values)`` — the LUT
        evaluation refreshes noise as a side effect."""
        lut_id = self.resolve_lut(f, ct.scale)
        return run_batch(self.executor, [self.prepare_pbs(ct)], trace,
                         lut=lut_id, pipeline=self)[0]


def run_batch(executor: Executor,
              items: Sequence[Union[LweCiphertext, PreparedRequest]],
              trace: Optional[BootstrapTrace] = None,
              lut: Optional[str] = None,
              pipeline: Optional[BootstrapPipeline] = None) -> List[Any]:
    """Compose -> ONE ``executor.fanout`` -> slice back: the loop every
    bootstrap runs, solo or coalesced.

    ``items`` are raw LWE ciphertexts (one blind rotation each; the
    reply is the accumulator) and/or :class:`PreparedRequest` items (their
    extracted LWEs ride the same batch; the reply is ``pipeline``'s
    Repack + Finish of their own slice).  The whole batch shares one
    test vector, selected by ``lut``.  Because every BlindRotate is an
    independent exact computation, each reply is bit-identical to a solo
    run of the same item; ``trace`` is reset, then holds the whole run.
    """
    preps = [it for it in items if isinstance(it, PreparedRequest)]
    if preps and pipeline is None:
        raise ParameterError(
            "prepared ciphertext requests need the pipeline that "
            "prepared them to complete")
    trace = trace if trace is not None else BootstrapTrace()
    trace.reset()
    lwes: List[LweCiphertext] = []
    spans: List[Tuple[int, int]] = []
    for item in items:
        part = item.lwes if isinstance(item, PreparedRequest) else [item]
        spans.append((len(lwes), len(lwes) + len(part)))
        lwes.extend(part)
    # ModSwitch touches both components of every extracted coefficient.
    trace.modswitch_ops = sum(2 * len(p.lwes) for p in preps)
    trace.step_seconds["extract"] = sum(p.seconds for p in preps)
    trace.num_lwe = len(lwes)

    t1 = time.perf_counter()
    accs = executor.fanout(lwes, trace, lut=lut)
    trace.num_blind_rotates = len(accs)
    trace.step_seconds["blind_rotate"] = time.perf_counter() - t1

    return [pipeline.complete(item, accs[start:stop], trace)
            if isinstance(item, PreparedRequest) else accs[start]
            for item, (start, stop) in zip(items, spans)]


def expected_k_prime_std(n: int) -> float:
    """Predicted std of the wrap count ``K'`` for a ternary secret.

    Each nonzero secret digit contributes ``+-U(0,1)`` wraps (uniform mask
    residue over ``q``); with density 2/3 the per-term variance is
    ``(2/3) * E[U^2] = 2/9``, so ``std(K') ~ sqrt(2n/9)`` — far below the
    ``N/2`` aliasing bound of the test function for all practical ``n``.
    """
    return math.sqrt(n * 2.0 / 9.0)


def build_switching_test_vector(n: int, q: int, raised: RnsBasis,
                                fold_n_inv: bool = True) -> RnsPoly:
    """The Algorithm-2 LUT: ``g(t) = q * t`` on ``[0, N/2)``,
    anti-periodically extended.  With ``fold_n_inv`` it is pre-multiplied
    by ``N^{-1} mod Qp`` to cancel the repack factor (the n_t kind's
    Finish divides the factor out exactly instead).  Built once per
    key set (:meth:`~repro.switching.keys.SwitchingKeySet.test_vector`)
    and shared by the local executor and every simulated cluster node."""
    big_qp = raised.product
    n_inv = pow(n, -1, big_qp) if fold_n_inv else 1

    def g(t: int) -> int:
        t = t % (2 * n)
        if t < n // 2:
            val = q * t
        elif t < n:
            val = q * (n - t)          # anti-periodic filler
        elif t < 3 * n // 2:
            val = -q * (t - n)
        else:
            val = -q * (n - (t - n))   # = q*(t - 2N) on the wrap side
        return (val * n_inv) % big_qp

    return build_test_vector(g, n, raised)
