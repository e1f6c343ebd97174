"""Programmable-bootstrap LUT registry and workload library.

The fan-out stack used to hard-code ONE blind-rotate test vector — the
Algorithm-2 ``g(t) = q*t`` LUT — at executor construction, which is why
the functional (programmable-bootstrap) path had to fork around it.
This module generalises the "build once per ``(n, q)`` and share"
caching that :meth:`~repro.switching.keys.SwitchingKeySet.test_vector`
provided for that single LUT into a registry of *named* LUTs:

* :class:`LutSpec` names a real function ``f`` so that its built test
  vectors can be cached and referenced across executors by a stable
  string id (the ``lut`` parameter of ``Executor.fanout``);
* :class:`LutRegistry` owns the build cache — one per key set, living on
  ``SwitchingKeySet.luts`` — with the double-checked locking the
  ``BootstrapService`` thread pool requires
  (requests resolve LUTs from ``asyncio.to_thread`` workers);
  :meth:`LutRegistry.built_ids` is the record of what was built;
* the workload library at the bottom is the "functionally complete TFHE
  processor" op catalogue the ROADMAP targets: sign, threshold
  comparison, ReLU, and k-bit quantised activations.

LUT math (shared with the docstring of
:mod:`repro.switching.functional`): bucket ``t`` of the test vector
holds ``p * Delta * f(t_signed * q / (2N * Delta)) * N^{-1} mod Qp``,
anti-periodically symmetrised (``g(t + N) = -g(t)`` — the negacyclic
ring forces it).  The faithful input domain is ``|v| < q / (4 Delta)``;
for odd ``f`` the symmetrisation agrees with ``f`` at the domain edge,
for other functions the edge bucket holds the anti-periodic image (the
"clamp").  :func:`functional_lut_g` exposes the bucket map over plain
integers so the Hypothesis property tests can check those statements
without building ring elements.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Union

from ..errors import ParameterError
from ..math.rns import RnsBasis, RnsPoly
from ..tfhe.blind_rotate import build_test_vector

#: A real function evaluated per coefficient by the programmable bootstrap.
LutFn = Callable[[float], float]


@dataclass(frozen=True)
class LutSpec:
    """A named programmable-bootstrap function.

    The ``name`` is the cache identity: two specs with the same name are
    the same LUT as far as the registry's built-tensor cache and the
    executors' wire/shared-memory caches are concerned (the registry
    rejects re-use of a name with a different function object, so the
    identity cannot silently alias).  Equality/hashing follow the name
    alone — the function is not comparable.
    """

    name: str
    fn: LutFn = field(compare=False)

    def __post_init__(self) -> None:
        if not self.name or "@" in self.name:
            raise ParameterError(
                f"LUT name {self.name!r} must be non-empty and free of '@' "
                f"(reserved for the lut-id encoding)")
        if not callable(self.fn):
            raise ParameterError(f"LUT {self.name!r}: fn must be callable")


def functional_lut_g(fn: LutFn, n: int, q: int, delta: float, p: int,
                     big_qp: int) -> Callable[[int], int]:
    """The bucket map ``t -> g(t)`` over plain integers.

    ``g`` holds ``p * Delta * f(t_signed * step) * N^{-1} mod Qp`` on the
    faithful buckets (``t in [0, N/2)`` for positive inputs, ``t in
    [3N/2, 2N)`` for negative ones) and the anti-periodic image
    ``-g(t - N)`` on the middle — exact for odd functions, a clamp at
    the domain edge otherwise.  Exposed separately from the ring-element
    builder so LUT math is property-testable on integers alone.
    """
    two_n = 2 * n
    n_inv = pow(n, -1, big_qp)
    step = float(q) / (two_n * delta)

    def value(t_signed: int) -> int:
        v = fn(t_signed * step)
        return int(round(v * delta)) * p

    def g(t: int) -> int:
        t = t % two_n
        # Faithful range: t in [0, N/2) -> positive inputs,
        # t in (3N/2, 2N) -> negative inputs; the middle is the
        # anti-periodic image.
        if t < n // 2:
            val = value(t)
        elif t < n:
            val = -value(t - n)          # forced by anti-periodicity
        elif t < 3 * n // 2:
            val = -value(t - n)
        else:
            val = value(t - two_n)
        return (val * n_inv) % big_qp

    return g


def build_functional_lut(fn: LutFn, n: int, q: int, delta: float,
                         raised: RnsBasis) -> RnsPoly:
    """Build the blind-rotate test vector for ``fn`` over the raised
    basis (one N-point NTT per limb — exactly why the registry caches
    the result)."""
    p = raised.moduli[-1]
    g = functional_lut_g(fn, n, q, delta, p, raised.product)
    return build_test_vector(g, n, raised)


#: The Algorithm-2 switching vector's reserved LUT name.
ALGORITHM2 = "algorithm2"


class LutRegistry:
    """Thread-safe cache of built LUT test vectors for one key set.

    The cache key is a string ``lut_id`` that pins everything the built
    tensor depends on: the spec name, the ring degree, the level-0
    modulus, and (for functional LUTs) the CKKS scale.  Executors carry
    only this id across process/wire boundaries; :meth:`vector` is the
    primary-side lookup they serialize/publish from.

    Reads are lock-free on the hit path and re-checked under the lock on
    the miss path (the HL101 double-checked idiom, same as
    ``get_monomial_cache``): the registry is reached concurrently from
    ``BootstrapService``'s ``asyncio.to_thread`` batch workers, and an
    unlocked check-then-act here would build the same N-point-NTT tensor
    twice — or publish two distinct objects for one id.
    """

    def __init__(self, raised_basis: RnsBasis):
        self.raised_basis = raised_basis
        self._lock = threading.Lock()
        #: lut_id -> built test vector (the one shared, immutable copy).
        self._built: Dict[str, RnsPoly] = {}
        #: name -> spec, to reject one name aliasing two functions.
        self._specs: Dict[str, LutSpec] = {}
        #: id(fn) -> auto-named spec for bare callables.
        self._adhoc: Dict[int, LutSpec] = {}
        self._adhoc_counter = 0

    # -- spec resolution -----------------------------------------------------

    def spec_for(self, f: Union[LutSpec, LutFn, str]) -> LutSpec:
        """Normalise a LUT argument — a :class:`LutSpec`, a bare
        callable, or the name of a previously-seen spec — to a spec.

        Bare callables get a stable auto-generated name per function
        *object*, so repeated ``evaluate(ct, relu_fn)`` calls hit the
        same cache entry."""
        if isinstance(f, LutSpec):
            with self._lock:
                existing = self._specs.get(f.name)
                if existing is not None and existing.fn is not f.fn:
                    raise ParameterError(
                        f"LUT name {f.name!r} is already registered with a "
                        f"different function — one name, one LUT")
                self._specs[f.name] = f
            return f
        if isinstance(f, str):
            spec = self._specs.get(f) or WORKLOADS.get(f)
            if spec is None:
                raise ParameterError(
                    f"unknown LUT name {f!r} — register a LutSpec first or "
                    f"use one of the workload library specs "
                    f"({sorted(WORKLOADS)})")
            return spec
        if not callable(f):
            raise ParameterError(
                f"expected a LutSpec, callable, or LUT name, got {type(f)!r}")
        spec = self._adhoc.get(id(f))
        if spec is not None and spec.fn is f:
            return spec
        with self._lock:
            spec = self._adhoc.get(id(f))
            # `is` re-check: id() values recycle once a function is
            # garbage-collected, and a stale entry would alias its LUT.
            if spec is None or spec.fn is not f:
                self._adhoc_counter += 1
                name = getattr(f, "__name__", "lambda")
                spec = LutSpec(name=f"fn{self._adhoc_counter}-{name}", fn=f)
                self._adhoc[id(f)] = spec
                self._specs[spec.name] = spec
            return spec

    # -- build cache ---------------------------------------------------------

    @staticmethod
    def lut_id(spec: LutSpec, n: int, q: int, delta: float) -> str:
        """The cache/wire identity of one built LUT tensor."""
        return f"{spec.name}@n{n}:q{q}:d{float(delta).hex()}"

    def resolve(self, f: Union[LutSpec, LutFn, str], n: int, q: int,
                delta: float) -> str:
        """Build (or fetch) the test vector for ``f`` at ``(n, q, delta)``
        and return its id; :meth:`vector` retrieves the tensor."""
        spec = self.spec_for(f)
        lut_id = self.lut_id(spec, n, q, delta)
        if self._built.get(lut_id) is None:        # lock-free hit path
            with self._lock:
                if self._built.get(lut_id) is None:  # re-check under lock
                    self._built[lut_id] = build_functional_lut(
                        spec.fn, n, q, delta, self.raised_basis)
        return lut_id

    def switching_vector(self, n: int, q: int,
                         fold_n_inv: bool = True) -> RnsPoly:
        """The Algorithm-2 LUT (``g(t) = q*t``, folded with ``N^{-1}``
        unless the key set's Finish divides the repack factor out
        itself), built once per ``(n, q)``; both key-set classes'
        ``test_vector`` delegate here."""
        lut_id = f"{ALGORITHM2}@n{n}:q{q}" + ("" if fold_n_inv else ":unfolded")
        poly = self._built.get(lut_id)             # lock-free hit path
        if poly is None:
            with self._lock:
                poly = self._built.get(lut_id)     # re-check under lock
                if poly is None:
                    # Imported lazily: pipeline imports this module's
                    # consumers, a top-level import would cycle.
                    from .pipeline import build_switching_test_vector

                    poly = build_switching_test_vector(
                        n, q, self.raised_basis, fold_n_inv=fold_n_inv)
                    self._built[lut_id] = poly
        return poly

    def vector(self, lut_id: str) -> RnsPoly:
        """The built tensor for an id previously returned by
        :meth:`resolve` (executors look batches' LUTs up here)."""
        poly = self._built.get(lut_id)
        if poly is None:
            raise ParameterError(
                f"unknown LUT id {lut_id!r} — resolve() it on this "
                f"registry before dispatching")
        return poly

    def built_ids(self) -> list:
        """Ids of every tensor built so far (each is built exactly once)."""
        return sorted(self._built)


# -- the workload library ---------------------------------------------------------
#
# The "Towards a Functionally Complete and Parameterizable TFHE
# Processor" op catalogue: sign, comparison-with-constant, ReLU, and
# quantised activations.  All are LutSpecs so their built tensors cache
# and ship under stable names.


def sign_fn(x: float) -> float:
    return 1.0 if x > 0 else (-1.0 if x < 0 else 0.0)


def relu_fn(x: float) -> float:
    return x if x > 0 else 0.0


def sigmoid_fn(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


SIGN = LutSpec("sign", sign_fn)
RELU = LutSpec("relu", relu_fn)
SIGMOID = LutSpec("sigmoid", sigmoid_fn)


#: Factory memo: the parametrised workloads mint deterministic names,
#: so two ``threshold(0.25)`` calls MUST return the identical spec —
#: otherwise the registry's one-name-one-LUT check would reject the
#: second call's fresh closure as an alias.
_FACTORY_SPECS: Dict[str, LutSpec] = {}


def threshold(c: float, above: float = 1.0, below: float = 0.0) -> LutSpec:
    """Comparison against a plaintext constant: ``x >= c -> above``
    (default 1), else ``below`` (default 0) — the encrypted-predicate
    building block of threshold analytics and decision stumps."""
    name = (f"threshold[{float(c).hex()}:{float(above).hex()}"
            f":{float(below).hex()}]")
    spec = _FACTORY_SPECS.get(name)
    if spec is None:
        def fn(x: float) -> float:
            return above if x >= c else below

        spec = _FACTORY_SPECS.setdefault(name, LutSpec(name, fn))
    return spec


def quantized(base: Union[LutSpec, LutFn], bits: int,
              max_out: float = 1.0) -> LutSpec:
    """A k-bit quantised activation: ``base`` clamped to
    ``[-max_out, max_out]`` and rounded onto ``2^bits`` uniform output
    levels — the fixed-point activations of an encrypted quantised
    neural network.

    Memoised per ``(base spec, bits, max_out)``: repeated calls with
    the same *named* base return the identical spec.  An anonymous
    callable base is keyed by object identity (a fresh lambda is a
    fresh LUT)."""
    if bits < 1:
        raise ParameterError("quantized activation needs bits >= 1")
    base_spec = base if isinstance(base, LutSpec) else \
        LutSpec(getattr(base, "__name__", "fn"), base)
    key = (f"quant{bits}[{base_spec.name}:{float(max_out).hex()}"
           f":{id(base_spec.fn) if not isinstance(base, LutSpec) else ''}]")
    spec = _FACTORY_SPECS.get(key)
    if spec is None:
        q_step = 2.0 * max_out / (1 << bits)

        def fn(x: float) -> float:
            y = min(max(base_spec.fn(x), -max_out), max_out)
            return round(y / q_step) * q_step

        spec = _FACTORY_SPECS.setdefault(key, LutSpec(
            f"quant{bits}[{base_spec.name}:{float(max_out).hex()}]", fn))
    return spec


#: Name -> spec for the fixed members of the catalogue (parametrised
#: members — threshold/quantized — mint their own named specs).
WORKLOADS: Dict[str, LutSpec] = {s.name: s for s in (SIGN, RELU, SIGMOID)}
