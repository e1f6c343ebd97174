"""Per-layer numbers that neither the service's traces nor the op
counters give: unit times of the NTT and the gadget decomposition,
micro-timed on the layers' public entry points at the exact tensor
shapes one external product of the fan-out uses.

Multiplied by the exact op counts of a replayed fan-out they give an
*estimated* share of the fan-out — estimated, because a micro-loop runs
cache-warm; the split inside the fan-out stays an estimate until the
program carries its own spans (ROADMAP item 2).
"""

import time
from typing import Callable, Dict

import numpy as np

from repro.math.modular import crt_compose
from repro.math.ntt import get_ntt_engine
from repro.profiling import count_ops

from .stats import median


def _median_seconds(fn: Callable[[], object], budget: float) -> float:
    times = []
    stop = time.perf_counter() + budget
    while len(times) < 3 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def external_product_units(brk, batch: int, budget: float = 0.25) -> Dict[str, float]:
    """NTT points per second and seconds per gadget decomposition for one
    external product over ``batch`` accumulators under ``brk``: per limb
    an inverse transform of the ``(N, batch, h+1)`` accumulator stack
    and a forward transform of its ``(N, batch, h+1, d)`` digit tensor,
    and one ``decompose_tensor`` of the composed ``(N, batch, h+1)``
    integers (object dtype when the basis has several limbs, as in the
    engine)."""
    sample = brk.plus[0]
    n, moduli, gadget = sample.n, list(sample.basis.moduli), brk.gadget
    cols = brk.h + 1
    rng = np.random.default_rng(0)
    engines = [get_ntt_engine(n, q) for q in moduli]
    accs = [rng.integers(0, q, (n, batch, cols)) for q in moduli]
    digits = [rng.integers(0, q, (n, batch, cols, gadget.digits)) for q in moduli]

    def transforms() -> None:
        for eng, acc, dig in zip(engines, accs, digits):
            eng.inverse_axis0(acc)
            eng.forward_axis0(dig)

    with count_ops() as ops:
        transforms()
    ntt_s = _median_seconds(transforms, budget)

    if len(moduli) == 1:
        big = accs[0]
    else:
        big = crt_compose(np.stack([a.astype(object) for a in accs]), moduli)
    decompose_s = _median_seconds(lambda: gadget.decompose_tensor(big), budget)
    return {"ntt.points_per_s": ops.ntt_points / ntt_s,
            "gadget.decompose_s_per_call": decompose_s}
