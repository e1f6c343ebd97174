"""Disturbance probe: fixed bare-numpy work that never touches ``repro``.

Read immediately before and after a workload.  It answers two questions
without looking at the program's own numbers:

* was the machine disturbed while the workload ran (the two readings
  disagree by more than :data:`TOLERANCE`), and
* what do numpy and the memory system deliver here — a textbook
  radix-2 butterfly at the two ring shapes the workloads use and a
  streaming copy far larger than the caches — so that the NTT's rate
  has a machine-level reference next to it.
"""

import time
from typing import Dict

import numpy as np

from .stats import median

#: Two readings further apart than this (relative) mark a disturbed run.
TOLERANCE = 0.10
#: (N, columns, limbs): the ciphertext workloads' 4-limb N=2^5 digit
#: tensor (32 LWEs x 2 components x 30 digits) and the LWE workloads'
#: 1-limb N=2^10 one (32 x 2 x 2).
SHAPES = {"small": (1 << 5, 1920, 4), "large": (1 << 10, 128, 1)}
_Q = np.uint64(268369921)  # a 28-bit NTT prime
#: Source and destination of the streaming copy, MiB each.  The
#: reference box reports a 260 MB (shared) L3; a 1 GiB copy reads the
#: same 16 GB/s there and 128 MiB ones drift upwards, so 256 it is.
COPY_MIB = 256


def _butterfly_pass(data: np.ndarray, twiddles: np.ndarray) -> None:
    """One textbook radix-2 transform over axis 0, reduced with ``%`` at
    every stage.  Compute-bound, so two readings a few seconds apart
    agree within ~3 % on a quiet box; a butterfly without the
    reductions is allocation- and cache-bound and wandered by 15 %,
    which made it useless as a guard.  It is a reference rate, not a
    ceiling: the repo's engine defers reductions and beats it."""
    n = data.shape[0]
    half = 1
    while half < n:
        view = data.reshape(n // (2 * half), 2, half, -1)
        lo, hi = view[:, 0], view[:, 1]
        t = (hi * twiddles[:half, None]) % _Q
        np.subtract(lo + _Q, t, out=hi)
        hi %= _Q
        lo += t
        lo %= _Q
        half *= 2


class Probe:
    def __init__(self, seconds: float = 0.75, copy_mib: int = COPY_MIB):
        self.seconds = seconds
        rng = np.random.default_rng(0)
        self._data = {
            name: [rng.integers(0, int(_Q), (n, cols), dtype=np.uint64)
                   for _ in range(limbs)]
            for name, (n, cols, limbs) in SHAPES.items()}
        self._twiddles = rng.integers(1, int(_Q), 1 << 10, dtype=np.uint64)
        self._src = np.ones((copy_mib << 20) // 8, dtype=np.uint64)
        self._dst = np.empty_like(self._src)
        # First touch (page faults, numpy's buffer pool) is not machine
        # state: pay it here so the first reading compares with the rest.
        np.copyto(self._dst, self._src)
        for limbs in self._data.values():
            _butterfly_pass(limbs[0], self._twiddles)

    def _butterfly_points_per_s(self, name: str, budget: float) -> float:
        limbs = self._data[name]
        points = sum(limb.size for limb in limbs)
        rates = []
        stop = time.perf_counter() + budget
        while len(rates) < 3 or time.perf_counter() < stop:
            t0 = time.perf_counter()
            for limb in limbs:
                _butterfly_pass(limb, self._twiddles)
            rates.append(points / (time.perf_counter() - t0))
        return median(rates)

    def _mem_bw_gbps(self, budget: float) -> float:
        rates = []
        stop = time.perf_counter() + budget
        while len(rates) < 3 or time.perf_counter() < stop:
            t0 = time.perf_counter()
            np.copyto(self._dst, self._src)
            rates.append(2 * self._src.nbytes / (time.perf_counter() - t0) / 1e9)
        return median(rates)

    def read(self) -> Dict[str, float]:
        share = self.seconds / 3
        return {"butterfly_small": self._butterfly_points_per_s("small", share),
                "butterfly_large": self._butterfly_points_per_s("large", share),
                "mem_bw_gbps": self._mem_bw_gbps(share)}


def disturbed(before: Dict[str, float], after: Dict[str, float]) -> bool:
    return any(abs(after[k] - before[k]) / before[k] > TOLERANCE for k in before)
