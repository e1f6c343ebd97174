"""Load generators: a closed loop (each client resubmits on completion)
and an open loop (seeded exponential arrivals on a fixed schedule,
regardless of completions), with one way of accounting for outcomes.

``submit(i)`` is a coroutine function issuing request number ``i`` and
returning its result; ``check(i, result)`` says whether the result is
right and runs after the request's clock has stopped.  A request that
raises (``ServiceOverloadError`` included) or fails its check is a
*failed* request: it contributes no latency sample and misses any limit.
"""

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, List, Optional, Tuple

import numpy as np

Submit = Callable[[int], Awaitable[Any]]
Check = Callable[[int, Any], bool]


@dataclass
class Outcome:
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    #: Latency of each succeeded request (from its due time when the
    #: loop is open, from its submission otherwise), seconds.
    latencies: List[float] = field(default_factory=list)
    #: (request number, start, end) of every succeeded request.
    intervals: List[Tuple[int, float, float]] = field(default_factory=list)
    #: How late each open-loop request was sent, seconds.
    lags: List[float] = field(default_factory=list)
    started: float = 0.0
    #: When the last request returned.
    ended: float = 0.0
    #: Seconds from the start of each window to its last completion.
    elapsed: float = 0.0
    first_error: Optional[str] = None

    def merge(self, other: "Outcome") -> None:
        """Fold a later window of the same workload into this one."""
        self.sent += other.sent
        self.succeeded += other.succeeded
        self.failed += other.failed
        self.latencies += other.latencies
        self.intervals += other.intervals
        self.lags += other.lags
        self.elapsed += other.elapsed
        self.first_error = self.first_error or other.first_error

    @property
    def throughput_rps(self) -> float:
        return self.succeeded / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def failed_share(self) -> float:
        return self.failed / self.sent if self.sent else 0.0

    def within_limit_share(self, limit_s: float) -> float:
        """Share of requests *sent* that returned a right result within
        the limit; failures are misses."""
        if not self.sent:
            return 0.0
        return sum(1 for lat in self.latencies if lat <= limit_s) / self.sent


async def _one(out: Outcome, submit: Submit, check: Check, i: int,
               start: float) -> None:
    out.sent += 1
    try:
        result = await submit(i)
    except Exception as exc:  # a refused or crashed request is a failed request
        end = time.perf_counter()
        out.failed += 1
        out.first_error = out.first_error or repr(exc)
    else:
        end = time.perf_counter()
        if check(i, result):
            out.succeeded += 1
            out.latencies.append(end - start)
            out.intervals.append((i, start, end))
        else:
            out.failed += 1
            out.first_error = out.first_error or f"request {i}: wrong result"
    out.ended = max(out.ended, end)


async def closed_loop(submit: Submit, check: Check, clients: int,
                      seconds: float, first: int = 0) -> Outcome:
    """``clients`` callers, each sending its next request when the last
    returned; no request starts after ``seconds``, and the window ends
    when the last one returns.  Request numbers count up from ``first``
    in issue order."""
    out = Outcome(started=time.perf_counter())
    deadline = out.started + seconds
    counter = first

    async def client() -> None:
        nonlocal counter
        while True:
            now = time.perf_counter()
            if now >= deadline:
                return
            i, counter = counter, counter + 1
            await _one(out, submit, check, i, now)

    await asyncio.gather(*[client() for _ in range(clients)])
    out.elapsed = out.ended - out.started
    return out


def due_times(seed: int, rate: float, seconds: float) -> List[float]:
    """Seeded exponential arrivals at ``rate`` per second over ``seconds``."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, int(rate * seconds * 1.5) + 16)
    times = np.cumsum(gaps)
    return [float(t) for t in times[times < seconds]]


async def open_loop(submit: Submit, check: Check, due: List[float],
                    first: int = 0) -> Outcome:
    """Send request ``first + k`` at ``due[k]`` whether or not earlier
    ones returned; each is timed from its due time, so a stalled
    generator or service charges the wait to the requests it delayed."""
    out = Outcome(started=time.perf_counter())
    tasks = []
    for k, offset in enumerate(due):
        target = out.started + offset
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        out.lags.append(max(time.perf_counter() - target, 0.0))
        tasks.append(asyncio.ensure_future(
            _one(out, submit, check, first + k, target)))
    await asyncio.gather(*tasks)
    out.elapsed = out.ended - out.started
    return out
